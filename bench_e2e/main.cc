// bench_e2e, the end-to-end benchmark program: one run measures one
// workload at one seed.
//
//   bench_e2e --workload paper|wide|wide-full --seed N --seconds S
//             --trace 0|1 [--small] [--fault] [--spans PATH]
//
// --trace 0 (timed) reports the end-to-end metrics, with the library as a
// user gets it: metrics registry and trace recorder off, nothing between
// the engine and its index. --trace 1 (traced) reports per-layer metrics
// from spans this directory records around public library calls. The last
// stdout line is the JSON result. See README.md.

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "linalg/simd.h"
#include "session_loop.h"
#include "spans.h"
#include "workload.h"

namespace qcluster::bench_e2e {
namespace {

#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

// Salts deriving the query and sample streams from the workload seed.
constexpr std::uint64_t kQuerySalt = 0x71756572795f6964ULL;
constexpr std::uint64_t kSampleSalt = 0x73616d706c655f73ULL;
/// Query ids drawn per run; sessions cycle through them.
constexpr int kMaxQueryIds = 20000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool small = false;  ///< Reduced sizes, for the self-test.
  bool fault = false;  ///< Seeded-fault run (see ProbeIndex).
  /// Set by RunTimed for the fresh processes it samples set-up in: set up
  /// once, print the seconds it took, exit.
  bool setup_sample = false;
  std::string spans_path;  ///< Traced runs: where the spans are written.
};

/// Per-run sizes.
struct Sizing {
  /// Sessions every pass runs at least: 1,000 gives each p99 at least ten
  /// samples beyond it, and they are the sessions recall_final averages.
  long min_sessions = 1000;
  /// Sessions (among the first min_sessions) checked against the exact
  /// reference and, traced, probed.
  int sampled_sessions = 24;
  /// Timed set-ups, of which setup_s is the fastest. paper's takes seconds;
  /// wide's and wide-full's a fraction of one, so they take more samples,
  /// one to two seconds of set-up work.
  int setup_samples = 3;
};

Sizing SizingFor(const std::string& workload, bool small) {
  Sizing sizing;
  if (small) {
    sizing.min_sessions = 20;
    sizing.sampled_sessions = 4;
    sizing.setup_samples = 2;
  } else if (workload == "wide") {
    sizing.setup_samples = 15;
  } else if (workload == "wide-full") {
    sizing.setup_samples = 61;
  }
  return sizing;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args->small = true;
      continue;
    }
    if (flag == "--fault") {
      args->fault = true;
      continue;
    }
    if (flag == "--setup-sample") {
      args->setup_sample = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || value[0] == '-') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

/// Nearest-rank quantile; NaN for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : std::nan("");
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintMetricLines(const char* prefix, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-28s %14.6g %s\n", prefix, m.name, m.value, m.unit);
  }
}

/// The result line: one JSON object, every value with all its digits.
void PrintJson(bool correct, long long attempted, long long failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name);
    if (std::isfinite(m.value)) {
      std::printf("%.17g", m.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", m.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// One-time lazy costs a user's process pays before its first answer:
/// spawning the global scan pool and resolving the SIMD dispatch table.
void PayLazyCosts() {
  ThreadPool::Global();
  linalg::simd::Kernels();
}

/// Generates the inputs (untimed), then times what the process pays from
/// them to its first answer: the lazy costs and SetUp. In a fresh process,
/// that is one setup_s sample.
Served TimedSetUp(const Workload& workload, std::uint64_t seed,
                  double* seconds) {
  Inputs inputs = GenerateInputs(workload, seed);
  const std::int64_t start = NowNs();
  PayLazyCosts();
  Served served = SetUp(workload, std::move(inputs), nullptr);
  *seconds = static_cast<double>(NowNs() - start) * 1e-9;
  return served;
}

/// One setup_s sample from a fresh process: this binary re-run with
/// --setup-sample, which prints TimedSetUp's seconds. False, with a
/// message, when the child cannot be run or fails.
bool SampleSetUpInChild(const Args& args, double* seconds) {
  const std::string seed = std::to_string(args.seed);
  std::vector<const char*> argv = {"bench_e2e",          "--workload",
                                   args.workload.c_str(), "--seed",
                                   seed.c_str(),          "--setup-sample"};
  if (args.small) argv.push_back("--small");
  argv.push_back(nullptr);
  int out[2];
  if (pipe(out) != 0) {
    std::perror("bench_e2e: pipe");
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                  const_cast<char* const*>(argv.data()), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  if (spawned == 0) {
    char buffer[256];
    ssize_t got = 0;
    while ((got = read(out[0], buffer, sizeof(buffer))) > 0) {
      text.append(buffer, static_cast<std::size_t>(got));
    }
  }
  close(out[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_e2e: the set-up sample process failed\n");
    return false;
  }
  char* end = nullptr;
  *seconds = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || !(*seconds > 0.0)) {
    std::fprintf(stderr, "bench_e2e: the set-up sample process printed no "
                         "time\n");
    return false;
  }
  return true;
}

LoopConfig MakeLoopConfig(const Served& served, const Args& args,
                          const Sizing& sizing) {
  LoopConfig config;
  config.seconds = args.seconds;
  config.min_sessions = sizing.min_sessions;
  config.max_sessions = LONG_MAX;
  config.recall_sessions = sizing.min_sessions;
  const int n = served.spaces.front().db->size();
  Rng query_rng(args.seed ^ kQuerySalt);
  config.queries = query_rng.SampleWithoutReplacement(
      n, std::min(n, kMaxQueryIds));
  Rng sample_rng(args.seed ^ kSampleSalt);
  for (const int s : sample_rng.SampleWithoutReplacement(
           static_cast<int>(sizing.min_sessions), sizing.sampled_sessions)) {
    config.sampled.insert(s);
  }
  return config;
}

/// The header every result prints: seed, n, d, session count, SIMD tier,
/// global pool size and nproc.
void PrintRunLine(const char* mode, const Args& args, const Served& served,
                  const LoopResult& loop) {
  std::string dims;
  for (const Space& space : served.spaces) {
    if (!dims.empty()) dims += ",";
    dims += std::to_string(space.db->dim());
  }
  std::printf(
      "run workload=%s mode=%s seed=%llu n=%d d=%s sessions=%ld "
      "ended_early=%ld ops=%lld simd=%s pool_threads=%d nproc=%d\n",
      args.workload.c_str(), mode, static_cast<unsigned long long>(args.seed),
      served.spaces.front().db->size(), dims.c_str(), loop.sessions,
      loop.ended_early, loop.attempted,
      linalg::simd::TierName(linalg::simd::ActiveTier()),
      ThreadPool::Global().thread_count(), CpuCount());
}

// Set-up is sampled in fresh processes, so every sample pays the lazy costs
// as a user's process does: this process sets up once (the first sample),
// then runs the sessions in slices, each followed by one more sample in a
// child process. setup_s is the fastest sample. Set-up is fixed work, and
// on a shared host a short set-up runs either at full speed or up to 1.5x
// slower, depending on what shares the core at that moment; the fastest of
// samples spread over the run is its cost at full speed, where the median
// flips between the two speeds from run to run (README.md, Protocol).
int RunTimed(const Args& args, const Workload& workload) {
  const Sizing sizing = SizingFor(args.workload, args.small);
  std::vector<double> samples(1);
  const Served served = TimedSetUp(workload, args.seed, &samples[0]);
  ThreadPool serial(1);
  std::vector<Lane> lanes = MakeLanes(served, &serial, nullptr, args.fault);
  LoopConfig config = MakeLoopConfig(served, args, sizing);
  const int slices = sizing.setup_samples - 1;
  config.seconds = args.seconds / slices;
  LoopResult loop;
  for (int slice = 1; slice <= slices; ++slice) {
    config.first_session = loop.sessions;
    config.min_sessions = (sizing.min_sessions * slice + slices - 1) / slices;
    Append(RunSessions(lanes, config, nullptr), &loop);
    if (!SampleSetUpInChild(args, &samples.emplace_back())) return 1;
  }

  // The BENCHMARK.json metrics, which the JSON result carries.
  const std::vector<Metric> metrics = {
      {"setup_s", *std::min_element(samples.begin(), samples.end()), "s"},
      {"feedback_ms_p50", Quantile(loop.feedback_ms, 0.5), "ms"},
      {"sessions_per_s", Ratio(loop.sessions, loop.active_s), "1/s"},
      {"recall_final", Ratio(loop.recall_sum, loop.recall_count), "fraction"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
  // Printed only (README.md, "End-to-end metrics"): these latencies move
  // with the shared host's load to near or beyond any allowed bound, and
  // failed_frac is 0 on every correct run (the JSON carries failed and
  // attempted instead).
  const std::vector<Metric> report_only = {
      {"initial_ms_p50", Quantile(loop.initial_ms, 0.5), "ms"},
      {"initial_ms_p99", Quantile(loop.initial_ms, 0.99), "ms"},
      {"feedback_ms_p99", Quantile(loop.feedback_ms, 0.99), "ms"},
      {"failed_frac",
       Ratio(static_cast<double>(loop.failed),
             static_cast<double>(loop.attempted)),
       "fraction"},
  };
  PrintRunLine("timed", args, served, loop);
  std::printf("setup samples_s=");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::printf("%s%.4f", i == 0 ? "" : ",", samples[i]);
  }
  std::printf("\nops initial=%zu feedback=%zu\n", loop.initial_ms.size(),
              loop.feedback_ms.size());
  PrintMetricLines("e2e", metrics);
  PrintMetricLines("e2e", report_only);
  PrintJson(loop.failed == 0, loop.attempted, loop.failed, metrics);
  return 0;
}

/// Per-layer totals read back from the spans.
struct LayerSpans {
  long images = 0;
  double render_s = 0.0;
  double color_s = 0.0;
  double glcm_s = 0.0;
  double setup_s = 0.0;       ///< The "setup" root span.
  double collection_s = 0.0;  ///< ImageCollection constructor (paper).
  double build_s = 0.0;       ///< Served ingest calls.
  double reduce_s = 0.0;      ///< FromRawFeatures in the stage re-run.
  double index_build_s = 0.0;
  std::vector<double> feedback_ms;
  std::vector<double> feedback_self_ms;
  std::vector<double> search_ms;  ///< Index calls inside Feedback.
  std::vector<double> initial_search_ms;
  long long search_evals = 0;
  long long search_leaves = 0;
  std::vector<double> judge_us;
  double kernel_s = 0.0;
  long long kernel_points = 0;
};

LayerSpans ReadLayers(const SpanRecorder& recorder) {
  LayerSpans t;
  const std::vector<Span>& spans = recorder.spans();
  const std::vector<std::int64_t> self = recorder.SelfNs();
  const auto is = [](const char* a, const char* b) {
    return std::strcmp(a, b) == 0;
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const char* parent =
        s.parent >= 0 ? spans[static_cast<std::size_t>(s.parent)].name : "";
    const double seconds = static_cast<double>(s.duration_ns()) * 1e-9;
    if (is(s.name, "image.render")) {
      t.render_s += seconds;
      ++t.images;
    } else if (is(s.name, "image.color_moments")) {
      t.color_s += seconds;
    } else if (is(s.name, "image.glcm")) {
      t.glcm_s += seconds;
    } else if (is(s.name, "setup")) {
      t.setup_s += seconds;
    } else if (is(s.name, "dataset.collection")) {
      t.collection_s += seconds;
    } else if (is(s.name, "dataset.build")) {
      t.build_s += seconds;
    } else if (is(s.name, "dataset.from_raw")) {
      (is(parent, "setup") ? t.build_s : t.reduce_s) += seconds;
    } else if (is(s.name, "index.build")) {
      t.index_build_s += seconds;
    } else if (is(s.name, "engine.feedback")) {
      t.feedback_ms.push_back(seconds * 1e3);
      t.feedback_self_ms.push_back(static_cast<double>(self[i]) * 1e-6);
    } else if (is(s.name, "index.search_warm") || is(s.name, "index.search")) {
      if (is(parent, "engine.feedback")) {
        t.search_ms.push_back(seconds * 1e3);
        t.search_evals += s.evals;
        t.search_leaves += s.leaves;
      } else if (is(parent, "engine.initial_query")) {
        t.initial_search_ms.push_back(seconds * 1e3);
      }
    } else if (is(s.name, "eval.judge")) {
      t.judge_us.push_back(seconds * 1e6);
    } else if (is(s.name, "linalg.distance_batch")) {
      t.kernel_s += seconds;
      t.kernel_points += s.evals;
    }
  }
  return t;
}

/// Per span name: count, total and self time.
void PrintSpanSummary(const SpanRecorder& recorder) {
  struct Row {
    long count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  const std::vector<std::int64_t> self = recorder.SelfNs();
  for (std::size_t i = 0; i < recorder.spans().size(); ++i) {
    const Span& s = recorder.spans()[i];
    Row& row = rows[s.name];
    ++row.count;
    row.total_ns += s.duration_ns();
    row.self_ns += self[i];
  }
  std::printf("spans %-24s %9s %14s %14s\n", "name", "count", "total_ms",
              "self_ms");
  for (const auto& [name, row] : rows) {
    std::printf("spans %-24s %9ld %14.3f %14.3f\n", name.c_str(), row.count,
                static_cast<double>(row.total_ns) * 1e-6,
                static_cast<double>(row.self_ns) * 1e-6);
  }
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

int RunTraced(const Args& args, const Workload& workload) {
  const Sizing sizing = SizingFor(args.workload, args.small);
  SpanRecorder spans;
  PayLazyCosts();
  const Served served =
      SetUp(workload, GenerateInputs(workload, args.seed), &spans);
  const bool stages_match = RunStageProbe(workload, served, args.seed, &spans);

  // Two passes over the same sessions: untraced, as in a timed run (its
  // session rate is trace.overhead's numerator), and traced. They alternate
  // in blocks, so drift in the host's speed reaches both alike.
  constexpr long kBlock = 50;
  ThreadPool serial(1);
  std::vector<Lane> bare = MakeLanes(served, &serial, nullptr, false);
  std::vector<Lane> probed = MakeLanes(served, &serial, &spans, args.fault);
  LoopConfig config = MakeLoopConfig(served, args, sizing);
  config.seconds = 0.0;
  LoopResult untraced;
  LoopResult traced;
  const std::int64_t start = NowNs();
  for (long first = 0;
       first < sizing.min_sessions ||
       static_cast<double>(NowNs() - start) * 1e-9 < args.seconds;
       first += kBlock) {
    config.first_session = first;
    config.max_sessions = first + kBlock;
    Append(RunSessions(bare, config, nullptr), &untraced);
    Append(RunSessions(probed, config, &spans), &traced);
  }

  const LayerSpans t = ReadLayers(spans);
  const int n = served.spaces.front().db->size();
  const int k = served.spaces.front().options.k;
  const double images = static_cast<double>(t.images);
  // Serial-equivalent ingest: each paper Build renders every image once and
  // runs one extractor on it; wide* ingest is FromRawFeatures alone.
  const double serial_ingest_s =
      t.reduce_s + (workload.images ? n * Ratio(2.0 * t.render_s + t.color_s +
                                                    t.glcm_s,
                                                images)
                                    : 0.0);
  const double searches = static_cast<double>(t.search_ms.size());
  const std::vector<Metric> metrics = {
      {"image.render_us", Ratio(t.render_s, images) * 1e6, "us/image"},
      {"image.color_moments_us", Ratio(t.color_s, images) * 1e6, "us/image"},
      {"image.glcm_us", Ratio(t.glcm_s, images) * 1e6, "us/image"},
      {"dataset.build_s", t.build_s, "s"},
      {"dataset.ingest_parallelism", Ratio(serial_ingest_s, t.build_s),
       "ratio"},
      {"dataset.reduce_s", t.reduce_s, "s"},
      {"index.build_s", t.index_build_s, "s"},
      {"core.feedback_self_ms_p50", Quantile(t.feedback_self_ms, 0.5), "ms"},
      {"core.feedback_self_ms_p99", Quantile(t.feedback_self_ms, 0.99), "ms"},
      {"core.new_points_per_round",
       Ratio(static_cast<double>(traced.new_points),
             static_cast<double>(traced.feedback_rounds)),
       "count"},
      {"core.clusters_per_round",
       Ratio(static_cast<double>(traced.clusters),
             static_cast<double>(traced.feedback_rounds)),
       "count"},
      {"index.search_ms_p50", Quantile(t.search_ms, 0.5), "ms"},
      {"index.search_ms_p99", Quantile(t.search_ms, 0.99), "ms"},
      {"index.initial_search_ms_p50", Quantile(t.initial_search_ms, 0.5),
       "ms"},
      {"index.evals_per_search",
       Ratio(static_cast<double>(t.search_evals), searches), "count"},
      {"index.leaves_per_search",
       Ratio(static_cast<double>(t.search_leaves), searches), "count"},
      {"index.evals_per_result",
       Ratio(static_cast<double>(t.search_evals), searches * k), "count"},
      {"index.warm_evals_ratio",
       Ratio(static_cast<double>(traced.warm_evals),
             static_cast<double>(traced.cold_evals)),
       "ratio"},
      {"linalg.kernel_mpts_per_s",
       Ratio(static_cast<double>(t.kernel_points), t.kernel_s) * 1e-6,
       "Mpts/s"},
      {"eval.judge_us", Quantile(t.judge_us, 0.5), "us/round"},
      {"trace.overhead", Ratio(traced.active_s, untraced.active_s), "ratio"},
  };

  const bool recall_match = untraced.recall_sum == traced.recall_sum;
  const long long attempted = untraced.attempted + traced.attempted;
  const long long failed = untraced.failed + traced.failed;
  PrintRunLine("traced", args, served, traced);
  std::printf("stages images=%ld render_s=%.4f color_s=%.4f glcm_s=%.4f "
              "reduce_s=%.4f rerun_matches_served=%s\n",
              t.images, t.render_s, t.color_s, t.glcm_s, t.reduce_s,
              stages_match ? "yes" : "NO");
  std::printf("accounting setup: collection %.4f s + dataset.build %.4f s + "
              "index.build %.4f s = %.4f s of a %.4f s setup span\n",
              t.collection_s, t.build_s, t.index_build_s,
              t.collection_s + t.build_s + t.index_build_s, t.setup_s);
  std::printf("accounting feedback: core self %.3f ms + index %.3f ms = "
              "%.3f ms; Feedback wall %.3f ms\n",
              Sum(t.feedback_self_ms), Sum(t.search_ms),
              Sum(t.feedback_self_ms) + Sum(t.search_ms), Sum(t.feedback_ms));
  std::printf("passes untraced_sessions_per_s=%.4f traced_sessions_per_s=%.4f "
              "recall_match=%s\n",
              Ratio(untraced.sessions, untraced.active_s),
              Ratio(traced.sessions, traced.active_s),
              recall_match ? "yes" : "NO");
  PrintSpanSummary(spans);
  PrintMetricLines("layer", metrics);
  if (!args.spans_path.empty() && !spans.WriteJsonl(args.spans_path)) {
    std::fprintf(stderr, "bench_e2e: cannot write spans to %s\n",
                 args.spans_path.c_str());
    return 1;
  }
  PrintJson(failed == 0 && stages_match && recall_match, attempted, failed,
            metrics);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload paper|wide|wide-full --seed N "
                 "--seconds S --trace 0|1 [--small] [--fault] "
                 "[--spans PATH]\n");
    return 2;
  }
  if (MetricsEnabled() || trace::TracingEnabled()) {
    std::fprintf(stderr,
                 "bench_e2e: the library's metrics registry or trace recorder "
                 "is on (QCLUSTER_METRICS, QCLUSTER_TRACE or QCLUSTER_SLOW_MS "
                 "is set); benchmark runs need both off\n");
    return 2;
  }
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "bench_e2e: built without NDEBUG, so the Debug invariant "
                 "audits would be timed; build with CMAKE_BUILD_TYPE=Release\n");
    return 2;
  }
  Workload workload;
  if (!FindWorkload(args.workload, args.small, args.seed, &workload)) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.setup_sample) {
    double seconds = 0.0;
    TimedSetUp(workload, args.seed, &seconds);
    std::printf("%.9f\n", seconds);
    return 0;
  }
  return args.trace ? RunTraced(args, workload) : RunTimed(args, workload);
}

}  // namespace
}  // namespace qcluster::bench_e2e

int main(int argc, char** argv) {
  return qcluster::bench_e2e::Main(argc, argv);
}
