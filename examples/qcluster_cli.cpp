// Interactive / scriptable retrieval browser over the synthetic collection.
//
// Drives any of the five retrieval methods through query-by-example and
// relevance feedback from a small command language, reading commands from
// stdin (or from arguments, ';'-separated). Examples:
//
//   ./build/examples/qcluster_cli "build 20 40 color; method qcluster;
//       query 0; mark auto; show 10; clusters; metrics; quit"
//   (one shell argument; commands are ';'-separated)
//
//   echo "build 10 30 texture" | ./build/examples/qcluster_cli
//   (newline-separated commands on stdin)
//
// Commands:
//   build <categories> <images_per_category> [color|texture]
//                             at most 100,000 images in all
//   save <path>               cache the current feature database to disk
//   load <path>               restore a cached feature database
//   method <qcluster|qpm|qex|falcon|mindreader>
//   query <image_id>          initial query-by-example
//   mark auto                 oracle marks relevant in current result, feedback
//   mark <id>:<score> ...     manual marks, feedback (score defaults to 1,
//                             range [1e-6, 1e6]; a bad id or score prints
//                             an error instead)
//   show [n]                  print top-n of the current result
//   clusters                  print Qcluster's current clusters
//   metrics                   precision/recall of the current result
//   help, quit
//
// Flags (consumed before the command script):
//   --metrics                 collect per-phase metrics, dump JSON to stderr
//                             at exit
//   --metrics=PATH            same, but dump to PATH
//   --trace                   collect per-query trace spans, dump Chrome
//                             trace_event JSON to stderr at exit
//   --trace=PATH              same, but dump to PATH (load in
//                             chrome://tracing or https://ui.perfetto.dev)
//   --slow-ms=N               enable tracing and dump the span tree of any
//                             feedback round slower than N ms to stderr

#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/falcon.h"
#include "baselines/mindreader.h"
#include "baselines/qex.h"
#include "baselines/qpm.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/engine.h"
#include "dataset/feature_database.h"
#include "dataset/feature_io.h"
#include "dataset/image_collection.h"
#include "eval/metrics.h"
#include "eval/oracle.h"
#include "index/br_tree.h"

namespace {

using qcluster::core::RetrievalMethod;

struct CliState {
  std::unique_ptr<qcluster::dataset::FeatureDatabase> db;
  std::unique_ptr<qcluster::index::BrTree> tree;
  std::unique_ptr<RetrievalMethod> method;
  std::unique_ptr<qcluster::eval::OracleUser> oracle;
  std::string method_name = "qcluster";
  int k = 50;
  int query_id = -1;
  std::vector<qcluster::index::Neighbor> result;

  qcluster::core::QclusterEngine* AsQcluster() {
    return dynamic_cast<qcluster::core::QclusterEngine*>(method.get());
  }
};

void MakeMethod(CliState& state) {
  if (!state.db) return;
  const auto* features = &state.db->features();
  const auto* knn = state.tree.get();
  if (state.method_name == "qpm") {
    qcluster::baselines::QpmOptions opt;
    opt.k = state.k;
    state.method = std::make_unique<qcluster::baselines::QueryPointMovement>(
        features, knn, opt);
  } else if (state.method_name == "qex") {
    qcluster::baselines::QexOptions opt;
    opt.k = state.k;
    state.method =
        std::make_unique<qcluster::baselines::QueryExpansion>(features, knn,
                                                              opt);
  } else if (state.method_name == "falcon") {
    qcluster::baselines::FalconOptions opt;
    opt.k = state.k;
    state.method =
        std::make_unique<qcluster::baselines::Falcon>(features, knn, opt);
  } else if (state.method_name == "mindreader") {
    qcluster::baselines::MindReaderOptions opt;
    opt.k = state.k;
    state.method =
        std::make_unique<qcluster::baselines::MindReader>(features, knn, opt);
  } else {
    qcluster::core::QclusterOptions opt;
    opt.k = state.k;
    state.method = std::make_unique<qcluster::core::QclusterEngine>(
        features, knn, opt);
  }
}

bool RequireDb(const CliState& state);

/// Installs a feature database and rebuilds the index, oracle, and method.
void AdoptDatabase(CliState& state, qcluster::dataset::FeatureDatabase db) {
  state.db = std::make_unique<qcluster::dataset::FeatureDatabase>(
      std::move(db));
  state.tree =
      std::make_unique<qcluster::index::BrTree>(&state.db->features());
  state.oracle = std::make_unique<qcluster::eval::OracleUser>(
      &state.db->categories(), &state.db->themes(),
      qcluster::eval::OracleOptions{});
  MakeMethod(state);
  state.result.clear();
  state.query_id = -1;
}

/// Parses the whole of `text` as a T; false on any leftover or bad input.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Reads the next token of `args`, if there is one, as an integer in
/// [lo, hi] into `*value` (left at its default when the token is absent).
/// User input, so a bad token prints an `error:` line naming `what` and
/// returns false instead of reaching a CHECK.
bool ReadInt(std::istringstream& args, const char* what, long long lo,
             long long hi, int* value) {
  std::string token;
  if (!(args >> token)) return true;
  long long parsed = 0;
  if (!ParseWhole(token, &parsed) || parsed < lo || parsed > hi) {
    std::printf("error: %s '%s' must be an integer in [%lld, %lld]\n", what,
                token.c_str(), lo, hi);
    return false;
  }
  *value = static_cast<int>(parsed);
  return true;
}

/// Upper bound on `build`'s image count: over 3x the paper's 30,000, and
/// small enough that a typo cannot exhaust memory.
constexpr long long kMaxBuildImages = 100000;

void CmdBuild(CliState& state, std::istringstream& args) {
  int categories = 20, images = 40;
  std::string feature = "color";
  if (!ReadInt(args, "build categories", 1, kMaxBuildImages, &categories) ||
      !ReadInt(args, "build images_per_category", 1, kMaxBuildImages,
               &images)) {
    return;
  }
  if (static_cast<long long>(categories) * images > kMaxBuildImages) {
    std::printf("error: build of %d x %d images exceeds %lld\n", categories,
                images, kMaxBuildImages);
    return;
  }
  args >> feature;
  if (feature != "color" && feature != "texture") {
    std::printf("error: build feature '%s' must be color or texture\n",
                feature.c_str());
    return;
  }
  qcluster::dataset::ImageCollectionOptions opt;
  opt.num_categories = categories;
  opt.images_per_category = images;
  const qcluster::dataset::ImageCollection collection(opt);
  AdoptDatabase(state,
                qcluster::dataset::FeatureDatabase::Build(
                    collection,
                    feature == "texture"
                        ? qcluster::dataset::FeatureType::kTexture
                        : qcluster::dataset::FeatureType::kColorMoments));
  std::printf("built %d images (%d categories), %s features, dim %d\n",
              state.db->size(), categories, feature.c_str(), state.db->dim());
}

void CmdSave(CliState& state, std::istringstream& args) {
  if (!RequireDb(state)) return;
  std::string path;
  if (!(args >> path)) {
    std::printf("error: save needs a path\n");
    return;
  }
  const qcluster::Status status =
      qcluster::dataset::SaveFeatureDatabase(*state.db, path);
  std::printf("%s\n", status.ok() ? ("saved to " + path).c_str()
                                  : status.ToString().c_str());
}

void CmdLoad(CliState& state, std::istringstream& args) {
  std::string path;
  if (!(args >> path)) {
    std::printf("error: load needs a path\n");
    return;
  }
  qcluster::Result<qcluster::dataset::FeatureDatabase> loaded =
      qcluster::dataset::LoadFeatureDatabase(path);
  if (!loaded.ok()) {
    std::printf("%s\n", loaded.status().ToString().c_str());
    return;
  }
  AdoptDatabase(state, std::move(loaded).value());
  std::printf("loaded %d features (dim %d) from %s\n", state.db->size(),
              state.db->dim(), path.c_str());
}

bool RequireDb(const CliState& state) {
  if (!state.db) {
    std::printf("error: run `build` first\n");
    return false;
  }
  return true;
}

void CmdQuery(CliState& state, std::istringstream& args) {
  if (!RequireDb(state)) return;
  int id = -1;
  if (!ReadInt(args, "query id", 0, state.db->size() - 1, &id)) return;
  if (id < 0) {
    std::printf("error: query needs an image id in [0, %d)\n",
                state.db->size());
    return;
  }
  state.query_id = id;
  state.result = state.method->InitialQuery(
      state.db->features()[static_cast<std::size_t>(id)]);
  std::printf("initial query at image %d (category %d): %d results\n", id,
              state.db->categories()[static_cast<std::size_t>(id)],
              static_cast<int>(state.result.size()));
}

/// Bounds on a manual mark's score. The paper's scores are 1 and 3; the
/// range keeps sums and reciprocals of a round's scores finite (QPM's
/// re-weighting turns a denormal or near-DBL_MAX total into NaN weights).
constexpr double kMinScore = 1e-6;
constexpr double kMaxScore = 1e6;

/// Parses one `<id>[:<score>]` mark. User input, so it is checked here
/// rather than left to the engine's programmer-error CHECKs: the id must be
/// an integer in [0, n) and the score a number in [kMinScore, kMaxScore].
/// On failure prints an `error:` line and returns false.
bool ParseMark(const std::string& token, int n,
               qcluster::core::RelevantItem* item) {
  const std::size_t colon = token.find(':');
  if (!ParseWhole(token.substr(0, colon), &item->id) || item->id < 0 ||
      item->id >= n) {
    std::printf("error: mark '%s': id must be an integer in [0, %d)\n",
                token.c_str(), n);
    return false;
  }
  item->score = 1.0;
  if (colon != std::string::npos &&
      (!ParseWhole(token.substr(colon + 1), &item->score) ||
       !(kMinScore <= item->score && item->score <= kMaxScore))) {
    std::printf("error: mark '%s': score must be a number in [%g, %g]\n",
                token.c_str(), kMinScore, kMaxScore);
    return false;
  }
  return true;
}

void CmdMark(CliState& state, std::istringstream& args) {
  if (!RequireDb(state)) return;
  if (state.query_id < 0) {
    std::printf("error: run `query` first\n");
    return;
  }
  std::string token;
  std::vector<qcluster::core::RelevantItem> marked;
  args >> token;
  if (token == "auto") {
    const int cat =
        state.db->categories()[static_cast<std::size_t>(state.query_id)];
    const int theme =
        state.db->themes()[static_cast<std::size_t>(state.query_id)];
    marked = state.oracle->Judge(state.result, cat, theme);
  } else {
    // Validate every token before any feedback runs, so a bad one leaves
    // the result unchanged.
    do {
      qcluster::core::RelevantItem item;
      if (!ParseMark(token, state.db->size(), &item)) return;
      marked.push_back(item);
    } while (args >> token);
  }
  if (marked.empty()) {
    std::printf("no relevant images to mark; result unchanged\n");
    return;
  }
  state.result = state.method->Feedback(marked);
  std::printf("feedback with %d relevant images -> %d results\n",
              static_cast<int>(marked.size()),
              static_cast<int>(state.result.size()));
}

void CmdShow(CliState& state, std::istringstream& args) {
  if (!RequireDb(state)) return;
  int n = 10;
  if (!ReadInt(args, "show count", 0, INT_MAX, &n)) return;
  const int limit = std::min<int>(n, static_cast<int>(state.result.size()));
  std::printf("%-6s %-8s %-10s %-10s\n", "rank", "id", "category", "distance");
  for (int i = 0; i < limit; ++i) {
    const auto& r = state.result[static_cast<std::size_t>(i)];
    std::printf("%-6d %-8d %-10d %-10.4f\n", i + 1, r.id,
                state.db->categories()[static_cast<std::size_t>(r.id)],
                r.distance);
  }
}

void CmdClusters(CliState& state) {
  if (!RequireDb(state)) return;
  auto* engine = state.AsQcluster();
  if (engine == nullptr) {
    std::printf("clusters are only available for the qcluster method\n");
    return;
  }
  std::printf("%d clusters:\n",
              static_cast<int>(engine->clusters().size()));
  for (const auto& c : engine->clusters()) {
    std::printf("  n=%-3d weight=%-6.1f centroid=(", c.size(), c.weight());
    for (int d = 0; d < c.dim(); ++d) {
      std::printf("%s%.3f", d > 0 ? ", " : "",
                  c.centroid()[static_cast<std::size_t>(d)]);
    }
    std::printf(")\n");
  }
}

void CmdMetrics(CliState& state) {
  if (!RequireDb(state) || state.query_id < 0) return;
  const int cat =
      state.db->categories()[static_cast<std::size_t>(state.query_id)];
  auto relevant = [&](int id) { return state.oracle->IsRelevant(id, cat); };
  const int total = state.oracle->CategorySize(cat);
  std::printf("precision@%d = %.4f, recall@%d = %.4f (category %d, %d "
              "members)\n",
              state.k,
              qcluster::eval::PrecisionAt(state.result, state.k, relevant),
              state.k,
              qcluster::eval::RecallAt(state.result, state.k, total, relevant),
              cat, total);
}

void CmdHelp() {
  std::printf(
      "commands:\n"
      "  build <categories> <images_per_category> [color|texture]\n"
      "  save <path> | load <path>\n"
      "  method <qcluster|qpm|qex|falcon|mindreader>\n"
      "  query <image_id>\n"
      "  mark auto | mark <id>:<score> ...\n"
      "  show [n] | clusters | metrics | help | quit\n");
}

/// Returns false when the session should end.
bool Execute(CliState& state, const std::string& line) {
  std::istringstream args(line);
  std::string command;
  if (!(args >> command)) return true;
  if (command == "quit" || command == "exit") return false;
  if (command == "help") {
    CmdHelp();
  } else if (command == "build") {
    CmdBuild(state, args);
  } else if (command == "save") {
    CmdSave(state, args);
  } else if (command == "load") {
    CmdLoad(state, args);
  } else if (command == "method") {
    std::string name;
    args >> name;
    if (name != "qcluster" && name != "qpm" && name != "qex" &&
        name != "falcon" && name != "mindreader") {
      std::printf("error: unknown method '%s'\n", name.c_str());
    } else {
      state.method_name = name;
      MakeMethod(state);
      state.result.clear();
      state.query_id = -1;
      std::printf("method = %s\n", name.c_str());
    }
  } else if (command == "query") {
    CmdQuery(state, args);
  } else if (command == "mark") {
    CmdMark(state, args);
  } else if (command == "show") {
    CmdShow(state, args);
  } else if (command == "clusters") {
    CmdClusters(state);
  } else if (command == "metrics") {
    CmdMetrics(state);
  } else {
    std::printf("error: unknown command '%s' (try `help`)\n",
                command.c_str());
  }
  return true;
}

/// Where the --metrics dump goes at exit; empty while disabled.
std::string g_metrics_target;

/// Where the --trace dump goes at exit; empty while disabled.
std::string g_trace_target;

void DumpCliTrace() {
  if (g_trace_target.empty()) return;
  qcluster::trace::TraceRecorder& recorder =
      qcluster::trace::TraceRecorder::Global();
  if (g_trace_target == "stderr") {
    std::fprintf(stderr, "%s\n", recorder.ToChromeTraceJson().c_str());
    return;
  }
  const qcluster::Status status = recorder.DumpChromeTrace(g_trace_target);
  if (!status.ok()) {
    std::fprintf(stderr, "trace dump failed: %s\n",
                 status.ToString().c_str());
  }
}

void DumpCliMetrics() {
  if (g_metrics_target.empty()) return;
  if (g_metrics_target == "stderr") {
    qcluster::MetricsRegistry::Global().DumpMetricsToStderr();
    return;
  }
  const qcluster::Status status =
      qcluster::MetricsRegistry::Global().DumpMetrics(g_metrics_target);
  if (!status.ok()) {
    std::fprintf(stderr, "metrics dump failed: %s\n",
                 status.ToString().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliState state;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics") {
      g_metrics_target = "stderr";
    } else if (arg.rfind("--metrics=", 0) == 0) {
      g_metrics_target = arg.substr(std::string("--metrics=").size());
    } else if (arg == "--trace") {
      g_trace_target = "stderr";
    } else if (arg.rfind("--trace=", 0) == 0) {
      g_trace_target = arg.substr(std::string("--trace=").size());
    } else if (arg.rfind("--slow-ms=", 0) == 0) {
      const double ms =
          std::atof(arg.substr(std::string("--slow-ms=").size()).c_str());
      if (ms > 0.0) {
        qcluster::trace::SetSlowRoundThresholdMs(ms);
        qcluster::trace::SetTracingEnabled(true);
      }
    } else {
      args.push_back(arg);
    }
  }
  if (!g_metrics_target.empty()) {
    qcluster::SetMetricsEnabled(true);
    std::atexit(DumpCliMetrics);
  }
  if (!g_trace_target.empty()) {
    qcluster::trace::SetTracingEnabled(true);
    std::atexit(DumpCliTrace);
  }
  if (!args.empty()) {
    // Arguments joined, ';'-separated commands.
    std::string script;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i > 0) script += ' ';
      script += args[i];
    }
    std::istringstream lines(script);
    std::string line;
    while (std::getline(lines, line, ';')) {
      if (!Execute(state, line)) return 0;
    }
    return 0;
  }
  std::string line;
  std::printf("qcluster CLI — `help` for commands\n");
  while (std::getline(std::cin, line)) {
    if (!Execute(state, line)) break;
  }
  return 0;
}
