#!/usr/bin/env python3
"""End-to-end trace smoke test: drives qcluster_cli with --trace and
validates the emitted Chrome trace_event JSON with the stdlib.

Checks the artifact a user would actually load into chrome://tracing:
 - the file parses as JSON and has the trace_event envelope,
 - every event is a complete ("ph": "X") event with numeric ts/dur and
   span/parent/round args,
 - every non-root parent id resolves to a recorded span (no orphans),
 - children nest inside their parent's [ts, ts + dur] window,
 - a traced feedback round shows the documented tree: feedback.total →
   {feedback.classify, feedback.merge, feedback.knn_query} → index search.

Untraced runs then feed the CLI hostile input:
 - fixed bad-input scripts (bad marks and scores; `build`, `query` and
   `show` arguments that are not integers, out of range, or too large to
   allocate), each printing an exact number of `error:` lines;
 - a seeded mutation loop over valid command scripts (token drops,
   duplications and garbage, the integers -1, 0, 2^31-1 and huge values).
Every run must exit 0 without a `QCLUSTER_CHECK failed` or `terminate`,
and no accepted `build` may exceed 50 images (the loop stays fast under
ASan).

Usage: trace_smoke_test.py <path-to-qcluster_cli>
"""

import json
import pathlib
import random
import subprocess
import sys
import tempfile

SCRIPT = (
    "build 5 10 color; method qcluster; query 0; "
    "mark auto; mark auto; show 3; quit"
)

# (script, number of `error:` lines it must print)
BAD_INPUT_CASES = [
    (
        "build 5 10 color; method qcluster; query 0; "
        "mark 999999:1; mark 3:-1; mark 3:nan; mark x; mark 3:4e-324; "
        "mark 3:1e300; show 3; quit",
        6,
    ),
    ("build x; quit", 1),
    ("build 100000 100000; quit", 1),
    ("build 0 5; build 5 -1; build 2147483647 1; build 5 10 colour; quit", 4),
    ("build 99999999999999999999 1; build 3 x; quit", 2),
    ("query x; build 5 10 color; query x; query 50; query -1; quit", 4),
    ("build 5 10 color; query 99999999999999999999; query; query 3; quit", 2),
    ("build 5 10 color; query 0; show x; show -1; show 2147483647; quit", 2),
]

# Valid scripts the mutation loop starts from. Every integer in them is at
# most 5, and with this seed no mutation leaves `build` at its 20 x 40
# default; run_script fails the test if an accepted build ever exceeds
# MAX_BUILD.
MUTATION_BASES = [
    "build 2 5 color; method qcluster; query 0; mark auto; mark 1:2 2; "
    "show 5; clusters; metrics; quit",
    "build 5 4 texture; method qpm; query 3; mark auto; show; "
    "method qex; query 1; mark auto; method falcon; query 2; mark auto; "
    "method mindreader; query 4; mark 4:3 0:1; metrics",
]
GARBAGE = ["x", "-", ":", "3:", ":2", "1:x", "0x10", "1e9", "nan", "auto",
           "color", "texture", "qcluster", ";", "build", "query", "mark"]
INTEGERS = ["-1", "0", "2147483647", "99999999999999999999",
            "-99999999999999999999"]
MUTATIONS = 60
MAX_BUILD = 50

# ts/dur are microseconds rendered through %.9g; allow rounding slack.
EPS_US = 1.0


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_script(cli, script):
    """Runs one script; fails on a crash, a CHECK abort or an oversized
    build, else returns the `error:` lines it printed."""
    proc = subprocess.run(
        [str(cli), script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=240,
    )
    out = proc.stdout.decode(errors="replace")
    err = proc.stderr.decode(errors="replace")
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail(f"qcluster_cli exited with {proc.returncode} on {script!r}")
    for marker in ("QCLUSTER_CHECK failed", "terminate"):
        if marker in out or marker in err:
            fail(f"{marker!r} on {script!r}")
    for line in out.splitlines():
        if line.startswith("built "):
            images = int(line.split()[1])
            if images > MAX_BUILD:
                fail(f"accepted a {images}-image build on {script!r}")
    return [line for line in out.splitlines() if line.startswith("error:")]


def check_bad_input(cli):
    for script, expected in BAD_INPUT_CASES:
        errors = run_script(cli, script)
        if len(errors) != expected:
            fail(f"expected {expected} error lines for {script!r}, "
                 f"got {errors}")


def mutate(tokens, rng):
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(tokens))
        op = rng.randrange(4)
        if op == 0 and len(tokens) > 1:
            del tokens[at]
        elif op == 1:
            tokens.insert(at, tokens[at])
        elif op == 2:
            tokens[at] = rng.choice(GARBAGE)
        else:
            tokens[at] = rng.choice(INTEGERS)
    return tokens


def check_mutations(cli):
    rng = random.Random(16)
    for i in range(MUTATIONS):
        base = MUTATION_BASES[i % len(MUTATION_BASES)]
        tokens = base.replace(";", " ; ").split()
        run_script(cli, " ".join(mutate(tokens, rng)))


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} <path-to-qcluster_cli>")
    cli = pathlib.Path(sys.argv[1])
    if not cli.is_file():
        fail(f"qcluster_cli not found at {cli}")
    check_bad_input(cli)
    check_mutations(cli)

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = pathlib.Path(tmp) / "trace.json"
        proc = subprocess.run(
            [str(cli), f"--trace={trace_path}", SCRIPT],
            cwd=tmp,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=240,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            fail(f"qcluster_cli exited with {proc.returncode}")
        if not trace_path.is_file():
            fail(f"--trace={trace_path} produced no file")
        with open(trace_path, "r", encoding="utf-8") as f:
            doc = json.load(f)

    if doc.get("displayTimeUnit") != "ms":
        fail("missing displayTimeUnit")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    by_span = {}
    for ev in events:
        for key in ("name", "ph", "ts", "dur", "pid", "tid", "args"):
            if key not in ev:
                fail(f"event missing {key!r}: {ev}")
        if ev["ph"] != "X":
            fail(f"expected complete events, got ph={ev['ph']!r}")
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            fail(f"bad ts in {ev}")
        if not isinstance(ev["dur"], (int, float)) or ev["dur"] < 0:
            fail(f"bad dur in {ev}")
        args = ev["args"]
        for key in ("span", "parent", "round"):
            if key not in args:
                fail(f"event args missing {key!r}: {ev}")
        if args["span"] in by_span:
            fail(f"duplicate span id {args['span']}")
        by_span[args["span"]] = ev

    roots = 0
    for ev in events:
        parent_id = ev["args"]["parent"]
        if parent_id == 0:
            roots += 1
            continue
        parent = by_span.get(parent_id)
        if parent is None:
            fail(f"span {ev['args']['span']} has unknown parent {parent_id}")
        if ev["args"]["round"] != parent["args"]["round"]:
            fail(f"span {ev['args']['span']} crosses rounds to its parent")
        if ev["pid"] != parent["pid"]:
            fail(f"span {ev['args']['span']} crosses traces to its parent")
        if ev["ts"] < parent["ts"] - EPS_US:
            fail(f"span {ev['args']['span']} begins before its parent")
        child_end = ev["ts"] + ev["dur"]
        parent_end = parent["ts"] + parent["dur"]
        if child_end > parent_end + EPS_US:
            fail(f"span {ev['args']['span']} ends after its parent")
    if roots == 0:
        fail("no root spans recorded")

    def spans(name):
        return [ev for ev in events if ev["name"] == name]

    if not spans("engine.initial_query"):
        fail("no engine.initial_query span from `query`")
    totals = spans("feedback.total")
    if len(totals) < 2:
        fail(f"expected 2 feedback rounds from `mark auto`, got {len(totals)}")
    total = totals[0]
    children = {
        ev["name"]
        for ev in events
        if ev["args"]["parent"] == total["args"]["span"]
    }
    for phase in ("feedback.classify", "feedback.merge", "feedback.knn_query"):
        if phase not in children:
            fail(f"{phase} not parented under feedback.total: {children}")
    knn = next(
        ev
        for ev in events
        if ev["name"] == "feedback.knn_query"
        and ev["args"]["parent"] == total["args"]["span"]
    )
    index_children = [
        ev["name"]
        for ev in events
        if ev["args"]["parent"] == knn["args"]["span"]
        and ev["name"].startswith("index.")
    ]
    if not index_children:
        fail("no index.* span nested under feedback.knn_query")

    print(
        f"OK: {len(events)} events, {roots} roots, "
        f"{len(totals)} feedback rounds, index spans under knn_query: "
        f"{sorted(set(index_children))}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
