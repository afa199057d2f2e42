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

A second, untraced run feeds the CLI bad marks (an id out of range, a score
<= 0, a NaN score, text that is not a number): each must print an `error:`
line, and the process must still exit 0.

Usage: trace_smoke_test.py <path-to-qcluster_cli>
"""

import json
import pathlib
import subprocess
import sys
import tempfile

SCRIPT = (
    "build 5 10 color; method qcluster; query 0; "
    "mark auto; mark auto; show 3; quit"
)

BAD_MARKS_SCRIPT = (
    "build 5 10 color; method qcluster; query 0; "
    "mark 999999:1; mark 3:-1; mark 3:nan; mark x; show 3; quit"
)
BAD_MARKS = 4

# ts/dur are microseconds rendered through %.9g; allow rounding slack.
EPS_US = 1.0


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_bad_marks(cli):
    proc = subprocess.run(
        [str(cli), BAD_MARKS_SCRIPT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=240,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        fail(f"qcluster_cli exited with {proc.returncode} on bad marks")
    errors = [
        line
        for line in proc.stdout.decode(errors="replace").splitlines()
        if line.startswith("error:")
    ]
    if len(errors) != BAD_MARKS:
        fail(f"expected {BAD_MARKS} error lines for bad marks, got {errors}")


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} <path-to-qcluster_cli>")
    cli = pathlib.Path(sys.argv[1])
    if not cli.is_file():
        fail(f"qcluster_cli not found at {cli}")
    check_bad_marks(cli)

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
