#!/usr/bin/env python3
"""Diff fresh BENCH_*.json metric exports against committed baselines.

Turns the bench dumps into a standing performance gate: for every throughput
metric (name containing ``points_per_sec``) present in both a baseline file
under ``bench/baselines/`` and the matching fresh export, the fresh value
must not fall below ``baseline * (1 - tolerance)``. Every work gauge (name
ending in ``.evals``, ``.nodes``, ``.leaves`` or ``.candidates``: distance
evaluations, nodes and leaves visited, candidates scored) in the baseline
must equal the fresh value exactly: these counts are deterministic at a
fixed seed and bench scale, on any host, so any difference is a change in
the work a search does and needs a re-baseline with a reason. Exits
non-zero on any regression so CI fails the bench job. Any histogram in a
fresh export that counts samples above its top bucket (``overflow > 0``)
also fails the gate: its percentiles are capped and no longer describe what
was recorded. So does any histogram that was handed NaN samples
(``nan > 0``): the export keeps them out of its statistics, but something
upstream measured garbage.

The default tolerance is deliberately wide (50%): CI runners and developer
machines differ by far more than any single optimization, so the gate only
catches order-of-magnitude cliffs (an accidentally quadratic loop, a lost
parallel path), not single-digit noise. Tighten with --tolerance for
like-for-like machines.

Usage:
  bench/check_regression.py --fresh build-release/bench          # gate
  bench/check_regression.py --fresh build-release/bench --update # re-baseline

Stdlib only; no third-party imports.
"""

import argparse
import json
import pathlib
import shutil
import sys

THROUGHPUT_MARKER = "points_per_sec"
WORK_SUFFIXES = (".evals", ".nodes", ".leaves", ".candidates")


def load_metrics(path):
    """Returns {metric_name: value} of the throughput metrics in one dump.

    Histogram throughputs compare by p50 (the stable center of per-batch
    samples); gauge throughputs by their last value.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    out = {}
    # A non-finite number exports as null; it has no value to compare.
    for name, value in doc.get("gauges", {}).items():
        if THROUGHPUT_MARKER in name and value is not None:
            out[name] = float(value)
    for name, snap in doc.get("histograms", {}).items():
        if (
            THROUGHPUT_MARKER in name
            and snap.get("count", 0) > 0
            and snap.get("p50") is not None
        ):
            out[name] = float(snap["p50"])
    return out


def load_work(path):
    """Returns {gauge_name: value} of the work gauges in one dump."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return {
        name: value
        for name, value in doc.get("gauges", {}).items()
        if name.endswith(WORK_SUFFIXES) and value is not None
    }


def flagged_histograms(path, field):
    """Returns [(name, count)] for the histograms in one dump whose `field`
    (``overflow`` or ``nan``) counted any sample."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return [
        (name, snap[field])
        for name, snap in sorted(doc.get("histograms", {}).items())
        if snap.get(field, 0) > 0
    ]


def compare(baseline_path, fresh_path, tolerance):
    """Returns (regressions, unbaselined, report_lines) for one file pair."""
    baseline = load_metrics(baseline_path)
    fresh = load_metrics(fresh_path)
    regressions = []
    unbaselined = []
    lines = []
    for name in sorted(baseline):
        base = baseline[name]
        if base <= 0.0:
            continue
        if name not in fresh:
            regressions.append(name)
            lines.append(f"  MISSING  {name}: in baseline but not in fresh run")
            continue
        ratio = fresh[name] / base
        floor = 1.0 - tolerance
        verdict = "ok" if ratio >= floor else "REGRESSED"
        lines.append(
            f"  {verdict:9s}{name}: baseline {base:.3g} -> fresh "
            f"{fresh[name]:.3g} (x{ratio:.2f}, floor x{floor:.2f})"
        )
        if ratio < floor:
            regressions.append(name)
    base_work = load_work(baseline_path)
    fresh_work = load_work(fresh_path)
    for name in sorted(base_work):
        if name not in fresh_work:
            regressions.append(name)
            lines.append(f"  MISSING  {name}: in baseline but not in fresh run")
            continue
        same = fresh_work[name] == base_work[name]
        lines.append(
            f"  {'ok' if same else 'CHANGED':9s}{name}: baseline "
            f"{base_work[name]} -> fresh {fresh_work[name]} (exact)"
        )
        if not same:
            regressions.append(name)
    # A fresh metric with no committed counterpart is an error, not a note:
    # quietly skipping it means a renamed or newly added metric is never
    # gated, and the gate decays silently as the bench suite grows.
    fresh_keys = set(fresh) | set(fresh_work)
    for name in sorted(fresh_keys - set(baseline) - set(base_work)):
        unbaselined.append(name)
        value = fresh.get(name, fresh_work.get(name))
        lines.append(
            f"  UNBASELINED {name}: {value:.3g} — fresh run exports "
            "this metric but the committed baseline does not"
        )
    return regressions, unbaselined, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(pathlib.Path(__file__).parent / "baselines"),
        help="directory of committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh",
        required=True,
        help="directory containing freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional throughput drop before failing (default 0.5)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy fresh files over the baselines instead of checking",
    )
    args = parser.parse_args()

    baseline_dir = pathlib.Path(args.baseline)
    fresh_dir = pathlib.Path(args.fresh)
    if not fresh_dir.is_dir():
        print(f"error: fresh dir {fresh_dir} does not exist", file=sys.stderr)
        return 2
    fresh_files = sorted(fresh_dir.glob("BENCH_*.json"))
    if not fresh_files:
        print(f"error: no BENCH_*.json in {fresh_dir}", file=sys.stderr)
        return 2

    if args.update:
        baseline_dir.mkdir(parents=True, exist_ok=True)
        for fresh in fresh_files:
            # Only baseline files that gate something: a throughput metric
            # or a work gauge (a work-only export such as Fig. 7's counts).
            if load_metrics(fresh) or load_work(fresh):
                shutil.copy(fresh, baseline_dir / fresh.name)
                print(f"baselined {fresh.name}")
        return 0

    total_regressions = []
    total_unbaselined = []
    total_overflow = []
    total_nan = []
    checked = 0
    for fresh in fresh_files:
        total_overflow.extend(
            (fresh.name, name, count)
            for name, count in flagged_histograms(fresh, "overflow")
        )
        total_nan.extend(
            (fresh.name, name, count)
            for name, count in flagged_histograms(fresh, "nan")
        )
        baseline = baseline_dir / fresh.name
        if not baseline.is_file():
            continue  # No baseline committed for this binary: nothing gates.
        regressions, unbaselined, lines = compare(
            baseline, fresh, args.tolerance
        )
        if lines:
            checked += 1
            print(f"{fresh.name}:")
            print("\n".join(lines))
        total_regressions.extend(f"{fresh.name}:{name}" for name in regressions)
        total_unbaselined.extend(
            f"{fresh.name}:{name}" for name in unbaselined
        )

    failed = False
    if total_overflow:
        print(
            f"\nFAIL: {len(total_overflow)} histogram(s) recorded samples "
            "above their top bucket; their percentiles are capped:",
            file=sys.stderr,
        )
        for file_name, name, count in total_overflow:
            print(f"  {file_name}:{name}: overflow {count}", file=sys.stderr)
        failed = True
    if total_nan:
        print(
            f"\nFAIL: {len(total_nan)} histogram(s) recorded NaN samples:",
            file=sys.stderr,
        )
        for file_name, name, count in total_nan:
            print(f"  {file_name}:{name}: nan {count}", file=sys.stderr)
        failed = True
    if checked == 0:
        print(
            f"warning: no fresh file matched a baseline in {baseline_dir}; "
            "nothing checked",
            file=sys.stderr,
        )
        return 1 if failed else 0
    if total_regressions:
        print(
            f"\nFAIL: {len(total_regressions)} throughput regression(s) "
            "or work change(s):",
            file=sys.stderr,
        )
        for name in total_regressions:
            print(f"  {name}", file=sys.stderr)
        failed = True
    if total_unbaselined:
        print(
            f"\nFAIL: {len(total_unbaselined)} fresh metric(s) missing from "
            "the committed baseline:",
            file=sys.stderr,
        )
        for name in total_unbaselined:
            print(f"  {name}", file=sys.stderr)
        print(
            "hint: if these metrics are intentional, re-baseline with "
            f"`bench/check_regression.py --fresh {fresh_dir} --update` and "
            "commit the result",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(
        f"\nOK: {checked} file(s) checked, no throughput regressions or "
        "work changes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
