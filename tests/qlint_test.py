#!/usr/bin/env python3
"""ctest harness for qlint, the project-contract static analyzer.

Drives tools/qlint/qlint.py as a subprocess — the same CLI surface CI and
bench/run_qlint.sh use — over the fixture corpus in tools/qlint/fixtures/:

  * every check fires on its violation fixture and stays quiet on its ok
    fixture;
  * the lock-order check finds the seeded two-mutex cycle only when BOTH
    translation units are scanned together (the graph is cross-TU);
  * the compile-flag half of fp-determinism is exercised against generated
    compile_commands.json databases (fast-math / missing -ffp-contract=off);
  * the suppression grammar's own failure modes (no reason, unknown check,
    malformed, unused) are each errors, and an unjustified waiver does not
    hide the finding it sits on;
  * the interprocedural checks (requires-propagation, blocking-while-
    locked, guarded-escape, snapshot-discipline) resolve their facts
    across translation units: the two-TU fixtures fire only when every TU
    is in the same scan;
  * the clang-analyzer triage gate (bench/check_analyze.py) enforces
    zero untriaged findings and no stale triage entries, and
    bench/run_analyze.sh skips gracefully without clang++ unless
    QCLUSTER_ANALYZE_REQUIRE=1;
  * exit codes: 0 clean, 1 findings, 2 configuration error;
  * JSON and SARIF reports are well-formed;
  * the real src/ tree scans clean, so a new contract violation fails
    ctest — and the full scan stays inside its 10 s wall-time budget.

Stdlib only; no build products required beyond python3.
"""

import json
import os
import plistlib
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QLINT = os.path.join(REPO, "tools", "qlint", "qlint.py")
FIXTURES = os.path.join("tools", "qlint", "fixtures")


def fx(*parts):
    return os.path.join(FIXTURES, *parts)


def run_qlint(paths, extra=(), fmt="json"):
    """Runs qlint from the repo root; returns (exit code, parsed report)."""
    cmd = [sys.executable, QLINT, "--format", fmt, *extra, *paths]
    proc = subprocess.run(
        cmd, cwd=REPO, capture_output=True, text=True, timeout=120
    )
    doc = None
    if fmt in ("json", "sarif") and proc.stdout.strip():
        doc = json.loads(proc.stdout)
    return proc.returncode, doc, proc.stderr


def scan(paths, extra=()):
    """Token scan with the flag-verification half explicitly skipped."""
    return run_qlint(paths, ("--allow-missing-compile-commands", *extra))


def checks_of(doc):
    return [f["check"] for f in doc["findings"]]


class FixtureCorpusTest(unittest.TestCase):
    def assert_clean(self, code, doc, stderr):
        self.assertEqual(doc["finding_count"], 0, doc["findings"])
        self.assertEqual(code, 0, stderr)

    def assert_fires(self, doc, check, count):
        self.assertEqual(checks_of(doc).count(check), count, doc["findings"])

    # -- raw-sync ---------------------------------------------------------

    def test_raw_sync_fires(self):
        code, doc, _ = scan([fx("raw_sync", "violation.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "raw-sync", 5)
        self.assertEqual(set(checks_of(doc)), {"raw-sync"})

    def test_raw_sync_quiet(self):
        self.assert_clean(*scan([fx("raw_sync", "ok.cc")]))

    # -- guarded-by -------------------------------------------------------

    def test_guarded_by_fires(self):
        code, doc, _ = scan([fx("guarded_by", "violation.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "guarded-by", 2)
        members = " ".join(f["message"] for f in doc["findings"])
        self.assertIn("'keys_'", members)
        self.assertIn("'last_error_'", members)

    def test_guarded_by_quiet_with_annotations_and_waiver(self):
        self.assert_clean(*scan([fx("guarded_by", "ok.cc")]))

    # -- lock-order -------------------------------------------------------

    def test_lock_order_detects_cross_tu_cycle(self):
        code, doc, _ = scan([
            fx("lock_order", "violation_a.cc"),
            fx("lock_order", "violation_b.cc"),
        ])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "lock-order", 1)
        msg = doc["findings"][0]["message"]
        self.assertIn("g_account_mu", msg)
        self.assertIn("g_ledger_mu", msg)

    def test_lock_order_single_tu_is_not_a_cycle(self):
        # Each TU alone is internally consistent; the cycle is cross-TU.
        self.assert_clean(*scan([fx("lock_order", "violation_a.cc")]))
        self.assert_clean(*scan([fx("lock_order", "violation_b.cc")]))

    def test_lock_order_quiet(self):
        self.assert_clean(*scan([fx("lock_order", "ok.cc")]))

    # -- fp-determinism (token half) --------------------------------------

    def test_fp_determinism_fires(self):
        code, doc, _ = scan([fx("linalg", "fp_violation.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "fp-determinism", 3)
        messages = " ".join(f["message"] for f in doc["findings"])
        self.assertIn("fma", messages)
        self.assertIn("std::reduce", messages)
        self.assertIn("unordered", messages)

    def test_fp_determinism_quiet(self):
        self.assert_clean(*scan([fx("linalg", "fp_ok.cc")]))

    def test_fp_determinism_covers_engine_code(self):
        # core/ and stats/ compute what the goldens pin, so they are in
        # scope like the kernels.
        code, doc, _ = scan([fx("core", "fp_violation.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "fp-determinism", 3)
        self.assertEqual(set(checks_of(doc)), {"fp-determinism"})

    # -- fp-determinism (compile-flag half) --------------------------------

    def _flags_db(self, flags):
        rel = fx("fp_flags", "linalg", "simd_bad.cc")
        entry = {
            "directory": REPO,
            "file": rel,
            "command": f"/usr/bin/c++ -O2 {flags} -c {rel} -o simd_bad.o",
        }
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False, dir=REPO
        )
        self.addCleanup(os.unlink, handle.name)
        json.dump([entry], handle)
        handle.close()
        return handle.name

    def test_fp_flags_fire(self):
        db = self._flags_db("-ffast-math")
        code, doc, _ = run_qlint(
            [fx("fp_flags", "linalg", "simd_bad.cc")],
            ("--compile-commands", db),
        )
        self.assertEqual(code, 1)
        # -ffast-math is flagged AND the simd_*.cc TU lacks -ffp-contract=off.
        self.assert_fires(doc, "fp-determinism", 2)
        messages = " ".join(f["message"] for f in doc["findings"])
        self.assertIn("-ffast-math", messages)
        self.assertIn("-ffp-contract=off", messages)

    def test_fp_flags_quiet_when_contract_off(self):
        db = self._flags_db("-ffp-contract=off")
        self.assert_clean(*run_qlint(
            [fx("fp_flags", "linalg", "simd_bad.cc")],
            ("--compile-commands", db),
        ))

    def test_fp_missing_database_is_loud_by_default(self):
        # Without --allow-missing-compile-commands a kernel .cc cannot have
        # its flags verified, and that must be a finding, not a silent skip.
        code, doc, _ = run_qlint([fx("fp_flags", "linalg", "simd_bad.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "fp-determinism", 1)
        self.assertIn("compile_commands", doc["findings"][0]["message"])

    # -- status-discard ---------------------------------------------------

    def test_status_discard_fires(self):
        code, doc, _ = scan([fx("status_discard", "violation.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "status-discard", 2)

    def test_status_discard_quiet_with_justifications(self):
        self.assert_clean(*scan([fx("status_discard", "ok.cc")]))

    # -- env-hook ---------------------------------------------------------

    def test_env_hook_fires(self):
        code, doc, _ = scan([fx("env_hook", "violation.cc")])
        self.assertEqual(code, 1)
        # Both getenv in a plain function AND in an unanchored *FromEnv.
        self.assert_fires(doc, "env-hook", 2)

    def test_env_hook_quiet_when_anchored(self):
        self.assert_clean(*scan([
            fx("env_hook", "ok.cc"), fx("env_hook", "ok.h"),
        ]))

    def test_env_hook_requires_the_anchor(self):
        # The same *FromEnv definition WITHOUT its header anchor in scope
        # is a violation: nothing forces the hook to link.
        code, doc, _ = scan([fx("env_hook", "ok.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "env-hook", 1)

    # -- span-attrs -------------------------------------------------------

    def test_span_attrs_fires(self):
        code, doc, _ = scan([fx("span_attrs", "violation.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "span-attrs", 2)
        for f in doc["findings"]:
            self.assertIn("receives 7 AddAttr", f["message"])

    def test_span_attrs_quiet_with_child_span(self):
        self.assert_clean(*scan([fx("span_attrs", "ok.cc")]))

    # -- requires-propagation (interprocedural) ---------------------------

    _REQ = [
        fx("requires_prop", "widget.h"),
        fx("requires_prop", "impl.cc"),
    ]

    def test_requires_propagation_fires_cross_tu(self):
        # The REQUIRES annotation lives on the header declaration; the bad
        # caller sits in a different TU and is only caught when both are in
        # the same scan.
        code, doc, _ = scan(
            self._REQ + [fx("requires_prop", "caller_violation.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "requires-propagation", 1)
        f = doc["findings"][0]
        self.assertTrue(f["file"].endswith("caller_violation.cc"))
        self.assertIn("Shard::RehashLocked", f["message"])
        self.assertIn("Shard::mu_", f["message"])

    def test_requires_propagation_quiet_without_the_header(self):
        # Single-TU scan of the caller: the contract is invisible, so the
        # check stays conservative (this is exactly the hole the repo-wide
        # symbol table closes).
        self.assert_clean(
            *scan([fx("requires_prop", "caller_violation.cc")]))

    def test_requires_propagation_satisfied_callers_are_quiet(self):
        # Lock held (member and receiver-qualified) or REQUIRES forwarded.
        self.assert_clean(
            *scan(self._REQ + [fx("requires_prop", "caller_ok.cc")]))

    # -- blocking-while-locked (interprocedural) --------------------------

    _BLOCKING = [
        fx("blocking", "violation_io.cc"),
        fx("blocking", "violation_journal.cc"),
    ]

    def test_blocking_fires_all_four_rules(self):
        code, doc, _ = scan(self._BLOCKING)
        self.assertEqual(code, 1)
        self.assert_fires(doc, "blocking-while-locked", 4)
        messages = " ".join(f["message"] for f in doc["findings"])
        self.assertIn("ParallelFor dispatched while holding", messages)
        self.assertIn("CondVar::Wait while additionally holding", messages)
        self.assertIn("file/stream I/O ('ofstream')", messages)
        self.assertIn("reaches file/stream I/O (via Checkpoint)", messages)
        for f in doc["findings"]:
            self.assertTrue(f["file"].endswith("violation_journal.cc"))

    def test_blocking_transitive_rule_needs_the_callee_tu(self):
        # Without violation_io.cc the Checkpoint() call cannot be resolved
        # to a blocking body, so only the three direct rules fire.
        code, doc, _ = scan([fx("blocking", "violation_journal.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "blocking-while-locked", 3)

    def test_blocking_correct_patterns_are_quiet(self):
        # Wait holding only its own mutex, dispatch/IO outside the lock,
        # build-outside-install-under-lock.
        self.assert_clean(*scan([fx("blocking", "ok.cc")]))

    # -- guarded-escape (interprocedural) ---------------------------------

    def test_guarded_escape_fires(self):
        code, doc, _ = scan([fx("guarded_escape", "violation.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "guarded-escape", 3)
        messages = " ".join(f["message"] for f in doc["findings"])
        self.assertIn("Registry::items", messages)
        self.assertIn("Registry::Find", messages)   # Laundered via a local.
        self.assertIn("Registry::begin", messages)  # Iterator indirection.
        self.assertIn("Registry::mu_", messages)

    def test_guarded_escape_sanctioned_shapes_are_quiet(self):
        # By-value copy, QCLUSTER_REQUIRES hand-off, justified escape-ok.
        self.assert_clean(*scan([fx("guarded_escape", "ok.cc")]))

    def test_guarded_escape_waiver_failure_modes(self):
        code, doc, _ = scan([fx("guarded_escape", "stale_waiver.cc")])
        self.assertEqual(code, 1)
        # The reasonless escape-ok() suppresses nothing...
        self.assert_fires(doc, "guarded-escape", 1)
        # ...and both it and the stale waiver are errors themselves.
        self.assert_fires(doc, "suppression", 2)
        messages = " ".join(f["message"] for f in doc["findings"])
        self.assertIn("carries no reason", messages)
        self.assertIn("matches no finding", messages)

    # -- snapshot-discipline ----------------------------------------------

    def test_snapshot_discipline_fires(self):
        code, doc, _ = scan([fx("snapshot", "violation.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "snapshot-discipline", 2)
        messages = " ".join(f["message"] for f in doc["findings"])
        self.assertIn("RowStore::view", messages)          # Inline def.
        self.assertIn("RowStore::snapshot_ref", messages)  # Decl site.

    def test_snapshot_discipline_contract_satisfies(self):
        self.assert_clean(*scan([fx("snapshot", "ok.cc")]))

    # -- suppression grammar ----------------------------------------------

    def test_suppression_failure_modes_are_errors(self):
        code, doc, _ = scan([fx("suppression", "violation.cc")])
        self.assertEqual(code, 1)
        self.assert_fires(doc, "suppression", 4)
        # The reasonless waiver does NOT hide the raw-sync finding under it.
        self.assert_fires(doc, "raw-sync", 1)
        messages = " ".join(f["message"] for f in doc["findings"])
        self.assertIn("carries no reason", messages)
        self.assertIn("unknown check", messages)
        self.assertIn("malformed qlint directive", messages)
        self.assertIn("matches no finding", messages)

    def test_justified_used_waiver_is_quiet(self):
        self.assert_clean(*scan([fx("suppression", "ok.cc")]))

    # -- CLI contract ------------------------------------------------------

    def test_exit_code_two_on_unknown_check(self):
        code, _, stderr = run_qlint(
            [fx("raw_sync", "ok.cc")], ("--checks", "no-such-check")
        )
        self.assertEqual(code, 2)
        self.assertIn("unknown check", stderr)

    def test_sarif_report_shape(self):
        code, doc, _ = run_qlint(
            [fx("raw_sync", "violation.cc")],
            ("--allow-missing-compile-commands",),
            fmt="sarif",
        )
        self.assertEqual(code, 1)
        self.assertEqual(doc["version"], "2.1.0")
        run = doc["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "qlint")
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        self.assertIn("lock-order", rule_ids)
        self.assertTrue(run["results"])
        self.assertEqual(run["results"][0]["ruleId"], "raw-sync")

    def test_json_report_schema(self):
        code, doc, _ = scan([fx("raw_sync", "violation.cc")])
        self.assertEqual(code, 1)
        self.assertEqual(doc["schema"], "qcluster.qlint.v2")
        self.assertEqual(doc["finding_count"], len(doc["findings"]))
        self.assertEqual(doc["files_scanned"], 1)
        for f in doc["findings"]:
            for key in ("check", "file", "line", "message"):
                self.assertIn(key, f)
        # v2 additions: wall time plus per-check finding/runtime breakdown.
        self.assertIn("wall_time_seconds", doc)
        self.assertGreaterEqual(doc["wall_time_seconds"], 0.0)
        self.assertIn("per_check", doc)
        for name, entry in doc["per_check"].items():
            self.assertIn(name, doc["checks"], name)
            self.assertIn("findings", entry)
            self.assertIn("seconds", entry)

    # -- the real tree -----------------------------------------------------

    def test_src_tree_is_clean(self):
        """src/ holds the contract: any new violation fails ctest here."""
        code, doc, stderr = scan(["src"])
        self.assertEqual(
            code, 0,
            "qlint findings in src/:\n"
            + "\n".join(
                f"{f['file']}:{f['line']}: [{f['check']}] {f['message']}"
                for f in (doc or {}).get("findings", [])
            )
            + stderr,
        )
        # The interprocedural passes share one parse per TU (single-pass
        # cache); the full-repo run must stay inside its wall-time budget.
        self.assertLess(doc["wall_time_seconds"], 10.0)
        self.assertEqual(set(doc["per_check"]), set(doc["checks"]))


class AnalyzeGateTest(unittest.TestCase):
    """bench/check_analyze.py + bench/run_analyze.sh contract."""

    CHECKER = os.path.join(REPO, "bench", "check_analyze.py")
    RUNNER = os.path.join(REPO, "bench", "run_analyze.sh")

    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="qlint_analyze_")
        self.addCleanup(shutil.rmtree, self.dir, ignore_errors=True)

    def _write_plist(self, name, diagnostics, files=()):
        doc = {"files": list(files), "diagnostics": diagnostics}
        with open(os.path.join(self.dir, name), "wb") as f:
            plistlib.dump(doc, f)

    def _write_triage(self, entries):
        path = os.path.join(self.dir, "triage.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "schema": "qcluster.analyze-triage.v1",
                "entries": entries,
            }, f)
        return path

    def _check(self, triage_path, extra=()):
        proc = subprocess.run(
            [sys.executable, self.CHECKER,
             "--plist-dir", self.dir, "--repo-root", REPO,
             "--triage", triage_path, *extra],
            capture_output=True, text=True, timeout=60,
        )
        return proc.returncode, proc.stdout

    DIAG = {
        "location": {"file": 0, "line": 7},
        "check_name": "core.NullDereference",
        "description": "Dereference of null pointer",
    }
    FILES = (os.path.join(REPO, "src", "common", "metrics.cc"),)

    def test_untriaged_finding_fails(self):
        self._write_plist("tu.plist", [self.DIAG], self.FILES)
        code, out = self._check(self._write_triage([]))
        self.assertEqual(code, 1, out)
        self.assertIn("core.NullDereference", out)
        self.assertIn("1 untriaged finding(s)", out)

    def test_triaged_finding_passes_and_lands_in_sarif(self):
        self._write_plist("tu.plist", [self.DIAG], self.FILES)
        triage = self._write_triage([{
            "file": "src/common/metrics.cc",
            "checker": "core.NullDereference",
            "contains": "null pointer",
            "reason": "analyzer cannot see the CHECK above",
        }])
        sarif_path = os.path.join(self.dir, "out.sarif")
        code, out = self._check(triage, ("--sarif-output", sarif_path))
        self.assertEqual(code, 0, out)
        with open(sarif_path, encoding="utf-8") as f:
            sarif = json.load(f)
        results = sarif["runs"][0]["results"]
        self.assertEqual(len(results), 1)
        # Triaged diagnostics downgrade to notes but stay visible.
        self.assertEqual(results[0]["level"], "note")

    def test_stale_triage_entry_fails(self):
        self._write_plist("tu.plist", [], ())
        triage = self._write_triage([{
            "file": "src/common/metrics.cc",
            "checker": "core.NullDereference",
            "contains": "null pointer",
            "reason": "fixed long ago",
        }])
        code, out = self._check(triage)
        self.assertEqual(code, 1, out)
        self.assertIn("stale triage entry", out)

    def test_reasonless_triage_entry_is_config_error(self):
        self._write_plist("tu.plist", [], ())
        triage = self._write_triage([{
            "file": "src/common/metrics.cc",
            "checker": "core.NullDereference",
            "contains": "null pointer",
            "reason": "",
        }])
        proc = subprocess.run(
            [sys.executable, self.CHECKER,
             "--plist-dir", self.dir, "--repo-root", REPO,
             "--triage", triage],
            capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("missing 'reason'", proc.stderr)

    def test_committed_triage_file_is_valid(self):
        # The in-tree triage file must parse and carry justified entries
        # only (empty is the steady state: src/ analyzes clean).
        with open(os.path.join(REPO, "bench",
                               "analyze_triage.json")) as f:
            doc = json.load(f)
        self.assertEqual(doc["schema"], "qcluster.analyze-triage.v1")
        for entry in doc["entries"]:
            for key in ("file", "checker", "contains", "reason"):
                self.assertTrue(entry.get(key), entry)

    def test_runner_skips_without_clang_unless_required(self):
        env = dict(os.environ, QCLUSTER_CLANGXX="definitely-not-a-compiler")
        env.pop("QCLUSTER_ANALYZE_REQUIRE", None)
        proc = subprocess.run(
            ["bash", self.RUNNER], cwd=REPO, env=env,
            capture_output=True, text=True, timeout=60,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("skipping", proc.stdout)

        env["QCLUSTER_ANALYZE_REQUIRE"] = "1"
        proc = subprocess.run(
            ["bash", self.RUNNER], cwd=REPO, env=env,
            capture_output=True, text=True, timeout=60,
        )
        self.assertEqual(proc.returncode, 2)
        self.assertIn("QCLUSTER_ANALYZE_REQUIRE", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
