"""qlint's project-contract checks.

Each check encodes an invariant this repository relies on for correctness
(see docs/CORRECTNESS.md, "Project-contract lints"):

  raw-sync         every lock goes through common/mutex.h — no std::mutex,
                   lock_guard, unique_lock, condition_variable, atomic_flag
                   (and friends) anywhere else, so the Clang thread-safety
                   analysis sees every critical section.
  guarded-by       a mutable member of a class that owns a Mutex is either
                   QCLUSTER_GUARDED_BY/PT_GUARDED_BY-annotated or carries an
                   explicit `// qlint: unguarded(reason)` waiver.
  lock-order       the acquisition graph built from MutexLock nesting and
                   QCLUSTER_REQUIRES clauses across all scanned TUs must be
                   acyclic — a cycle is a deadlock waiting for a schedule.
  fp-determinism   kernel and engine code (src/linalg, src/index, src/core,
                   src/stats — the code the goldens pin) must stay bit-for-bit
                   reproducible: no std::fma / std::reduce, no accumulation
                   driven by unordered-container iteration order, no
                   fast-math flags, and -ffp-contract=off on SIMD TUs
                   (verified against compile_commands.json).
  status-discard   every IgnoreError/DiscardResult call carries a same-line
                   or preceding-line comment naming why the drop is correct.
  env-hook         std::getenv only inside an *FromEnv function referenced
                   by a header inline-variable anchor
                   (`inline const bool kFooEnvApplied = InitFooFromEnv();`)
                   so the hook survives static-library linking.
  span-attrs       a ScopedSpan site attaches at most SpanRecord::kMaxAttrs
                   (6) attributes — beyond that AddAttr drops silently.
  suppression      the waiver syntax itself: a directive without a reason,
                   with an unknown check id, malformed, or suppressing
                   nothing is an error.

Interprocedural checks (symbol table + cross-TU call graph, see
symbols.py / callgraph.py):

  requires-propagation   every caller of a QCLUSTER_REQUIRES(mu) function
                         holds or requires mu, resolved across TU
                         boundaries through header declarations.
  blocking-while-locked  no ParallelFor dispatch, CondVar wait, or
                         file/stream I/O (reached transitively) while
                         holding a mutex that pool workers also acquire.
  guarded-escape         no reference/pointer/iterator/view into a
                         GUARDED_BY member outlives its critical section
                         (waiver: `// qlint: escape-ok(reason)`).
  snapshot-discipline    every *_view()/snapshot accessor over mutable
                         state documents its lifetime contract
                         (`// qlint: snapshot(contract)`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time
from typing import Dict, List, Optional

from model import (
    FileModel,
    find_lambda_body_braces as _find_lambda_body_braces,
    normalize_mutex_key,
    paren_group as _paren_group,
    receiver_key as _receiver_key,
    split_args as _split_args,
)

SPAN_ATTR_BUDGET = 6  # Mirrors trace::SpanRecord::kMaxAttrs.

RAW_SYNC_BANNED = {
    "mutex",
    "timed_mutex",
    "recursive_mutex",
    "recursive_timed_mutex",
    "shared_mutex",
    "shared_timed_mutex",
    "lock_guard",
    "unique_lock",
    "scoped_lock",
    "shared_lock",
    "condition_variable",
    "condition_variable_any",
    "atomic_flag",
}

FAST_MATH_FLAGS = (
    "-ffast-math",
    "-funsafe-math-optimizations",
    "-Ofast",
    "-ffp-contract=fast",
    "-fassociative-math",
    "-freciprocal-math",
)

# Checks and their one-line rule statements (also the SARIF rule table).
CHECKS = {
    "raw-sync": "raw standard-library synchronization outside common/mutex.h",
    "guarded-by": "unannotated mutable member in a mutex-owning class",
    "lock-order": "cycle in the cross-TU mutex acquisition graph",
    "fp-determinism":
        "accumulation-order / FP-contraction hazard in kernel or engine code",
    "status-discard": "IgnoreError/DiscardResult without a justifying comment",
    "env-hook": "getenv outside an anchored *FromEnv environment hook",
    "span-attrs": "more span attributes than SpanRecord::kMaxAttrs can hold",
    "requires-propagation":
        "caller of a QCLUSTER_REQUIRES function does not hold the "
        "required mutex (cross-TU)",
    "blocking-while-locked":
        "pool dispatch, condvar wait, or file I/O reached while holding "
        "a worker-shared mutex",
    "guarded-escape":
        "reference/pointer/view into GUARDED_BY state escapes its "
        "critical section",
    "snapshot-discipline":
        "view/snapshot accessor over mutable state lacks a documented "
        "lifetime contract",
    "suppression": "malformed, unjustified, or unused qlint suppression",
}

_FP_SCOPE_RE = re.compile(r"(^|/)(linalg|index|core|stats)(/|$)")
_SIMD_TU_RE = re.compile(r"(^|/)linalg/simd_\w+\.cc$")
_FROM_ENV_RE = re.compile(r"FromEnv$")


@dataclasses.dataclass
class Finding:
    check: str
    path: str
    line: int
    message: str
    # Extra lines (besides line-1..line) where a waiver may sit, e.g. the
    # full extent of a multi-line member declaration.
    span_end: Optional[int] = None


class Project:
    """All loaded file models plus the optional compilation database.

    The interprocedural layers — symbol table and call graph — are built
    lazily, exactly once, and shared by every check (the single-pass
    parse cache: each TU is lexed/modeled once by the CLI, and the
    repo-wide structures derived from those models are computed once
    here).
    """

    def __init__(self, models: Dict[str, FileModel],
                 compile_commands: Optional[Dict[str, str]],
                 allow_missing_compile_commands: bool = False):
        self.models = models
        self.compile_commands = compile_commands
        self.allow_missing_cc = allow_missing_compile_commands
        self._symtab = None
        self._callgraph = None

    def symbols(self):
        if self._symtab is None:
            from symbols import build_symbol_table
            self._symtab = build_symbol_table(self.models)
        return self._symtab

    def callgraph(self):
        if self._callgraph is None:
            from callgraph import build_callgraph
            self._callgraph = build_callgraph(self.models, self.symbols())
        return self._callgraph


def load_compile_commands(path) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    commands = {}
    for entry in entries:
        file_path = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"])
        )
        if "command" in entry:
            cmd = entry["command"]
        else:
            cmd = " ".join(entry.get("arguments", []))
        commands[file_path] = cmd
    return commands


# ---------------------------------------------------------------------------
# raw-sync


def check_raw_sync(project) -> List[Finding]:
    findings = []
    for path, m in project.models.items():
        if path.replace(os.sep, "/").endswith("common/mutex.h"):
            continue
        toks = m.tokens
        for i in range(2, len(toks)):
            t = toks[i]
            if (
                t.kind == "ident"
                and t.text in RAW_SYNC_BANNED
                and toks[i - 1].text == "::"
                and toks[i - 2].text == "std"
            ):
                findings.append(Finding(
                    "raw-sync", path, t.line,
                    f"std::{t.text} used directly; all synchronization goes "
                    "through the annotated facade in common/mutex.h so the "
                    "thread-safety analysis sees it",
                ))
    return findings


# ---------------------------------------------------------------------------
# guarded-by


def check_guarded_by(project) -> List[Finding]:
    findings = []
    for path, m in project.models.items():
        for cls in m.classes:
            if not cls.owns_mutex:
                continue
            for member in cls.members:
                if (
                    member.is_mutex
                    or member.is_condvar
                    or member.is_static
                    or member.is_const
                    or member.is_reference
                    or member.is_atomic
                    or member.is_guarded
                ):
                    continue
                findings.append(Finding(
                    "guarded-by", path, member.first_line,
                    f"mutable member '{member.name}' of mutex-owning class "
                    f"'{cls.qualified_name}' is neither QCLUSTER_GUARDED_BY-"
                    "annotated nor waived with `// qlint: unguarded(reason)`",
                    span_end=member.last_line,
                ))
    return findings


# ---------------------------------------------------------------------------
# lock-order


def check_lock_order(project) -> List[Finding]:
    edges = {}  # key -> {dst: (path, line)}

    def add_edge(src, dst, path, line):
        if src == dst:
            return
        edges.setdefault(src, {}).setdefault(dst, (path, line))

    for path, m in project.models.items():
        for fn in m.functions:
            held = []  # (key, depth)
            for group in fn.requires:
                for arg in _split_args(group):
                    held.append((normalize_mutex_key(arg, fn.class_name), 0))
            body = fn.body
            lambda_braces = _find_lambda_body_braces(body)
            ctx_stack = []  # (saved_held, body_depth)
            depth = 0
            i = 0
            n = len(body)
            while i < n:
                t = body[i]
                if t.kind == "punct":
                    if t.text == "{":
                        depth += 1
                        if i in lambda_braces:
                            ctx_stack.append((held, depth))
                            held = []
                    elif t.text == "}":
                        depth -= 1
                        if ctx_stack and depth < ctx_stack[-1][1]:
                            held = ctx_stack.pop()[0]
                        else:
                            while held and held[-1][1] > depth:
                                held.pop()
                    i += 1
                    continue
                if t.kind == "ident" and t.text == "MutexLock":
                    # MutexLock name(expr);
                    j = i + 1
                    if j < n and body[j].kind == "ident":
                        j += 1
                    if j < n and body[j].text == "(":
                        args, end = _paren_group(body, j)
                        key = normalize_mutex_key(args, fn.class_name)
                        for h, _ in held:
                            add_edge(h, key, path, t.line)
                        held.append((key, depth))
                        i = end + 1
                        continue
                if t.kind == "ident" and t.text == "Lock" and i + 1 < n \
                        and body[i + 1].text == "(":
                    key = _receiver_key(body, i, fn.class_name)
                    if key is not None:
                        for h, _ in held:
                            add_edge(h, key, path, t.line)
                        held.append((key, depth))
                if t.kind == "ident" and t.text == "Unlock" and i + 1 < n \
                        and body[i + 1].text == "(":
                    key = _receiver_key(body, i, fn.class_name)
                    if key is not None:
                        for idx in range(len(held) - 1, -1, -1):
                            if held[idx][0] == key:
                                del held[idx]
                                break
                i += 1

    findings = []
    seen_cycles = set()
    for cycle in _find_cycles(edges):
        node_set = frozenset(cycle)
        if node_set in seen_cycles:
            continue
        seen_cycles.add(node_set)
        hops = []
        first_site = None
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            site = edges[a][b]
            if first_site is None:
                first_site = site
            hops.append(f"{a} -> {b} ({os.path.basename(site[0])}:{site[1]})")
        findings.append(Finding(
            "lock-order", first_site[0], first_site[1],
            "lock acquisition cycle (potential deadlock): " + "; ".join(hops),
        ))
    return findings


def _find_cycles(edges):
    """Elementary cycles via DFS; returns lists of nodes (cycle order)."""
    cycles = []
    visiting = []
    state = {}  # node -> 0 unvisited / 1 on stack / 2 done

    def dfs(node):
        state[node] = 1
        visiting.append(node)
        for nxt in edges.get(node, {}):
            s = state.get(nxt, 0)
            if s == 0:
                dfs(nxt)
            elif s == 1:
                idx = visiting.index(nxt)
                cycles.append(visiting[idx:])
        visiting.pop()
        state[node] = 2

    for node in list(edges):
        if state.get(node, 0) == 0:
            dfs(node)
    return cycles


# ---------------------------------------------------------------------------
# fp-determinism


def _in_fp_scope(path):
    return _FP_SCOPE_RE.search(path.replace(os.sep, "/")) is not None


def check_fp_determinism(project) -> List[Finding]:
    findings = []
    for path, m in project.models.items():
        if not _in_fp_scope(path):
            continue
        toks = m.tokens
        for i, t in enumerate(toks):
            if t.kind != "ident":
                continue
            if t.text in ("fma", "fmaf", "fmal") and i + 1 < len(toks) \
                    and toks[i + 1].text == "(":
                findings.append(Finding(
                    "fp-determinism", path, t.line,
                    f"{t.text}() fuses the multiply-add rounding step; kernel "
                    "results must be bit-identical across tiers, so spell out "
                    "the separate multiply and add (-ffp-contract=off keeps "
                    "the compiler from re-fusing them)",
                ))
            if t.text in ("reduce", "transform_reduce") and i >= 2 \
                    and toks[i - 1].text == "::" and toks[i - 2].text == "std":
                findings.append(Finding(
                    "fp-determinism", path, t.line,
                    f"std::{t.text} has an unspecified operation order; use a "
                    "sequential loop (or the canonical simd_kernels.h row "
                    "kernels) so accumulation order is deterministic",
                ))
        findings.extend(_check_unordered_accumulation(path, m))
    findings.extend(_check_fp_flags(project))
    return findings


def _check_unordered_accumulation(path, m):
    findings = []
    for fn in m.functions:
        body = fn.body
        unordered_vars = set()
        n = len(body)
        for i, t in enumerate(body):
            if t.kind == "ident" and t.text.startswith("unordered_"):
                # `unordered_set<...> name` — find the declared name after
                # the closing angle bracket.
                j = i + 1
                if j < n and body[j].text == "<":
                    depth = 0
                    while j < n:
                        if body[j].text == "<":
                            depth += 1
                        elif body[j].text == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        j += 1
                    j += 1
                while j < n and body[j].text in ("&", "*", "const"):
                    j += 1
                if j < n and body[j].kind == "ident":
                    unordered_vars.add(body[j].text)
        if not unordered_vars:
            continue
        i = 0
        while i < n:
            if body[i].kind == "ident" and body[i].text == "for" \
                    and i + 1 < n and body[i + 1].text == "(":
                inner, close = _paren_group(body, i + 1)
                range_split = _split_on_colon(inner)
                if range_split is not None:
                    range_expr = range_split
                    uses_unordered = any(
                        t.kind == "ident" and (
                            t.text in unordered_vars
                            or t.text.startswith("unordered_")
                        )
                        for t in range_expr
                    )
                    if uses_unordered and _stmt_accumulates(body, close + 1):
                        findings.append(Finding(
                            "fp-determinism", path, body[i].line,
                            "accumulation inside iteration over an unordered "
                            "container: the iteration order is "
                            "implementation-defined, so the float sum is not "
                            "reproducible — iterate a sorted copy or index "
                            "order instead",
                        ))
                i = close + 1
                continue
            i += 1
    return findings


def _split_on_colon(tokens):
    """Range expression of a range-for, or None for a classic for."""
    depth = 0
    for i, t in enumerate(tokens):
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        elif t.text == ":" and depth <= 0:
            return tokens[i + 1 :]
        elif t.text == ";":
            return None
    return None


def _stmt_accumulates(body, start):
    """True when the statement/block at `start` contains `+=` or `-=`."""
    n = len(body)
    i = start
    if i < n and body[i].text == "{":
        depth = 0
        while i < n:
            t = body[i]
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                if depth == 0:
                    break
            elif t.text in ("+", "-") and i + 1 < n and body[i + 1].text == "=":
                return True
            i += 1
        return False
    while i < n and body[i].text != ";":
        if body[i].text in ("+", "-") and i + 1 < n and body[i + 1].text == "=":
            return True
        i += 1
    return False


def _check_fp_flags(project):
    findings = []
    scoped = [p for p in project.models if _in_fp_scope(p) and p.endswith(".cc")]
    if not scoped:
        return findings
    if project.compile_commands is None:
        if not project.allow_missing_cc:
            findings.append(Finding(
                "fp-determinism", sorted(scoped)[0], 1,
                "cannot verify FP compile flags: no compile_commands.json "
                "(pass --compile-commands, or --allow-missing-compile-"
                "commands to skip flag verification explicitly)",
            ))
        return findings
    for path in sorted(scoped):
        cmd = project.compile_commands.get(os.path.normpath(os.path.abspath(path)))
        if cmd is None:
            continue  # Not part of the build (e.g. a fixture).
        for flag in FAST_MATH_FLAGS:
            if flag in cmd.split():
                findings.append(Finding(
                    "fp-determinism", path, 1,
                    f"kernel TU is compiled with {flag}, which licenses "
                    "reassociation/contraction and breaks bit-for-bit "
                    "SIMD/thread determinism",
                ))
        if _SIMD_TU_RE.search(path.replace(os.sep, "/")):
            if "-ffp-contract=off" not in cmd.split():
                findings.append(Finding(
                    "fp-determinism", path, 1,
                    "SIMD kernel TU lacks -ffp-contract=off in its compile "
                    "command; implicit FMA contraction would change results "
                    "between tiers",
                ))
    return findings


# ---------------------------------------------------------------------------
# status-discard


def check_status_discard(project) -> List[Finding]:
    findings = []
    for path, m in project.models.items():
        if path.replace(os.sep, "/").endswith("common/status.h"):
            continue
        toks = m.tokens
        for i, t in enumerate(toks):
            if (
                t.kind == "ident"
                and t.text in ("IgnoreError", "DiscardResult")
                and i + 1 < len(toks)
                and toks[i + 1].text == "("
            ):
                if not m.justification_near(t.line):
                    findings.append(Finding(
                        "status-discard", path, t.line,
                        f"{t.text} without a justifying comment; the house "
                        "rule (common/status.h) is that every deliberate "
                        "error/value drop names why it is correct, on the "
                        "same or the preceding line",
                    ))
    return findings


# ---------------------------------------------------------------------------
# env-hook


def _collect_env_anchors(project):
    """Function names referenced by header inline-variable anchors."""
    anchors = set()
    for m in project.models.values():
        toks = m.tokens
        for i in range(len(toks) - 6):
            if (
                toks[i].text == "inline"
                and toks[i + 1].text == "const"
                and toks[i + 2].text == "bool"
                and toks[i + 3].kind == "ident"
                and toks[i + 4].text == "="
            ):
                j = i + 5
                # Allow a qualified call: Ns::InitFooFromEnv().
                name = None
                while j < len(toks) and (
                    toks[j].kind == "ident" or toks[j].text == "::"
                ):
                    if toks[j].kind == "ident":
                        name = toks[j].text
                    j += 1
                if name and j < len(toks) and toks[j].text == "(":
                    anchors.add(name)
    return anchors


def check_env_hook(project) -> List[Finding]:
    anchors = _collect_env_anchors(project)
    findings = []
    for path, m in project.models.items():
        for i, t in enumerate(m.tokens):
            if t.kind == "ident" and t.text == "getenv" and \
                    i + 1 < len(m.tokens) and m.tokens[i + 1].text == "(":
                fn = m.function_at(t.line)
                fn_name = fn.name if fn is not None else "<file scope>"
                if fn is not None and _FROM_ENV_RE.search(fn.name) and \
                        fn.name in anchors:
                    continue
                findings.append(Finding(
                    "env-hook", path, t.line,
                    f"getenv in '{fn_name}' is outside the anchored env-hook "
                    "pattern: read environment knobs in an Init*FromEnv "
                    "function referenced by a header inline variable "
                    "(`inline const bool kFooEnvApplied = InitFooFromEnv();`) "
                    "so the hook survives static-library linking",
                ))
    return findings


# ---------------------------------------------------------------------------
# span-attrs


def check_span_attrs(project) -> List[Finding]:
    findings = []
    for path, m in project.models.items():
        norm = path.replace(os.sep, "/")
        if norm.endswith("common/trace.h") or norm.endswith("common/trace.cc"):
            continue  # The implementation itself manipulates SpanRecord.
        for fn in m.functions:
            findings.extend(_span_attrs_in_body(path, fn.body))
    return findings


def _span_attrs_in_body(path, body):
    findings = []
    n = len(body)
    spans = []  # (var, decl_line, decl_depth, count) — active spans.
    depth = 0
    i = 0
    while i < n:
        t = body[i]
        if t.kind == "punct":
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                while spans and spans[-1][2] > depth:
                    var, line, _, count = spans.pop()
                    if count > SPAN_ATTR_BUDGET:
                        findings.append(_span_budget_finding(path, var, line, count))
            i += 1
            continue
        var = None
        if t.kind == "ident" and t.text == "QCLUSTER_TRACE_SPAN" and \
                i + 2 < n and body[i + 1].text == "(" and \
                body[i + 2].kind == "ident":
            var = body[i + 2].text
        elif t.kind == "ident" and t.text == "ScopedSpan" and \
                i + 2 < n and body[i + 1].kind == "ident" and \
                body[i + 2].text == "(":
            var = body[i + 1].text
        if var is not None:
            spans.append([var, t.line, depth, 0])
            i += 1
            continue
        if (
            t.kind == "ident"
            and i + 2 < n
            and body[i + 1].text == "."
            and body[i + 2].kind == "ident"
            and body[i + 2].text == "AddAttr"
        ):
            for span in reversed(spans):
                if span[0] == t.text:
                    span[3] += 1
                    break
        i += 1
    for var, line, _, count in spans:
        if count > SPAN_ATTR_BUDGET:
            findings.append(_span_budget_finding(path, var, line, count))
    return findings


def _span_budget_finding(path, var, line, count):
    return Finding(
        "span-attrs", path, line,
        f"span '{var}' receives {count} AddAttr calls but "
        f"SpanRecord::kMaxAttrs is {SPAN_ATTR_BUDGET} — the extras are "
        "silently dropped; move attributes onto a child span or trim them",
    )


# ---------------------------------------------------------------------------
# requires-propagation (interprocedural)


def check_requires_propagation(project) -> List[Finding]:
    """Callers of QCLUSTER_REQUIRES functions must hold the capability.

    Clang's -Wthread-safety verifies this per TU; this check resolves it
    through the repo-wide symbol table, so a REQUIRES that lives only on
    a header prototype reaches call sites in every other TU.
    """
    symtab = project.symbols()
    cg = project.callgraph()
    findings = []
    for path, m in project.models.items():
        for fn in m.functions:
            for ev in cg.events(fn):
                if ev.kind != "call":
                    continue
                hint = ev.class_hint or (
                    fn.class_name if not ev.receiver else "")
                rclass = symtab.resolve_class(ev.name, hint)
                if rclass is None:
                    continue
                required = symtab.requires_keys(ev.name, rclass)
                if not required:
                    continue
                held = set(ev.held)
                for r in required:
                    if r in held:
                        continue
                    if ev.receiver:
                        # A receiver-qualified call satisfies `C::m` by
                        # holding the receiver's own `m`:
                        # `MutexLock l(s.mu_); s.ReplayLocked();`.
                        member = r.split("::")[-1]
                        sep = "" if ev.receiver.endswith("->") else "."
                        if f"{ev.receiver}{sep}{member}" in held:
                            continue
                    label = f"{rclass}::{ev.name}" if rclass else ev.name
                    findings.append(Finding(
                        "requires-propagation", path, ev.line,
                        f"call to '{label}' which QCLUSTER_REQUIRES({r}) "
                        "without holding or requiring it — the annotation "
                        "lives on a declaration this TU's per-file analysis "
                        "cannot see; take the lock, add QCLUSTER_REQUIRES "
                        "to the caller, or restructure",
                    ))
    return findings


# ---------------------------------------------------------------------------
# blocking-while-locked (interprocedural)


_BLOCK_KIND_LABEL = {
    "parallel_for": "ThreadPool::ParallelFor",
    "wait": "CondVar::Wait",
    "io": "file/stream I/O",
}


def check_blocking_while_locked(project) -> List[Finding]:
    """No blocking operation while holding a worker-shared mutex.

    The hazard set is every mutex acquired (transitively) by code that
    runs on pool workers — ParallelFor shard lambdas and the
    ThreadPool::WorkerLoop drain path. Holding one of those across a
    blocking call is the self-deadlock class: the blocked thread waits
    on workers that need the lock it holds. Two rules:

      * direct: a function that itself takes a lock and then calls
        ParallelFor in the same body is flagged for *any* held mutex —
        the caller blocks until every shard drains, so the critical
        section spans the whole pool round.
      * transitive: CondVar waits (minus the mutex the wait releases),
        file/stream I/O, and calls that reach a blocking primitive
        through the call graph are flagged when the held set intersects
        the worker-hazard set.
    """
    cg = project.callgraph()
    hazard = cg.worker_hazard
    findings = []
    for path, m in project.models.items():
        for fn in m.functions:
            for ev in cg.events(fn):
                if ev.in_lambda:
                    continue  # Lambda bodies run in their own context.
                if ev.kind == "parallel_for" and ev.held:
                    findings.append(Finding(
                        "blocking-while-locked", path, ev.line,
                        "ParallelFor dispatched while holding "
                        f"{{{', '.join(ev.held)}}}: the caller blocks until "
                        "every shard completes, so the critical section "
                        "spans the whole pool round (and deadlocks if any "
                        "worker path takes the same lock) — build outside "
                        "the lock and install the result under it",
                    ))
                elif ev.kind == "wait":
                    extra = (set(ev.held) - {ev.wait_key}) & hazard
                    if extra:
                        findings.append(Finding(
                            "blocking-while-locked", path, ev.line,
                            f"CondVar::{ev.name} while additionally holding "
                            f"{{{', '.join(sorted(extra))}}}, which pool "
                            "workers also acquire — the wait pins a lock "
                            "the wake-up path may need",
                        ))
                elif ev.kind == "io":
                    bad = set(ev.held) & hazard
                    if bad:
                        findings.append(Finding(
                            "blocking-while-locked", path, ev.line,
                            f"file/stream I/O ('{ev.name}') while holding "
                            f"{{{', '.join(sorted(bad))}}}, which pool "
                            "workers also acquire — copy under the lock, "
                            "write outside it",
                        ))
                elif ev.kind == "call" and ev.held:
                    bad = set(ev.held) & hazard
                    if not bad:
                        continue
                    kinds = cg.resolve_blocking(ev, fn.class_name)
                    for kind in ("parallel_for", "wait", "io"):
                        if kind in kinds:
                            findings.append(Finding(
                                "blocking-while-locked", path, ev.line,
                                f"call to '{ev.name}' reaches "
                                f"{_BLOCK_KIND_LABEL[kind]} (via "
                                f"{kinds[kind]}) while holding "
                                f"{{{', '.join(sorted(bad))}}}, which pool "
                                "workers also acquire — a worker needing "
                                "that lock deadlocks against this caller",
                            ))
                            break
    return findings


# ---------------------------------------------------------------------------
# guarded-escape (interprocedural)


_VIEW_TYPE_IDENTS = {"FlatView", "span", "string_view"}
_RT_SKIP_IDENTS = {
    "const", "static", "inline", "virtual", "constexpr", "mutable",
    "std", "typename", "explicit", "friend",
}


def _return_type_info(head, name):
    """(escaping, last type ident) for a declarator head.

    `escaping` is True when the return type hands out indirection:
    reference, pointer, iterator, or a known view type. Tokens inside
    template argument lists are ignored (vector<int*> returns by value).
    """
    k = len(head) - 1
    while k >= 0 and not (head[k].kind == "ident" and head[k].text == name):
        k -= 1
    if k < 0:
        return False, ""
    while k >= 2 and head[k - 1].text == "::" and head[k - 2].kind == "ident":
        k -= 2
    has_ref = False
    has_ptr = False
    last_ident = ""
    angle = 0
    prev = None
    for t in head[:k]:
        if t.text == "<" and prev is not None and (
            prev.kind == "ident" or prev.text in (">", "::")
        ):
            angle += 1
        elif t.text == ">" and angle > 0:
            angle -= 1
        elif angle == 0:
            if t.text == "&":
                has_ref = True
            elif t.text == "*":
                has_ptr = True
            elif t.kind == "ident" and t.text not in _RT_SKIP_IDENTS:
                last_ident = t.text
        prev = t
    escaping = (
        has_ref or has_ptr or last_ident in _VIEW_TYPE_IDENTS
        or last_ident.endswith("iterator")
    )
    return escaping, last_ident


def _taint_seeds(body, fn, symtab):
    """Guarded member names used in `body`, mapped name -> origin member.

    A bare use seeds only when the function's own class guards that
    member; a `.`/`->` access seeds for any class's guarded member (the
    cross-object case, e.g. `cache_->entries`).
    """
    seeds = {}
    for i, t in enumerate(body):
        if t.kind != "ident" or t.text in seeds:
            continue
        if t.text not in symtab.guarded_members:
            continue
        prev = body[i - 1] if i > 0 else None
        member_access = prev is not None and (
            prev.text == "."
            or (prev.text == ">" and i >= 2 and body[i - 2].text == "-")
        )
        if member_access:
            seeds[t.text] = t.text
        else:
            own = symtab.classes.get(fn.class_name)
            if own is None:
                # Out-of-line method of a class whose definition lives in
                # another model: match by unqualified class name.
                for info in symtab.classes.values():
                    if info.name == fn.class_name and t.text in info.guarded:
                        seeds[t.text] = t.text
                        break
            elif t.text in own.guarded:
                seeds[t.text] = t.text
    return seeds


def check_guarded_escape(project) -> List[Finding]:
    """No reference/pointer/iterator/view into GUARDED_BY state may
    outlive its critical section.

    A method whose return type carries indirection and whose returned
    expression derives (through local assignments) from a guarded member
    is flagged unless the method QCLUSTER_REQUIRES the guard — then the
    caller holds the lock and requires-propagation polices *it* instead.
    Deliberate stable-storage hand-outs carry
    `// qlint: escape-ok(reason)`.
    """
    symtab = project.symbols()
    findings = []
    for path, m in project.models.items():
        for fn in m.functions:
            if not fn.head:
                continue
            escaping, _ = _return_type_info(fn.head, fn.name)
            if not escaping:
                continue
            body = fn.body
            tainted = _taint_seeds(body, fn, symtab)
            if not tainted:
                continue
            n = len(body)
            # Propagate through simple local assignments/initializations
            # (`auto it = guarded_.find(k)`, `T& slot = map_[k]`).
            for _ in range(3):
                changed = False
                for i in range(1, n):
                    t = body[i]
                    if t.kind != "punct" or t.text != "=":
                        continue
                    prev = body[i - 1]
                    nxt = body[i + 1] if i + 1 < n else None
                    if prev.kind != "ident" or prev.text in tainted:
                        continue
                    if nxt is not None and nxt.text == "=":
                        continue  # ==
                    if prev.text in ("operator",):
                        continue
                    j = i + 1
                    origin = None
                    while j < n and body[j].text != ";":
                        if body[j].kind == "ident" and body[j].text in tainted:
                            origin = tainted[body[j].text]
                            break
                        j += 1
                    if origin is not None:
                        tainted[prev.text] = origin
                        changed = True
                if not changed:
                    break
            required = set(_requires_keys_of(fn)) | set(
                symtab.requires_keys(fn.name, fn.class_name))
            i = 0
            while i < n:
                if body[i].kind == "ident" and body[i].text == "return":
                    j = i + 1
                    hit = None
                    while j < n and body[j].text != ";":
                        tok = body[j]
                        if tok.kind == "ident" and tok.text in tainted:
                            hit = tainted[tok.text]
                            break
                        j += 1
                    if hit is not None:
                        guard = symtab.guard_key_of(hit, fn.class_name)
                        if guard is not None and guard not in required:
                            label = (f"{fn.class_name}::{fn.name}"
                                     if fn.class_name else fn.name)
                            findings.append(Finding(
                                "guarded-escape", path, fn.begin_line,
                                f"'{label}' returns a reference/pointer/"
                                f"view derived from '{hit}', which is "
                                f"guarded by {guard}; the lock is released "
                                "when the method returns, so the caller "
                                "reads unprotected state — return by "
                                "value/shared_ptr, add QCLUSTER_REQUIRES"
                                f"({guard.split('::')[-1]}), or waive with "
                                "`// qlint: escape-ok(reason)`",
                            ))
                            break
                    i = j
                i += 1
    return findings


def _requires_keys_of(fn):
    from symbols import _requires_keys
    return _requires_keys(fn.requires, fn.class_name, fn.param_names)


# ---------------------------------------------------------------------------
# snapshot-discipline


_SNAPSHOT_NAME_RE = re.compile(r"(^view$|_view$|snapshot)", re.IGNORECASE)


def check_snapshot_discipline(project) -> List[Finding]:
    """Every `*_view()`/snapshot accessor over mutable state documents
    its lifetime contract.

    The contract is a `// qlint: snapshot(<contract>)` directive on (or
    directly above) the accessor — the epoch-read convention the
    mutable-DB work will rely on. By-value snapshots need nothing: only
    accessors returning indirection (view types, references, pointers,
    iterators) are audited.
    """
    symtab = project.symbols()
    findings = []
    mutable_classes = {}
    for qualified, info in symtab.classes.items():
        if info.has_mutable_state:
            mutable_classes.setdefault(info.name, info)

    def audit(path, name, class_name, line, head, span_end=None):
        if class_name not in mutable_classes:
            return
        if not _SNAPSHOT_NAME_RE.search(name):
            return
        escaping, _ = _return_type_info(head, name)
        if not escaping:
            return
        label = f"{class_name}::{name}"
        findings.append(Finding(
            "snapshot-discipline", path, line,
            f"'{label}' exposes a view/snapshot over mutable state without "
            "a documented lifetime contract — state who keeps the storage "
            "alive and for how long with "
            "`// qlint: snapshot(<lifetime contract>)` on or above the "
            "accessor",
            span_end=span_end,
        ))

    declared = set()
    for path, m in project.models.items():
        for cls in m.classes:
            for decl in cls.method_decls:
                declared.add((cls.name, decl.name))
                audit(path, decl.name, cls.name, decl.line, decl.head)
    for path, m in project.models.items():
        for fn in m.functions:
            if not fn.class_name or (fn.class_name, fn.name) in declared:
                continue  # The header declaration is the annotation site.
            audit(path, fn.name, fn.class_name, fn.begin_line, fn.head)
    return findings


# ---------------------------------------------------------------------------
# suppression resolution


def apply_suppressions(project, findings, enabled=None):
    """Filters suppressed findings; audits the directives themselves.

    Directives targeting checks outside `enabled` are left alone (neither
    honored nor flagged as unused) so a scoped `--checks` run stays quiet
    about waivers it cannot evaluate.
    """
    kept = []
    for f in findings:
        model = project.models.get(f.path)
        if model is None:
            kept.append(f)
            continue
        suppressed = False
        for d in model.directives_near(f.line, f.span_end):
            if d.kind == "allow" and d.check == f.check:
                d.used = True
                if d.reason:
                    suppressed = True
                # An unjustified directive is flagged below and does NOT
                # suppress: the finding stays visible too.
        if not suppressed:
            kept.append(f)

    for path, model in project.models.items():
        for d in model.directives:
            if d.kind == "allow" and enabled is not None and \
                    d.check in CHECKS and d.check not in enabled:
                continue
            if d.kind == "malformed":
                kept.append(Finding(
                    "suppression", path, d.line,
                    f"malformed qlint directive '{d.raw}': expected "
                    "`qlint: allow(check-id): reason` or "
                    "`qlint: unguarded(reason)`",
                ))
                continue
            if d.check not in CHECKS:
                kept.append(Finding(
                    "suppression", path, d.line,
                    f"qlint directive names unknown check '{d.check}' "
                    f"(known: {', '.join(sorted(CHECKS))})",
                ))
                continue
            if not d.reason:
                kept.append(Finding(
                    "suppression", path, d.line,
                    f"qlint suppression for '{d.check}' carries no reason; "
                    "waivers are only valid with a justification "
                    "(see docs/CORRECTNESS.md)",
                ))
                continue
            if not d.used:
                kept.append(Finding(
                    "suppression", path, d.line,
                    f"qlint suppression for '{d.check}' matches no finding "
                    "on its line — stale waivers must be removed so the "
                    "contract stays meaningful",
                ))
    kept.sort(key=lambda f: (f.path, f.line, f.check))
    return kept


ALL_CHECKS = {
    "raw-sync": check_raw_sync,
    "guarded-by": check_guarded_by,
    "lock-order": check_lock_order,
    "fp-determinism": check_fp_determinism,
    "status-discard": check_status_discard,
    "env-hook": check_env_hook,
    "span-attrs": check_span_attrs,
    "requires-propagation": check_requires_propagation,
    "blocking-while-locked": check_blocking_while_locked,
    "guarded-escape": check_guarded_escape,
    "snapshot-discipline": check_snapshot_discipline,
}


def run_checks(project, enabled=None, timings=None) -> List[Finding]:
    findings = []
    for name, fn in ALL_CHECKS.items():
        if enabled is not None and name not in enabled:
            continue
        start = time.monotonic()
        found = fn(project)
        findings.extend(found)
        if timings is not None:
            timings[name] = {
                "findings": len(found),
                "seconds": time.monotonic() - start,
            }
    start = time.monotonic()
    result = apply_suppressions(project, findings, enabled)
    if timings is not None:
        timings["suppression"] = {
            "findings": sum(1 for f in result if f.check == "suppression"),
            "seconds": time.monotonic() - start,
        }
        # Post-suppression truth: report surviving counts per check.
        for name in timings:
            if name != "suppression":
                timings[name]["findings"] = sum(
                    1 for f in result if f.check == name)
    return result
