#!/usr/bin/env python3
"""rr-lint — roadrunner's repo-invariant linter.

Encodes invariants of this codebase that generic tools (clang-tidy, the
thread-safety analysis) cannot express, because they are *architectural*:
they relate a call site to the concurrency regime of the thread that will
execute it, or to the lifetime rules of the middleware's own types.

Rules
-----
reactor-blocking
    No blocking call — CondVar waits, ReadExact/WriteAll, recv/accept,
    sleeps, pool Acquire — in code reachable from a reactor/epoll event
    handler. Handlers run on the event loop: one blocked handler stalls
    every connection of the shard. Entry points are marked in the source
    with a `// rr-lint: reactor-thread` comment on the function's
    signature line; the rule walks the intra-file call graph from those
    roots.

lease-member
    No ShimLease / InstancePool::Lease stored as a struct/class member.
    A lease pins a pooled instance; parking one in a long-lived object
    starves the pool. Leases live on the stack of one dispatch.

region-guard
    Every PlaceRegion(...) call must have a RegionGuard in the same
    scope (or be an initialization of one). A placed region without a
    guard leaks guest memory on every early return.

raw-mutex
    No std::mutex / std::condition_variable / std::lock_guard /
    std::unique_lock / std::scoped_lock in src/ outside
    common/mutex.h. The rr::Mutex wrappers carry the Clang
    thread-safety capability annotations; a raw std::mutex is invisible
    to the analysis, so everything it guards silently loses checking.

hardware-concurrency
    No std::thread::hardware_concurrency() in src/ outside osal/cpus.cc.
    It counts the machine's CPUs, not the ones the process may run on: a
    pool sized from it starts one thread per CPU even under taskset or a
    cpuset. Pools size themselves from osal::UsableCpus(), the affinity
    mask.

metric-doc
    Every "rr_..." series name literal must appear in the README.md of
    the nearest ancestor directory — an operator reads the metrics table
    there, so a series nobody documented is one nobody can interpret.
    README tokens expand brace shorthand (`rr_wire_bytes_{sent,received}
    _total` documents both names); a `{...}` that ends a token is a label
    list (`rr_channel_bytes_total{mode,direction}`), not shorthand.

Suppression
-----------
Append `// rr-lint: allow(<rule>)` to a line to suppress one finding,
e.g. `std::mutex mu;  // rr-lint: allow(raw-mutex)`. Suppressions are
per-line and per-rule.

Implementation notes
--------------------
Prefers libclang when importable (precise lexing), else falls back to a
resilient regex pass: comments and string literals are stripped first,
so commented-out code never fires, and function extents are tracked by
brace depth. The fallback is the mode exercised by CI and the unit
tests; libclang only tightens token boundaries.

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

try:  # pragma: no cover - environment-dependent
    import clang.cindex  # type: ignore

    HAVE_LIBCLANG = True
except Exception:  # pragma: no cover
    HAVE_LIBCLANG = False

RULES = {
    "reactor-blocking": (
        "blocking call reachable from a reactor-thread entry point"
    ),
    "lease-member": (
        "pool lease stored as a class member (leases must not outlive a "
        "dispatch)"
    ),
    "region-guard": (
        "PlaceRegion result not covered by a RegionGuard in the same scope"
    ),
    "raw-mutex": (
        "raw std:: synchronization primitive outside common/mutex.h"
    ),
    "hardware-concurrency": (
        "hardware_concurrency() outside osal/cpus.cc (size pools from "
        "osal::UsableCpus)"
    ),
    "metric-doc": (
        "rr_* series name missing from the nearest ancestor README.md"
    ),
}

# Calls that block the calling thread. Matched as identifier(, so data
# members named e.g. `sleep_total` never fire.
BLOCKING_CALLS = [
    r"\.wait",          # CondVar / condition_variable wait, wait_for, wait_until
    r"->wait",
    r"\.Wait",          # Invocation::Wait / WaitFor, Epoll::Wait
    r"->Wait",
    r"\.Acquire",       # InstancePool / ShimPool lease acquisition
    r"->Acquire",
    r"\.ReadExact",     # transport blocking reads/writes
    r"->ReadExact",
    r"\.WriteAll",
    r"->WriteAll",
    r"\brecv",
    r"\baccept4?",
    r"\bpoll",
    r"\bselect",
    r"\bsleep_for",
    r"\bsleep_until",
    r"\busleep",
    r"\bnanosleep",
    r"\.join",          # thread join
    r"->join",
]
BLOCKING_RE = re.compile(
    "(" + "|".join(p + r"\s*\(" for p in BLOCKING_CALLS) + ")"
)

# Non-blocking exceptions that the patterns above would otherwise catch.
# Epoll::Wait with timeout 0 and try-variants are the callers'
# responsibility to suppress explicitly; we keep the exception list empty
# so the rule has no invisible holes.

LEASE_TYPES = r"(?:core::)?ShimLease|(?:runtime::)?InstancePool::Lease"
# A member: `Type name;` or `Type name = ...;` or `std::optional<Type> ...`
# at class scope. Heuristic: inside a class/struct body, a declaration
# line (ends with ; and is not inside a function).
LEASE_DECL_RE = re.compile(
    r"^\s*(?:std::optional<\s*)?(?:" + LEASE_TYPES + r")\b[^();]*;\s*$"
)

PLACE_REGION_RE = re.compile(r"\bPlaceRegion\s*\(")
REGION_GUARD_RE = re.compile(r"\bRegionGuard\b")

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b"
)

HARDWARE_CONCURRENCY_RE = re.compile(r"\bhardware_concurrency\s*\(")

# A whole string literal naming a series, e.g. "rr_submit_total".
SERIES_LITERAL_RE = re.compile(r'"(rr_[a-z0-9_]+)"')
# A series token in a README: word characters with optional `{...}` groups,
# e.g. rr_wire_bytes_{sent,received}_total or rr_channel_bytes_total{mode}.
README_SERIES_RE = re.compile(r"rr_\w*(?:\{[^{}\s]*\}\w*)*")

REACTOR_ENTRY_MARK = "rr-lint: reactor-thread"
ALLOW_RE = re.compile(r"rr-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

FUNC_DEF_RE = re.compile(
    r"^[^#/=\s][^;={}]*?\b([A-Za-z_]\w*)\s*\([^;]*$"  # name( ... no ; → defn
)
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")

CALL_KEYWORD_BLACKLIST = {
    "if", "for", "while", "switch", "return", "sizeof", "static_cast",
    "reinterpret_cast", "const_cast", "dynamic_cast", "catch", "new",
    "delete", "alignof", "decltype", "noexcept", "defined", "assert",
}


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass
class SourceFile:
    path: str
    raw_lines: List[str]
    # Code with comments/strings blanked, line structure preserved.
    code_lines: List[str]
    # line number (1-based) -> set of rules allowed on that line
    allows: Dict[int, Set[str]] = field(default_factory=dict)
    reactor_entry_lines: List[int] = field(default_factory=list)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving newlines and
    column positions, so line/col numbers of findings stay true."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal? R"delim( ... )delim"
                if i >= 1 and text[i - 1] == "R" and (
                    i < 2 or not (text[i - 2].isalnum() or text[i - 2] == "_")
                ):
                    m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "raw"
                        out.append('"')
                        i += 1
                        continue
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                out.append('"' + " " * (len(raw_delim) - 1))
                i += len(raw_delim)
                state = "code"
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def load_source(path: str) -> SourceFile:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()
    # Pad so both views always have equal length.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")
    sf = SourceFile(path=path, raw_lines=raw_lines, code_lines=code_lines)
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")}
            sf.allows.setdefault(idx, set()).update(rules)
            # A standalone comment line suppresses the line it precedes.
            code = code_lines[idx - 1] if idx - 1 < len(code_lines) else ""
            if not code.strip():
                sf.allows.setdefault(idx + 1, set()).update(rules)
        if REACTOR_ENTRY_MARK in line and "allow(" not in line:
            # The mark annotates the NEXT function definition (or the same
            # line, for trailing comments on a signature).
            sf.reactor_entry_lines.append(idx)
    return sf


def allowed(sf: SourceFile, line: int, rule: str) -> bool:
    return rule in sf.allows.get(line, ())


# --------------------------------------------------------------------------
# Function extent extraction (regex fallback): maps each function-definition
# body to (name, start_line, end_line) using brace depth tracking on the
# comment-stripped text.


@dataclass
class FuncExtent:
    name: str
    start: int  # signature line (1-based)
    body_start: int
    body_end: int


def extract_functions_braced(sf: SourceFile) -> List[FuncExtent]:
    """Simpler, more robust extractor: find `name (args) ... {` openings and
    match their closing brace. Nested blocks stay inside the enclosing
    function, which is exactly right for reachability."""
    text = "\n".join(sf.code_lines)
    funcs: List[FuncExtent] = []
    # name(...) possibly followed by const/noexcept/override/attributes, then {
    for m in re.finditer(
        r"\b([A-Za-z_][\w:~]*)\s*\(((?:[^()]|\([^()]*\))*)\)"
        r"\s*(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?"
        r"(?:RR_\w+\s*(?:\([^()]*\))?\s*)*(?:->\s*[\w:<>,\s&*]+)?\s*\{",
        text,
    ):
        name = m.group(1).split("::")[-1]
        if name in CALL_KEYWORD_BLACKLIST:
            continue
        # All-caps identifiers are macros (RR_REQUIRES, RR_TRACE_SPAN, ...),
        # not function definitions.
        if re.fullmatch(r"[A-Z][A-Z0-9_]*", name):
            continue
        open_pos = m.end() - 1
        depth = 0
        end_pos = open_pos
        for i in range(open_pos, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    end_pos = i
                    break
        start_line = text.count("\n", 0, m.start()) + 1
        body_start = text.count("\n", 0, open_pos) + 1
        body_end = text.count("\n", 0, end_pos) + 1
        funcs.append(FuncExtent(name, start_line, body_start, body_end))
    return funcs


# --------------------------------------------------------------------------
# Rules


def check_raw_mutex(sf: SourceFile) -> Iterable[Finding]:
    rel = sf.path.replace(os.sep, "/")
    if rel.endswith("common/mutex.h") or rel.endswith(
        "common/thread_annotations.h"
    ):
        return
    for idx, line in enumerate(sf.code_lines, start=1):
        m = RAW_MUTEX_RE.search(line)
        if m and not allowed(sf, idx, "raw-mutex"):
            yield Finding(
                "raw-mutex",
                sf.path,
                idx,
                f"{m.group(0)} bypasses rr::Mutex — the thread-safety "
                "analysis cannot see what it guards "
                "(use common/mutex.h, or // rr-lint: allow(raw-mutex))",
            )


def check_hardware_concurrency(sf: SourceFile) -> Iterable[Finding]:
    if sf.path.replace(os.sep, "/").endswith("osal/cpus.cc"):
        return
    for idx, line in enumerate(sf.code_lines, start=1):
        if HARDWARE_CONCURRENCY_RE.search(line) and not allowed(
            sf, idx, "hardware-concurrency"
        ):
            yield Finding(
                "hardware-concurrency",
                sf.path,
                idx,
                "hardware_concurrency() counts the machine's CPUs, not the "
                "affinity mask — size the pool from osal::UsableCpus() "
                "(or // rr-lint: allow(hardware-concurrency))",
            )


def check_lease_member(sf: SourceFile) -> Iterable[Finding]:
    # Track whether a line sits inside a class/struct body but outside any
    # function body. Heuristic: member declarations match LEASE_DECL_RE and
    # function bodies are excluded by extent.
    funcs = extract_functions_braced(sf)
    in_func = set()
    for f in funcs:
        for ln in range(f.body_start, f.body_end + 1):
            in_func.add(ln)
    for idx, line in enumerate(sf.code_lines, start=1):
        if idx in in_func:
            continue
        if LEASE_DECL_RE.match(line) and not allowed(sf, idx, "lease-member"):
            yield Finding(
                "lease-member",
                sf.path,
                idx,
                "pool lease held as a member — a lease pins a pooled "
                "instance and must not outlive one dispatch "
                "(hold it on the stack, or // rr-lint: allow(lease-member))",
            )


def check_region_guard(sf: SourceFile) -> Iterable[Finding]:
    funcs = extract_functions_braced(sf)
    for idx, line in enumerate(sf.code_lines, start=1):
        if not PLACE_REGION_RE.search(line):
            continue
        if allowed(sf, idx, "region-guard"):
            continue
        # Find the innermost function containing this call; look for a
        # RegionGuard mention anywhere in that function. (Scope-precise
        # would need a real AST; same-function is the useful approximation
        # and matches how the codebase pairs them.)
        containing = None
        for f in funcs:
            if f.body_start <= idx <= f.body_end:
                if containing is None or (
                    f.body_end - f.body_start
                    < containing.body_end - containing.body_start
                ):
                    containing = f
        # The definition of PlaceRegion itself is not a call site.
        if containing is not None and containing.name == "PlaceRegion":
            continue
        search_lines = (
            sf.code_lines[containing.body_start - 1 : containing.body_end]
            if containing
            else sf.code_lines
        )
        if not any(REGION_GUARD_RE.search(l) for l in search_lines):
            yield Finding(
                "region-guard",
                sf.path,
                idx,
                "PlaceRegion without a RegionGuard in the same function — "
                "an early return leaks the guest region "
                "(wrap it, or // rr-lint: allow(region-guard))",
            )


def check_reactor_blocking(sf: SourceFile) -> Iterable[Finding]:
    if not sf.reactor_entry_lines:
        return
    funcs = extract_functions_braced(sf)
    by_name: Dict[str, List[FuncExtent]] = {}
    for f in funcs:
        by_name.setdefault(f.name, []).append(f)

    def containing(idx: int) -> Optional[FuncExtent]:
        best = None
        for f in funcs:
            if f.body_start <= idx <= f.body_end:
                if best is None or (
                    f.body_end - f.body_start < best.body_end - best.body_start
                ):
                    best = f
        return best

    # Roots: the function whose definition follows each marker comment.
    roots: List[FuncExtent] = []
    for mark_line in sf.reactor_entry_lines:
        candidates = [
            f
            for f in funcs
            if f.start >= mark_line or f.body_start <= mark_line <= f.body_end
        ]
        root = None
        for f in candidates:
            if f.body_start <= mark_line <= f.body_end:
                root = f  # mark inside the body (e.g. on the lambda line)
                break
        if root is None and candidates:
            root = min(candidates, key=lambda f: f.start)
        if root is not None:
            roots.append(root)

    # Intra-file call graph: function name -> called names.
    calls: Dict[str, Set[str]] = {}
    for f in funcs:
        names: Set[str] = set()
        for line in sf.code_lines[f.body_start - 1 : f.body_end]:
            for m in CALL_RE.finditer(line):
                name = m.group(1)
                if name not in CALL_KEYWORD_BLACKLIST and name in by_name:
                    names.add(name)
        calls[f.name] = names

    # BFS from the roots.
    reachable: Set[str] = set()
    frontier = [r.name for r in roots]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        frontier.extend(calls.get(name, ()))

    reported: Set[Tuple[int, str]] = set()
    for f in funcs:
        if f.name not in reachable:
            continue
        for off, line in enumerate(
            sf.code_lines[f.body_start - 1 : f.body_end],
            start=f.body_start,
        ):
            m = BLOCKING_RE.search(line)
            if not m:
                continue
            if allowed(sf, off, "reactor-blocking"):
                continue
            key = (off, m.group(0))
            if key in reported:
                continue
            reported.add(key)
            yield Finding(
                "reactor-blocking",
                sf.path,
                off,
                f"blocking call {m.group(0).strip()}...) in `{f.name}`, "
                "reachable from a reactor-thread entry point — a blocked "
                "handler stalls every connection of the loop "
                "(defer to a worker, or // rr-lint: allow(reactor-blocking))",
            )


def expand_series(token: str) -> List[str]:
    """The series names one README token documents: brace shorthand expands
    to every alternative, and a trailing `{...}` (a label list) is dropped."""
    m = re.search(r"\{([^{}]*)\}", token)
    if m is None:
        return [token]
    if m.end() == len(token):
        return [token[: m.start()]]
    names: List[str] = []
    for alternative in m.group(1).split(","):
        names.extend(expand_series(
            token[: m.start()] + alternative.strip() + token[m.end():]))
    return names


@functools.lru_cache(maxsize=None)
def documented_series(readme: str) -> FrozenSet[str]:
    with open(readme, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    return frozenset(name for token in README_SERIES_RE.findall(text)
                     for name in expand_series(token))


def nearest_readme(path: str) -> Optional[str]:
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        candidate = os.path.join(directory, "README.md")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def check_metric_doc(sf: SourceFile) -> Iterable[Finding]:
    readme = nearest_readme(sf.path)
    documented = documented_series(readme) if readme else frozenset()
    where = os.path.relpath(readme) if readme else "any ancestor README.md"
    for idx, line in enumerate(sf.raw_lines, start=1):
        code = sf.code_lines[idx - 1]
        for m in SERIES_LITERAL_RE.finditer(line):
            # The opening quote survives comment stripping only in code, so
            # a series named inside a comment never fires.
            if (code[m.start():m.start() + 1] != '"'
                    or m.group(1) in documented
                    or allowed(sf, idx, "metric-doc")):
                continue
            yield Finding(
                "metric-doc",
                sf.path,
                idx,
                f"series {m.group(1)} is not documented in {where} — add it "
                "to the metrics table an operator reads "
                "(or // rr-lint: allow(metric-doc))",
            )


CHECKS = {
    "reactor-blocking": check_reactor_blocking,
    "lease-member": check_lease_member,
    "region-guard": check_region_guard,
    "raw-mutex": check_raw_mutex,
    "hardware-concurrency": check_hardware_concurrency,
    "metric-doc": check_metric_doc,
}


def lint_file(path: str, rules: Iterable[str]) -> List[Finding]:
    sf = load_source(path)
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(CHECKS[rule](sf))
    return findings


def iter_sources(paths: List[str]) -> Iterable[str]:
    exts = (".h", ".hpp", ".cc", ".cpp", ".cxx")
    for p in paths:
        if os.path.isfile(p):
            if p.endswith(exts):
                yield p
            continue
        for root, dirs, files in os.walk(p):
            dirs[:] = sorted(d for d in dirs if not d.startswith("."))
            for name in sorted(files):
                if name.endswith(exts):
                    yield os.path.join(root, name)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rr-lint", description=__doc__.splitlines()[0]
    )
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument(
        "--rules",
        default=",".join(RULES),
        help="comma-separated rule subset (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rules and exit"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, desc in RULES.items():
            print(f"{name}: {desc}")
        return 0

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in RULES]
    if unknown:
        print(f"rr-lint: unknown rule(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    if not args.paths:
        print("rr-lint: no paths given", file=sys.stderr)
        return 2

    findings: List[Finding] = []
    for path in iter_sources(args.paths):
        findings.extend(lint_file(path, rules))
    findings.sort(key=lambda f: (f.path, f.line))

    if args.json:
        print(json.dumps([f.to_json() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.format())
        if findings:
            print(f"rr-lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
