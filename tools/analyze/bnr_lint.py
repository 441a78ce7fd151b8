#!/usr/bin/env python3
"""bnr_lint: project-specific secret-hygiene and invariant linter.

Checks C++ sources for violations of repo rules that generic tooling cannot
express (see docs/static-analysis.md for the rule catalogue):

  BNR-L001  wire-side container sizing must flow through ByteReader::count
  BNR-L002  no blocking/crypto work on IO-loop paths in rpc_server.cpp
  BNR-L003  no ad-hoc randomness outside common/rng
  BNR-L004  no raw memcmp on secret/token material (use bnr::ct_equal)
  BNR-L005  no logging of secret-typed or secret-named values
  BNR-L006  atomic RMW counters must state a memory order explicitly

Engine: uses libclang for comment/string stripping when the python bindings
and a libclang shared object are importable (`--engine clang`), and a pure
stdlib lexer otherwise (`--engine regex`). The default `--engine auto` tries
clang and falls back — the fallback is a full implementation, not a skip, so
CI runs the same rules either way.

Exit codes: 0 clean (or all findings baselined), 1 new/stale findings,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Findings


@dataclass
class Finding:
    rule: str
    file: str  # repo-relative, forward slashes
    line: int  # 1-based
    message: str
    hint: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule}: {self.message}\n" \
               f"    hint: {self.hint}"


# ---------------------------------------------------------------------------
# Source cleaning: blank out comments and string/char literals, preserving
# line structure and column positions so finding locations stay exact.


def clean_source_regex(text: str) -> str:
    """Stdlib lexer: replaces comment/string contents with spaces."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == '"' or c == "'":
            quote = c
            # Raw string literal R"delim( ... )delim"
            if quote == '"' and i >= 1 and text[i - 1] == "R":
                m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
                if m:
                    delim = m.group(1)
                    end = text.find(")" + delim + '"', i + len(m.group(0)))
                    end = n if end == -1 else end + len(delim) + 2
                    for j in range(i, end):
                        out.append("\n" if text[j] == "\n" else " ")
                    i = end
                    continue
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def clean_source_clang(text: str, path: str) -> str:
    """libclang lexer: same contract as clean_source_regex.

    Tokenizes with clang and keeps only non-comment tokens; string/char
    literals are kept as bare quotes. Raises on any libclang trouble —
    callers fall back to the regex cleaner.
    """
    import clang.cindex as ci  # noqa: PLC0415 — optional dependency

    index = ci.Index.create()
    tu = index.parse(path, args=["-std=c++20"],
                     unsaved_files=[(path, text)],
                     options=ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
    lines = text.split("\n")
    blank = [" " * len(l) for l in lines]
    out = [list(b) for b in blank]

    def put(line0: int, col0: int, s: str) -> None:
        row = out[line0]
        for k, ch in enumerate(s):
            if col0 + k < len(row):
                row[col0 + k] = ch

    for tok in tu.get_tokens(extent=tu.cursor.extent):
        if tok.kind == ci.TokenKind.COMMENT:
            continue
        loc = tok.extent.start
        line0, col0 = loc.line - 1, loc.column - 1
        spelling = tok.spelling
        if tok.kind == ci.TokenKind.LITERAL and spelling[:1] in "\"'R":
            quote = '"' if '"' in spelling else "'"
            put(line0, col0, quote + quote)
            continue
        for part in spelling.split("\n"):  # multi-line tokens stay aligned
            put(line0, col0, part)
            line0, col0 = line0 + 1, 0
    return "\n".join("".join(row) for row in out)


def clean_source(text: str, path: str, engine: str) -> tuple[str, str]:
    """Returns (cleaned_text, engine_used)."""
    if engine in ("clang", "auto"):
        try:
            return clean_source_clang(text, path), "clang"
        except Exception:
            if engine == "clang":
                raise
    return clean_source_regex(text), "regex"


def join_statement(lines: list[str], start: int) -> tuple[str, int]:
    """Joins lines[start:] until parens balance or a ';' at depth 0.

    Returns (joined_text, last_line_index). Bounded lookahead keeps a
    pathological file from going quadratic.
    """
    depth = 0
    parts = []
    for idx in range(start, min(start + 40, len(lines))):
        line = lines[idx]
        parts.append(line)
        depth += line.count("(") - line.count(")")
        if depth <= 0 and ";" in line:
            return " ".join(parts), idx
    return " ".join(parts), min(start + 39, len(lines) - 1)


# ---------------------------------------------------------------------------
# Rules. Each takes (relpath, cleaned lines) and yields Findings.

SECRETISH = re.compile(
    r"\b(secret\w*|\w*_secret|token\w*|\w*token|seed\w*|share\w*|\w*_share|"
    r"\w*digest\w*|\bsk\b|sk_\w*|mac\b|key_material\w*)\b", re.IGNORECASE)

READER_TAINT = re.compile(
    r"\b(?:uint32_t|uint64_t|uint16_t|size_t|auto)?\s*"
    r"(?:const\s+)?(\w+)\s*=\s*\w+\.(u16|u32|u64)\(\)")
READER_LAUNDER = re.compile(r"\b(\w+)\s*=\s*\w+\.count\(")
ALLOC_CALL = re.compile(r"\.(resize|reserve)\(\s*(\w+)\s*[),]")


def rule_l001(relpath: str, lines: list[str]):
    """Tainted wire length drives an allocation without a count() bound."""
    if "ByteReader" not in "\n".join(lines):
        return
    tainted: set[str] = set()
    for i, line in enumerate(lines):
        m = READER_LAUNDER.search(line)
        if m:
            tainted.discard(m.group(1))
        else:
            m = READER_TAINT.search(line)
            if m:
                tainted.add(m.group(1))
        for am in ALLOC_CALL.finditer(line):
            var = am.group(2)
            if var in tainted:
                yield Finding(
                    "BNR-L001", relpath, i + 1,
                    f"`.{am.group(1)}({var})` sized by a raw wire integer "
                    f"({var} came from a ByteReader u32/u64 read)",
                    "read the length with ByteReader::count(min_elem_bytes) "
                    "so a malformed frame throws instead of allocating")


L002_BANNED = re.compile(
    r"\b(parse_signature|parse_partial|parse_public_key|pairing_product_is_one|"
    r"canonical_public_key|make_verifier|make_combiner|"
    r"pairing|sleep_for|sleep|usleep|nanosleep|poll|select)\s*\(")
# Calls whose closure arguments run on the pool: offload/submit/post, the
# daemon's dispatch() (a request's pool-side work), and the services'
# constructors (their key providers run on fold tasks).
L002_OFFLOAD_OPEN = re.compile(
    r"\b(offload|submit|post|dispatch|MultiTenant\w+Service>)\s*\(")


def rule_l002(relpath: str, lines: list[str]):
    """Blocking, parsing or pairing-grade work on the IO loop in rpc_server.cpp."""
    if "rpc_server" not in os.path.basename(relpath):
        return
    # Compute paren-balanced exemption regions opened by L002_OFFLOAD_OPEN
    exempt = [False] * len(lines)
    depth = 0
    in_region = False
    for i, line in enumerate(lines):
        col = 0
        if not in_region:
            m = L002_OFFLOAD_OPEN.search(line)
            if m:
                in_region = True
                depth = 0
                col = m.end() - 1  # start counting at the opening paren
        if in_region:
            exempt[i] = True
            depth += line.count("(", col) - line.count(")", col)
            if depth <= 0:
                in_region = False
    decl_before = re.compile(
        r"(?<![.:>])\b(?!return\b|throw\b|else\b|do\b|case\b|co_return\b)"
        r"[A-Za-z_]\w*[\s*&]+$")
    for i, line in enumerate(lines):
        if exempt[i]:
            continue
        m = L002_BANNED.search(line)
        if m and not decl_before.search(line[:m.start()]):
            yield Finding(
                "BNR-L002", relpath, i + 1,
                f"`{m.group(1)}(` on an IO-loop path (outside any "
                "offload/dispatch(...) region)",
                "stage the work on the pool via dispatch()/offload()/submit() "
                "so the epoll loop goes straight back to its sockets")


L003_BANNED = re.compile(r"\b(rand|srand)\s*\(|std::random_device|\brandom_device\b")


def rule_l003(relpath: str, lines: list[str]):
    """Ad-hoc randomness outside the seedable common/rng generator."""
    if relpath.replace("\\", "/").startswith("src/common/rng"):
        return
    for i, line in enumerate(lines):
        m = L003_BANNED.search(line)
        if m:
            what = m.group(1) + "()" if m.group(1) else "std::random_device"
            yield Finding(
                "BNR-L003", relpath, i + 1,
                f"{what} used outside common/rng",
                "use bnr::Rng (seedable, ChaCha20) — from_entropy() for "
                "real entropy, a label seed for reproducible tests")


def rule_l004(relpath: str, lines: list[str]):
    """Raw memcmp on secret-looking operands: timing leak."""
    for i, line in enumerate(lines):
        if "memcmp" not in line:
            continue
        stmt, _ = join_statement(lines, i)
        m = re.search(r"\bmemcmp\s*\(([^;]*)", stmt)
        if m and SECRETISH.search(m.group(1)):
            yield Finding(
                "BNR-L004", relpath, i + 1,
                "raw memcmp on secret/token material — early-exit compare "
                "leaks a timing oracle",
                "use bnr::ct_equal (common/secret.hpp): XOR-accumulate, "
                "no data-dependent branch")


L005_VALUE = re.compile(r"\breveal(_mut)?\s*\(|\b(secret_share|final_share|"
                        r"secret\w*|seed\w*|admin_token)\b")


def rule_l005(relpath: str, lines: list[str]):
    """Secret-typed or secret-named values in a BNR_LOG statement."""
    i = 0
    while i < len(lines):
        if "BNR_LOG" not in lines[i]:
            i += 1
            continue
        stmt, last = join_statement(lines, i)
        if L005_VALUE.search(stmt):
            yield Finding(
                "BNR-L005", relpath, i + 1,
                "BNR_LOG statement references secret material "
                "(reveal()/secret-named identifier)",
                "log sizes, indices, or digests — never share or seed "
                "values; kv() is deleted for Secret<T> for the same reason")
        i = last + 1


def rule_l006(relpath: str, lines: list[str]):
    """fetch_add/fetch_sub with the default (seq_cst) memory order."""
    i = 0
    while i < len(lines):
        line = lines[i]
        m = re.search(r"\bfetch_(add|sub)\s*\(", line)
        if not m:
            i += 1
            continue
        stmt, last = join_statement(lines, i)
        call = re.search(r"\bfetch_(?:add|sub)\s*\(([^;]*)", stmt)
        if call and "memory_order" not in call.group(1):
            yield Finding(
                "BNR-L006", relpath, i + 1,
                f"fetch_{m.group(1)} without an explicit memory order "
                "(defaults to seq_cst)",
                "stat counters want std::memory_order_relaxed; if you need "
                "ordering, name it (acq_rel/release) so the intent is read")
        i = last + 1


RULES = {
    "BNR-L001": rule_l001,
    "BNR-L002": rule_l002,
    "BNR-L003": rule_l003,
    "BNR-L004": rule_l004,
    "BNR-L005": rule_l005,
    "BNR-L006": rule_l006,
}

RULE_SUMMARIES = {
    "BNR-L001": "wire-side resize/reserve must flow through ByteReader::count",
    "BNR-L002": "no blocking/pairing/parse work on rpc_server IO-loop paths",
    "BNR-L003": "no rand()/srand()/std::random_device outside common/rng",
    "BNR-L004": "no raw memcmp on secret/token material — use bnr::ct_equal",
    "BNR-L005": "no BNR_LOG of secret-typed or secret-named values",
    "BNR-L006": "atomic RMW counters must state an explicit memory order",
}


# ---------------------------------------------------------------------------
# Driver

DEFAULT_DIRS = ("src",)
CXX_EXT = (".cpp", ".hpp", ".h", ".cc", ".hh")


def iter_sources(root: str, paths: list[str]):
    if paths:
        for p in paths:
            ap = p if os.path.isabs(p) else os.path.join(root, p)
            if os.path.isdir(ap):
                yield from walk_dir(root, ap)
            elif ap.endswith(CXX_EXT):
                yield ap
        return
    for d in DEFAULT_DIRS:
        yield from walk_dir(root, os.path.join(root, d))


def walk_dir(root: str, d: str):
    for dirpath, _, names in sorted(os.walk(d)):
        for name in sorted(names):
            if name.endswith(CXX_EXT):
                yield os.path.join(dirpath, name)


def lint_file(root: str, path: str, engine: str) -> tuple[list[Finding], str]:
    relpath = os.path.relpath(path, root).replace(os.sep, "/")
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    cleaned, used = clean_source(text, path, engine)
    lines = cleaned.split("\n")
    findings: list[Finding] = []
    for rule_fn in RULES.values():
        findings.extend(rule_fn(relpath, lines))
    return findings, used


def load_baseline(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise ValueError("baseline must be a JSON list")
    return data


def apply_baseline(findings: list[Finding], baseline: list[dict]):
    """Splits findings into (new, suppressed) and finds stale entries."""
    allowed = {(e["rule"], e["file"]): int(e.get("count", 0)) for e in baseline}
    seen: dict[tuple, int] = {}
    new, suppressed = [], []
    for f in findings:
        key = (f.rule, f.file)
        seen[key] = seen.get(key, 0) + 1
        if seen[key] <= allowed.get(key, 0):
            suppressed.append(f)
        else:
            new.append(f)
    stale = [e for e in baseline
             if seen.get((e["rule"], e["file"]), 0) == 0]
    return new, suppressed, stale


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: src/ under --root)")
    ap.add_argument("--root", default=repo_root_guess(),
                    help="repository root for relative paths")
    ap.add_argument("--baseline", help="baseline JSON; new findings fail")
    ap.add_argument("--engine", choices=("auto", "regex", "clang"),
                    default="auto", help="source-cleaning engine")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress per-finding output, print only the summary")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, summary in RULE_SUMMARIES.items():
            print(f"{rule}  {summary}")
        return 0

    engines_used = set()
    findings: list[Finding] = []
    nfiles = 0
    for path in iter_sources(args.root, args.paths):
        nfiles += 1
        try:
            file_findings, used = lint_file(args.root, path, args.engine)
        except Exception as e:  # noqa: BLE001 — a broken file must not kill CI silently
            print(f"bnr_lint: internal error on {path}: {e}", file=sys.stderr)
            return 2
        engines_used.add(used)
        findings.extend(file_findings)

    findings.sort(key=lambda f: (f.file, f.line, f.rule))

    if args.baseline:
        baseline = load_baseline(args.baseline)
        new, suppressed, stale = apply_baseline(findings, baseline)
    else:
        new, suppressed, stale = findings, [], []

    if not args.quiet:
        for f in new:
            print(f.render())
        for e in stale:
            print(f"stale baseline entry: {e['rule']} in {e['file']} — "
                  "file no longer triggers; remove it from the baseline")

    engine_note = "+".join(sorted(engines_used)) or "none"
    print(f"bnr_lint: {nfiles} files, engine={engine_note}: "
          f"{len(new)} new finding(s), {len(suppressed)} baselined, "
          f"{len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'}")
    return 1 if (new or stale) else 0


def repo_root_guess() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(here))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
