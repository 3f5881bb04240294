#!/usr/bin/env python3
"""Checks the workspace lint policy (DESIGN.md §13) and proves that it bites.

The policy lives in three places: the lint levels in the root Cargo.toml's
`[workspace.lints]`, the banned types and methods in clippy.toml, and the
panic deny that heads each hot-path file. This script checks three things:

1. Fixtures. It runs clippy on the detached crate `lint-fixtures/` with
   the levels of `[workspace.lints]` and the root clippy.toml. Diagnostics
   must land on exactly the lines that end in a `//~ <lint>` marker
   (`//~^ <lint>` names the line above, as in rustc's UI tests). A marked
   line that stays silent fails, and so does a diagnostic on any other
   line. The float-literal check below runs on the fixtures too,
   under the name `exact-float`.
2. Hot-path header. The three hot-path files and the
   `panic_in_hot_path` fixtures carry the same `#![deny(...)]` header,
   so the header the fixtures prove is the header in force.
3. Float literals. No `==` or `!=` against a numeric float literal in
   the score crates, tests included, unless the line or the one above
   carries `// exact-float: <reason>`. An annotation that covers no
   comparison fails too. clippy cannot do this: `float_cmp` is silent on
   `a == 0.0`, on `== f64::INFINITY` and inside any fn whose name starts
   or ends with `eq`.

Usage: python3 scripts/check_lints.py
Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "lint-fixtures"
SCORE_CRATES = ("core", "topk", "index", "geometry", "solver", "storage", "expr")
HOT_PATH_FILES = (
    "crates/server/src/engine.rs",
    "crates/server/src/protocol.rs",
    "crates/storage/src/wal.rs",
)
LEVEL_FLAGS = {"forbid": "-F", "deny": "-D", "warn": "-W", "allow": "-A"}

MARKER = re.compile(r"//~(\^*)((?:\s+[\w:-]+)+)\s*$")
DENY_HEADER = re.compile(r"^#!\[deny\(([^)]*)\)\]", re.M)
ANNOTATION = re.compile(r"//\s*exact-float:")
REASONED_ANNOTATION = re.compile(r"//\s*exact-float:\s*\S")
FLOAT = (
    r"\d[\d_]*(?:\.\d[\d_]*(?:[eE][+-]?\d[\d_]*)?|[eE][+-]?\d[\d_]*)(?:_?f(?:32|64))?"
    r"|\d[\d_]*_?f(?:32|64)"
)
FLOAT_CMP = re.compile(
    rf"(?:==|!=)\s*-?(?:{FLOAT})(?![\w.])|(?<![\w.])(?:{FLOAT})\s*(?:==|!=)"
)
# Comments, string literals and char literals, blanked before the float
# scan. A lifetime (`'a`) has no closing quote, so it is left alone.
NON_CODE = re.compile(
    r"""//[^\n]*
      | /\*.*?\*/
      | b?r(\#*)".*?"\1
      | b?"(?:\\.|[^"\\])*"
      | b?'(?:\\.|[^'\\\n])'""",
    re.S | re.X,
)


def lint_flags():
    """The `[workspace.lints]` table as rustc flags, lowest priority first."""
    with open(ROOT / "Cargo.toml", "rb") as f:
        table = tomllib.load(f)["workspace"]["lints"]
    entries = []
    for tool, lints in table.items():
        prefix = "" if tool == "rust" else f"{tool}::"
        for name, spec in lints.items():
            if isinstance(spec, str):
                spec = {"level": spec}
            entries.append((spec.get("priority", 0), prefix + name, spec["level"]))
    flags = []
    for _, name, level in sorted(entries):
        flags += [LEVEL_FLAGS[level], name]
    return flags


def lint_name(diag):
    """The lint behind a diagnostic. A rustc lint that keeps its error
    code (`unsafe_op_in_unsafe_fn` reports E0133) is named in the note
    that says where its level was set."""
    code = (diag.get("code") or {}).get("code") or ""
    if re.fullmatch(r"E\d{4}", code):
        for child in diag["children"]:
            m = re.search(r"`-[FDWA] ([\w:-]+)`", child["message"])
            if m:
                return m.group(1).replace("-", "_")
    return code


def clippy_trips():
    """(file, line, lint) for each clippy diagnostic on the fixtures."""
    env = dict(os.environ, CLIPPY_CONF_DIR=str(ROOT))
    cmd = [
        "cargo", "clippy", "--offline", "--quiet", "--all-targets",
        "--manifest-path", str(FIXTURES / "Cargo.toml"),
        "--message-format=json", "--", *lint_flags(),
    ]
    run = subprocess.run(cmd, capture_output=True, text=True, env=env)
    trips, stray = set(), []
    for line in run.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") != "compiler-message":
            continue
        diag = msg["message"]
        if diag["level"] not in ("error", "warning"):
            continue
        spans = [s for s in diag["spans"] if s["is_primary"]]
        if not spans and not re.match(r"aborting due to|\d+ warnings? emitted", diag["message"]):
            stray.append(diag["message"])
        for span in spans:
            path = (FIXTURES / span["file_name"]).resolve()
            trips.add((rel(path), span["line_start"], lint_name(diag)))
    if stray or not trips:
        sys.exit(f"clippy did not lint the fixtures:\n{run.stderr}{''.join(stray)}")
    return trips


def float_trips(path):
    """{line number: what is wrong} for the float-literal check on `path`."""
    src = path.read_text()
    raw = src.splitlines()
    code = NON_CODE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), src).splitlines()
    compares = {i for i, line in enumerate(code) if FLOAT_CMP.search(line)}
    bad = {}
    for i in compares:
        if not any(REASONED_ANNOTATION.search(raw[j]) for j in (i - 1, i) if j >= 0):
            bad[i + 1] = (
                "float `==`/`!=` against a literal; compare through rank_cmp or "
                "total_cmp, or annotate `// exact-float: <reason>`"
            )
    for i, line in enumerate(raw):
        if ANNOTATION.search(line) and not {i, i + 1} & compares:
            bad[i + 1] = "`exact-float` annotation covers no float comparison"
    return bad


def rel(path):
    return os.path.relpath(path, ROOT)


def check_fixtures():
    sources = sorted((FIXTURES / "src").rglob("*.rs"))
    expected = set()
    for path in sources:
        for n, line in enumerate(path.read_text().splitlines(), 1):
            m = MARKER.search(line)
            if m:
                at = n - len(m.group(1))
                expected |= {(rel(path), at, lint) for lint in m.group(2).split()}
    actual = clippy_trips()
    for path in sources:
        actual |= {(rel(path), n, "exact-float") for n in float_trips(path)}
    errors = [f"{f}:{n}: expected {lint}, which did not fire" for f, n, lint in expected - actual]
    errors += [f"{f}:{n}: unexpected {lint}" for f, n, lint in actual - expected]
    return sorted(errors), f"{len(expected)} marked trips fire, no other line trips"


def check_hot_path_header():
    files = [ROOT / f for f in HOT_PATH_FILES]
    files += sorted((FIXTURES / "src" / "panic_in_hot_path").glob("*.rs"))
    headers = {}
    for path in files:
        m = DENY_HEADER.search(path.read_text())
        headers[rel(path)] = m and ", ".join(l.strip() for l in m.group(1).split(",") if l.strip())
    if None in headers.values() or len(set(headers.values())) != 1:
        found = "\n".join(f"  {f}: {h}" for f, h in headers.items())
        return [f"hot-path files must share one `#![deny(...)]` header:\n{found}"], ""
    return [], f"{len(files)} files deny {next(iter(headers.values()))}"


def check_float_literals():
    errors, annotated = [], 0
    for name in SCORE_CRATES:
        for path in sorted((ROOT / "crates" / name).rglob("*.rs")):
            annotated += sum(bool(ANNOTATION.search(l)) for l in path.read_text().splitlines())
            errors += [f"{rel(path)}:{n}: {why}" for n, why in float_trips(path).items()]
    return errors, f"{annotated} annotated exact-float sites in the score crates"


def main():
    failed = False
    for name, check in [
        ("fixtures", check_fixtures),
        ("hot-path header", check_hot_path_header),
        ("float literals", check_float_literals),
    ]:
        errors, summary = check()
        if errors:
            failed = True
            print(f"FAIL {name}:", *errors, sep="\n  ")
        else:
            print(f"ok   {name}: {summary}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
