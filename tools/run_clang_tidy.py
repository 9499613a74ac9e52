#!/usr/bin/env python3
"""Gate driver for the clang-tidy / clang-analyzer CI leg.

clang-tidy's exit code alone cannot gate a CI leg usefully: warnings do not
fail it, and its raw output repeats one finding per instantiation and mixes
in system-header noise. This driver turns the run into a clean pass/fail:

  * every diagnostic is normalized to a (file, check) pair — duplicates
    collapse, a diagnostic naming several checks splits into one pair per
    check, and diagnostics outside the repo (system headers) are dropped;
  * any remaining pair fails the run: it is printed (and, with --github,
    emitted as an `::error` workflow annotation that surfaces inline on the
    PR) and the run exits 1;
  * `error:` severity diagnostics (real compile failures, not style) fail
    the run too.

Workflow:

  python3 tools/run_clang_tidy.py -p build            # gate src/
  python3 tools/run_clang_tidy.py --self-test         # no clang-tidy needed

Sources default to every .cc under src/. The build dir must have
compile_commands.json (the top-level CMakeLists exports it always).
`--self-test` exercises the parse/gate logic on canned diagnostics so the
gating behavior itself is pinned by ctest in containers that have no
clang-tidy installed.

Exit status: 0 clean, 1 findings or compile errors, 2 usage/environment
error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shutil
import subprocess
import sys

DIAG_RE = re.compile(
    r"^(?P<path>[^:\n]+):(?P<line>\d+):(?P<col>\d+):\s+"
    r"(?P<sev>warning|error):\s+(?P<msg>.*?)\s+\[(?P<checks>[\w.,-]+)\]\s*$")
ERROR_NO_CHECK_RE = re.compile(
    r"^(?P<path>[^:\n]+):(?P<line>\d+):(?P<col>\d+):\s+error:\s+(?P<msg>.*)$")


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def default_sources(root: str) -> list[str]:
    files: list[str] = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".cc"):
                files.append(os.path.join(dirpath, fn))
    return files


def parse_diagnostics(
        text: str, root: str) -> tuple[set[tuple[str, str]], list[str]]:
    """Returns (pairs, errors): normalized (relpath, check) findings and a
    list of hard-error lines. Duplicate (file, check) occurrences collapse —
    the gate reports per file per check, not per line."""
    pairs: set[tuple[str, str]] = set()
    errors: list[str] = []
    for line in text.splitlines():
        m = DIAG_RE.match(line)
        if m:
            rel = os.path.relpath(os.path.join(root, m.group("path")), root) \
                if not os.path.isabs(m.group("path")) \
                else os.path.relpath(m.group("path"), root)
            rel = rel.replace(os.sep, "/")
            if rel.startswith(".."):
                continue  # diagnostics in system headers are not ours
            if m.group("sev") == "error":
                errors.append(line)
                continue
            for check in m.group("checks").split(","):
                pairs.add((rel, check))
            continue
        if ERROR_NO_CHECK_RE.match(line):
            errors.append(line)
    return pairs, errors


def gate(pairs: set[tuple[str, str]], errors: list[str], github: bool) -> int:
    rc = 0
    if errors:
        print(f"run-clang-tidy: {len(errors)} hard error(s):")
        for line in errors:
            print(f"  {line}")
            if github:
                print("::error title=clang-tidy::" + line.replace("%", "%25"))
        rc = 1
    for rel, check in sorted(pairs):
        print(f"FINDING {rel}: [{check}]")
        if github:
            print(f"::error file={rel},title=clang-tidy [{check}]::"
                  "clang-tidy finding inside the repo")
        rc = 1
    if rc == 0:
        print("run-clang-tidy: clean")
    return rc


def self_test() -> int:
    root = "/repo"
    log = "\n".join([
        "src/sim/scheduler.cc:10:5: warning: dead store [clang-analyzer-deadcode.DeadStores]",
        "src/phy/channel.cc:4:1: warning: use '= default' [modernize-use-equals-default]",
        "src/phy/channel.cc:9:1: warning: use '= default' [modernize-use-equals-default]",
        "/usr/include/c++/12/bits/stl_vector.h:99:1: warning: noise [bugprone-foo]",
        "note: this note line is ignored",
    ])
    pairs, errors = parse_diagnostics(log, root)
    assert not errors, errors
    assert pairs == {
        ("src/sim/scheduler.cc", "clang-analyzer-deadcode.DeadStores"),
        ("src/phy/channel.cc", "modernize-use-equals-default"),
    }, pairs  # duplicates collapse, system headers drop

    # An in-repo warning fails, with an inline annotation under --github.
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert gate(pairs, [], github=True) == 1
    assert ("::error file=src/phy/channel.cc,title=clang-tidy "
            "[modernize-use-equals-default]::" in buf.getvalue()), buf.getvalue()

    # A log whose only warnings sit in system headers passes.
    sys_only, errs = parse_diagnostics(
        "/usr/include/c++/12/bits/stl_vector.h:99:1: warning: noise "
        "[bugprone-foo]", root)
    assert not sys_only and not errs
    with contextlib.redirect_stdout(io.StringIO()):
        assert gate(sys_only, errs, github=False) == 0

    # Hard errors fail on their own.
    _, errs = parse_diagnostics(
        "src/sim/scheduler.cc:3:1: error: unknown type name 'Foo'", root)
    assert len(errs) == 1
    with contextlib.redirect_stdout(io.StringIO()):
        assert gate(set(), errs, github=False) == 1

    # Multi-check diagnostics split into one pair per check.
    p2, _ = parse_diagnostics(
        "src/a.cc:1:1: warning: x [bugprone-a,performance-b]", root)
    assert p2 == {("src/a.cc", "bugprone-a"), ("src/a.cc", "performance-b")}
    print("run-clang-tidy self-test OK: parse, dedup, system-header drop, "
          "multi-check split, in-repo warning fails, system-header-only "
          "log passes, hard errors fail")
    return 0


def main(argv: list[str]) -> int:
    doc = __doc__ or ""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("-p", "--build-dir", default="build",
                    help="build dir with compile_commands.json")
    ap.add_argument("--github", action="store_true",
                    help="emit GitHub Actions ::error annotations")
    ap.add_argument("--self-test", action="store_true",
                    help="test the parse/gate logic without clang-tidy")
    ap.add_argument("sources", nargs="*",
                    help="files to analyze (default: src/**/*.cc)")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    root = repo_root()
    tidy = shutil.which("clang-tidy")
    if tidy is None:
        print("run-clang-tidy: clang-tidy not found on PATH", file=sys.stderr)
        return 2
    if not os.path.exists(os.path.join(args.build_dir, "compile_commands.json")):
        print(f"run-clang-tidy: {args.build_dir}/compile_commands.json "
              "missing (configure with CMake first)", file=sys.stderr)
        return 2

    sources = args.sources or default_sources(root)
    cmd = [tidy, "-p", args.build_dir, "--quiet"] + sources
    proc = subprocess.run(cmd, capture_output=True, text=True)
    pairs, errors = parse_diagnostics(proc.stdout + "\n" + proc.stderr, root)
    return gate(pairs, errors, args.github)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
