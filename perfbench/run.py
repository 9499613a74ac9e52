#!/usr/bin/env python3
"""Build and run the end-to-end simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload chain|city|lossy --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --short

The first call configures and builds perfbench/ (the simulator sources under
src/ plus perfbench.cc) as an optimized CMake build in .bench_build/ at the
repository root; later calls only rebuild what changed. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON report. Exits 2
without a report when the sources or the toolchain are missing or the build
fails.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd: list[str]) -> None:
    """Runs a build step with its output on stderr; exits 2 on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if result.returncode != 0:
        fail(f"build step failed ({result.returncode}): {' '.join(cmd)}")


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)])


def source_id() -> str:
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git") is not None:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(BENCH_DIR.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main() -> int:
    build()
    cmd = [str(BINARY), *sys.argv[1:], "--commit", source_id()]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
