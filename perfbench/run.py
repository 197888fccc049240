#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

Builds `perfbench/` (its own Cargo workspace, path dependencies on
`crates/`) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the `perfbench` binary with the same arguments
plus the run metadata it cannot find itself: the git revision, when the
checkout is a git repository, and a digest of every source file the
binary is built from. The binary's last stdout line is the result.
"""

import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SOURCE_DIRS = ("crates", os.path.basename(BENCH_DIR))
SOURCE_SUFFIXES = (".rs", ".toml", ".lock")
SKIP_DIRS = {"target", ".bench_build"}


def source_digest():
    """sha256 over the relative path and bytes of every source file."""
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS and not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(SOURCE_SUFFIXES):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD of the git repository rooted at this checkout, else "none"."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(BENCH_DIR, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary] + sys.argv[1:] + ["--git-rev", git_rev(), "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
