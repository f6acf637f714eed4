#!/usr/bin/env python3
"""Build perfbench from the enclosing checkout and run it.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload lookup-heavy --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary. Build outputs, the Go
build cache, result records, span dumps and the durable workload's store
all live under one build directory inside the checkout: $CARGO_TARGET_DIR
when set, otherwise .bench_build. The benchmark's last line of standard
output is its JSON result; without the library sources beside this
directory the build fails and the script exits non-zero.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_revision(build_dir):
    """The git commit when the checkout is a repository, else a digest of
    the Go sources, so results from a plain source tree still name the
    code they measured."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "describe", "--always", "--dirty"],
                capture_output=True, text=True, check=True, timeout=30)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    skip = os.path.abspath(build_dir)
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and os.path.join(dirpath, d) != skip)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    tmp = os.path.join(build_dir, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    for d in (build_dir, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, *sys.argv[1:],
            "--out", os.path.join(build_dir, "results"),
            "--tmp", tmp,
            "--commit", source_revision(build_dir)]
    # Replace this process, so whoever stops it stops the benchmark.
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
