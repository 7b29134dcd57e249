#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0

Every argument is passed to the binary (see perfbench/main.go). The
binary, the Go build cache and the module cache all live under
.bench_build/ in the checkout, and the build never touches the network,
so the benchmark reads and writes nothing outside the checkout.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    # go build relinks only when a source changed.
    return subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        stdout=sys.stderr,
    ).returncode


def main():
    if not os.path.isfile(os.path.join(ROOT, "perfbench", "go.mod")):
        print("run.py: run from the repository root", file=sys.stderr)
        return 2
    code = build()
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return code or 1
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
