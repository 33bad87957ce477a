#!/usr/bin/env python3
"""Build and run the MemorEx benchmark.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload conex-pruned --seed 1 --seconds 15 --trace 0

Builds memorexd and the benchmark program with the Go toolchain into
.bench_build/ (honouring CARGO_TARGET_DIR when it names another
directory), keeping the Go build cache and temporary files there too,
then runs the benchmark with the given arguments. Exits non-zero without
printing a result when the source tree is missing or the build fails.
"""

import os
import signal
import subprocess
import sys


def run(cmd, **kw):
    """Runs cmd to completion, passing SIGINT/SIGTERM on to it."""
    proc = subprocess.Popen(cmd, **kw)
    forward = lambda signum, _frame: proc.send_signal(signum)
    old = [signal.signal(s, forward) for s in (signal.SIGINT, signal.SIGTERM)]
    try:
        return proc.wait()
    finally:
        signal.signal(signal.SIGINT, old[0])
        signal.signal(signal.SIGTERM, old[1])


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: run from the root of a MemorEx source checkout", file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bindir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    for d in (bindir, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
    )
    builds = [
        (root, ["go", "build", "-o", os.path.join(bindir, "memorexd"), "./cmd/memorexd"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in builds:
        if run(cmd, cwd=cwd, env=env, stdout=sys.stderr) != 0:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return 2
    cmd = [os.path.join(bindir, "perfbench"), "-memorexd", os.path.join(bindir, "memorexd"),
           "-out", os.path.join(build, "perfbench")] + sys.argv[1:]
    return run(cmd, env=env)


if __name__ == "__main__":
    sys.exit(main())
