#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 25 --trace 0

Every argument is passed to the perfbench binary (see main.go). The Go
build cache, the binary and the Go tool's own state all live under
.bench_build/ in the repository root (or $CARGO_TARGET_DIR when set), so
the run writes nothing outside the checkout. The last line of standard
output is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_env(out):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOENV": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = build_env(out)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--reference", os.path.join(HERE, "reference.json")] + sys.argv[1:]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
