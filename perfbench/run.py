#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pirate|sweep|serve --seed N --seconds S --trace 0|1

The Go program is built from source into the build directory
($CARGO_TARGET_DIR, default .bench_build, relative to the checkout root),
with the Go build cache and every temporary file kept there too, so a run
reads and writes only inside the checkout. All arguments are passed on to
the program; its last line of output is the JSON result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home", ".config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
    )
    exe = os.path.join(build, "perfbench")
    # A directory without the repository (only BENCHMARK.json and
    # perfbench/) fails here: the module's replace target ../ is missing.
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=BENCH, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
