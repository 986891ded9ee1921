#!/usr/bin/env python3
"""Build and run the gws end-to-end benchmark.

    python3 perfbench/run.py --workload characterize|validate|explore \
        --seed N --seconds S --trace 0|1 [--threads 4]

Run from the repository root. The first call configures and builds
the harness (perfbench/CMakeLists.txt, which compiles the library from
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls only rebuild what changed. Build output goes to
<build dir>/build.log. The harness's standard output is passed
through: its last line is the JSON result.

--seed defaults to 0; when it is given twice the last one counts, so
a command that already carries `--seed 0` still takes a later --seed.
GWS_* environment variables are removed for the harness, so runtime
knobs set in the caller's shell cannot change what is measured.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "gws_perfbench"


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build incrementally; return the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("gws sources not found under " + ROOT)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", BINARY,
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see %s)" % log_path)
    return os.path.join(build_dir, BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["characterize", "validate", "explore"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    env = {k: v for k, v in os.environ.items() if not k.startswith("GWS_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads),
           "--work-dir", os.path.join(build_dir, "run")]
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
