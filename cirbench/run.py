#!/usr/bin/env python3
"""Builds and runs the CirEval benchmark.

Usage, from the root of the repository:

    python3 cirbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `cirbench` package in release mode (into `CARGO_TARGET_DIR` when
it is set, else `cirbench/target`), prints one line recording the commit,
`rustc -V` and the core count, then runs `cirbench` (`--trace 0`, end-to-end
metrics) or `cirbench-traced` (`--trace 1`, per-layer metrics). The last line
of standard output is the run's JSON result. Exits non-zero, without a
result, if the build or the run fails or any `MPC_*` variable is set.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
# A run makes a fixed amount of work sized to --seconds; this only stops a
# hung run.
RUN_TIMEOUT_S = 170


def probe(cmd):
    """The first line a command prints, or 'unknown' if it cannot run."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main(argv):
    knobs = sorted(k for k in os.environ if k.startswith("MPC_"))
    if knobs:
        print(f"cirbench: refusing to run with {knobs} set", file=sys.stderr)
        return 2
    trace = "0"
    if "--trace" in argv[:-1]:
        trace = argv[argv.index("--trace") + 1]
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("cirbench: build failed", file=sys.stderr)
        return build.returncode
    env = {
        "commit": probe(["git", "-C", str(HERE), "rev-parse", "HEAD"]),
        "rustc": probe(["rustc", "-V"]),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({"env": env}), flush=True)
    binary = target / "release" / ("cirbench-traced" if trace == "1" else "cirbench")
    try:
        run = subprocess.run([str(binary), *argv], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"cirbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
