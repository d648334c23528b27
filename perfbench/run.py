#!/usr/bin/env python3
"""Build the simulator and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload suite_hot --seed 7 --seconds 10 --trace 0

Run from the repository root. Builds `dtsvliw_run` (the campaign's job
runner) and the `perfbench` package into $CARGO_TARGET_DIR (default
`.bench_build`), runs `perfbench` with the given arguments, and checks that
its result line names exactly the metrics BENCHMARK.json lists for the mode.
Standard output ends with the result line; build output goes to standard
error. Exits non-zero when a build fails, a check fails, or the result does
not match BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(env):
    common = ["cargo", "build", "--release", "--offline", "--quiet"]
    steps = [
        common + ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                  "-p", "dtsvliw-bench", "--bin", "dtsvliw_run"],
        common + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def expected_metrics(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    traced = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]
    return {m["name"] for m in bench["per_layer" if traced else "end_to_end"]}


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *args,
           "--runner", os.path.join(release, "dtsvliw_run"),
           "--work-dir", os.path.join(ROOT, ".bench_work")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: perfbench ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    got = set(json.loads(lines[-1])["metrics"]) if lines else set()
    want = expected_metrics(args)
    if got != want:
        print(f"error: metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
              f"extra {sorted(got - want)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
