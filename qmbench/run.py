#!/usr/bin/env python3
"""Build and run the queue-machine end-to-end benchmark.

Run from the root of a checkout:

    python3 qmbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 qmbench/run.py --self-test

The first call configures and builds qmbench (and the libraries under
src/) in Release mode into .bench_build/; later calls rebuild only what
changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Spans, result records
and scratch checkpoint files go to .bench_out/.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
BUILD = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "qmbench")
BINARY = os.path.join(BUILD, "qmbench")


def fail(message):
    print(f"qmbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no src/CMakeLists.txt under {ROOT}: run from a checkout "
             "of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except FileNotFoundError:
            fail("cmake not found")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def bench(args, capture=True):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    done = subprocess.run([BINARY, *args, "--out", OUT], cwd=ROOT,
                          stdout=subprocess.PIPE if capture else None,
                          text=True)
    code = done.returncode if done.returncode >= 0 else 128 - done.returncode
    return code, done.stdout.splitlines() if capture else []


def self_test():
    """Check the benchmark's own contract: metric names and units as
    BENCHMARK.json declares them, verification that really runs, and
    simulated counts that repeat across processes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if not workload.get("why", "").strip():
            problems.append(f"{name}: BENCHMARK.json gives no why")
        digests = []
        for trace, seed, extra in ((0, 1, []), (1, 1, []), (0, 1, []),
                                   (0, 424242, []),
                                   (0, 1, ["--corrupt-expected"])):
            args = ["--workload", name, "--seed", str(seed),
                    "--seconds", "1", "--trace", str(trace), *extra]
            code, lines = bench(args)
            label = f"{name} {' '.join(args[2:])}"
            if code != 0 or len(lines) < 2:
                problems.append(f"{label}: exit {code}, no result")
                continue
            meta, result = json.loads(lines[-2]), json.loads(lines[-1])
            metrics = result["metrics"]
            got = {k: v["unit"] for k, v in metrics.items()}
            if got != declared[trace]:
                problems.append(f"{label}: metrics {sorted(got)} do not "
                                "match BENCHMARK.json")
            if extra:
                if result["correct"] or result["failed"] != \
                        result["attempted"] or \
                        metrics["verified_ratio"]["value"] != 0:
                    problems.append(f"{label}: corrupted expected values "
                                    "were not counted as failures")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} jobs failed")
            if trace == 0:
                zero = [k for k, v in metrics.items() if v["value"] == 0]
                if zero:
                    problems.append(f"{label}: zero metrics {zero}")
                if seed == 1:
                    digests.append(meta["sim_counts_digest"])
        if len(set(digests)) > 1:
            problems.append(f"{name}: simulated counts differ between two "
                            f"runs of one seed: {digests}")
        print(f"self-test {name}: done", file=sys.stderr)
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    build()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    code, _ = bench(sys.argv[1:], capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
