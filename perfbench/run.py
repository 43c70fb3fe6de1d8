#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench, then runs one workload; the last line of
standard output is the result JSON. Build output goes to standard error.
The second form runs every workload at a tiny scale and checks that each
prints every metric named in BENCHMARK.json and that a wrong recorded
digest is reported as a failed operation. Exits non-zero on any failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_SEC = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)


def run_binary(args):
    """Runs perfbench; returns (exit code, stdout)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_SEC)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run_binary(["--workload", w, "--seconds", "0.2",
                                    "--scale", "tiny", "--trace", str(trace)])
            res = result_of(out)
            tag = f"{w} --trace {trace}"
            if code != 0 or res is None:
                problems.append(f"{tag}: exit {code}, no result")
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{tag}: {res['failed']} of "
                                f"{res['attempted']} operations failed")
            missing = [m for m in want[trace] if m not in res["metrics"]]
            extra = [m for m in res["metrics"] if m not in want[trace]]
            if missing or extra:
                problems.append(f"{tag}: missing {missing}, unexpected {extra}")
            if trace == 0:
                zero = [m for m, v in res["metrics"].items()
                        if not v["value"] > 0]
                if zero:
                    problems.append(f"{tag}: non-positive {zero}")
            print(f"self-test {tag}: {res['attempted']} operations, "
                  f"{len(res['metrics'])} metrics")
        code, out = run_binary(["--workload", w, "--seconds", "0.2",
                                "--scale", "tiny", "--corrupt-expected"])
        res = result_of(out)
        if (code != 0 or res is None or res["correct"]
                or res["failed"] != res["attempted"]):
            problems.append(f"{w}: a wrong recorded digest was not reported "
                            "as a failed operation")
        else:
            print(f"self-test {w} --corrupt-expected: {res['failed']} of "
                  f"{res['attempted']} operations failed, as intended")
    for p in problems:
        print("self-test FAILED: " + p)
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    try:
        build()
        if args == ["--self-test"]:
            return self_test()
        code, out = run_binary(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
