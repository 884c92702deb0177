#!/usr/bin/env python3
"""Scan benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles ../src) into .bench_build/, makes the
seed's fixtures there when missing (never timed), runs the perfbench binary for one
workload and prints, as the last line of stdout, one JSON object with
"correct", "attempted", "failed" and "metrics": the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
Build and progress output goes to stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
FIXTURES = os.path.join(BUILD, "fixtures")
WORK = os.path.join(BUILD, "work")
KEEP_SEEDS = 8  # fixture sets kept on disk (about 50 MB each at scale 1)
RUN_TIMEOUT_S = 170
SELF_TEST_SCALE = 0.05


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_logged(command, timeout):
    """Runs a helper step with its output on stderr; raises on failure."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, check=False)
    if result.returncode != 0:
        raise BenchError("%s exited %d" % (command[0], result.returncode))


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/ next to perfbench/: not a full checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target",
                "perfbench"], timeout=840)


def ensure_fixtures(seed, scale, corpus_args):
    run_logged([BINARY, "fixtures", "--fixtures", FIXTURES, "--seed",
                str(seed), "--scale", repr(scale)] + corpus_args, timeout=300)
    # Bound the disk use of a long series of seeds: drop the oldest
    # per-seed image sets (the corpus images they derive from stay).
    current = "seed-%d" % seed
    sets = [os.path.join(FIXTURES, corpus, name)
            for corpus in os.listdir(FIXTURES)
            if os.path.isdir(os.path.join(FIXTURES, corpus))
            for name in os.listdir(os.path.join(FIXTURES, corpus))
            if name.startswith("seed-") and name != current]
    sets.sort(key=os.path.getmtime)
    for stale in sets[:max(0, len(sets) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(stale, ignore_errors=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_binary(workload, seed, seconds, trace, scale, work, extra=()):
    """Runs one workload; returns the binary's parsed result object."""
    command = [BINARY, "run", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--scale", repr(scale), "--fixtures", FIXTURES, "--work",
               work] + list(extra)
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                            check=False, text=True)
    if result.returncode != 0:
        raise BenchError("perfbench exited %d" % result.returncode)
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed no result")
    return json.loads(lines[-1])


def select_metrics(spec, result, trace):
    """The metrics BENCHMARK.json names for this mode, units checked."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        got = result["metrics"].get(name)
        if got is None:
            raise BenchError("metric %s missing" % name)
        if got.get("unit") != metric["unit"]:
            raise BenchError("metric %s has unit %r, expected %r"
                             % (name, got.get("unit"), metric["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            raise BenchError("metric %s has no numeric value" % name)
        metrics[name] = {"value": got["value"], "unit": metric["unit"]}
    return metrics


def self_test(spec):
    """Every workload once at a small scale, both modes; then a corrupted
    reference must turn every scan into a failed one."""
    seed = 1
    ensure_fixtures(seed, SELF_TEST_SCALE, [])
    work = os.path.join(BUILD, "selftest")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            result = run_binary(workload, seed, 1, trace, SELF_TEST_SCALE,
                                work)
            select_metrics(spec, result, trace)
            if not result["correct"] or result["failed"] != 0:
                raise BenchError("%s (trace %d) reported a failure"
                                 % (workload, trace))
            log("self-test: %s trace %d ok (%d scans)"
                % (workload, trace, result["attempted"]))
    for workload in [w["name"] for w in spec["workloads"]]:
        result = run_binary(workload, seed, 1, False, SELF_TEST_SCALE, work,
                            ["--corrupt-reference"])
        if (result["correct"] or result["attempted"] < 1
                or result["failed"] != result["attempted"]):
            raise BenchError("%s: a corrupted reference did not fail every "
                             "scan" % workload)
        log("self-test: %s corrupted reference -> %d/%d failed"
            % (workload, result["failed"], result["attempted"]))
    shutil.rmtree(work, ignore_errors=True)
    log("self-test ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--corpus-seed", type=int,
                        help="corpus (EvalConfig) seed; default: the CLI's")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        spec = load_spec()
        build()
        if args.self_test:
            self_test(spec)
            return 0
        if args.workload is None or args.seed is None or args.seconds is None:
            raise BenchError("--workload, --seed and --seconds are required")
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError("unknown workload %s" % args.workload)
        corpus_args = ([] if args.corpus_seed is None
                       else ["--corpus-seed", str(args.corpus_seed)])
        ensure_fixtures(args.seed, args.scale, corpus_args)
        work = os.path.join(WORK, args.workload)
        result = run_binary(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.scale, work, corpus_args)
        shutil.rmtree(work, ignore_errors=True)
        output = {"correct": bool(result["correct"]),
                  "attempted": int(result["attempted"]),
                  "failed": int(result["failed"]),
                  "metrics": select_metrics(spec, result, bool(args.trace))}
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log("perfbench: %s" % error)
        return 1
    print(json.dumps(output), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
