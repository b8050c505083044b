#!/usr/bin/env python3
"""Density-split SARD benchmark for structride.

Builds the densitybench binary from source (CMake, into .bench_build/), runs
one workload and prints one JSON result as the last line of stdout:

    python3 densitybench/run.py --workload dense-replay --seed 1 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Every metric name and unit is checked against
BENCHMARK.json before printing. The exit status is nonzero when a
correctness check fails, when the build or run fails, or when the full
report cannot be written under --results (default .bench_results/).
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "densitybench"
BINARY = BUILD / "densitybench"

# Claims are made on DEFAULT_SEED and must also hold on HELDOUT_SEED, which
# is never used while a change is being written.
DEFAULT_SEED = 1
HELDOUT_SEED = 8191

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"densitybench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    for needed in ("CMakeLists.txt", "sim/engine.h", "dispatch/sard.cc"):
        if not (ROOT / needed).is_file():
            fail(f"structride sources not found ({needed} is missing)")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "densitybench",
                  "-j", "3"])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build failed: {e}")


def run_binary(args):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.corrupt_digest:
        cmd.append("--corrupt-digest")
    if args.force_collapse:
        cmd.append("--force-collapse")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    except OSError as e:
        fail(f"cannot start the benchmark binary: {e}", 3)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"the benchmark printed no result (exit {proc.returncode})", 3)
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail(f"unparseable result line: {lines[-1][:200]}", 3)
    return proc.returncode, report


def check_metrics(report, declared):
    """Every declared metric is printed with its unit, and nothing else."""
    errors = []
    metrics = report.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            errors.append(f"metric {m['name']} has unit {got.get('unit')}, "
                          f"declared {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            errors.append(f"metric {m['name']} has no numeric value")
    names = {m["name"] for m in declared}
    errors += [f"undeclared metric {n}" for n in metrics if n not in names]
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    parser.add_argument("--results", default=str(ROOT / ".bench_results"),
                        help="directory for the full reports")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="self-test only: corrupt one run's digest")
    parser.add_argument("--force-collapse", action="store_true",
                        help="self-test only: treat one paced run as "
                             "collapsed")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; one of {workloads}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build()
    code, report = run_binary(args)
    errors = list(report.get("detail", {}).get("errors", []))
    if code != 0 and not errors:
        errors.append(f"benchmark exited with status {code}")
    results = pathlib.Path(args.results)
    try:
        errors += check_metrics(report, declared)
        correct = bool(report.get("correct")) and code == 0 and not errors
        full = dict(report, correct=correct, errors=errors,
                    workload=args.workload, seed=args.seed,
                    default_seed=DEFAULT_SEED, heldout_seed=HELDOUT_SEED,
                    seconds=args.seconds, trace=args.trace, size=args.size)
        full.get("detail", {}).pop("errors", None)
        results.mkdir(parents=True, exist_ok=True)
        out = results / (f"{args.workload}-{args.size}-seed{args.seed}-"
                         f"trace{args.trace}.json")
        out.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    except OSError as e:
        fail(f"cannot write results under {results}: {e}", 4)

    for e in errors:
        log(f"check failed: {e}")
    result = {"correct": correct, "attempted": int(report["attempted"]),
              "failed": int(report["failed"]),
              "metrics": {m["name"]: report["metrics"][m["name"]]
                          for m in declared if m["name"] in report["metrics"]}}
    print(json.dumps(result), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
