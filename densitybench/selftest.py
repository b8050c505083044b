#!/usr/bin/env python3
"""Self-test of the density-split benchmark.

Runs every workload at the tiny size in both modes and checks that each
metric BENCHMARK.json declares is printed with its unit and that every check
passes; then checks that the benchmark fails when it should: on a corrupted
outcome digest and when its results cannot be written; and that a collapsed
paced run counts as failed without losing the result. Run from the
repository root:

    python3 densitybench/selftest.py

Exits nonzero on the first failed assertion. Scratch output goes to
.bench_results/selftest/.
"""

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_results" / "selftest"


def run(workload, trace, *extra, results=SCRATCH):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--results", str(results), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def expect(cond, what, stderr=""):
    if not cond:
        sys.stderr.write(stderr[-2000:])
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok: {what}", flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(SCRATCH, ignore_errors=True)

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(w["name"], trace)
            label = f"{w['name']} --trace {trace}"
            expect(code == 0 and result is not None and result["correct"],
                   f"{label} passes its checks", err)
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   f"{label} prints exactly the contract keys")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{label} attempted work and failed none")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{label} prints {m['name']} in {m['unit']}", err)

    code, result, err = run("dense-replay", 0, "--corrupt-digest")
    expect(code != 0 and result is not None and not result["correct"]
           and "outcome digest" in err,
           "a corrupted digest fails the check", err)

    code, result, err = run("paced-service", 0, "--force-collapse")
    expect(code == 0 and result is not None and result["correct"]
           and result["failed"] > 0
           and result["metrics"]["completed_frac"]["value"] < 1,
           "a collapsed paced run counts as failed and the result is kept",
           err)

    blocker = SCRATCH / "not-a-directory"
    blocker.write_text("", encoding="utf-8")
    code, result, err = run("sparse-sharded", 0, results=blocker / "results")
    expect(code != 0 and result is None,
           "an unwritable results directory fails without a result", err)
    print("selftest passed")


if __name__ == "__main__":
    main()
