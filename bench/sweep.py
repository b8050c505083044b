#!/usr/bin/env python3
"""Grid sweep generator over the bench suite's environment knobs.

Runs each requested bench binary once per cell of the cartesian grid
  shards x threads x SP backend x service-mode qps
(each dimension driven purely by the STRUCTRIDE_* env knobs, so no rebuild
is ever needed), while the remaining paper dimensions — batch period and
fleet size — come from the benches themselves (fig13_vary_batch sweeps the
period, fig8_vary_vehicles the fleet).

Layout under --out:
  cells/<tag>/BENCH_*.json   one STRUCTRIDE_JSON_DIR per cell (the bench
                             harness's native format)
  merged/BENCH_*.json        the same rows with the cell tag folded into
                             the "bench" field ("<bench>@<tag>"), so a
                             whole sweep is one compare_bench.py directory:
                             compare_bench.py A/merged B/merged gates every
                             cell at once (use --config for per-cell bars)
  sweep.json                 every row of every cell in one document
  sweep.md                   Markdown summary (one table per bench)

Usage:
  sweep.py --bindir build --out sweep_out \\
      --benches fig13_vary_batch,svc_sustained_qps \\
      --shards 1,4 --threads 1,4 --backends hl,bd --qps 0,1000
  sweep.py --bindir build --out sweep_out --smoke   # tiny CI smoke grid

qps 0 means replay mode (no service-mode env set); a positive qps sets
STRUCTRIDE_QPS for the cell. Every cell inherits --scale and --algos.
--backends accepts only hl and bd: the harness would run any other value as
hl, so an unknown backend is an error here rather than a mislabelled cell.
"""

import argparse
import itertools
import json
import os
import subprocess
import sys

BACKENDS = ("hl", "bd")  # the values STRUCTRIDE_SP_BACKEND understands


def parse_list(text, cast):
    out = []
    for token in text.split(","):
        token = token.strip()
        if token:
            out.append(cast(token))
    return out


def cell_tag(shards, threads, backend, qps):
    tag = "s%d_t%d_%s" % (shards, threads, backend)
    if qps > 0:
        tag += "_q%g" % qps
    return tag


def run_cell(args, bench, shards, threads, backend, qps, cell_dir):
    env = dict(os.environ)
    env["STRUCTRIDE_JSON_DIR"] = cell_dir
    env["STRUCTRIDE_SHARDS"] = str(shards)
    env["STRUCTRIDE_THREADS"] = str(threads)
    env["STRUCTRIDE_SP_BACKEND"] = backend
    if qps > 0:
        env["STRUCTRIDE_QPS"] = "%g" % qps
    else:
        env.pop("STRUCTRIDE_QPS", None)
    if args.scale is not None:
        env["STRUCTRIDE_SCALE"] = "%g" % args.scale
    if args.algos:
        env["STRUCTRIDE_ALGOS"] = args.algos
    binary = os.path.join(args.bindir, bench)
    if not os.path.exists(binary):
        sys.stderr.write("sweep: missing binary %s (build first?)\n" % binary)
        return False
    sys.stderr.write("sweep: %s [%s]\n"
                     % (bench, os.path.basename(cell_dir)))
    proc = subprocess.run([binary], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.stderr.write("sweep: %s failed in cell %s (exit %d)\n"
                         % (bench, os.path.basename(cell_dir),
                            proc.returncode))
        return False
    return True


def merge(out_dir, cells):
    """Writes merged/BENCH_*.json, sweep.json and sweep.md; returns rows."""
    merged_dir = os.path.join(out_dir, "merged")
    os.makedirs(merged_dir, exist_ok=True)
    all_rows = []
    for tag, cell_dir in cells:
        for name in sorted(os.listdir(cell_dir)):
            if not (name.startswith("BENCH_") and name.endswith(".json")):
                continue
            with open(os.path.join(cell_dir, name)) as f:
                doc = json.load(f)
            doc["bench"] = "%s@%s" % (doc.get("bench", name), tag)
            doc["cell"] = tag
            merged_name = name[:-len(".json")] + "__" + tag + ".json"
            with open(os.path.join(merged_dir, merged_name), "w") as f:
                json.dump(doc, f, indent=1)
            for row in doc.get("rows", []):
                all_rows.append(dict(row, bench=doc["bench"], cell=tag))
    with open(os.path.join(out_dir, "sweep.json"), "w") as f:
        json.dump({"rows": all_rows}, f, indent=1)
    return all_rows


def write_markdown(out_dir, rows):
    by_bench = {}
    for row in rows:
        by_bench.setdefault(row["bench"].split("@")[0], []).append(row)
    lines = ["# Bench sweep", ""]
    cols = ["cell", "series", "point", "service_rate", "unified_cost",
            "running_time_s", "dispatch_latency_p99_ms", "max_sustained_qps",
            "shed_requests"]
    for bench in sorted(by_bench):
        lines.append("## %s" % bench)
        lines.append("")
        lines.append("| " + " | ".join(cols) + " |")
        lines.append("|" + "---|" * len(cols))
        for row in by_bench[bench]:
            cells = []
            for col in cols:
                val = row.get(col, "")
                if isinstance(val, float):
                    val = "%.4g" % val
                cells.append(str(val))
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    path = os.path.join(out_dir, "sweep.md")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    sys.stderr.write("sweep: wrote %s (%d rows)\n" % (path, len(rows)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bindir", default="build",
                    help="directory holding the bench binaries")
    ap.add_argument("--out", default="sweep_out")
    ap.add_argument("--benches", default="fig13_vary_batch,fig8_vary_vehicles",
                    help="comma list of bench binaries to run per cell")
    ap.add_argument("--shards", default="1,4")
    ap.add_argument("--threads", default="1,4")
    ap.add_argument("--backends", default="hl",
                    help="comma list of %s" % ",".join(BACKENDS))
    ap.add_argument("--qps", default="0",
                    help="comma list; 0 = replay mode, >0 = service mode")
    ap.add_argument("--scale", type=float, default=None,
                    help="STRUCTRIDE_SCALE for every cell")
    ap.add_argument("--algos", default="",
                    help="STRUCTRIDE_ALGOS for every cell")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny CI grid: one bench, 2 cells, scale 0.02")
    args = ap.parse_args()

    if args.smoke:
        args.benches = "fig13_vary_batch"
        args.shards = "1"
        args.threads = "1,2"
        args.backends = "hl"
        args.qps = "0"
        if args.scale is None:
            args.scale = 0.02
        if not args.algos:
            args.algos = "SARD"

    benches = parse_list(args.benches, str)
    backends = parse_list(args.backends, str)
    unknown = [b for b in backends if b not in BACKENDS]
    if unknown:
        sys.stderr.write("sweep: unknown backend(s) %s (want %s)\n"
                         % (",".join(unknown), " or ".join(BACKENDS)))
        return 2
    grid = list(itertools.product(
        parse_list(args.shards, int), parse_list(args.threads, int),
        backends, parse_list(args.qps, float)))
    if not benches or not grid:
        sys.stderr.write("sweep: empty bench list or grid\n")
        return 2

    os.makedirs(args.out, exist_ok=True)
    cells = []
    failures = 0
    for shards, threads, backend, qps in grid:
        tag = cell_tag(shards, threads, backend, qps)
        cell_dir = os.path.join(args.out, "cells", tag)
        os.makedirs(cell_dir, exist_ok=True)
        for bench in benches:
            if not run_cell(args, bench, shards, threads, backend, qps,
                            cell_dir):
                failures += 1
        cells.append((tag, cell_dir))

    rows = merge(args.out, cells)
    write_markdown(args.out, rows)
    if failures:
        sys.stderr.write("sweep: %d bench invocation(s) failed\n" % failures)
        return 1
    if not rows:
        sys.stderr.write("sweep: no rows produced\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
