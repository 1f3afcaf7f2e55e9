#!/usr/bin/env python3
"""Self-check of the benchmark on the tiny workload (about 20 s).

    python3 perfbench/check.py

Runs ``run.py --workload tiny`` untraced and traced and checks that

* the last line is the result object, ``correct`` is true, and the metrics
  are exactly the ones BENCHMARK.json names, each with its unit;
* each cell's precision, TPR, outer-iteration count and status equal the
  record ``netrecon.run_benchmark`` makes for the same seeds, so the
  library and the benchmark reconstruct the same network;
* the spans account for the reconstruct time, and DSF calls made while
  generating the truth are not booked to the DSF layer;
* the host-speed probe took samples while reconstructing, and each
  rescaled reconstruct time is positive.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1   # the seed of fixtures/bench_tiny.cfg


def run_tiny(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny",
         "--seed", str(SEED), "--seconds", "10", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")[2].partition(" ")
        info.setdefault(tag, []).append(json.loads(rest) if rest[:1] in "{[" else rest)
    return json.loads(lines[-1]), info


def library_records(workload):
    from netrecon import BenchConfig, run_benchmark   # on sys.path via run
    table = run_benchmark(BenchConfig(
        n_networks=workload["cells"], p=workload["p"], n_true=workload["n_true"],
        n_assumed=workload["n_assumed"], m=workload["m"],
        density=workload["density"], N_samples=workload["N"],
        snr_list=(workload["snr_db"],), seed=SEED, parallelism=1))
    return table.records


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    results = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, info = run_tiny(trace)
        results[trace] = (result, info)
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"trace {trace}: result keys")
        expect(result["correct"] is True, f"trace {trace}: outputs correct")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"trace {trace}: metrics are the {key} names with "
               f"their units (missing {sorted(set(want) - set(got))}, "
               f"extra {sorted(set(got) - set(want))})")
        expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                   for v in result["metrics"].values()),
               f"trace {trace}: every value is a finite number")

    from run import WORKLOADS   # this directory is sys.path[0]
    cells = results[0][1]["cell"]
    records = library_records(WORKLOADS["tiny"])
    expect(len(cells) == len(records) == WORKLOADS["tiny"]["cells"], "cell count")
    for cell, rec in zip(cells, records):
        ours = (cell["gen_seed"], cell["sim_seed"], cell["recon_seed"],
                cell["precision"], cell["tpr"], cell["outer_iterations"],
                cell["status"])
        theirs = (rec.gen_seed, rec.sim_seed, rec.recon_seed, rec.precision,
                  rec.tpr, rec.outer_iterations, rec.status)
        expect(ours == theirs, f"cell {cell['index']} equals run_benchmark's "
               f"record: {ours} vs {theirs}")
    timed = ("setup_s", "recon_s", "wall_s")
    expect(results[1][1]["cell"] == [dict(c, **{k: t[k] for k in timed})
                                     for c, t in zip(cells, results[1][1]["cell"])],
           "traced and untraced runs reconstruct the same networks")
    expect(results[0][1]["probe"][0]["samples"] > 2 * 5 * WORKLOADS["tiny"]["cells"]
           and all(c["recon_s"] > 0 for c in cells),
           "the probe sampled while reconstructing, and rescaled times are positive")

    spans = results[1][1]["spans"][0]
    parts = spans["self_s"] + sum(spans["children_s"].values())
    expect(spans["self_s"] >= 0 and abs(parts - spans["reconstruct_s"]) <= 1e-9,
           "child spans plus self time account for the reconstruct span")
    expect(spans["children_calls"].get("dsf.sample") == len(cells)
           and spans["children_calls"].get("dsf.structure") == len(cells),
           "one DSF sample and structure call per cell under reconstruct")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
