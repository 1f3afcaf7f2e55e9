#!/usr/bin/env python3
"""netrecon benchmark: reconstruct seeded random networks and time the layers.

    python3 perfbench/run.py --workload desk40 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from the
checkout's ``src/``.  Each run reconstructs a fixed set of cells (one
random network, one SNR) whose seeds are derived from ``--seed`` exactly as
``netrecon.bench`` derives them, so with ``--seed 0`` cell i is cell i of
acceptance criterion 7.  ``reconstruct()`` gets the generated ``Dataset``
and the library's default settings, single process.

``--trace 0`` prints the end-to-end metrics.  Their times are rescaled to a
fixed reference host speed by a sampling probe (see ``hostspeed.py``),
because the shared hosts this runs on change speed in phases; each cell
also records its plain wall time.  ``--trace 1`` installs span wrappers
around the library's layer functions (see ``tracing.py``) and prints the
per-layer metrics in plain wall time.  Lines starting with ``#`` describe
the host, the cells and the span breakdown; the last line is the JSON
result.  The work is the cell set, not the clock: ``--seconds`` is the
nominal length of the measured phase and is only echoed, so every count
repeats exactly for a given seed.  See NOTES.md for the metric-to-layer map.
"""

import os

# Pin BLAS/OpenMP before numpy loads: the timings are single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "netrecon" / "__init__.py").is_file():
    sys.exit(f"run.py: no netrecon sources at {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from netrecon import (FilterDivergedError, NetworkGraph, ReconConfig,  # noqa: E402
                      SBLOptions, generate_random_network, graph_compare,
                      reconstruct, simulate)

import hostspeed  # noqa: E402  (this directory is sys.path[0])
import tracing  # noqa: E402

# Workloads.  desk40 is the ROADMAP north-star cell and splits its time
# between smoother (~56%) and SBL (~39%); desk0 is the same networks and
# noise draws at 0 dB, where the inner SBL loop runs to its cap (SBL ~64%);
# long_series is smoother-bound (~94%) and nearly bypasses SBL (~5%).  tiny
# is the self-check's size (fixtures/bench_tiny.cfg), not a timed workload.
WORKLOADS = {
    "desk40": dict(p=10, n_true=25, n_assumed=30, m=10, density=0.1,
                   N=1000, snr_db=40.0, cells=1),
    "desk0": dict(p=10, n_true=25, n_assumed=30, m=10, density=0.1,
                  N=1000, snr_db=0.0, cells=1),
    "long_series": dict(p=5, n_true=10, n_assumed=12, m=5, density=0.1,
                        N=3000, snr_db=20.0, cells=1),
    "tiny": dict(p=3, n_true=6, n_assumed=7, m=3, density=0.2,
                 N=150, snr_db=20.0, cells=2),
}
SETUP_REPEATS = 5          # of the import, and of generate + simulate per cell;
                           # setup_s adds their medians
FAILURE_PRECISION = 0.05   # BenchConfig.failure_precision_threshold default
STATUSES = ("converged", "max_iter", "diverged")


def derive_seed(*entropy):
    """Cell seed derivation of netrecon.bench (checked by check.py)."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def cell_seeds(seed, index):
    """Seeds of cell ``index`` at SNR index 0, as in run_benchmark."""
    return (derive_seed(seed, index), derive_seed(seed, index, 0, 1),
            derive_seed(seed, index, 0, 2))


def host_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def timed(probe, step):
    """Seconds ``step()`` takes and its result.  With a probe, the seconds
    are at the reference speed, the mean of the speeds sampled right before
    and right after the step."""
    before = probe.speed_now() if probe else 1.0
    t0 = time.perf_counter()
    result = step()
    seconds = time.perf_counter() - t0
    after = probe.speed_now() if probe else 1.0
    return seconds * (before + after) / 2, result


# Times the import in a fresh interpreter, then samples the host speed
# there: the child may run on another core than this process.
IMPORT_CODE = f"""import sys, time
sys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).resolve().parent)!r}]
t0 = time.perf_counter()
import netrecon
seconds = time.perf_counter() - t0
import hostspeed
print(seconds * hostspeed.Probe().speed_now())
"""


def import_seconds():
    """Median seconds, at the reference speed, that a fresh interpreter
    takes to import the package."""
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", IMPORT_CODE], check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(SETUP_REPEATS))


def setup_cell(tracer, probe, w, gen_seed, sim_seed):
    """Generate and simulate ``SETUP_REPEATS`` times; returns the truth,
    the dataset, the median setup seconds and whether the repeats agreed."""
    def generate_and_simulate():
        with tracer.span("model.generate"):
            truth = generate_random_network(w["p"], w["n_true"], w["m"],
                                            w["density"], gen_seed)
        with tracer.span("model.simulate"):
            data = simulate(truth.model, w["N"], "gaussian_iid",
                            snr_db=w["snr_db"], seed=sim_seed)
        return truth, data

    times, outputs = zip(*(timed(probe, generate_and_simulate)
                           for _ in range(SETUP_REPEATS)))
    truth, data = outputs[0]
    same = all(np.array_equal(t.q_structure, truth.q_structure)
               and np.array_equal(d.Y, data.Y) and np.array_equal(d.U, data.U)
               for t, d in outputs[1:])
    return truth, data, statistics.median(times), same


def check_result(result, truth, metrics, cfg, p):
    """Problems found in one reconstruction, checked against the truth."""
    problems = []
    n, m = cfg.n_states, p
    if result.status not in STATUSES:
        problems.append(f"unknown status {result.status!r}")
    iters = len(result.trace)
    if not (1 if result.status != "diverged" else 0) <= iters <= cfg.outer_max_iter:
        problems.append(f"{iters} outer iterations")
    if result.status == "max_iter" and iters != cfg.outer_max_iter:
        problems.append("status max_iter before the cap")
    if result.A_hat.shape != (n, n) or result.B_hat.shape != (n, m):
        problems.append("parameter shapes")
    if not (np.all(np.isfinite(result.A_hat)) and np.all(np.isfinite(result.B_hat))
            and np.isfinite(result.sigma2_hat) and result.sigma2_hat > 0):
        problems.append("non-finite parameters")
    if not all(np.isfinite(r.obs_loglik) for r in result.trace):
        problems.append("non-finite log-likelihood")
    est = np.asarray(result.network.q_adj, dtype=bool)
    if est.shape != (p, p) or np.any(np.diag(est)):
        problems.append("Q adjacency is not p x p with an empty diagonal")
        return problems
    # precision and TPR recomputed here, as an oracle for graph_compare
    tru = np.asarray(truth.q_structure, dtype=bool) & ~np.eye(p, dtype=bool)
    hits = int((est & tru).sum())
    precision = hits / est.sum() if est.any() else 1.0
    tpr = hits / tru.sum() if tru.any() else 1.0
    if abs(precision - metrics.precision) > 1e-12 or abs(tpr - metrics.tpr) > 1e-12:
        problems.append("graph_compare disagrees with the ground truth")
    return problems


def run_cell(tracer, probe, w, seed, index):
    """Set up and reconstruct one cell.  With a probe, ``setup_s`` and
    ``recon_s`` are at the reference speed; ``wall_s`` is always the plain
    wall time of the reconstruction."""
    gen_seed, sim_seed, recon_seed = cell_seeds(seed, index)
    truth, data, setup_s, same = setup_cell(tracer, probe, w, gen_seed, sim_seed)
    cfg = ReconConfig(n_states=w["n_assumed"], seed=recon_seed)
    record = {"index": index, "gen_seed": gen_seed, "sim_seed": sim_seed,
              "recon_seed": recon_seed, "setup_s": setup_s}

    def recon_times(span):
        return {"wall_s": span.seconds,
                "recon_s": probe.seconds(span.start, span.end) if probe else span.seconds}

    problems = [] if same else ["generate/simulate not repeatable"]
    try:
        with probe.running() if probe else nullcontext(), \
                tracer.span("reconstruct") as span:
            result = reconstruct(data, cfg)
        with tracer.span("dsf.compare"):
            metrics = graph_compare(result.network, NetworkGraph(
                q_adj=truth.q_structure, p_adj=truth.p_structure))
    except Exception as exc:  # a failed cell is counted, not fatal
        record.update(status="error", error=f"{type(exc).__name__}: {exc}",
                      failed=True, outer_iterations=0, **recon_times(span))
        return record, problems
    problems += check_result(result, truth, metrics, cfg, w["p"])
    record.update(
        status=result.status, precision=metrics.precision, tpr=metrics.tpr,
        outer_iterations=len(result.trace),
        failed=metrics.precision < FAILURE_PRECISION,
        damped=sum(r.damped for r in result.trace), **recon_times(span))
    if result.trace:
        record["loglik_per_sample"] = result.trace[-1].obs_loglik / (data.N * data.p)
    return record, problems


def quality(records):
    good = [r for r in records if not r["failed"]]
    done = [r for r in records if "loglik_per_sample" in r]

    def mean(key, over, empty):
        return statistics.fmean(r[key] for r in over) if over else empty

    return {   # with every cell failed, precision and TPR read 0 as in run_benchmark
        "precision": (mean("precision", good, 0.0), "ratio"),
        "tpr": (mean("tpr", good, 0.0), "ratio"),
        "failure_rate": (sum(r["failed"] for r in records) / len(records), "ratio"),
        "converged_frac": (sum(r["status"] == "converged" for r in records)
                           / len(records), "ratio"),
        "loglik_per_sample": (mean("loglik_per_sample", done, float("nan")), "nat"),
    }


def end_to_end(records, import_s):
    recon_s = sum(r["recon_s"] for r in records)
    outer = sum(r["outer_iterations"] for r in records)
    return {
        "recon_s": (recon_s, "s"),
        "outer_iter_ms": (1e3 * recon_s / max(outer, 1), "ms"),
        "outer_iters": (outer, "count"),
        "setup_s": (import_s + sum(r["setup_s"] for r in records), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(tracer, records, span_cost):
    """Per-layer metrics from the spans, the breakdown of the reconstruct
    spans into direct children plus self time, and any span problems."""
    spans = tracer.spans
    roots = {i for i, s in enumerate(spans) if s.name == "reconstruct"}
    recon_s = sum(spans[i].seconds for i in roots)
    outer = sum(r["outer_iterations"] for r in records)
    children, calls, problems = {}, {}, []
    for i in sorted(roots):
        last_end = spans[i].start
        for k in tracer.children(i):
            if k.start < last_end or k.end > spans[i].end:
                problems.append(f"span {k.name} overlaps a sibling or its parent")
            last_end = k.end
            children[k.name] = children.get(k.name, 0.0) + k.seconds
            calls[k.name] = calls.get(k.name, 0) + 1
    self_s = recon_s - sum(children.values())

    # DSF spans under model.generate belong to truth generation, not to dsf.*
    def called(name, parents=roots):
        return [s for s in spans if s.name == name
                and (parents is None or s.parent in parents)]

    def ms_per_call(got):
        return (1e3 * statistics.fmean(s.seconds for s in got) if got
                else float("nan"), "ms")

    def share(prefix):
        return (sum(v for k, v in children.items() if k.startswith(prefix))
                / recon_s, "ratio")

    em_index = {i for i, s in enumerate(spans) if s.name == "sbl.em" and s.parent in roots}
    em = [spans[i] for i in sorted(em_index)]
    posterior = called("sbl.posterior", em_index)
    inner = sum(s.info["iterations"] for s in em)
    last_em = {s.parent: s.info for s in em}   # the last outer iteration's call
    smoother = [s for s in spans if s.name.startswith("smoother.")]
    overhead = (sum(calls.values()) + len(posterior)) * span_cost
    metrics = {
        "smoother.filter_ms": ms_per_call(called("smoother.filter")),
        "smoother.rts_ms": ms_per_call(called("smoother.rts")),
        "smoother.lag1_ms": ms_per_call(called("smoother.lag1")),
        "smoother.loglik_ms": ms_per_call(called("smoother.loglik")),
        "smoother.esums_ms": ms_per_call(called("smoother.esums")),
        "smoother.share": share("smoother."),
        "smoother.pinv_steps": (sum(s.info.get("pinv_steps", 0) for s in smoother),
                                "count"),
        "smoother.diverged": (sum(s.error == FilterDivergedError.__name__
                                  for s in smoother), "count"),
        "sbl.moments_ms": ms_per_call(called("sbl.moments")),
        "sbl.em_ms": ms_per_call(em),
        "sbl.inner_iter_ms": (1e3 * (sum(s.seconds for s in em)
                                     - sum(s.seconds for s in posterior))
                              / inner if inner else float("nan"), "ms"),
        "sbl.inner_iters": (inner, "count"),
        "sbl.inner_cap_hits": (sum(s.info["cap_hit"] for s in em), "count"),
        "sbl.evidence_decreases": (sum(s.info["evidence_decreases"] for s in em),
                                   "count"),
        "sbl.posterior_ms": ms_per_call(posterior),
        "sbl.active_frac": (statistics.fmean(e["active"] / e["free"] for e in last_em.values())
                            if last_em else float("nan"), "ratio"),
        "sbl.share": share("sbl."),
        "reconstruct.self_ms": (1e3 * self_s / max(outer, 1), "ms"),
        "reconstruct.damped": (sum(r.get("damped", 0) for r in records), "count"),
        "dsf.sample_ms": ms_per_call(called("dsf.sample")),
        "dsf.structure_ms": ms_per_call(called("dsf.structure")),
        "dsf.compare_ms": ms_per_call(called("dsf.compare", None)),
        "model.generate_ms": ms_per_call(called("model.generate", None)),
        "model.simulate_ms": ms_per_call(called("model.simulate", None)),
        # the wrappers' own cost, measured on a no-op, over the untraced time
        "trace.overhead_frac": (overhead / (recon_s - overhead), "ratio"),
    }
    breakdown = {"reconstruct_s": recon_s, "self_s": self_s,
                 "children_s": children, "children_calls": calls,
                 "span_cost_us": 1e6 * span_cost, "overhead_s": overhead}
    return metrics, breakdown, problems


def _note_rts(sp, *args, **kwargs):
    return {"pinv_steps": len(sp.pinv_steps)}


def _note_sbl_em(st, reg, mask, init=None, opts=None):
    max_iter = (opts or SBLOptions()).max_iter
    return {"iterations": st.iteration, "cap_hit": st.iteration >= max_iter,
            "evidence_decreases": len(st.warnings),
            "active": int(st.active.sum()), "free": int(mask.free.sum())}


NOTES = {"smoother.rts": _note_rts, "sbl.em": _note_sbl_em}


def run(workload, seed, seconds, trace):
    w = WORKLOADS[workload]
    print("# host " + json.dumps(host_info()))
    tracer = tracing.Tracer()
    span_cost = tracing.span_cost() if trace else 0.0
    probe = None if trace else hostspeed.Probe()
    records, problems = [], []
    t0 = time.perf_counter()
    import_s = None if trace else import_seconds()
    with tracing.installed(tracer, NOTES) if trace else nullcontext():
        for index in range(w["cells"]):
            record, cell_problems = run_cell(tracer, probe, w, seed, index)
            records.append(record)
            problems += cell_problems
            print("# cell " + json.dumps(record))
    elapsed = time.perf_counter() - t0
    statuses = {s: sum(r["status"] == s for r in records)
                for s in STATUSES + ("error",)}
    print("# status " + json.dumps(statuses))
    print(f"# measured {elapsed:.3f} s (nominal {seconds:g} s)")
    if probe:
        print("# probe " + json.dumps(probe.summary()))
    if trace:
        metrics, breakdown, span_problems = per_layer(tracer, records, span_cost)
        metrics.update(quality(records))
        problems += span_problems
        print("# spans " + json.dumps(breakdown))
    else:
        metrics = end_to_end(records, import_s)
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{name} was not measured")
            metrics[name] = (0.0, metrics[name][1])
    for problem in problems:
        print(f"# problem {problem}")
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
