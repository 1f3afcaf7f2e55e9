#!/usr/bin/env python3
"""Measure two source checkouts of netrecon against each other.

    python3 scripts/compare.py --parent DIR --change DIR \
        --out BENCH_NAME.json [--pairs 10] [--seeds 1 7] \
        [--pool-runs 3] [--claim WORKLOAD:METRIC]
    python3 scripts/compare.py --parent DIR --aa \
        --out BENCH_NAME.json [--pairs 10] [--seeds 1 7]

``DIR`` is the root of a source checkout (a ``src/netrecon`` package and a
``perfbench/`` directory).  Each measurement runs in fresh interpreters
that import the package from that checkout's ``src/``.  Each invocation
appends one run to the ``runs`` list of the JSON record ``--out``; a run
holds:

- ``same_answers``: a fingerprint of every estimate, trace field but the
  timings, DSF sample and network, and the sha256 of each result file, on
  26 cells: perfbench desk40, desk0 and long_series at seeds 1 and 2, and
  acceptance criterion 7's 20 cells (seed 0, networks 0-9, 40 and 0 dB),
  each reconstructed in "sbl" and in "ml" mode.  Each cell also holds how
  far the change's answers are from the parent's: the largest relative
  difference (max |change - parent| over max |parent|) of ``A_hat``,
  ``B_hat``, ``sigma2_hat``, ``m0_hat``, ``R0_hat`` and of the trace's
  ``obs_loglik`` values, and whether the status, the Q and P adjacency
  and each record's ``n_active``, ``inner_iterations``,
  ``evidence_decreases`` and ``damped`` are identical (those of these
  fields that both checkouts' records have); ``worst`` gathers them over
  the cells;
- ``format_change``: the trace columns (``IterationRecord`` fields) that
  only one checkout's records have; a fingerprint and a result file
  differ with them even where every answer agrees;
- ``minor_faults``: ``ru_minflt`` and wall seconds of one ``reconstruct``
  of each perfbench cell, in a process that has only set the cell up;
- ``full_scale_memory``: 10 outer iterations of the held-out full-scale
  cell (seed 1, network 0: p=40, 100 true and 110 assumed states, m=40,
  N=1000, 40 dB), three interleaved runs per side: the process's
  ``ru_maxrss`` and the wall seconds of an untraced run, the
  ``tracemalloc`` peak of the reconstruction in a second process, and the
  sha256 of ``A_hat``, which the two processes must agree on;
- ``pairs``: alternating ``perfbench/run.py`` runs of the two checkouts
  (the parent first in odd-numbered pairs), every end-to-end metric per
  workload and seed, with medians, quartiles and win counts, and each
  run's ``recon_s`` (and the ``--claim`` metric);
- ``claimed``, only with ``--claim``: the claimed metric on its workload
  against the pair rule (lower in at least 9 of 10 pairs, and a median
  gap larger than the parent's quartile spread);
- ``traced``: one ``--trace 1`` perfbench run per workload at the first
  seed, per checkout (plain wall time, so read them as shares);
- ``criterion7_pool``: criterion 7's two sweeps (10 networks at 40 dB,
  then at 0 dB) in ``run_benchmark``'s process pool of min(4, cores)
  workers with BLAS threads unpinned, interleaved runs per side.

Every child process, perfbench run or worker, is forked from a small
launcher process: Linux carries a process's RSS high-water mark into its
child's ``ru_maxrss`` across fork and exec, so a child forked from this
process would read this process's peak as its own.

With ``--aa`` the change side is a copy of the parent's ``src/`` and
``perfbench/`` in a temporary directory, and the run holds only
``full_scale_memory``, ``pairs`` and (with ``--claim``) ``claimed``, the
sections that report a gap in time or memory: identical code in two
directories, so any gap it shows is not the code's.

perfbench pins BLAS to one thread; the pool runs do not, since the
acceptance test does not.  Run it on an otherwise idle host.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.abspath(__file__)
WORKLOADS = ("desk40", "desk0", "long_series")
METRICS = ("recon_s", "outer_iter_ms", "outer_iters", "peak_rss_mb", "setup_s")
LAYERS = ("smoother.filter_ms", "smoother.rts_ms", "smoother.lag1_ms",
          "smoother.loglik_ms", "smoother.esums_ms", "smoother.share",
          "sbl.em_ms", "sbl.inner_iter_ms", "sbl.posterior_ms", "sbl.share",
          "reconstruct.self_ms")
MEMORY_RUNS = 3
# the answers compared by relative difference, and those that must agree
ESTIMATES = ("A_hat", "B_hat", "sigma2_hat", "m0_hat", "R0_hat")
RECORD_COUNTS = ("n_active", "inner_iterations", "evidence_decreases",
                 "damped")
# Forks and execs its arguments and exits with the child's status, so that
# the child's ru_maxrss starts from this small process's peak.
LAUNCHER = ("import os, sys\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    try:\n"
            "        os.execv(sys.argv[1], sys.argv[1:])\n"
            "    finally:\n"
            "        os._exit(127)\n"
            "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n")


# -- workers: each runs in a fresh interpreter on one checkout ------------

def _import_perfbench(root):
    """perfbench's run module from ``root``; it pins BLAS to one thread
    and puts ``root``/src first on the path."""
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import run
    return run


def _fingerprint(res):
    import numpy as np
    h = hashlib.sha256()
    for name in ("A_hat", "B_hat", "m0_hat", "R0_hat"):
        h.update(np.ascontiguousarray(getattr(res, name)).tobytes())
    h.update(repr((res.sigma2_hat, res.status, res.last_step,
                   res.loglik_decreases)).encode())
    for rec in res.trace:
        h.update(repr([(f.name, getattr(rec, f.name))
                       for f in dataclasses.fields(rec)
                       if f.name not in ("estep_s", "mstep_s")]).encode())
    for f in dataclasses.fields(res.dsf):
        v = getattr(res.dsf, f.name)
        h.update(np.ascontiguousarray(v).tobytes() if isinstance(v, np.ndarray)
                 else repr(v).encode())
    h.update(res.network.q_adj.tobytes() + res.network.p_adj.tobytes())
    return h.hexdigest()


def _answers(res, columns):
    """The estimates, log-likelihoods, status, network and record counts
    (those of ``RECORD_COUNTS`` among the trace ``columns``) of a result,
    as JSON lists (floats round-trip exactly)."""
    import numpy as np
    return {**{name: np.ravel(getattr(res, name)).tolist()
               for name in ESTIMATES},
            "obs_loglik": [rec.obs_loglik for rec in res.trace],
            "status": res.status, "q_adj": res.network.q_adj.tolist(),
            "p_adj": res.network.p_adj.tolist(),
            **{name: [getattr(rec, name) for rec in res.trace]
               for name in RECORD_COUNTS if name in columns}}


def _max_rel_diff(parent, change):
    """max |change - parent| over max |parent| (over 1 if that is 0); inf
    when the lengths differ."""
    if len(parent) != len(change):
        return float("inf")
    scale = max((abs(v) for v in parent), default=0.0) or 1.0
    return max((abs(c - p) for p, c in zip(parent, change)),
               default=0.0) / scale


def _compare(parent, change):
    """How far a cell's answers on the change side are from the parent's;
    a record count that only one side has is not compared."""
    out = {f"max_rel_diff_{name}": _max_rel_diff(parent[name], change[name])
           for name in ESTIMATES + ("obs_loglik",)}
    out.update({f"same_{name}": parent[name] == change[name]
                for name in ("status", "q_adj", "p_adj") + RECORD_COUNTS
                if name in parent and name in change})
    return out


def _worst(compared):
    """Over a mode's cells: the largest of each relative difference, and
    whether each flag holds in every cell."""
    worst = {}
    for cell in compared.values():
        for key, value in cell.items():
            worst[key] = (max(worst.get(key, 0.0), value)
                          if key.startswith("max_") else
                          worst.get(key, True) and value)
    return worst


def worker_fingerprints(root, prior_mode):
    run = _import_perfbench(root)
    from netrecon import (IterationRecord, ReconConfig, generate_random_network,
                          reconstruct, save_result, simulate)
    columns = [f.name for f in dataclasses.fields(IterationRecord) if f.compare]
    cells = [(f"{w}_s{seed}", run.WORKLOADS[w], run.cell_seeds(seed, 0))
             for w in WORKLOADS for seed in (1, 2)]
    desk = dict(p=10, n_true=25, n_assumed=30, m=10, density=0.1, N=1000)
    cells += [(f"c7_{int(snr)}_{net}", dict(desk, snr_db=snr),
               (run.derive_seed(0, net), run.derive_seed(0, net, 0, 1),
                run.derive_seed(0, net, 0, 2)))
              for snr in (40.0, 0.0) for net in range(10)]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "result.txt")
        for name, w, (gen, sim, rec) in cells:
            truth = generate_random_network(w["p"], w["n_true"], w["m"],
                                            w["density"], gen)
            data = simulate(truth.model, w["N"], "gaussian_iid",
                            snr_db=w["snr_db"], seed=sim)
            cfg = ReconConfig(n_states=w["n_assumed"], seed=rec,
                              prior_mode=prior_mode)
            res = reconstruct(data, cfg)
            save_result(path, res, {k: str(v) for k, v
                                    in dataclasses.asdict(cfg).items()})
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[name] = {"fingerprint": _fingerprint(res),
                         "result_file_sha256": digest,
                         "answers": _answers(res, columns)}
    return {"trace_columns": columns, "cells": out}


def worker_faults(root, workload, seed):
    run = _import_perfbench(root)
    from netrecon import ReconConfig, reconstruct
    w = run.WORKLOADS[workload]
    gen, sim, rec = run.cell_seeds(int(seed), 0)
    _, data, _, _ = run.setup_cell(run.tracing.Tracer(), None, w, gen, sim)
    cfg = ReconConfig(n_states=w["n_assumed"], seed=rec)
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    reconstruct(data, cfg)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {"ru_minflt": after.ru_minflt - before.ru_minflt,
            "wall_s": round(wall, 4)}


def worker_memory(root, traced):
    """10 outer iterations of the held-out full-scale cell, set up first;
    with ``traced`` = "1" the reconstruction runs under tracemalloc."""
    run = _import_perfbench(root)
    from netrecon import (ReconConfig, generate_random_network, reconstruct,
                          simulate)
    gen, sim, rec = run.cell_seeds(1, 0)
    truth = generate_random_network(40, 100, 40, 0.025, gen)
    data = simulate(truth.model, 1000, "gaussian_iid", snr_db=40.0, seed=sim)
    cfg = ReconConfig(n_states=110, seed=rec, outer_max_iter=10)
    if traced == "1":
        tracemalloc.start()
        res = reconstruct(data, cfg)
        out = {"traced_peak_mib": round(
            tracemalloc.get_traced_memory()[1] / 2**20, 2)}
        tracemalloc.stop()
    else:
        t0 = time.perf_counter()
        res = reconstruct(data, cfg)
        out = {"wall_s": round(time.perf_counter() - t0, 3),
               "ru_maxrss_mb": round(resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2)}
    out["A_hat_sha256"] = hashlib.sha256(res.A_hat.tobytes()).hexdigest()
    return out


def worker_criterion7(root):
    sys.path.insert(0, os.path.join(root, "src"))
    from netrecon import BenchConfig, run_benchmark
    workers = min(4, os.cpu_count() or 1)
    t0 = time.perf_counter()
    rows = []
    for snr in (40.0, 0.0):
        table = run_benchmark(BenchConfig(
            n_networks=10, p=10, n_true=25, n_assumed=30, m=10, density=0.1,
            N_samples=1000, snr_list=(snr,), seed=0, parallelism=workers))
        row = table.rows[0]
        rows.append(f"{row.precision_mean:.3f}/{row.tpr_mean:.3f} "
                    f"AUC {row.auc_mean:.3f} at {snr:g} dB")
    return {"seconds": round(time.perf_counter() - t0, 2), "workers": workers,
            "reads": "; ".join(rows)}


WORKERS = {"fingerprints": worker_fingerprints, "faults": worker_faults,
           "memory": worker_memory, "criterion7": worker_criterion7}


# -- the measuring process: runs the workers, writes the record ---------

def _launched(argv, **kwargs):
    """The standard output of ``argv``, forked from LAUNCHER."""
    return subprocess.run([sys.executable, "-S", "-c", LAUNCHER, *argv],
                          capture_output=True, text=True, check=True,
                          **kwargs).stdout


def _worker(kind, *args, pinned=True):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        if pinned:
            env[var] = "1"
        else:
            env.pop(var, None)
    return json.loads(_launched([sys.executable, HERE, "--worker", kind,
                                 *args], env=env))


def _perfbench(root, workload, seed, trace=0):
    out = _launched([sys.executable, "perfbench/run.py", "--workload",
                     workload, "--seed", str(seed), "--trace", str(trace)],
                    cwd=root)
    res = json.loads(out.strip().splitlines()[-1])
    return {"correct": res["correct"], "failed": res["failed"],
            **{k: v["value"] for k, v in res["metrics"].items()}}


def _full_scale_memory(root):
    """An untraced and a traced full-scale run of ``root``, which must
    give the same ``A_hat``."""
    plain, traced = (_worker("memory", root, t) for t in ("0", "1"))
    if plain["A_hat_sha256"] != traced["A_hat_sha256"]:
        raise RuntimeError(f"{root}: the traced full-scale run's A_hat "
                           "differs from the untraced run's")
    return {**plain, **traced}


def _summary(parent, change):
    def quartiles(values):
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": round(med, 4), "q1": round(q1, 4),
                "q3": round(q3, 4)}
    p, c = quartiles(parent), quartiles(change)
    p["iqr"] = round(p["q3"] - p["q1"], 4)
    lower = sum(b < a for a, b in zip(parent, change))
    return {"parent": p, "change": c,
            "median_change": f"{100 * (c['median'] / p['median'] - 1):+.1f}%"
            if p["median"] else "n/a",
            "change_lower_in": f"{lower}/{len(parent)}",
            "change_higher_in": f"{sum(b > a for a, b in zip(parent, change))}"
                                f"/{len(parent)}"}


def _host():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def _log(msg):
    print(time.strftime("%H:%M:%S"), msg, file=sys.stderr, flush=True)


def _interleaved(runs, sides, measure_one):
    """``runs`` runs of ``measure_one(root)`` per side, the parent first
    in odd-numbered rounds."""
    out = {side: [] for side in sides}
    for i in range(runs):
        for side in (("parent", "change") if i % 2 == 0
                     else ("change", "parent")):
            out[side].append(measure_one(sides[side]))
    return out


def _pairs(args, sides):
    kept = ("recon_s",) + ((args.claim[1],) if args.claim else ())
    record = {}
    for w in WORKLOADS:
        for seed in args.seeds:
            _log(f"pairs {w} seed {seed}")
            runs = _interleaved(args.pairs, sides,
                                lambda root: _perfbench(root, w, seed))
            record[f"{w}_s{seed}"] = {
                "pairs": args.pairs,
                "parent_first_in": "odd-numbered pairs",
                "all_correct": all(r["correct"] for rs in runs.values()
                                   for r in rs),
                "failed": {side: sum(r["failed"] for r in rs)
                           for side, rs in runs.items()},
                "metrics": {m: _summary([r[m] for r in runs["parent"]],
                                        [r[m] for r in runs["change"]])
                            for m in METRICS},
                "runs": {side: {m: [round(r[m], 4) for r in rs]
                                for m in kept}
                         for side, rs in runs.items()}}
    return record


def _claimed(args, pairs):
    workload, metric = args.claim
    claimed = {"metric": metric, "workload": workload,
               "rule": "change lower in at least 9 of 10 pairs and median "
                       "difference larger than the parent's IQR"}
    for seed in args.seeds:
        cell = pairs[f"{workload}_s{seed}"]
        s = cell["metrics"][metric]
        lower = sum(c < p for p, c in zip(cell["runs"]["parent"][metric],
                                          cell["runs"]["change"][metric]))
        diff = round(s["parent"]["median"] - s["change"]["median"], 4)
        claimed[f"seed{seed}"] = {
            "change_lower_in": s["change_lower_in"],
            "median_difference": diff, "parent_iqr": s["parent"]["iqr"],
            "median_change": s["median_change"],
            "met": lower >= 0.9 * args.pairs and diff > s["parent"]["iqr"]}
    return claimed


def measure(args, sides):
    seeds = " ".join(map(str, args.seeds))
    command = ["python3 scripts/compare.py --parent <parent checkout>",
               "--aa" if args.aa else "--change <change checkout>",
               f"--pairs {args.pairs} --seeds {seeds}"]
    if not args.aa:
        command.append(f"--pool-runs {args.pool_runs}")
    if args.claim:
        command.append("--claim " + ":".join(args.claim))
    record = {"command": " ".join(command),
              "mode": "aa" if args.aa else "ab",
              "host": _host(),
              "thread_pinning": "perfbench and the fault, fingerprint and "
                                "memory runs pin OMP_NUM_THREADS and "
                                "OPENBLAS_NUM_THREADS to 1; criterion7_pool "
                                "leaves them unset"}

    if not args.aa:
        _log("fingerprints")
        for mode in ("sbl", "ml"):
            runs = {side: _worker("fingerprints", root, mode)
                    for side, root in sides.items()}
            columns = {side: r["trace_columns"] for side, r in runs.items()}
            # the same in both modes
            record["format_change"] = {
                f"trace_columns_only_in_{side}": [
                    c for c in columns[side] if c not in columns[other]]
                for side, other in (("parent", "change"), ("change", "parent"))}
            prints = {side: r["cells"] for side, r in runs.items()}
            answers = {side: {cell: v.pop("answers") for cell, v in p.items()}
                       for side, p in prints.items()}
            hash_list = {side: hashlib.sha256(json.dumps(
                prints[side], sort_keys=True).encode()).hexdigest()
                for side in sides}
            identical = prints["parent"] == prints["change"]
            compared = {cell: _compare(answers["parent"][cell],
                                       answers["change"][cell])
                        for cell in answers["parent"]}
            for cell, diffs in compared.items():
                prints["change"][cell].update(diffs)
            record[f"same_answers_{mode}"] = {
                "identical": identical,
                "sha256_of_hash_list": hash_list,
                "worst": _worst(compared),
                "cells": prints["change"]}

        _log("minor faults")
        record["minor_faults"] = {
            f"{w}_s{seed}": {side: _worker("faults", root, w, str(seed))
                             for side, root in sides.items()}
            for w in WORKLOADS for seed in args.seeds}

    _log("full-scale memory")
    record["full_scale_memory"] = _interleaved(
        MEMORY_RUNS, sides, _full_scale_memory)
    record["pairs"] = _pairs(args, sides)
    if args.claim:
        record["claimed"] = _claimed(args, record["pairs"])

    if not args.aa:
        _log("traced runs")
        record["traced"] = {
            f"{w}_s{args.seeds[0]}": {
                side: {k: round(v, 4) for k, v in _perfbench(
                    root, w, args.seeds[0], trace=1).items() if k in LAYERS}
                for side, root in sides.items()}
            for w in WORKLOADS}

        _log("criterion 7 pool")
        record["criterion7_pool"] = _interleaved(
            args.pool_runs, sides,
            lambda root: _worker("criterion7", root, pinned=False))
    # each invocation adds one run to the file's list, so that every run
    # made stays in the record
    runs = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            runs = json.load(fh)["runs"]
    with open(args.out, "w") as fh:
        json.dump({"runs": runs + [record]}, fh, indent=1)
        fh.write("\n")
    _log(f"added run {len(runs) + 1} to {args.out}")


def _claim(text):
    workload, _, metric = text.partition(":")
    if workload not in WORKLOADS or metric not in METRICS:
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD:METRIC with a workload of {WORKLOADS} and a "
            f"metric of {METRICS}, got {text!r}")
    return workload, metric


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", nargs="+", help=argparse.SUPPRESS)
    ap.add_argument("--parent", help="root of the parent checkout")
    ap.add_argument("--change", help="root of the changed checkout")
    ap.add_argument("--aa", action="store_true",
                    help="pair the parent against a copy of itself")
    ap.add_argument("--out", help="the JSON record to add the run to")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    ap.add_argument("--pool-runs", type=int, default=3)
    ap.add_argument("--claim", type=_claim,
                    help="WORKLOAD:METRIC judged against the pair rule; "
                         "without it the run judges no claim")
    args = ap.parse_args()
    if args.worker:
        kind, *rest = args.worker
        json.dump(WORKERS[kind](*rest), sys.stdout)
        return
    if not args.parent or not args.out or bool(args.change) == args.aa:
        ap.error("--parent, --out and one of --change or --aa are required")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    parent = os.path.abspath(args.parent)
    if not args.aa:
        measure(args, {"parent": parent,
                       "change": os.path.abspath(args.change)})
        return
    with tempfile.TemporaryDirectory() as copy:
        for part in ("src", "perfbench"):
            shutil.copytree(os.path.join(parent, part),
                            os.path.join(copy, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        measure(args, {"parent": parent, "change": copy})


if __name__ == "__main__":
    main()
