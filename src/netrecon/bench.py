"""Randomized benchmark: generate, simulate, reconstruct, score.

For every seeded random network the harness simulates a dataset at each
requested SNR, reconstructs it with the assumed state dimension, and
compares the inferred Q adjacency against the truth.  A run whose
precision falls below the failure threshold counts as failed; mean
precision and TPR are reported over the non-failed runs, and the failure
rate is reported both per SNR and pooled.

Cells are seeded independently of execution order, so results are
identical for any parallelism degree.  Output files embed the effective
configuration and seeds but never wall-clock times, keeping reruns
byte-identical.
"""

import concurrent.futures
import logging
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .dsf import NetworkGraph, graph_compare
from .fileio import fmt
from .model import generate_random_network, simulate
from .reconstruct import recon_config, reconstruct

__all__ = ["BenchConfig", "RunRecord", "BenchRow", "BenchTable", "run_benchmark"]

logger = logging.getLogger(__name__)


@dataclass
class BenchConfig:
    """Benchmark sweep settings; ``recon`` holds reconstruction settings for
    every cell, keyed as in :func:`netrecon.reconstruct.recon_config`
    (each cell sets ``n_states`` from ``n_assumed`` and its own ``seed``)."""

    n_networks: int = 10
    p: int = 10
    n_true: int = 25
    n_assumed: int = 30
    m: int = 10
    density: float = 0.1
    N_samples: int = 1000
    snr_list: tuple = (40.0,)
    failure_precision_threshold: float = 0.05
    seed: int = 0
    parallelism: int = 1
    recon: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("n_networks", "parallelism"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {getattr(self, name)}")
        if self.n_assumed < self.p:
            raise ValueError("n_assumed must be at least p")
        if self.m != self.p:
            raise ValueError("benchmark requires m = p")
        self.snr_list = tuple(float(s) for s in self.snr_list)
        if len(set(self.snr_list)) < len(self.snr_list):
            raise ValueError(f"snr_list repeats a value: {self.snr_list}")
        if {k.replace("-", "_") for k in self.recon} & {"n_states", "seed"}:
            raise ValueError("recon may not set n_states or seed: each cell "
                             "takes them from n_assumed and its own seed")
        _cell_recon_config(self, 0)   # unknown keys fail before any cell runs

    def echo(self):
        """Every setting as the text the result files embed: floats by
        ``fmt``, tuples comma-joined, then one ``recon_<key>`` per entry of
        ``recon``."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float:
                out[f.name] = fmt(value)
            elif f.type is tuple:
                out[f.name] = ",".join(fmt(v) for v in value)
            elif f.type is not dict:   # recon: one key per entry, below
                out[f.name] = value
        for key in sorted(self.recon):
            out[f"recon_{key}"] = self.recon[key]
        return out


@dataclass
class RunRecord:
    network: int
    snr_db: float
    gen_seed: int
    sim_seed: int
    recon_seed: int
    precision: float
    tpr: float
    n_est_edges: int
    n_true_edges: int
    outer_iterations: int
    status: str
    failed: bool
    error: str = ""
    wall_time: float = 0.0   # in-memory only, never written to result files


@dataclass
class BenchRow:
    snr_db: float
    precision_mean: float
    tpr_mean: float
    n_failed: int
    n_total: int


@dataclass
class BenchTable:
    rows: list
    records: list
    failure_rate: float
    failure_rate_by_snr: dict
    config: BenchConfig

    def to_csv_text(self):
        lines = ["# netrecon benchmark v1"]
        for key, val in self.config.echo().items():
            lines.append(f"# {key} {val}")
        lines.append("snr_db,precision_mean,tpr_mean,n_failed,n_total")
        for row in self.rows:
            lines.append(",".join([
                fmt(row.snr_db), fmt(row.precision_mean), fmt(row.tpr_mean),
                str(row.n_failed), str(row.n_total)]))
        return "\n".join(lines) + "\n"

    def to_table_text(self):
        """Aligned summary: Precision/TPR rows, one column per SNR, plus the
        pooled failure rate (percentages rounded to integers)."""
        headers = [f"{row.snr_db:g} dB" for row in self.rows]
        width = max([9] + [len(h) for h in headers]) + 2
        def cell(s):
            return str(s).rjust(width)
        lines = ["netrecon benchmark summary",
                 "".rjust(11) + "".join(cell(h) for h in headers) + cell("Failure")]
        prec = "".join(cell(f"{100 * r.precision_mean:.0f}%") for r in self.rows)
        tpr = "".join(cell(f"{100 * r.tpr_mean:.0f}%") for r in self.rows)
        fail = cell(f"{100 * self.failure_rate:.0f}%")
        lines.append("Precision".ljust(11) + prec + fail)
        lines.append("TPR".ljust(11) + tpr)
        return "\n".join(lines) + "\n"

    def records_csv_text(self):
        lines = ["# netrecon benchmark records v1"]
        for key, val in self.config.echo().items():
            lines.append(f"# {key} {val}")
        lines.append("network,snr_db,gen_seed,sim_seed,recon_seed,precision,"
                     "tpr,n_est_edges,n_true_edges,outer_iterations,status,"
                     "failed,error")
        for r in self.records:
            lines.append(",".join([
                str(r.network), fmt(r.snr_db), str(r.gen_seed), str(r.sim_seed),
                str(r.recon_seed),
                fmt(r.precision) if np.isfinite(r.precision) else "nan",
                fmt(r.tpr) if np.isfinite(r.tpr) else "nan",
                str(r.n_est_edges), str(r.n_true_edges),
                str(r.outer_iterations), r.status, str(int(r.failed)),
                r.error.replace(",", ";")]))
        return "\n".join(lines) + "\n"


def _derive_seed(*entropy):
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _cell_recon_config(cfg, recon_seed):
    return recon_config({**cfg.recon, "n_states": cfg.n_assumed,
                         "seed": recon_seed})


def _bench_cell(cfg, net_idx, snr_idx):
    """One (network, SNR) cell; exceptions become failed records."""
    snr = cfg.snr_list[snr_idx]
    gen_seed = _derive_seed(cfg.seed, net_idx)
    sim_seed = _derive_seed(cfg.seed, net_idx, snr_idx, 1)
    recon_seed = _derive_seed(cfg.seed, net_idx, snr_idx, 2)
    t0 = time.perf_counter()
    try:
        truth = generate_random_network(cfg.p, cfg.n_true, cfg.m,
                                        cfg.density, gen_seed)
        data = simulate(truth.model, cfg.N_samples, "gaussian_iid",
                        snr_db=snr, seed=sim_seed)
        result = reconstruct(data, _cell_recon_config(cfg, recon_seed))
        truth_graph = NetworkGraph(q_adj=truth.q_structure,
                                   p_adj=truth.p_structure)
        metrics = graph_compare(result.network, truth_graph)
        failed = metrics.precision < cfg.failure_precision_threshold
        record = RunRecord(
            network=net_idx, snr_db=snr, gen_seed=gen_seed,
            sim_seed=sim_seed, recon_seed=recon_seed,
            precision=metrics.precision, tpr=metrics.tpr,
            n_est_edges=metrics.n_est_edges, n_true_edges=metrics.n_true_edges,
            outer_iterations=len(result.trace), status=result.status,
            failed=failed, wall_time=time.perf_counter() - t0)
    except Exception as exc:  # record, never abort the sweep
        record = RunRecord(
            network=net_idx, snr_db=snr, gen_seed=gen_seed,
            sim_seed=sim_seed, recon_seed=recon_seed,
            precision=float("nan"), tpr=float("nan"),
            n_est_edges=0, n_true_edges=0, outer_iterations=0,
            status="error", failed=True, error=f"{type(exc).__name__}: {exc}",
            wall_time=time.perf_counter() - t0)
    logger.info("network %d @ %g dB: precision=%.3f tpr=%.3f status=%s (%.1fs)",
                net_idx, snr, record.precision, record.tpr, record.status,
                record.wall_time)
    return record


def run_benchmark(cfg):
    """Run the full sweep and aggregate into a BenchTable.

    Individual run errors are recorded (and counted as failures), never
    raised.  Aggregation is recomputed from the per-run records keyed by
    (network, snr), independent of how cells were scheduled.
    """
    cells = [(net, si) for net in range(cfg.n_networks)
             for si in range(len(cfg.snr_list))]
    if cfg.parallelism > 1:
        with concurrent.futures.ProcessPoolExecutor(cfg.parallelism) as pool:
            records = list(pool.map(_bench_cell, [cfg] * len(cells),
                                    [c[0] for c in cells], [c[1] for c in cells]))
    else:
        records = [_bench_cell(cfg, net, si) for net, si in cells]
    records.sort(key=lambda r: (r.network, r.snr_db))

    rows = []
    failure_by_snr = {}
    for snr in cfg.snr_list:
        group = [r for r in records if r.snr_db == snr]
        good = [r for r in group if not r.failed]
        rows.append(BenchRow(
            snr_db=snr,
            precision_mean=float(np.mean([r.precision for r in good])) if good else 0.0,
            tpr_mean=float(np.mean([r.tpr for r in good])) if good else 0.0,
            n_failed=len(group) - len(good),
            n_total=len(group)))
        failure_by_snr[snr] = (len(group) - len(good)) / max(len(group), 1)
    pooled = sum(r.failed for r in records) / max(len(records), 1)
    return BenchTable(rows=rows, records=records, failure_rate=pooled,
                      failure_rate_by_snr=failure_by_snr, config=cfg)
