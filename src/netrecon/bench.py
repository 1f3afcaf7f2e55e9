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
from .fileio import fmt, record_lines
from .model import generate_random_network, simulate
from .reconstruct import _recon_key, recon_config, recon_settings, reconstruct

__all__ = ["BenchConfig", "RunRecord", "BenchRow", "BenchTable", "run_benchmark"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark sweep settings; ``recon`` holds reconstruction settings for
    every cell, keyed as :func:`netrecon.reconstruct.recon_config` reads
    them (``mask`` is stored as ``mask_mode``); each cell sets ``n_states``
    from ``n_assumed`` and its own ``seed``."""

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
        object.__setattr__(self, "snr_list",
                           tuple(float(s) for s in self.snr_list))
        if len(set(self.snr_list)) < len(self.snr_list):
            raise ValueError(f"snr_list repeats a value: {self.snr_list}")
        object.__setattr__(self, "recon", {_recon_key(k): v
                                           for k, v in self.recon.items()})
        if {"n_states", "seed"} & self.recon.keys():
            raise ValueError("recon may not set n_states or seed: each cell "
                             "takes them from n_assumed and its own seed")
        _cell_recon_config(self, 0)   # unknown keys fail before any cell runs

    def echo(self):
        """Every setting as the text the result files embed: floats by
        ``fmt``, tuples comma-joined, then one ``recon_<key>`` per key of
        ``recon``, with the value :func:`recon_config` reads from it (so
        ``mask = p-diag`` echoes as ``recon_mask_mode p_diag``; a float
        again by ``fmt``)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float:
                out[f.name] = fmt(value)
            elif f.type is tuple:
                out[f.name] = ",".join(fmt(v) for v in value)
            elif f.type is not dict:   # recon: one key per entry, below
                out[f.name] = value
        read = recon_settings(_cell_recon_config(self, 0))
        for key in sorted(self.recon):
            value = read[key]
            out[f"recon_{key}"] = fmt(value) if isinstance(value, float) else value
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
    wall_time: float = field(default=0.0, compare=False)   # in memory only


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
        lines.extend(record_lines(RunRecord, self.records, ","))
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
    for snr in cfg.snr_list:
        group = [r for r in records if r.snr_db == snr]
        good = [r for r in group if not r.failed]
        rows.append(BenchRow(
            snr_db=snr,
            precision_mean=float(np.mean([r.precision for r in good])) if good else 0.0,
            tpr_mean=float(np.mean([r.tpr for r in good])) if good else 0.0,
            n_failed=len(group) - len(good),
            n_total=len(group)))
    pooled = sum(r.failed for r in records) / max(len(records), 1)
    return BenchTable(rows=rows, records=records, failure_rate=pooled,
                      config=cfg)
