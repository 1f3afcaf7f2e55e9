"""Randomized benchmark: generate, simulate, reconstruct, score.

For every seeded random network the harness simulates a dataset at each
requested SNR, reconstructs it with the assumed state dimension, and
compares the inferred Q adjacency against the truth.  A run whose
precision falls below ``FAILURE_PRECISION`` (5%) counts as failed; mean
precision and TPR are reported over the non-failed runs, and the failure
rate is reported both per SNR and pooled.  Each run also records the
threshold-free edge-ranking AUC (``dsf.edge_auc``), whose mean is taken
over every run that has one, failed or not.

Cells are seeded independently of execution order, so results are
identical for any parallelism degree.  Output files embed the effective
configuration and seeds but never wall-clock times, keeping reruns
byte-identical; the embedded configuration, read back as a config,
reruns the same sweep.
"""

import concurrent.futures
import logging
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .dsf import NetworkGraph, edge_auc, graph_compare
from .fileio import fmt, record_lines, typed_value
from .model import (_check_generation, _check_simulation,
                    generate_random_network, simulate)
from .reconstruct import RECON_KEYS, recon_config, recon_settings, reconstruct
from .sbl import _check_number_fields, identifiability_mask

__all__ = ["BenchConfig", "RunRecord", "BenchRow", "BenchTable",
           "run_benchmark", "FAILURE_PRECISION"]

logger = logging.getLogger(__name__)

# A run whose precision falls below this counts as failed.
FAILURE_PRECISION = 0.05


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark sweep settings; ``recon`` holds reconstruction settings for
    every cell, read by :func:`netrecon.reconstruct.recon_config`: keys are
    the setting names of ``RECON_KEYS``; flags are those names with '-'
    for '_'.  Each cell sets ``n_states`` from ``n_assumed`` and its own
    ``seed``.  Every int field must hold an integer, ``seed`` a
    nonnegative one, and every float field a number.  A run fails below
    the fixed ``FAILURE_PRECISION``.  A ``recon`` key must be a setting
    name, and a known key's value may not be None: a config file cannot
    carry None, and a key left out keeps its default."""

    n_networks: int = 10
    p: int = 10
    n_true: int = 25
    n_assumed: int = 30
    m: int = 10
    density: float = 0.1
    N_samples: int = 1000
    snr_list: tuple = (40.0,)
    seed: int = 0
    parallelism: int = 1
    recon: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_number_fields(self)
        for name in ("n_networks", "parallelism"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.n_assumed < self.p:
            raise ValueError("n_assumed must be at least p")
        _check_generation(self.p, self.n_true, self.m, self.density)
        object.__setattr__(self, "snr_list",
                           tuple(float(s) for s in self.snr_list))
        if not self.snr_list:
            raise ValueError("snr_list must hold at least one SNR")
        for snr in self.snr_list:
            _check_simulation(self.N_samples, snr, "snr_list")
        if len(set(self.snr_list)) < len(self.snr_list):
            raise ValueError(f"snr_list repeats a value: {self.snr_list}")
        object.__setattr__(self, "recon", dict(self.recon))   # a copy
        if _CELL_SETTINGS & self.recon.keys():
            raise ValueError("recon may not set n_states or seed: each cell "
                             "takes them from n_assumed and its own seed")
        for key, value in self.recon.items():
            if value is None and key in RECON_KEYS:
                raise ValueError(f"recon_{key} may not be None: leave it out "
                                 "for its default")
        # unknown keys and a mask the assumed states cannot hold fail
        # before any cell runs
        cell = _cell_recon_config(self, 0)
        identifiability_mask(cell.n_states, self.p, self.m, cell.mask_mode,
                             cell.p22)

    def echo(self):
        """Every setting under its ``_BENCH_KEYS`` key, as the text the
        result files embed and ``_bench_config`` reads back: each field,
        then one ``recon_<key>`` per setting name in ``recon`` with the
        value :func:`recon_config` reads from it; floats by ``fmt`` (so
        ``1e-3`` echoes as ``0.001``), tuples comma-joined."""
        read = recon_settings(_cell_recon_config(self, 0))
        settings = [(f.name.lower(), getattr(self, f.name))
                    for f in fields(self) if f.name != "recon"]
        settings += [(f"recon_{key}", read[key]) for key in sorted(self.recon)]
        return {key: ",".join(map(fmt, value)) if isinstance(value, tuple)
                else fmt(value) if isinstance(value, float) else value
                for key, value in settings}


# the reconstruction settings each cell sets itself
_CELL_SETTINGS = {"n_states", "seed"}

# benchmark config key -> type: each BenchConfig field but recon in lower
# case (N_samples is n_samples; a tuple is a comma-separated list), then
# recon_<key> for each reconstruction setting a cell does not set itself
_BENCH_KEYS = {**{f.name.lower(): list if f.type is tuple else f.type
                  for f in fields(BenchConfig) if f.name != "recon"},
               **{"recon_" + key: kind for key, kind in RECON_KEYS.items()
                  if key not in _CELL_SETTINGS}}


def _bench_config(settings):
    """The BenchConfig of a flat ``{key: value}`` mapping over
    ``_BENCH_KEYS``, its ``recon_<key>`` entries making up ``recon``; a
    string value is parsed to its key's type.  The inverse of
    :meth:`BenchConfig.echo`."""
    names = {f.name.lower(): f.name for f in fields(BenchConfig)}
    kwargs, recon = {}, {}
    for key, value in settings.items():
        if isinstance(value, str):
            value = typed_value(value, _BENCH_KEYS[key])
        if key.startswith("recon_"):
            recon[key.removeprefix("recon_")] = value
        else:
            kwargs[names[key]] = value
    return BenchConfig(**kwargs, recon=recon)


@dataclass
class RunRecord:
    network: int
    snr_db: float
    gen_seed: int
    sim_seed: int
    recon_seed: int
    precision: float
    tpr: float
    auc: float
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
    auc_mean: float
    n_failed: int
    n_total: int


@dataclass
class BenchTable:
    rows: list
    records: list
    failure_rate: float
    config: BenchConfig

    def to_csv_text(self):
        return self._csv_text("# netrecon benchmark v1", BenchRow, self.rows)

    def to_table_text(self):
        """Aligned summary: Precision/TPR rows, one column per SNR, plus the
        pooled failure rate (percentages rounded to integers), and the mean
        AUC row to three decimals."""
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
        lines.append("AUC".ljust(11)
                     + "".join(cell(f"{r.auc_mean:.3f}") for r in self.rows))
        return "\n".join(lines) + "\n"

    def records_csv_text(self):
        return self._csv_text("# netrecon benchmark records v1", RunRecord,
                              self.records)

    def _csv_text(self, title, cls, records):
        """``title``, the configuration echo as comments, then the table."""
        lines = [title]
        lines.extend(f"# {key} {val}" for key, val in self.config.echo().items())
        lines.extend(record_lines(cls, records, ","))
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
        failed = metrics.precision < FAILURE_PRECISION
        record = RunRecord(
            network=net_idx, snr_db=snr, gen_seed=gen_seed,
            sim_seed=sim_seed, recon_seed=recon_seed,
            precision=metrics.precision, tpr=metrics.tpr,
            auc=edge_auc(result.dsf, truth_graph),
            n_est_edges=metrics.n_est_edges, n_true_edges=metrics.n_true_edges,
            outer_iterations=len(result.trace), status=result.status,
            failed=failed, wall_time=time.perf_counter() - t0)
    except Exception as exc:  # record, never abort the sweep
        record = RunRecord(
            network=net_idx, snr_db=snr, gen_seed=gen_seed,
            sim_seed=sim_seed, recon_seed=recon_seed,
            precision=float("nan"), tpr=float("nan"), auc=float("nan"),
            n_est_edges=0, n_true_edges=0, outer_iterations=0,
            status="error", failed=True, error=f"{type(exc).__name__}: {exc}",
            wall_time=time.perf_counter() - t0)
    logger.info("network %d @ %g dB: precision=%.3f tpr=%.3f auc=%.3f "
                "status=%s (%.1fs)", net_idx, snr, record.precision,
                record.tpr, record.auc, record.status, record.wall_time)
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
        aucs = [r.auc for r in group if not np.isnan(r.auc)]
        rows.append(BenchRow(
            snr_db=snr,
            precision_mean=float(np.mean([r.precision for r in good])) if good else 0.0,
            tpr_mean=float(np.mean([r.tpr for r in good])) if good else 0.0,
            auc_mean=float(np.mean(aucs)) if aucs else float("nan"),
            n_failed=len(group) - len(good),
            n_total=len(group)))
    pooled = sum(r.failed for r in records) / max(len(records), 1)
    return BenchTable(rows=rows, records=records, failure_rate=pooled,
                      config=cfg)
