"""netrecon: sparse dynamic-network reconstruction from time series.

Identifies an innovations-form state-space model by an outer EM loop
(Kalman smoothing E-step) with a sparse-Bayesian-learning inner loop under
network-identifiability masks, then reads the network off the model's
dynamical structure function.

The benchmark sweep harness (``BenchConfig``, ``RunRecord``, ``BenchRow``,
``BenchTable``, ``run_benchmark``) is loaded from ``netrecon.bench`` on
first use, so that importing the package loads only what a
reconstruction runs.
"""

from .model import (StateSpaceModel, Dataset, GroundTruth, GenerationError,
                    SimulationDivergedError, generate_random_network, simulate,
                    scale_noise_for_snr, save_dataset_csv, load_dataset_csv,
                    save_model, load_model)
from .dsf import (DSFError, FreqSample, NetworkGraph, GraphMetrics,
                  default_q_points, dsf_from_state_space, boolean_structure,
                  graph_compare, edge_auc, save_dsf_result)
from .smoother import (FilterDivergedError, StepSeq, PassBuffers, FilterPass,
                       SmoothPass, ESums, kalman_filter, rts_smoother,
                       lag_one_smoother, smooth, expectation_sums,
                       observed_loglik)
from .sbl import (IdentifiabilityError, RegressionData, SBLState, Posterior,
                  Mask, SBLOptions, regression_from_moments,
                  posterior, marginal_loglik, identifiability_mask,
                  initial_sbl_state, sbl_em, unpack_w, pack_w)
from .reconstruct import (ReconConfig, ReconResult, IterationRecord,
                          RECON_KEYS, recon_config, recon_settings,
                          reconstruct, p22_sweep, converged, save_result)
from .fileio import FileFormatError

__version__ = "0.1.0"

_BENCH_NAMES = ("BenchConfig", "RunRecord", "BenchRow", "BenchTable",
                "run_benchmark")


def __getattr__(name):
    if name in _BENCH_NAMES:
        from . import bench
        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_BENCH_NAMES})
