"""The package's public surface and the settings it refuses.

Every name a module lists in ``__all__`` must exist, and every public name
of ``netrecon`` must be listed by the module that defines it.  Settings
that would make a run meaningless (no iteration, a NaN tolerance, an
empty sweep) raise ValueError in the library and exit 1 from the CLI.
"""

import dataclasses
import importlib
import math
import pkgutil
import sys
import types

import numpy as np
import pytest

import netrecon
from netrecon import BenchConfig, ReconConfig, SBLOptions, recon_config
from netrecon.cli import cli_main

NAN = math.nan


def _id(kwargs):
    return ",".join(f"{key}={value}" for key, value in kwargs.items())


def test_export_lists_are_consistent():
    # the sweep harness's exports load on first use; dir() lists them so
    # that the check below reaches them
    assert {"BenchConfig", "RunRecord", "BenchRow", "BenchTable",
            "run_benchmark"} <= set(dir(netrecon))
    modules = [importlib.import_module(f"netrecon.{info.name}")
               for info in pkgutil.iter_modules(netrecon.__path__)]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
    for name in dir(netrecon):
        obj = getattr(netrecon, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        owner = getattr(obj, "__module__", "")
        if owner.startswith("netrecon."):
            assert name in sys.modules[owner].__all__, f"{owner}.__all__ lacks {name}"
        else:   # a constant: some module must export it
            assert any(name in m.__all__ and getattr(m, name) is obj
                       for m in modules), f"no module exports {name}"


def test_exact_dsf_is_not_part_of_the_package():
    for name in ("exact_dsf_small", "RationalMatrix", "UnsupportedSizeError"):
        assert not hasattr(netrecon, name)
        assert not hasattr(netrecon.dsf, name)


@pytest.mark.parametrize("kwargs", [
    {"max_iter": 0}, {"tol": -1e-9}, {"tol": NAN}, {"prune_tol": -1.0},
    {"prune_tol": NAN},
], ids=_id)
def test_sbl_options_reject_meaningless_settings(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SBLOptions(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"outer_max_iter": 0}, {"outer_tol": -1.0}, {"outer_tol": NAN},
    {"structure_rel_tol": NAN}, {"structure_rel_tol": -0.1},
    {"structure_rel_tol": 1.0}, {"prior_mode": "bogus"},
    {"mask_mode": "bogus"}, {"mask_mode": "p_diag"},
    {"mask_mode": "p_diag", "p22": -1}, {"seed": None}, {"seed": -1},
], ids=_id)
def test_recon_config_rejects_meaningless_settings(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        ReconConfig(n_states=3, **kwargs)


def test_configs_cannot_change_after_validation():
    for cfg, name, value in [(SBLOptions(), "max_iter", 0),
                             (ReconConfig(n_states=3), "prior_mode", "bogus"),
                             (BenchConfig(n_networks=1), "n_networks", 0)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)


def test_boundary_settings_stay_valid():
    SBLOptions(max_iter=1, tol=0.0, prune_tol=0.0)
    ReconConfig(n_states=0, outer_max_iter=1, outer_tol=0.0,
                structure_rel_tol=0.0)
    ReconConfig(n_states=3, structure_rel_tol=0.5, prior_mode="ml")
    BenchConfig(n_networks=1, parallelism=1)


@pytest.mark.parametrize("kwargs", [
    {"n_networks": 0}, {"parallelism": 0}, {"recon": {"inner_max_iter": 0}},
    {"recon": {"outer_max_iter": 0}},
    {"snr_list": (float("nan"), 20.0)}, {"snr_list": ()}, {"density": 5.0},
    {"p": 2, "m": 2, "n_true": 1, "n_assumed": 5}, {"N_samples": 0},
    {"N_samples": 1},
    {"p": 2, "m": 2, "n_true": 4, "n_assumed": 3,
     "recon": {"mask_mode": "p_diag", "p22": 0}}, {"seed": -1},
    {"recon": {"bogus": None}},
], ids=_id)
def test_bench_config_rejects_meaningless_settings(kwargs):
    # each of these used to pass and then fail in every cell of the sweep
    # (a negative seed: out of run_benchmark, before any cell ran); an
    # unknown key is named as unknown, whatever its value
    with pytest.raises(ValueError, match="n_networks|parallelism|max_iter|"
                       "snr_list|density|need n >= p|need N >= 1|two input "
                       "samples|p22=0 needs|seed must be nonnegative|"
                       "unknown reconstruction setting 'bogus'"):
        BenchConfig(**kwargs)


def test_bench_config_rejects_fewer_assumed_states_than_outputs():
    with pytest.raises(ValueError, match="n_assumed must be at least p"):
        BenchConfig(p=3, m=3, n_true=4, n_assumed=2)


def test_a_cell_that_raises_is_recorded_and_the_sweep_goes_on(monkeypatch):
    from netrecon import bench
    real = bench.reconstruct
    calls = []

    def fails_first(data, cfg):
        calls.append(cfg.seed)
        if len(calls) == 1:   # network 0, the first cell of a serial sweep
            raise RuntimeError("no estimate")
        return real(data, cfg)

    monkeypatch.setattr(bench, "reconstruct", fails_first)
    table = bench.run_benchmark(BenchConfig(
        n_networks=2, p=2, n_true=4, n_assumed=5, m=2, density=0.4,
        N_samples=60, snr_list=(30.0,), seed=3,
        recon={"outer_max_iter": 3}))
    assert len(calls) == 2
    bad, good = table.records
    assert (bad.network, bad.status, bad.failed) == (0, "error", True)
    assert bad.error == "RuntimeError: no estimate"
    assert math.isnan(bad.precision) and math.isnan(bad.auc)
    assert bad.outer_iterations == 0 and bad.n_true_edges == 0
    assert good.network == 1 and good.status != "error" and not good.error
    assert table.rows[0].n_failed >= 1 and table.rows[0].n_total == 2


@pytest.mark.parametrize("threshold", [NAN, 2.0, -0.1, math.inf])
def test_failure_threshold_must_be_a_precision(threshold):
    # a settable threshold above 1 failed every cell, and NaN or below 0 let
    # no cell fail; the threshold is now a fixed precision no config sets
    from netrecon.bench import FAILURE_PRECISION
    assert 0.0 < FAILURE_PRECISION < 1.0
    with pytest.raises(TypeError, match="failure_precision_threshold"):
        BenchConfig(failure_precision_threshold=threshold)


_COUNTS = [(SBLOptions, {}, "max_iter"), (ReconConfig, {}, "n_states"),
           (ReconConfig, {"n_states": 3, "mask_mode": "p_diag"}, "p22"),
           (ReconConfig, {"n_states": 3}, "outer_max_iter"),
           (ReconConfig, {"n_states": 3}, "seed")] + [
    (BenchConfig, {}, f.name) for f in dataclasses.fields(BenchConfig)
    if f.type is int]


@pytest.mark.parametrize("cls, base, name", _COUNTS,
                         ids=[f"{c.__name__}.{n}" for c, _, n in _COUNTS])
def test_counts_must_be_integers(cls, base, name):
    # a fractional count used to pass and fail later inside range()
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            cls(**base, **{name: bad})
    default = {f.name: f.default for f in dataclasses.fields(cls)}[name]
    valid = default if isinstance(default, int) else 3
    cls(**base, **{name: np.int64(valid)})   # numpy integers stay valid


_NUMBERS = [(cls, {"n_states": 3} if cls is ReconConfig else {}, f.name)
            for cls in (SBLOptions, ReconConfig, BenchConfig)
            for f in dataclasses.fields(cls) if f.type is float]


@pytest.mark.parametrize("cls, base, name", _NUMBERS,
                         ids=[f"{c.__name__}.{n}" for c, _, n in _NUMBERS])
def test_float_settings_must_be_numbers(cls, base, name):
    # None or a string used to raise TypeError from a comparison, or (the
    # failure threshold) to pass and turn every cell into an error record
    for bad in (None, "0.1", [0.1]):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            cls(**base, **{name: bad})
    default = {f.name: f.default for f in dataclasses.fields(cls)}[name]
    cls(**base, **{name: np.float64(default)})   # numpy floats stay valid
    cls(**base, **{name: np.float32(default)})


def test_cli_exits_1_on_a_meaningless_setting(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert cli_main(["simulate", "--p", "2", "--n", "3", "--density", "0.5",
                     "--n-samples", "30", "--seed", "1",
                     "--out", str(data)]) == 0
    cfg = tmp_path / "rec.cfg"
    cfg.write_text("n_states = 3\nouter_max_iter = 0\n")
    out = tmp_path / "r.txt"
    assert cli_main(["reconstruct", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)]) == 1
    assert "outer_max_iter" in capsys.readouterr().err
    assert not out.exists()

    cfg = tmp_path / "bench.cfg"
    cfg.write_text("n_networks = 0\np = 2\nn_true = 4\nn_assumed = 5\nm = 2\n")
    out = tmp_path / "s.csv"
    assert cli_main(["benchmark", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 1
    assert "n_networks" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_nan_failure_threshold(tmp_path, capsys):
    # read from a file, a NaN threshold used to pass and let no cell fail;
    # the threshold is no setting now, so its key exits 1 at any value
    cfg = tmp_path / "bench.cfg"
    out = tmp_path / "s.csv"
    for value in ("nan", "0.05"):
        cfg.write_text("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 5\n"
                       f"m = 2\nfailure_precision_threshold = {value}\n")
        assert cli_main(["benchmark", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 1
        assert ("unknown benchmark config key 'failure_precision_threshold'"
                in capsys.readouterr().err)
    assert not out.exists()


def test_cli_rejects_a_negative_seed_before_any_file(tmp_path, capsys):
    # numpy's SeedSequence used to raise on it once the data was read
    # (reconstruct), without naming the setting (simulate), or out of the
    # whole sweep (benchmark)
    missing, out = tmp_path / "none.csv", tmp_path / "out.txt"
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 5\nm = 2\n")
    for argv in (["simulate", "--p", "2", "--n", "3", "--density", "0.5",
                  "--n-samples", "30", "--model-out", str(tmp_path / "m.txt")],
                 ["simulate", "--model-in", str(missing), "--n-samples", "30"],
                 ["reconstruct", "--data", str(missing), "--n-states", "3"],
                 ["benchmark", "--config", str(cfg), "--quiet"]):
        assert cli_main([*argv, "--seed", "-1", "--out", str(out)]) == 1, argv
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("flags, config, message", [
    (["--inner-max-iter", "5"], "", "unrecognized arguments: --inner-max-iter"),
    ([], "inner_max_iter = 5\n", "unknown reconstruct config key 'inner_max_iter'"),
    (["--mask-mode", "bogus"], "", "unknown mask_mode 'bogus'"),
    ([], "mask_mode = p_diag\n", "mask_mode 'p_diag' needs p22 >= 0"),
], ids=["inner-flag", "inner-config", "mask-flag", "p-diag-config"])
def test_cli_rejects_a_setting_before_reading_the_data(tmp_path, capsys,
                                                       flags, config, message):
    # the data file does not exist: a setting error must come first
    cfg = tmp_path / "rec.cfg"
    cfg.write_text("n_states = 3\n" + config)
    out = tmp_path / "r.txt"
    assert cli_main(["reconstruct", "--data", str(tmp_path / "none.csv"),
                     "--config", str(cfg), *flags, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_nested_setting_error_names_the_flat_key():
    # the SBL options are no longer settings: each former inner_<field>
    # key is an unknown setting, named by its flat key
    for key in ("inner_max_iter", "inner_tol", "inner_prune_tol"):
        with pytest.raises(ValueError,
                           match=f"unknown reconstruction setting '{key}'"):
            recon_config({"n_states": 3, key: "1"})


def test_unconstrained_mask_is_rejected_everywhere(tmp_path, capsys):
    # only the two identifiable regimes exist
    from netrecon import identifiability_mask
    with pytest.raises(ValueError, match="unknown mask mode 'unconstrained'"):
        identifiability_mask(4, 2, 2, "unconstrained")
    with pytest.raises(ValueError, match="unknown mask_mode 'unconstrained'"):
        ReconConfig(n_states=4, mask_mode="unconstrained")
    out = tmp_path / "r.txt"
    assert cli_main(["reconstruct", "--data", str(tmp_path / "none.csv"),
                     "--n-states", "4", "--mask-mode", "unconstrained",
                     "--out", str(out)]) == 1
    assert "unknown mask_mode 'unconstrained'" in capsys.readouterr().err
    assert not out.exists()


def test_inner_loop_has_one_default_set(monkeypatch):
    # reconstruct fits at SBLOptions(), and no config can change that
    rec = importlib.import_module("netrecon.reconstruct")
    from netrecon import simulate
    from _oracles import random_stable_model
    with pytest.raises(TypeError, match="inner"):
        ReconConfig(n_states=3, inner=SBLOptions(max_iter=5))
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("opts"))
        return netrecon.sbl_em(*args, **kwargs)

    monkeypatch.setattr(rec, "sbl_em", spy)
    model = random_stable_model(np.random.default_rng(5), 3, 2, 2, sigma=0.1)
    data = simulate(model, N=40, seed=6)
    rec.reconstruct(data, ReconConfig(n_states=3, outer_max_iter=2))
    assert calls and set(calls) == {None}   # one fit per outer iteration
