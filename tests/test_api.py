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

import pytest

import netrecon
from netrecon import BenchConfig, ReconConfig, SBLOptions, recon_config
from netrecon.cli import cli_main

NAN = math.nan


def _id(kwargs):
    return ",".join(f"{key}={value}" for key, value in kwargs.items())


def test_export_lists_are_consistent():
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
    {"mask_mode": "p_diag", "p22": -1},
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
], ids=_id)
def test_bench_config_rejects_meaningless_settings(kwargs):
    with pytest.raises(ValueError, match="n_networks|parallelism|max_iter"):
        BenchConfig(**kwargs)


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


@pytest.mark.parametrize("flags, config, message", [
    (["--inner-max-iter", "0"], "", "inner_max_iter must be at least 1"),
    ([], "inner_max_iter = 0\n", "inner_max_iter must be at least 1"),
    (["--mask", "bogus"], "", "unknown mask_mode 'bogus'"),
    ([], "mask = p-diag\n", "mask_mode 'p_diag' needs p22 >= 0"),
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
    with pytest.raises(ValueError, match="inner_max_iter must be at least 1"):
        recon_config({"n_states": 3, "inner_max_iter": 0})
    with pytest.raises(ValueError, match="inner_tol must be nonnegative"):
        recon_config({"n_states": 3, "inner_tol": "-1"})


def test_unconstrained_mask_is_rejected_everywhere(tmp_path, capsys):
    # only the two identifiable regimes exist
    from netrecon import identifiability_mask
    with pytest.raises(ValueError, match="unknown mask mode 'unconstrained'"):
        identifiability_mask(4, 2, 2, "unconstrained")
    with pytest.raises(ValueError, match="unknown mask_mode 'unconstrained'"):
        ReconConfig(n_states=4, mask_mode="unconstrained")
    out = tmp_path / "r.txt"
    assert cli_main(["reconstruct", "--data", str(tmp_path / "none.csv"),
                     "--n-states", "4", "--mask", "unconstrained",
                     "--out", str(out)]) == 1
    assert "unknown mask_mode 'unconstrained'" in capsys.readouterr().err
    assert not out.exists()


def test_inner_loop_has_one_default_set():
    assert SBLOptions() == ReconConfig(n_states=1).inner
