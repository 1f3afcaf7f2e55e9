import os
import re
from pathlib import Path

import numpy as np
import pytest

from netrecon import BenchConfig, load_dataset_csv, load_model
from netrecon.cli import cli_main, load_config

from _oracles import exact_dsf_small

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(args):
    return cli_main([str(a) for a in args])


def test_simulate_writes_dataset_and_model(tmp_path):
    out = tmp_path / "d.csv"
    model_out = tmp_path / "m.txt"
    code = run_cli(["simulate", "--p", 2, "--n", 4, "--m", 2, "--density",
                    "0.4", "--n-samples", 50, "--snr-db", 20, "--seed", 5,
                    "--out", out, "--model-out", model_out])
    assert code == 0
    data = load_dataset_csv(out)
    assert data.N == 50 and data.p == 2 and data.m == 2
    model, meta = load_model(model_out)
    assert model.n == 4 and meta["seed"] == 5


def test_simulate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--p", 2, "--n", 3, "--m", 2, "--density", "0.5",
            "--n-samples", 30, "--seed", 9]
    assert run_cli(args + ["--out", a]) == 0
    assert run_cli(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_from_model_file(tmp_path):
    out = tmp_path / "d.csv"
    code = run_cli(["simulate", "--model-in", FIXTURES / "sample_model.txt",
                    "--n-samples", 40, "--seed", 2, "--out", out])
    assert code == 0
    assert load_dataset_csv(out).p == 3


def test_reconstruct_roundtrip_and_determinism(tmp_path):
    data_path = tmp_path / "d.csv"
    run_cli(["simulate", "--model-in", FIXTURES / "sample_model.txt",
             "--n-samples", 120, "--snr-db", 30, "--seed", 3,
             "--out", data_path])
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    args = ["reconstruct", "--data", data_path, "--n-states", 7, "--mask",
            "diag-b", "--outer-max-iter", 8, "--seed", 4]
    assert run_cli(args + ["--out", r1]) == 0
    assert run_cli(args + ["--out", r2]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert "status" in r1.read_text()


def test_dsf_prints_adjacency_matching_exact_path(tmp_path, capsys):
    out = tmp_path / "dsf.txt"
    code = run_cli(["dsf", "--model", FIXTURES / "sample_model.txt",
                    "--seed", 1, "--out", out])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    rows = [line.split() for line in printed[1:4]]
    got = np.array(rows, dtype=int).astype(bool)
    model, _ = load_model(FIXTURES / "sample_model.txt")
    Q, _, _ = exact_dsf_small(model)
    assert np.array_equal(got, Q.zero_pattern())
    assert out.exists()


def test_benchmark_tiny_config(tmp_path):
    out = tmp_path / "table.csv"
    records = tmp_path / "records.csv"
    code = run_cli(["benchmark", "--config", FIXTURES / "bench_tiny.cfg",
                    "--out", out, "--records-out", records, "--quiet"])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "snr_db,precision_mean,tpr_mean,n_failed,n_total"
    assert len(lines) == 3  # two SNR rows
    assert "# seed 1" in out.read_text()
    rec_lines = records.read_text().splitlines()
    assert any(l.startswith("network,") for l in rec_lines)


def test_benchmark_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 5\nm = 2\n"
                   "density = 0.4\nn_samples = 80\nsnr_list = 30\nseed = 2\n"
                   "recon_outer_max_iter = 6\n")
    assert run_cli(["benchmark", "--config", cfg, "--out", a, "--quiet"]) == 0
    assert run_cli(["benchmark", "--config", cfg, "--out", b, "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_benchmark_parallelism_independent(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_networks = 2\np = 2\nn_true = 4\nn_assumed = 5\nm = 2\n"
                   "density = 0.4\nn_samples = 60\nsnr_list = 30\nseed = 3\n"
                   "recon_outer_max_iter = 5\n")
    assert run_cli(["benchmark", "--config", cfg, "--parallelism", 1,
                    "--out", a, "--quiet"]) == 0
    assert run_cli(["benchmark", "--config", cfg, "--parallelism", 2,
                    "--out", b, "--quiet"]) == 0
    # identical results; only the echoed parallelism setting may differ
    strip = lambda p: [l for l in p.read_text().splitlines()
                       if not l.startswith("# parallelism")]
    assert strip(a) == strip(b)


def test_usage_errors_exit_one(tmp_path):
    assert run_cli([]) == 1
    assert run_cli(["reconstruct", "--data", "x.csv"]) == 1   # missing --out
    # missing required setting (n-states) discovered after parsing
    d = tmp_path / "d.csv"
    run_cli(["simulate", "--p", 2, "--n", 3, "--m", 2, "--density", "0.5",
             "--n-samples", 20, "--seed", 1, "--out", d])
    assert run_cli(["reconstruct", "--data", d, "--out", tmp_path / "r.txt"]) == 1


def test_runtime_errors_exit_two(tmp_path):
    missing = tmp_path / "nope.csv"
    assert run_cli(["reconstruct", "--data", missing, "--n-states", 3,
                    "--out", tmp_path / "r.txt"]) == 2
    bad_model = tmp_path / "bad.txt"
    bad_model.write_text("n 2\np oops\n")
    assert run_cli(["dsf", "--model", bad_model]) == 2


def test_malformed_file_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,y1,u1\n1,0.0\n")
    code = run_cli(["reconstruct", "--data", bad, "--n-states", 2,
                    "--out", tmp_path / "r.txt"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.csv:2" in err


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nalpha = 1\nbeta two\n")
    assert load_config(cfg) == {"alpha": "1", "beta": "two"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("loneword\n")
    from netrecon import FileFormatError
    with pytest.raises(FileFormatError):
        load_config(bad)


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


def test_config_file_supplies_subcommand_settings(tmp_path):
    data_path = tmp_path / "d.csv"
    run_cli(["simulate", "--model-in", FIXTURES / "sample_model.txt",
             "--n-samples", 80, "--seed", 6, "--out", data_path])
    cfg = tmp_path / "rec.cfg"
    cfg.write_text("n-states = 7\nouter-max-iter = 5\nseed = 7\n")
    out = tmp_path / "r.txt"
    code = run_cli(["reconstruct", "--data", data_path, "--config", cfg,
                    "--out", out])
    assert code == 0
    text = out.read_text()
    assert "n_states 7" in text
    # explicit flags override the config file
    out2 = tmp_path / "r2.txt"
    code = run_cli(["reconstruct", "--data", data_path, "--config", cfg,
                    "--n-states", 6, "--out", out2])
    assert code == 0
    assert "n_states 6" in out2.read_text()


def _result_blocks(path):
    """Rows under each header line (a lone word) of a result file."""
    blocks = {}
    for line in Path(path).read_text().splitlines():
        words = line.split()
        if len(words) == 1 and words[0].isidentifier():
            rows = blocks.setdefault(words[0], [])
        elif blocks:
            rows.append(words)
    return blocks


def test_reconstruct_matches_library(tmp_path):
    from netrecon import RECON_KEYS, ReconConfig, SBLOptions, reconstruct
    data_path = tmp_path / "d.csv"
    assert run_cli(["simulate", "--p", 3, "--n", 6, "--m", 3, "--density",
                    "0.3", "--n-samples", 120, "--snr-db", 20, "--seed", 1,
                    "--out", data_path]) == 0
    data = load_dataset_csv(data_path)
    cases = [
        ([], ReconConfig(n_states=7, seed=7)),
        (["--inner-max-iter", 20, "--structure-rel-tol", 0.05],
         ReconConfig(n_states=7, seed=7, structure_rel_tol=0.05,
                     inner=SBLOptions(max_iter=20, prune_tol=1e-5))),
    ]
    for i, (flags, cfg) in enumerate(cases):
        out = tmp_path / f"r{i}.txt"
        assert run_cli(["reconstruct", "--data", data_path, "--n-states", 7,
                        "--seed", 7, *flags, "--out", out]) == 0
        blocks = _result_blocks(out)
        expected = reconstruct(data, cfg)
        assert np.array_equal(np.array(blocks["A_hat"], dtype=float),
                              expected.A_hat)
        assert np.array_equal(np.array(blocks["q_adjacency"], dtype=int),
                              expected.network.q_adj.astype(int))
        echoed = {row[0] for row in blocks["config"]}
        assert set(RECON_KEYS) <= echoed
        assert {"inner_prune_tol", "prior_mode"} <= echoed


def test_benchmark_rejects_unknown_config_keys(tmp_path, capsys):
    base = ("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 5\nm = 2\n"
            "density = 0.4\nn_samples = 40\nsnr_list = 30\n")
    for bad in ("recon_inner_max_iters = 5", "n_network = 2", "recon_seed = 3"):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(base + bad + "\n")
        out = tmp_path / "t.csv"
        assert run_cli(["benchmark", "--config", cfg, "--out", out,
                        "--quiet"]) == 1
        assert bad.split(" = ")[0].removeprefix("recon_") in capsys.readouterr().err
        assert not out.exists()


def test_benchmark_rejects_a_repeated_snr(tmp_path, capsys):
    # 20 and 20.0 are one SNR: a sweep over both would count each cell twice
    with pytest.raises(ValueError, match="repeats"):
        BenchConfig(n_networks=1, p=2, n_true=4, n_assumed=5, m=2,
                    snr_list=(20, 20.0))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 5\nm = 2\n"
                   "density = 0.4\nn_samples = 40\nsnr_list = 20,20\n")
    out = tmp_path / "t.csv"
    assert run_cli(["benchmark", "--config", cfg, "--out", out, "--quiet"]) == 1
    assert "snr_list" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_and_dsf_config_keys(tmp_path, capsys):
    flags = ["--p", 2, "--n", 3, "--m", 2, "--density", "0.5"]
    by_flag = tmp_path / "flag.csv"
    assert run_cli(["simulate", *flags, "--n-samples", 30, "--snr-db", 20,
                    "--seed", 5, "--out", by_flag]) == 0
    # '_' and '-' spellings both read, and config values are not shadowed
    # by flag defaults
    for spelling in ("snr_db = 20\nn_samples = 30\nseed = 5\n",
                     "snr-db = 20\nn-samples = 30\nseed = 5\n"):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(spelling)
        out = tmp_path / "cfg.csv"
        assert run_cli(["simulate", *flags, "--config", cfg, "--out", out]) == 0
        assert "# snr_db 20" in out.read_text().splitlines()
        assert out.read_bytes() == by_flag.read_bytes()
    capsys.readouterr()

    bad = tmp_path / "bad.cfg"
    bad.write_text("n_samples = 30\nbogus = 1\n")
    out = tmp_path / "bad.csv"
    assert run_cli(["simulate", *flags, "--config", bad, "--out", out]) == 1
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(["dsf", "--model", FIXTURES / "sample_model.txt",
                    "--config", bad]) == 1
    assert "n_samples" in capsys.readouterr().err


def test_config_value_error_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("# sweep\nn_networks = 1\n\np = abc\n")
    assert run_cli(["benchmark", "--config", cfg, "--out", tmp_path / "t.csv",
                    "--quiet"]) == 2
    assert f"{cfg}:4: field 'p'" in capsys.readouterr().err
    sim = tmp_path / "sim.cfg"
    sim.write_text("seed = 1\nn-samples = many\n")
    assert run_cli(["simulate", "--p", 2, "--n", 3, "--density", "0.5",
                    "--config", sim, "--out", tmp_path / "d.csv"]) == 2
    assert f"{sim}:2: field 'n-samples'" in capsys.readouterr().err
    rec = tmp_path / "rec.cfg"
    rec.write_text("n_states = 3\nouter_tol = abc\n")
    assert run_cli(["reconstruct", "--data", tmp_path / "d.csv", "--config",
                    rec, "--out", tmp_path / "r.txt"]) == 2
    assert f"{rec}:2: field 'outer_tol'" in capsys.readouterr().err
    cfg.write_text("n_networks = 1\np = 2\nrecon_outer_tol = abc\n")
    assert run_cli(["benchmark", "--config", cfg, "--out", tmp_path / "t.csv",
                    "--quiet"]) == 2
    assert f"{cfg}:3: field 'recon_outer_tol'" in capsys.readouterr().err


def test_readme_lists_each_subcommand_schema():
    from netrecon import RECON_KEYS
    from netrecon.cli import _BENCH_KEYS, _DSF_KEYS, _SIMULATE_KEYS
    schemas = {"reconstruct": RECON_KEYS, "simulate": _SIMULATE_KEYS,
               "dsf": _DSF_KEYS,
               "benchmark": [k for k in _BENCH_KEYS if not k.startswith("recon_")]}
    text = (FIXTURES.parent / "README.md").read_text()
    section = text.split("### Config files", 1)[1].split("\n## ", 1)[0]
    listed = {command: [key.strip() for key in keys.split(",")]
              for command, keys in re.findall(r"`(\w+)` keys: `([^`]*)`", section)}
    assert set(listed) == set(schemas)
    for command, schema in schemas.items():
        assert sorted(listed[command]) == sorted(schema), command


def test_record_files_take_their_columns_from_the_records():
    from netrecon import IterationRecord, RunRecord
    from netrecon.fileio import record_lines
    assert record_lines(IterationRecord, [], " ") == [
        "iteration obs_loglik n_active sigma2 gamma_max inner_iterations "
        "damped pinv_steps evidence_decreases"]
    failed = RunRecord(network=0, snr_db=20.0, gen_seed=1, sim_seed=2,
                       recon_seed=3, precision=float("nan"), tpr=0.5,
                       n_est_edges=0, n_true_edges=2, outer_iterations=0,
                       status="error", failed=True, error="ValueError: a, b",
                       wall_time=1.5)
    assert record_lines(RunRecord, [failed], ",") == [
        "network,snr_db,gen_seed,sim_seed,recon_seed,precision,tpr,"
        "n_est_edges,n_true_edges,outer_iterations,status,failed,error",
        "0,20,1,2,3,nan,0.5,0,2,0,error,1,ValueError: a; b"]


def test_dsf_rejects_a_threshold_outside_unit_interval(tmp_path, capsys):
    missing = tmp_path / "no_model.txt"   # the check comes before the read
    for bad in ("nan", "1.5", "-1"):
        assert run_cli(["dsf", "--model", missing, f"--rel-tol={bad}"]) == 1
        assert "rel_tol must be in [0, 1)" in capsys.readouterr().err
    cfg = tmp_path / "dsf.cfg"
    cfg.write_text("rel_tol = 1\n")
    assert run_cli(["dsf", "--model", missing, "--config", cfg]) == 1
    assert run_cli(["dsf", "--model", FIXTURES / "sample_model.txt",
                    "--rel-tol", 0]) == 0


def test_mask_setting_reads_alike_in_every_place(tmp_path, monkeypatch):
    # one set of settings as reconstruct flags, a reconstruct config file
    # (through the CLI and through recon_config(load_config(...))),
    # benchmark recon_ keys (the mask under its name and its alias) and a
    # recon_config mapping, with the mask value spelled p-diag everywhere
    import netrecon.cli as cli
    from netrecon.bench import _cell_recon_config
    from netrecon.reconstruct import recon_config
    built = []

    class Built(Exception):
        pass

    def capture(*args):   # reconstruct(data, cfg) and run_benchmark(cfg)
        built.append(args[-1])
        raise Built

    monkeypatch.setattr(cli, "load_dataset_csv", lambda path: None)
    monkeypatch.setattr(cli, "reconstruct", capture)
    monkeypatch.setattr(cli, "run_benchmark", capture)
    out = ["--out", tmp_path / "out.txt"]
    rec = tmp_path / "rec.cfg"
    rec.write_text("n_states = 7\nmask = p-diag\np22 = 1\nouter_max_iter = 8\n"
                   "inner-max-iter = 20\nseed = 3\n")
    runs = [["reconstruct", "--data", "d.csv", "--n-states", 7, "--mask",
             "p-diag", "--p22", 1, "--outer-max-iter", 8, "--inner-max-iter",
             20, "--seed", 3, *out],
            ["reconstruct", "--data", "d.csv", "--config", rec, *out]]
    for key in ("recon_mask_mode", "recon_mask"):
        bench = tmp_path / f"{key}.cfg"
        bench.write_text(f"n_networks = 1\np = 2\nn_true = 4\nn_assumed = 7\n"
                         f"m = 2\n{key} = p-diag\nrecon_p22 = 1\n"
                         f"recon_outer_max_iter = 8\nrecon_inner_max_iter = 20\n")
        runs.append(["benchmark", "--config", bench, "--quiet", *out])
    for args in runs:
        with pytest.raises(Built):
            run_cli(args)
    configs = (built[:2] + [_cell_recon_config(b, 3) for b in built[2:]]
               + [recon_config(load_config(rec))])
    expected = recon_config({"n_states": 7, "mask_mode": "p-diag", "p22": 1,
                             "outer_max_iter": 8, "inner_max_iter": 20,
                             "seed": 3})
    assert expected.mask_mode == "p_diag" and expected.inner.max_iter == 20
    assert configs == [expected] * 5


def test_benchmark_echoes_each_setting_as_read(tmp_path, monkeypatch):
    # recon_mask = p-diag and recon_mask_mode = p_diag run the same cells,
    # so their result files carry the same header
    import netrecon.cli as cli
    built = []

    class Built(Exception):
        pass

    def capture(cfg):
        built.append(cfg)
        raise Built

    monkeypatch.setattr(cli, "run_benchmark", capture)
    for line in ("recon_mask = p-diag", "recon_mask_mode = p_diag"):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 5\n"
                       f"m = 2\n{line}\nrecon_p22 = 1\nrecon_outer_tol = 1e-3\n")
        with pytest.raises(Built):
            run_cli(["benchmark", "--config", cfg, "--quiet",
                     "--out", tmp_path / "t.csv"])
    by_alias, by_name = (b.echo() for b in built)
    assert by_alias == by_name
    assert by_name["recon_mask_mode"] == "p_diag"
    assert by_name["recon_outer_tol"] == "0.001"
    for mask_key in ("mask-mode", "mask"):
        api = BenchConfig(n_networks=1, p=2, n_true=4, n_assumed=5, m=2,
                          recon={mask_key: "p-diag", "p22": 1, "outer_tol": 1e-3})
        assert api.echo() == by_name
