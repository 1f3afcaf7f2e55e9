import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netrecon import (RECON_KEYS, BenchConfig, Dataset, load_dataset_csv,
                      load_model, recon_config, save_dataset_csv)
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
    args = ["reconstruct", "--data", data_path, "--n-states", 7, "--mask-mode",
            "diag_b", "--outer-max-iter", 8, "--seed", 4]
    assert run_cli(args + ["--out", r1]) == 0
    assert run_cli(args + ["--out", r2]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert "status" in r1.read_text()


def test_dsf_prints_adjacency_matching_exact_path(tmp_path, capsys):
    out = tmp_path / "dsf.txt"
    code = run_cli(["dsf", "--model", FIXTURES / "sample_model.txt",
                    "--out", out])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    rows = [line.split() for line in printed[1:4]]
    got = np.array(rows, dtype=int).astype(bool)
    model, _ = load_model(FIXTURES / "sample_model.txt")
    Q, _, _ = exact_dsf_small(model)
    assert np.array_equal(got, Q.zero_pattern())
    assert out.exists()


def test_dsf_takes_no_seed(tmp_path, capsys):
    # the read-off points are fixed: a seed flag or key is a usage error,
    # and the result file's header names no seed
    model = FIXTURES / "sample_model.txt"
    out = tmp_path / "dsf.txt"
    assert run_cli(["dsf", "--model", model, "--seed", 1, "--out", out]) == 1
    assert "--seed" in capsys.readouterr().err
    cfg = tmp_path / "dsf.cfg"
    cfg.write_text("seed = 1\n")
    assert run_cli(["dsf", "--model", model, "--config", cfg, "--out", out]) == 1
    assert "unknown dsf config key 'seed'" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(["dsf", "--model", model, "--out", out]) == 0
    header = [l for l in out.read_text().splitlines() if l.startswith("# ")]
    assert header == ["# netrecon dsf v1", f"# model {model}", "# rel_tol 0.0001"]


def test_benchmark_tiny_config(tmp_path):
    out = tmp_path / "table.csv"
    records = tmp_path / "records.csv"
    code = run_cli(["benchmark", "--config", FIXTURES / "bench_tiny.cfg",
                    "--out", out, "--records-out", records, "--quiet"])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "snr_db,precision_mean,tpr_mean,auc_mean,n_failed,n_total"
    assert len(lines) == 3  # two SNR rows
    assert "# seed 1" in out.read_text()
    rec_lines = records.read_text().splitlines()
    assert any(l.startswith("network,") for l in rec_lines)


def test_benchmark_header_reruns_the_sweep(tmp_path):
    # the echoed settings of a summary file, read back as a config, run the
    # same sweep: the summary and records files come out byte for byte
    def run(cfg, name):
        out, records = tmp_path / f"{name}.csv", tmp_path / f"{name}_rec.csv"
        assert run_cli(["benchmark", "--config", cfg, "--out", out,
                        "--records-out", records, "--quiet"]) == 0
        return out.read_bytes(), records.read_bytes()

    first = run(FIXTURES / "bench_tiny.cfg", "first")
    title, *echo = [line[2:] for line in first[0].decode().splitlines()
                    if line.startswith("# ")]
    assert title == "netrecon benchmark v1"
    assert "n_samples 150" in echo and "recon_outer_max_iter 10" in echo
    rec_echo = [line[2:] for line in first[1].decode().splitlines()
                if line.startswith("# ")][1:]
    assert rec_echo == echo
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("\n".join(echo) + "\n")
    assert run(cfg, "again") == first


@pytest.mark.parametrize("source", ["bench_tiny.cfg", "bench_desk.cfg", "api"])
def test_bench_config_reads_back_its_echo(source):
    from netrecon.bench import _BENCH_KEYS, _CELL_SETTINGS, _bench_config
    if source == "api":   # every recon_ setting at a value not its default
        cfg = BenchConfig(n_networks=1, p=2, n_true=4, n_assumed=7, m=2,
                          density=0.4, snr_list=(20.0, 40.0),
                          recon={key: RECON_KEYS[key](value)
                                 for key, value in _SETTING_VALUES.items()
                                 if key not in _CELL_SETTINGS})
        assert len(cfg.recon) == len(RECON_KEYS) - 2
    else:
        cfg = _bench_config(load_config(FIXTURES / source))
    echo = cfg.echo()
    assert set(echo) <= set(_BENCH_KEYS)
    assert _bench_config(echo) == cfg


@pytest.mark.parametrize("key", sorted(set(RECON_KEYS) - {"n_states", "seed"}))
def test_bench_config_rejects_a_none_recon_setting(key):
    # its echo would read '# recon_<key> None', which no file can read back;
    # a key left out keeps its default
    with pytest.raises(ValueError, match=f"recon_{key} may not be None"):
        BenchConfig(recon={key: None})


def test_unknown_benchmark_key_lists_the_accepted_keys(tmp_path, capsys):
    from netrecon.bench import _BENCH_KEYS
    cfg = tmp_path / "cfg.txt"
    for key in ("n_network", "recon_n_states", "recon_seed"):
        cfg.write_text(f"{key} = 2\n")
        assert run_cli(["benchmark", "--config", cfg, "--quiet",
                        "--out", tmp_path / "t.csv"]) == 1
        err = capsys.readouterr().err
        assert f"unknown benchmark config key '{key}'" in err
        listed = err.split("expected one of ", 1)[1].split(")")[0].split(", ")
        assert listed == sorted(_BENCH_KEYS)
    assert not {"recon_n_states", "recon_seed"} & set(_BENCH_KEYS)


def test_benchmark_reports_the_edge_auc(tmp_path):
    text, records = tmp_path / "summary.txt", tmp_path / "records.csv"
    code = run_cli(["benchmark", "--config", FIXTURES / "bench_tiny.cfg",
                    "--out", tmp_path / "table.csv", "--text-out", text,
                    "--records-out", records, "--quiet"])
    assert code == 0
    header, *body = [line.split(",") for line in records.read_text().splitlines()
                     if not line.startswith("#")]
    snr = np.array([float(row[header.index("snr_db")]) for row in body])
    auc = np.array([float(row[header.index("auc")]) for row in body])
    assert len(body) == 4 and np.all((auc >= 0) & (auc <= 1))
    (line,) = [l for l in text.read_text().splitlines() if l.startswith("AUC")]
    assert line.split()[1:] == [f"{auc[snr == s].mean():.3f}" for s in (20, 40)]


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


def test_benchmark_logs_one_progress_line_per_cell(tmp_path):
    # in a process of its own: pytest's log capture holds the root logger,
    # so basicConfig would add no handler here
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 5\nm = 2\n"
                   "density = 0.4\nn_samples = 60\nsnr_list = 20,40\n"
                   "seed = 3\nrecon_outer_max_iter = 3\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-m", "netrecon.cli", "benchmark", "--config",
         str(cfg), "--out", str(tmp_path / "a.csv")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    lines = out.stderr.splitlines()
    assert len(lines) == 2
    for line, snr in zip(lines, (20, 40)):
        assert re.fullmatch(rf"network 0 @ {snr} dB: precision=\S+ tpr=\S+ "
                            r"auc=\S+ status=\w+ \(\d+\.\ds\)", line)
    assert "netrecon benchmark summary" in out.stdout


def test_simulate_without_a_sample_count_names_the_flag(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run_cli(["simulate", "--p", 2, "--n", 3, "--density", "0.5",
                    "--out", out]) == 1
    assert "'--n-samples'" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_one(tmp_path):
    assert run_cli([]) == 1
    assert run_cli(["reconstruct", "--data", "x.csv"]) == 1   # missing --out
    # missing required setting (n-states) discovered after parsing
    d = tmp_path / "d.csv"
    run_cli(["simulate", "--p", 2, "--n", 3, "--m", 2, "--density", "0.5",
             "--n-samples", 20, "--seed", 1, "--out", d])
    assert run_cli(["reconstruct", "--data", d, "--out", tmp_path / "r.txt"]) == 1


def test_runtime_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert run_cli(["reconstruct", "--data", missing, "--n-states", 3,
                    "--out", tmp_path / "r.txt"]) == 2
    bad_model = tmp_path / "bad.txt"
    bad_model.write_text("n 2\np oops\n")
    assert run_cli(["dsf", "--model", bad_model]) == 2
    # finite outputs whose variance overflows
    rng = np.random.default_rng(0)
    huge = tmp_path / "huge.csv"
    save_dataset_csv(Dataset(Y=1e160 * rng.standard_normal((30, 2)),
                             U=rng.standard_normal((30, 2)), N=30), huge)
    capsys.readouterr()
    assert run_cli(["reconstruct", "--data", huge, "--n-states", 4,
                    "--out", tmp_path / "r.txt"]) == 2
    assert "output scale is too large" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("change, message", [
    ({"--n-samples": 0}, "need N >= 1"),
    ({"--density": 5}, "density must be in (0, 1]"),
    ({"--snr-db": "nan"}, "snr_db must be above -inf dB"),
    ({"--n-samples": 1, "--snr-db": 20}, "two input samples"),
], ids=["n-samples-0", "density-5", "snr-nan", "one-sample-at-an-snr"])
def test_simulate_rejects_a_setting_before_any_work(tmp_path, capsys, change,
                                                    message):
    # a setting the library rejects is a usage error, found before the
    # network is generated or a model file is read
    flags = {"--p": 2, "--n": 3, "--m": 2, "--density": 0.5,
             "--n-samples": 30, **change}
    out = tmp_path / "d.csv"
    argv = ["simulate", *(str(x) for kv in flags.items() for x in kv),
            "--out", out]
    assert run_cli(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    if "--density" not in change:   # the model file does not exist
        assert run_cli(argv + ["--model-in", tmp_path / "none.txt"]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--p", "--n", "--m", "--density"])
def test_simulate_model_in_rejects_a_generation_setting(tmp_path, capsys,
                                                        flag):
    # the model file fixes p, n and m, and no network is generated; the
    # setting is named before the (missing) model file is read
    name = flag[2:]
    value = "0.5" if name == "density" else "2"
    out = tmp_path / "d.csv"
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"{name} = {value}\n")
    for given in ([flag, value], ["--config", cfg]):
        assert run_cli(["simulate", "--model-in", tmp_path / "none.txt",
                        "--n-samples", 30, *given, "--out", out]) == 1
        assert (f"setting '{name}' does not apply with --model-in"
                in capsys.readouterr().err)
        assert not out.exists()


def test_dsf_rejects_a_model_whose_outputs_are_not_the_first_states(
        tmp_path, capsys):
    # swapping two rows of C keeps its rank but breaks C = [I 0]
    lines = (FIXTURES / "sample_model.txt").read_text().splitlines()
    c = lines.index("C")
    lines[c + 1], lines[c + 2] = lines[c + 2], lines[c + 1]
    swapped = tmp_path / "swapped.txt"
    swapped.write_text("\n".join(lines) + "\n")
    assert run_cli(["dsf", "--model", swapped]) == 2
    # the error names the first swapped row's line
    assert (f"swapped.txt:{c + 2}: matrix C row 1: the outputs are the first p "
            "states: C must be [I 0]") in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["dsf", "--model"],
                                  ["simulate", "--n-samples", 10, "--model-in"]],
                         ids=["dsf", "simulate"])
def test_model_file_with_a_nan_sigma_exits_2(tmp_path, capsys, argv):
    # dsf would write NaN gains, and simulate report a divergence at step 1
    text = (FIXTURES / "sample_model.txt").read_text()
    bad = tmp_path / "nan_sigma.txt"
    bad.write_text(text.replace("sigma 1\n", "sigma nan\n"))
    out = tmp_path / "out.txt"
    assert run_cli([*argv, bad, "--out", out]) == 2
    assert "sigma must be nonnegative and finite, got nan" in capsys.readouterr().err
    assert not out.exists()


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
    cfg.write_text("n_states = 7\nouter_max_iter = 5\nseed = 7\n")
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
    from netrecon import ReconConfig, reconstruct
    data_path = tmp_path / "d.csv"
    assert run_cli(["simulate", "--p", 3, "--n", 6, "--m", 3, "--density",
                    "0.3", "--n-samples", 120, "--snr-db", 20, "--seed", 1,
                    "--out", data_path]) == 0
    data = load_dataset_csv(data_path)
    cases = [
        ([], ReconConfig(n_states=7, seed=7)),
        (["--outer-max-iter", 20, "--structure-rel-tol", 0.05],
         ReconConfig(n_states=7, seed=7, structure_rel_tol=0.05,
                     outer_max_iter=20)),
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
        assert echoed == set(RECON_KEYS) | {"data"}
        assert ["seed", "7"] in blocks["config"]


def test_benchmark_rejects_unknown_config_keys(tmp_path, capsys):
    base = ("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 5\nm = 2\n"
            "density = 0.4\nn_samples = 40\nsnr_list = 30\n")
    for bad in ("recon_inner_max_iter = 5", "n_network = 2", "recon_seed = 3"):
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
                    density=0.4, snr_list=(20, 20.0))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 5\nm = 2\n"
                   "density = 0.4\nn_samples = 40\nsnr_list = 20,20\n")
    out = tmp_path / "t.csv"
    assert run_cli(["benchmark", "--config", cfg, "--out", out, "--quiet"]) == 1
    assert "snr_list" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_rejects_an_snr_of_nan_or_minus_inf(tmp_path, capsys):
    # a NaN row would group no record, and -inf dB is infinite noise
    for bad in ("nan", "-inf"):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 5\n"
                       f"m = 2\ndensity = 0.4\nn_samples = 40\nsnr_list = {bad},20\n")
        out = tmp_path / "t.csv"
        assert run_cli(["benchmark", "--config", cfg, "--out", out,
                        "--quiet"]) == 1
        assert "snr_list must be above -inf dB" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_and_dsf_config_keys(tmp_path, capsys):
    flags = ["--p", 2, "--n", 3, "--m", 2, "--density", "0.5"]
    by_flag = tmp_path / "flag.csv"
    assert run_cli(["simulate", *flags, "--n-samples", 30, "--snr-db", 20,
                    "--seed", 5, "--out", by_flag]) == 0
    # config values are not shadowed by flag defaults
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("snr_db = 20\nn_samples = 30\nseed = 5\n")
    out = tmp_path / "cfg.csv"
    assert run_cli(["simulate", *flags, "--config", cfg, "--out", out]) == 0
    assert "# snr_db 20" in out.read_text().splitlines()
    assert out.read_bytes() == by_flag.read_bytes()
    capsys.readouterr()

    # a key is the setting name: the flag's spelling is no key
    bad = tmp_path / "bad.cfg"
    out = tmp_path / "bad.csv"
    for key in ("bogus", "snr-db"):
        bad.write_text(f"n_samples = 30\n{key} = 1\n")
        assert run_cli(["simulate", *flags, "--config", bad, "--out", out]) == 1
        assert f"unknown simulate config key '{key}'" in capsys.readouterr().err
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
    sim.write_text("seed = 1\nn_samples = many\n")
    assert run_cli(["simulate", "--p", 2, "--n", 3, "--density", "0.5",
                    "--config", sim, "--out", tmp_path / "d.csv"]) == 2
    assert f"{sim}:2: field 'n_samples'" in capsys.readouterr().err
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
    from netrecon.bench import _BENCH_KEYS
    from netrecon.cli import _DSF_KEYS, _SIMULATE_KEYS
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


def test_readme_cli_example_runs(tmp_path, monkeypatch, capsys):
    # README's CLI block as written, but for the ten-cell desk benchmark
    text = (FIXTURES.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line) for line in
                block.replace("\\\n", " ").splitlines()
                if line.startswith("netrecon ")]
    assert [c[1] for c in commands] == ["simulate", "reconstruct", "dsf",
                                        "benchmark"]
    monkeypatch.chdir(tmp_path)
    for command in commands[:3]:
        argv = [str(FIXTURES.parent / a) if a.startswith("fixtures/") else a
                for a in command[1:]]
        assert cli_main(argv) == 0, command
    capsys.readouterr()


def test_readme_library_example_runs(capsys):
    # README's Library quick start block as written: one desk-scale cell
    text = (FIXTURES.parent / "README.md").read_text()
    section = text.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    precision, tpr = map(float, capsys.readouterr().out.split())
    assert 0.0 <= precision <= 1.0 and 0.0 <= tpr <= 1.0


def test_record_files_take_their_columns_from_the_records():
    from netrecon import IterationRecord, RunRecord
    from netrecon.fileio import record_lines
    assert record_lines(IterationRecord, [], " ") == [
        "iteration obs_loglik n_active sigma2 gamma_max inner_iterations "
        "damped evidence_decreases"]
    failed = RunRecord(network=0, snr_db=20.0, gen_seed=1, sim_seed=2,
                       recon_seed=3, precision=float("nan"), tpr=0.5,
                       auc=float("nan"), n_est_edges=0, n_true_edges=2,
                       outer_iterations=0, status="error", failed=True,
                       error="ValueError: a, b",
                       wall_time=1.5)
    assert record_lines(RunRecord, [failed], ",") == [
        "network,snr_db,gen_seed,sim_seed,recon_seed,precision,tpr,auc,"
        "n_est_edges,n_true_edges,outer_iterations,status,failed,error",
        "0,20,1,2,3,nan,0.5,nan,0,2,0,error,1,ValueError: a; b"]


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


class _Built(Exception):
    pass


@pytest.fixture
def built(monkeypatch):
    """The configs the CLI would run, in order; it stops there, before any
    data is read."""
    import netrecon.cli as cli
    configs = []

    def capture(*args):   # reconstruct(data, cfg) and run_benchmark(cfg)
        configs.append(args[-1])
        raise _Built

    monkeypatch.setattr(cli, "load_dataset_csv", lambda path: None)
    monkeypatch.setattr(cli, "reconstruct", capture)
    monkeypatch.setattr(cli, "run_benchmark", capture)
    return configs


def _build(args):
    with pytest.raises(_Built):
        run_cli(args)


# a benchmark sweep whose cells assume 7 states
_BENCH_CFG = ("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 7\nm = 2\n"
              "density = 0.4\n")

# for every reconstruction setting, a value that differs from the one in
# the base settings of test_setting_reads_alike_in_every_place
_SETTING_VALUES = {"n_states": "6", "mask_mode": "p_diag", "p22": "2",
                   "prior_mode": "ml", "outer_max_iter": "8",
                   "outer_tol": "0.001", "structure_rel_tol": "0.05",
                   "seed": "4"}


@pytest.mark.parametrize("key", RECON_KEYS)
def test_setting_reads_alike_in_every_place(tmp_path, capsys, built, key):
    # the flag (the key with '-' for '_'), the reconstruct config key, the
    # benchmark's recon_<key> and a recon_config mapping give one ReconConfig
    from netrecon.bench import _cell_recon_config
    value = _SETTING_VALUES[key]
    base = {"n_states": "7", "p22": "1", "seed": "3"}
    settings = {**base, key: value}
    expected = recon_config(settings)
    assert expected != recon_config(base)
    out = ["--out", tmp_path / "out.txt"]
    rec = tmp_path / "rec.cfg"
    rec.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    flags = [x for k, v in settings.items()
             for x in ("--" + k.replace("_", "-"), v)]
    _build(["reconstruct", "--data", "d.csv", *flags, *out])
    _build(["reconstruct", "--data", "d.csv", "--config", rec, *out])
    assert built == [expected] * 2
    assert recon_config(load_config(rec)) == expected

    recon = {"p22": "1", key: value}
    bench = tmp_path / "bench.cfg"
    bench.write_text(_BENCH_CFG + "".join(f"recon_{k} = {v}\n"
                                          for k, v in recon.items()))
    if key in ("n_states", "seed"):   # each cell sets these itself
        assert run_cli(["benchmark", "--config", bench, "--quiet", *out]) == 1
        assert (f"unknown benchmark config key 'recon_{key}'"
                in capsys.readouterr().err)
        with pytest.raises(ValueError, match="may not set n_states or seed"):
            BenchConfig(recon={key: value})
    else:
        _build(["benchmark", "--config", bench, "--quiet", *out])
        api = BenchConfig(n_networks=1, p=2, n_true=4, n_assumed=7, m=2,
                          density=0.4, recon=recon)
        assert _cell_recon_config(built[2], 3) == expected
        assert _cell_recon_config(api, 3) == expected

    # the key with '-' for '_' is the flag's spelling, never a key
    if "_" in key:
        dashed = key.replace("_", "-")
        rec.write_text(f"n_states = 7\n{dashed} = {value}\n")
        bench.write_text(_BENCH_CFG + f"recon_{dashed} = {value}\n")
        for args, name in ((["reconstruct", "--data", "d.csv", "--config", rec],
                            f"unknown reconstruct config key '{dashed}'"),
                           (["benchmark", "--config", bench, "--quiet"],
                            f"unknown benchmark config key 'recon_{dashed}'"),
                           (["reconstruct", "--data", "d.csv", "--n-states", 7,
                             "--" + key, value],
                            f"unrecognized arguments: --{key}")):
            assert run_cli([*args, *out]) == 1
            assert name in capsys.readouterr().err
        for build in (lambda: recon_config({"n_states": 7, dashed: value}),
                      lambda: BenchConfig(recon={dashed: value})):
            with pytest.raises(ValueError,
                               match=f"unknown reconstruction setting '{dashed}'"):
                build()


@pytest.mark.parametrize("flag, line, messages", [
    (["--mask", "p_diag"], "mask = p_diag",
     ["unrecognized arguments: --mask p_diag",
      "unknown reconstruct config key 'mask'",
      "unknown benchmark config key 'recon_mask'",
      "unknown reconstruction setting 'mask'"]),
    (["--mask-mode", "p-diag"], "mask_mode = p-diag",
     ["unknown mask_mode 'p-diag'"] * 4),
    (["--mask-mode", "diag-b"], "mask_mode = diag-b",
     ["unknown mask_mode 'diag-b'"] * 4),
], ids=["mask", "p-diag", "diag-b"])
def test_removed_mask_spellings_are_rejected(tmp_path, capsys, flag, line,
                                             messages):
    # neither the mask alias nor a dashed mask value reads anywhere; each is
    # named before the data (which does not exist) is read
    out = tmp_path / "r.txt"
    data = ["reconstruct", "--data", tmp_path / "none.csv", "--out", out]
    rec = tmp_path / "rec.cfg"
    rec.write_text(f"n_states = 7\np22 = 1\n{line}\n")
    bench = tmp_path / "bench.cfg"
    bench.write_text(_BENCH_CFG + f"recon_p22 = 1\nrecon_{line}\n")
    for args, message in zip(
            ([*data, "--n-states", 7, "--p22", 1, *flag],
             [*data, "--config", rec],
             ["benchmark", "--config", bench, "--quiet", "--out", out]),
            messages):
        assert run_cli(args) == 1
        assert message in capsys.readouterr().err
    assert not out.exists()
    key, _, value = line.partition(" = ")
    for build in (lambda: recon_config({"n_states": 7, "p22": 1, key: value}),
                  lambda: BenchConfig(n_networks=1, p=2, n_true=4, n_assumed=7,
                                      m=2, density=0.4,
                                      recon={"p22": 1, key: value})):
        with pytest.raises(ValueError, match=messages[-1]):
            build()


@pytest.mark.parametrize("key", ["inner_max_iter", "inner_tol",
                                 "inner_prune_tol"])
def test_removed_inner_key_is_unknown_everywhere(tmp_path, capsys, key):
    # the inner SBL loop runs at SBLOptions(); its former keys read nowhere
    # and are named before the data (which does not exist) is read
    from netrecon.bench import _BENCH_KEYS
    out = tmp_path / "r.txt"
    data = ["reconstruct", "--data", tmp_path / "none.csv", "--out", out]
    rec = tmp_path / "rec.cfg"
    rec.write_text(f"n_states = 7\n{key} = 5\n")
    bench = tmp_path / "bench.cfg"
    bench.write_text(_BENCH_CFG + f"recon_{key} = 5\n")
    flag = "--" + key.replace("_", "-")
    for args, message in (
            ([*data, "--n-states", 7, flag, 5], f"unrecognized arguments: {flag}"),
            ([*data, "--config", rec],
             f"unknown reconstruct config key '{key}'"),
            (["benchmark", "--config", bench, "--quiet", "--out", out],
             f"unknown benchmark config key 'recon_{key}'")):
        assert run_cli(args) == 1
        assert message in capsys.readouterr().err
    assert not out.exists()
    for build in (lambda: recon_config({"n_states": 7, key: 5}),
                  lambda: BenchConfig(recon={key: 5})):
        with pytest.raises(ValueError,
                           match=f"unknown reconstruction setting '{key}'"):
            build()
    assert key not in RECON_KEYS and f"recon_{key}" not in _BENCH_KEYS


def test_mask_setting_reads_alike_in_every_place(tmp_path, built):
    # one set of settings as reconstruct flags, a reconstruct config file
    # (through the CLI and through recon_config(load_config(...))),
    # benchmark recon_ keys and a recon_config mapping
    from netrecon.bench import _cell_recon_config
    out = ["--out", tmp_path / "out.txt"]
    rec = tmp_path / "rec.cfg"
    rec.write_text("n_states = 7\nmask_mode = p_diag\np22 = 1\nouter_max_iter = 8\n"
                   "structure_rel_tol = 0.05\nseed = 3\n")
    bench = tmp_path / "bench.cfg"
    bench.write_text(_BENCH_CFG + "recon_mask_mode = p_diag\nrecon_p22 = 1\n"
                     "recon_outer_max_iter = 8\nrecon_structure_rel_tol = 0.05\n")
    for args in (["reconstruct", "--data", "d.csv", "--n-states", 7,
                  "--mask-mode", "p_diag", "--p22", 1, "--outer-max-iter", 8,
                  "--structure-rel-tol", 0.05, "--seed", 3, *out],
                 ["reconstruct", "--data", "d.csv", "--config", rec, *out],
                 ["benchmark", "--config", bench, "--quiet", *out]):
        _build(args)
    configs = (built[:2] + [_cell_recon_config(built[2], 3)]
               + [recon_config(load_config(rec))])
    expected = recon_config({"n_states": 7, "mask_mode": "p_diag", "p22": 1,
                             "outer_max_iter": 8, "structure_rel_tol": 0.05,
                             "seed": 3})
    assert expected.mask_mode == "p_diag" and expected.structure_rel_tol == 0.05
    assert configs == [expected] * 4


def test_benchmark_echoes_each_setting_as_read(tmp_path, built):
    # a config file and the API give the same header, each recon_ value as
    # the reconstruction reads it
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 5\nm = 2\n"
                   "density = 0.4\nrecon_mask_mode = p_diag\nrecon_p22 = 1\n"
                   "recon_outer_tol = 1e-3\n")
    _build(["benchmark", "--config", cfg, "--quiet", "--out", tmp_path / "t.csv"])
    by_file = built[0].echo()
    assert by_file["recon_mask_mode"] == "p_diag"
    assert by_file["recon_outer_tol"] == "0.001"
    api = BenchConfig(n_networks=1, p=2, n_true=4, n_assumed=5, m=2,
                      density=0.4,
                      recon={"mask_mode": "p_diag", "p22": 1, "outer_tol": 1e-3})
    assert api.echo() == by_file


_MODEL_TEMPLATE = (FIXTURES / "sample_model.txt").read_text().replace(
    "seed 7\n", "{a}\n{b}\n")


@pytest.mark.parametrize("name, template, argv", [
    ("c.cfg", "n_samples = 10\n{a}\n{b}\n",
     ["simulate", "--p", 2, "--n", 3, "--density", 0.5, "--config"]),
    ("m.txt", _MODEL_TEMPLATE, ["dsf", "--model"]),
    ("d.csv", "t,y1,u1\n# {a}\n1,0.5,1.0\n# {b}\n2,0.25,0.0\n",
     ["reconstruct", "--n-states", 2, "--data"]),
], ids=["config-file", "model-metadata", "dataset-comment"])
@pytest.mark.parametrize("a, b, message", [
    ("seed 1", "seed 2", "field 'seed' repeats line {a}"),
    ("seed abc", "", "field 'seed': cannot parse 'abc'"),
], ids=["repeated", "unparsable"])
def test_key_value_error_wording_is_one_in_every_file(
        tmp_path, capsys, name, template, argv, a, b, message):
    # a config file, model-file metadata and a dataset comment are read by
    # one reader: a repeat is named at its second line, a value that does
    # not parse at its own; both exit 2
    lines = template.splitlines()
    line_a = 1 + next(i for i, l in enumerate(lines) if "{a}" in l)
    line_b = 1 + next(i for i, l in enumerate(lines) if "{b}" in l)
    path = tmp_path / name
    path.write_text(template.format(a=a, b=b))
    out = tmp_path / "out.txt"
    assert run_cli([*argv, path, "--out", out]) == 2
    at = line_b if b else line_a
    assert (f"{path}:{at}: {message.format(a=line_a)}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_key_repeated_in_a_config_file_exits_2_at_its_line(tmp_path, capsys):
    sim = tmp_path / "sim.cfg"
    sim.write_text("# two sample counts\nn_samples = 10\nseed = 1\nn_samples = 20\n")
    out = tmp_path / "d.csv"
    assert run_cli(["simulate", "--p", 2, "--n", 3, "--density", "0.5",
                    "--config", sim, "--out", out]) == 2
    assert f"{sim}:4: field 'n_samples' repeats line 2" in capsys.readouterr().err
    assert not out.exists()
