"""Command-line interface: simulate, reconstruct, benchmark, dsf.

Shared flags: --config (key-value file supplying defaults that explicit
flags override), --out; simulate, reconstruct and benchmark also take
--seed (drives every random choice; dsf makes none).  Config
keys are the setting names; flags are those names with '-' for '_'
(``mask_mode`` is ``--mask-mode``), and a flag is never abbreviated.
Every subcommand merges its file and flags in ``_settings``.  Exit codes:
0 success, 1 usage error (an unknown key, a flag value that does not
parse, a missing or meaningless setting), 2 runtime error (a key repeated
in a config file or a config value that does not parse, each named by its
file and line, or an unreadable input file).  All output files are
deterministic functions of the configuration and seed.  The benchmark's
keys, ``_BENCH_KEYS``, are ``netrecon.bench``'s and its files echo them.
"""

import argparse
import logging
import sys

from .bench import _BENCH_KEYS, _bench_config, _derive_seed, run_benchmark
from .dsf import (_check_rel_tol, boolean_structure, default_q_points,
                  dsf_from_state_space, save_dsf_result)
from .fileio import FileFormatError, LineReader, adjacency_rows, write_text
from .model import (_check_generation, _check_simulation,
                    generate_random_network, load_dataset_csv, load_model,
                    save_dataset_csv, save_model, simulate)
from .reconstruct import (RECON_KEYS, ReconConfig, recon_config,
                          recon_settings, reconstruct, save_result)

__all__ = ["cli_main", "main", "load_config"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):   # one spelling per flag: no prefixes
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _read_config(path):
    """The file's reader, which keeps each key's line, and its raw values."""
    reader = LineReader(path)
    values = {}
    while not reader.at_end():
        line = reader.next_line()
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            key, _, value = line.partition(" ")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            reader.error(f"expected 'key = value', found '{line}'")
        values[key] = reader.field(key, value)
    return reader, values


def load_config(path):
    """Parse a key-value config file ('key = value' or 'key value' lines,
    '#' comments); returns a dict of raw strings."""
    return _read_config(path)[1]


# setting -> type: the schema of each subcommand's flags and config keys
_SIMULATE_KEYS = {"seed": int, "n_samples": int, "snr_db": float, "p": int,
                  "n": int, "m": int, "density": float}
_DSF_KEYS = {"rel_tol": float}
# the defaults of settings without a library default, each read by the
# flag's help text and by the command
_SIMULATE_SEED = 0
_DSF_REL_TOL = 1e-4


def _build_parser():
    parser = _Parser(prog="netrecon",
                     description="Sparse dynamic-network reconstruction "
                                 "from input/output time series.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    sim = sub.add_parser("simulate", help="generate a random system and "
                                          "simulate a dataset")
    sim.add_argument("--p", type=int, help="number of measured outputs")
    sim.add_argument("--n", type=int, help="true state dimension")
    sim.add_argument("--m", type=int, help="number of inputs (must equal p)")
    sim.add_argument("--density", type=float, help="A sparsity density in (0,1]")
    sim.add_argument("--n-samples", type=int, help="number of output samples")
    sim.add_argument("--snr-db", type=float, help="default: keep the model's "
                     "noise scale sigma (1 for a generated model)")
    sim.add_argument("--model-in", default=None,
                     help="simulate this model file instead of generating")
    sim.add_argument("--model-out", default=None,
                     help="write the generated model here")
    sim.add_argument("--seed", type=int, help=f"default {_SIMULATE_SEED}")
    sim.add_argument("--config", default=None)
    sim.add_argument("--out", required=True, help="dataset CSV path")

    rec = sub.add_parser("reconstruct", help="reconstruct a network from a "
                                             "dataset CSV")
    rec.add_argument("--data", required=True)
    # one flag per RECON_KEYS setting; argparse reads its dest back as the key
    defaults = recon_settings(ReconConfig(n_states=0))
    for key, kind in RECON_KEYS.items():
        rec.add_argument("--" + key.replace("_", "-"), type=kind,
                         metavar=kind.__name__.upper(),
                         help="required" if key == "n_states"
                         else f"default {defaults[key]}")
    rec.add_argument("--config", default=None)
    rec.add_argument("--out", required=True, help="result file path")

    ben = sub.add_parser("benchmark", help="run the randomized benchmark sweep")
    ben.add_argument("--config", default=None, help="benchmark config file")
    ben.add_argument("--seed", type=int, default=None)
    ben.add_argument("--parallelism", type=int, default=None)
    ben.add_argument("--records-out", default=None,
                     help="write per-run records CSV here")
    ben.add_argument("--text-out", default=None,
                     help="write the aligned summary table here")
    ben.add_argument("--quiet", action="store_true",
                     help="suppress per-run progress logging")
    ben.add_argument("--out", required=True, help="summary CSV path")

    dsf_p = sub.add_parser("dsf", help="extract the DSF and Boolean structure "
                                       "of a saved model")
    dsf_p.add_argument("--model", required=True)
    dsf_p.add_argument("--rel-tol", type=float, help=f"default {_DSF_REL_TOL}")
    dsf_p.add_argument("--config", default=None)
    dsf_p.add_argument("--out", default=None, help="DSF result file path")
    return parser


def _settings(command, kinds, args, config):
    """Settings named in ``kinds``: flag values where given, else config
    file values parsed at their line; an unknown key is a usage error."""
    reader, values = config
    out = {}
    for key, raw in values.items():
        if key not in kinds:
            raise _UsageError(f"unknown {command} config key '{key}' (expected "
                              f"one of {', '.join(sorted(kinds))})")
        out[key] = reader.parse(key, raw, kinds[key], reader.field_lines[key])
    out.update((name, getattr(args, name, None)) for name in kinds
               if getattr(args, name, None) is not None)
    return out


def _required(settings, name):
    if name not in settings:
        raise _UsageError(f"missing required setting '--{name.replace('_', '-')}' "
                          f"(flag or config file)")
    return settings[name]


def _checked(command, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError is a usage error of ``command``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(f"{command}: {exc}") from None


def _cmd_simulate(args, config):
    settings = _settings("simulate", _SIMULATE_KEYS, args, config)
    seed = settings.get("seed", _SIMULATE_SEED)
    if seed < 0:
        raise _UsageError(f"simulate: seed must be nonnegative, got {seed}")
    n_samples = _required(settings, "n_samples")
    snr_db = settings.get("snr_db")
    _checked("simulate", _check_simulation, n_samples, snr_db)
    if args.model_in:
        for name in ("p", "n", "m", "density"):
            if name in settings:   # the model file is simulated as it is
                raise _UsageError(f"simulate: setting '{name}' does not "
                                  "apply with --model-in")
        model, meta = load_model(args.model_in)
        density = meta.get("density")
    else:
        p = _required(settings, "p")
        n = _required(settings, "n")
        m = settings.get("m", p)
        density = _required(settings, "density")
        _checked("simulate", _check_generation, p, n, m, density)
        truth = generate_random_network(p, n, m, density,
                                        seed=_derive_seed(seed, 0))
        model = truth.model
    data = simulate(model, n_samples, "gaussian_iid", snr_db=snr_db,
                    seed=_derive_seed(seed, 1))
    save_dataset_csv(data, args.out)
    if args.model_out:
        save_model(model, args.model_out, seed=seed, density=density)
    print(f"wrote {data.N} samples (p={data.p}, m={data.m}) to {args.out}")
    return 0


def _cmd_reconstruct(args, config):
    """Settings from the config file, then flags, over the library defaults."""
    settings = _settings("reconstruct", RECON_KEYS, args, config)
    cfg = _checked("reconstruct", recon_config, settings)
    data = load_dataset_csv(args.data)
    result = reconstruct(data, cfg)
    echo = {key: "-" if value is None else value
            for key, value in recon_settings(cfg).items()}
    save_result(args.out, result, {"data": args.data, **echo})
    n_edges = int(result.network.q_adj.sum())
    print(f"status={result.status} outer_iterations={len(result.trace)} "
          f"edges={n_edges} -> {args.out}")
    return 0


def _cmd_benchmark(args, config):
    settings = _settings("benchmark", _BENCH_KEYS, args, config)
    bench_cfg = _checked("benchmark", _bench_config, settings)
    if not args.quiet:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                            format="%(message)s")
    table = run_benchmark(bench_cfg)
    write_text(args.out, table.to_csv_text())
    text = table.to_table_text()
    if args.text_out:
        write_text(args.text_out, text)
    if args.records_out:
        write_text(args.records_out, table.records_csv_text())
    sys.stdout.write(text)
    return 0


def _cmd_dsf(args, config):
    settings = _settings("dsf", _DSF_KEYS, args, config)
    rel_tol = settings.get("rel_tol", _DSF_REL_TOL)
    _checked("dsf", _check_rel_tol, rel_tol)
    model, meta = load_model(args.model)
    sample = dsf_from_state_space(model, default_q_points())
    graph = boolean_structure(sample, rel_tol)
    if args.out:
        save_dsf_result(args.out, sample, graph,
                        extra_header=[f"model {args.model}",
                                      f"rel_tol {rel_tol}"])
    print("Q adjacency (row i, column j: edge j -> i):")
    print("\n".join(adjacency_rows(graph.q_adj)))
    return 0


def cli_main(argv=None):
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        config = _read_config(args.config) if args.config else (None, {})
        handler = {"simulate": _cmd_simulate, "reconstruct": _cmd_reconstruct,
                   "benchmark": _cmd_benchmark, "dsf": _cmd_dsf}[args.command]
        return handler(args, config)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    except (FileFormatError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
