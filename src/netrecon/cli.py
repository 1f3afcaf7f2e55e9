"""Command-line interface: simulate, reconstruct, benchmark, dsf.

Shared flags: --seed (drives every random choice), --config (key-value
file supplying defaults that explicit flags override), --out.  Config keys
are the long flag names (``mask`` for ``mask_mode``, also as ``recon_mask``),
with '-' and '_' read alike, in a mask value too; every subcommand merges
its file and flags in ``_settings``.  Exit codes: 0 success, 1 usage error
(an unknown key, a flag value that does not parse, a missing or
meaningless setting), 2 runtime error (a config value that does not parse,
named by its file and line, or an unreadable input file).  All output
files are deterministic functions of the configuration and seed.
"""

import argparse
import dataclasses
import logging
import sys

from .bench import BenchConfig, _derive_seed, run_benchmark
from .dsf import (_check_rel_tol, boolean_structure, default_q_points,
                  dsf_from_state_space, save_dsf_result)
from .fileio import FileFormatError, LineReader, adjacency_rows, write_text
from .model import (generate_random_network, load_dataset_csv, load_model,
                    save_dataset_csv, save_model, simulate)
from .reconstruct import (_RECON_ALIASES, RECON_KEYS, ReconConfig, _recon_key,
                          recon_config, recon_settings, reconstruct,
                          save_result)

__all__ = ["cli_main", "main", "load_config"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _Config:
    """Raw config values with the file and line each one came from."""

    def __init__(self, path=None, values=None, lines=None):
        self.path = path
        self.values = values or {}
        self.lines = lines or {}

    def parse(self, key, kind):
        """The value of ``key`` as ``kind`` (``list``: comma-separated
        floats); FileFormatError at the key's line if it does not parse."""
        raw = self.values[key]
        try:
            if kind is list:
                return [float(v) for v in raw.split(",") if v.strip()]
            return kind(raw)
        except ValueError:
            raise FileFormatError(self.path, self.lines[key],
                                  f"field '{key}': cannot parse {raw!r}") from None


def _read_config(path):
    reader = LineReader(path)
    values, lines = {}, {}
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
        values[key] = value
        lines[key] = reader.lineno
    return _Config(str(path), values, lines)


def load_config(path):
    """Parse a key-value config file ('key = value' or 'key value' lines,
    '#' comments); returns a dict of raw strings."""
    return _read_config(path).values


# setting -> type: the schema of each subcommand's flags and config keys
_SIMULATE_KEYS = {"seed": int, "n_samples": int, "snr_db": float, "p": int,
                  "n": int, "m": int, "density": float}
_DSF_KEYS = {"seed": int, "rel_tol": float}
# each BenchConfig field in lower case (N_samples reads as n_samples; a
# tuple is a comma-separated list), then recon_<key> per reconstruct setting
_BENCH_KEYS = {**{f.name.lower(): list if f.type is tuple else f.type
                  for f in dataclasses.fields(BenchConfig) if f.type is not dict},
               **{"recon_" + key: kind for key, kind in RECON_KEYS.items()}}


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
    sim.add_argument("--seed", type=int, help="default 0")
    sim.add_argument("--config", default=None)
    sim.add_argument("--out", required=True, help="dataset CSV path")

    rec = sub.add_parser("reconstruct", help="reconstruct a network from a "
                                             "dataset CSV")
    rec.add_argument("--data", required=True)
    # one flag per RECON_KEYS setting, spelled as its alias where it has one
    defaults = recon_settings(ReconConfig(n_states=0))
    spelling = {key: alias for alias, key in _RECON_ALIASES.items()}
    for key, kind in RECON_KEYS.items():
        rec.add_argument("--" + spelling.get(key, key).replace("_", "-"),
                         dest=key, type=kind, metavar=kind.__name__.upper(),
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
    dsf_p.add_argument("--rel-tol", type=float, help="default 1e-4")
    dsf_p.add_argument("--seed", type=int, help="default 0")
    dsf_p.add_argument("--config", default=None)
    dsf_p.add_argument("--out", default=None, help="DSF result file path")
    return parser


def _settings(command, kinds, args, config):
    """Settings named in ``kinds``: flag values where given, else config
    file values parsed at their line; an unknown config key is a usage error.
    A key is read as ``_recon_key`` reads it, after a ``recon_`` prefix too."""
    out = {}
    for key in config.values:
        name = key.replace("-", "_")
        prefix = "recon_" if name.startswith("recon_") else ""
        name = prefix + _recon_key(name[len(prefix):])
        if name not in kinds:
            raise _UsageError(f"unknown {command} config key '{key}' (expected "
                              f"one of {', '.join(sorted(kinds))})")
        out[name] = config.parse(key, kinds[name])
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
    seed = settings.get("seed", 0)
    n_samples = _required(settings, "n_samples")
    snr_db = settings.get("snr_db")
    if args.model_in:
        model, meta = load_model(args.model_in)
        density = meta.get("density")
    else:
        p = _required(settings, "p")
        n = _required(settings, "n")
        m = settings.get("m", p)
        density = _required(settings, "density")
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
    recon = {key.removeprefix("recon_"): settings.pop(key)
             for key in list(settings) if key.startswith("recon_")}
    kwargs = {f.name: settings[f.name.lower()]
              for f in dataclasses.fields(BenchConfig) if f.name.lower() in settings}
    bench_cfg = _checked("benchmark", BenchConfig, **kwargs, recon=recon)
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
    seed = settings.get("seed", 0)
    rel_tol = settings.get("rel_tol", 1e-4)
    _checked("dsf", _check_rel_tol, rel_tol)
    model, meta = load_model(args.model)
    sample = dsf_from_state_space(model, default_q_points(seed=seed))
    graph = boolean_structure(sample, rel_tol)
    if args.out:
        save_dsf_result(args.out, sample, graph,
                        extra_header=[f"model {args.model}", f"seed {seed}",
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
        config = _read_config(args.config) if args.config else _Config()
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
