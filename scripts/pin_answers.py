#!/usr/bin/env python3
"""Pin what ``reconstruct`` returns on a few small cells.

    python3 scripts/pin_answers.py

writes ``fixtures/pinned_answers.json``: for each cell of ``CELLS`` its
settings and the answers of one reconstruction (``_answers``): the
estimates, the trace's ``obs_loglik`` values, the status, the Q and P
adjacency and each record's counts.  ``tests/test_pinned_answers.py``
reruns the cells and compares them with the file.  A change that moves an
answer on purpose reruns this script and says so; one that should not
move any must pass the test with the file as it is.

``scripts/compare.py`` imports ``_answers`` and ``_compare`` from here, so
the fixture and the A/B comparison read the same fields.  Nothing here
imports netrecon at module level: compare.py imports this module before
it puts a checkout's ``src/`` on the path.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "fixtures", "pinned_answers.json")

# the answers compared by relative difference, and those that must agree
ESTIMATES = ("A_hat", "B_hat", "sigma2_hat", "m0_hat", "R0_hat")
RECORD_COUNTS = ("n_active", "inner_iterations", "evidence_decreases",
                 "damped")

# perfbench's workloads of the same names, at seed 1, cell 0
TINY = dict(p=3, n_true=6, n_assumed=7, m=3, density=0.2, N=150, snr_db=20.0)
DESK40 = dict(p=10, n_true=25, n_assumed=30, m=10, density=0.1, N=1000,
              snr_db=40.0)
# name: (workload, ReconConfig settings beyond n_states and seed)
CELLS = {
    "tiny": (TINY, {}),
    "desk40_cap5": (DESK40, {"outer_max_iter": 5}),
    "desk40_cap5_ml": (DESK40, {"outer_max_iter": 5, "prior_mode": "ml"}),
    "tiny_p_diag": (TINY, {"mask_mode": "p_diag", "p22": 1}),
}


def _answers(res, columns):
    """The estimates, log-likelihoods, status, network and record counts
    (those of ``RECORD_COUNTS`` among the trace ``columns``) of a result,
    as JSON lists (floats round-trip exactly)."""
    import numpy as np
    return {**{name: np.ravel(getattr(res, name)).tolist()
               for name in ESTIMATES},
            "obs_loglik": [rec.obs_loglik for rec in res.trace],
            "status": res.status, "q_adj": res.network.q_adj.tolist(),
            "p_adj": res.network.p_adj.tolist(),
            **{name: [getattr(rec, name) for rec in res.trace]
               for name in RECORD_COUNTS if name in columns}}


def _max_rel_diff(parent, change):
    """max |change - parent| over max |parent| (over 1 if that is 0); inf
    when the lengths differ."""
    if len(parent) != len(change):
        return float("inf")
    scale = max((abs(v) for v in parent), default=0.0) or 1.0
    return max((abs(c - p) for p, c in zip(parent, change)),
               default=0.0) / scale


def _compare(parent, change):
    """How far the answers ``change`` are from ``parent``; a record count
    that only one side has is not compared."""
    out = {f"max_rel_diff_{name}": _max_rel_diff(parent[name], change[name])
           for name in ESTIMATES + ("obs_loglik",)}
    out.update({f"same_{name}": parent[name] == change[name]
                for name in ("status", "q_adj", "p_adj") + RECORD_COUNTS
                if name in parent and name in change})
    return out


def run_cell(name):
    """The answers of cell ``name`` of ``CELLS``."""
    import dataclasses
    from netrecon import (IterationRecord, ReconConfig,
                          generate_random_network, reconstruct, simulate)
    from netrecon.bench import _derive_seed as seed
    w, settings = CELLS[name]
    gen, sim, rec = seed(1, 0), seed(1, 0, 0, 1), seed(1, 0, 0, 2)
    truth = generate_random_network(w["p"], w["n_true"], w["m"],
                                    w["density"], gen)
    data = simulate(truth.model, w["N"], "gaussian_iid", snr_db=w["snr_db"],
                    seed=sim)
    res = reconstruct(data, ReconConfig(n_states=w["n_assumed"], seed=rec,
                                        **settings))
    columns = [f.name for f in dataclasses.fields(IterationRecord)
               if f.compare]
    return _answers(res, columns)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pinned = {name: {"workload": w, "settings": settings,
                     "answers": run_cell(name)}
              for name, (w, settings) in CELLS.items()}
    with open(FIXTURE, "w") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(pinned)} cells to {FIXTURE}")


if __name__ == "__main__":
    main()
