"""``reconstruct``'s answers on the cells of ``scripts/pin_answers.py``
agree with ``fixtures/pinned_answers.json``.

The estimates and the trace's log-likelihoods must agree to a relative
difference (max |change - pinned| over max |pinned|) of ``REL_TOL``; the
status, the network and each record's counts must be identical.  A
change that moves an answer on purpose regenerates the file with the
script.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import pin_answers  # noqa: E402

REL_TOL = 1e-9

with open(pin_answers.FIXTURE) as fh:
    PINNED = json.load(fh)


def _mismatches(pinned, answers):
    """The fields of ``answers`` that differ from ``pinned`` beyond the
    test's tolerance."""
    return [key for key, value in pin_answers._compare(pinned, answers).items()
            if (value > REL_TOL if key.startswith("max_") else not value)]


def test_the_fixture_covers_the_script_cells():
    assert set(PINNED) == set(pin_answers.CELLS)
    for name, (w, settings) in pin_answers.CELLS.items():
        assert PINNED[name]["workload"] == w
        assert PINNED[name]["settings"] == settings


@pytest.mark.parametrize("name", sorted(pin_answers.CELLS))
def test_reconstruct_gives_the_pinned_answers(name):
    pinned = PINNED[name]["answers"]
    answers = pin_answers.run_cell(name)
    assert set(answers) == set(pinned)
    assert _mismatches(pinned, answers) == []


@pytest.mark.parametrize("name", ["A_hat", "sigma2_hat", "obs_loglik"])
def test_a_one_in_a_million_change_fails(name):
    pinned = PINNED["desk40_cap5"]["answers"]
    moved = copy.deepcopy(pinned)
    values = moved[name]
    i = max(range(len(values)), key=lambda j: abs(values[j]))
    values[i] *= 1.0 + 1e-6
    assert _mismatches(pinned, moved) == [f"max_rel_diff_{name}"]
