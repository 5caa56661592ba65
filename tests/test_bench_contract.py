"""The bench's setup probe stops a run at its first round-start call; every entry point
must reach one.

``bench/worker.py setup`` replaces each of ``layers.round_start_targets()`` with a stub that
raises, and times the CLI up to that raise.  A run that answers round 1 through no such
target runs to its end instead, and every bench run fails.  These tests hold that contract
for each learner on each source a run draws rounds from, and for each bandit regressor.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from smoothol.cli import main as cli_main
from smoothol.harness import LEARNER_NAMES, NAMED

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402


class _RoundOne(Exception):
    pass


def _raise_round_one(*args, **kwargs):
    raise _RoundOne()


@pytest.fixture
def round_one_raises(monkeypatch):
    targets = layers.round_start_targets()
    assert targets
    for target in targets:
        monkeypatch.setattr(target.owner, target.attr, _raise_round_one)


# each source's adversary section and the ground it draws on
SOURCES = {
    "iid": ({"kind": "iid", "p": "tilted"}, {"type": "grid", "atoms": 16}),
    "adaptive_mixture": ({"kind": "adaptive_mixture"}, {"type": "grid", "atoms": 16}),
    "hidden_mu_threshold": ({"kind": "hidden_mu_threshold"}, {"type": "interval"}),
}


def _stops_at_round_one(command: str, raw: dict, tmp_path: Path) -> None:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**raw, "seeds": [0], "output_dir": str(tmp_path / "out")}))
    with pytest.raises(_RoundOne):
        cli_main([command, "--config", str(path)])


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("learner", LEARNER_NAMES)
def test_a_run_reaches_a_round_start_target(learner, source, round_one_raises, tmp_path):
    adversary, ground = SOURCES[source]
    _stops_at_round_one("run", {"learner": {"name": learner}, "adversary": adversary,
                                "class": {"type": "thresholds", "m": 8}, "loss": "linear",
                                "T": 10, "sigma": 0.5, "ground": ground}, tmp_path)


@pytest.mark.parametrize("regressor", NAMED["bandit"]["learner"])
def test_a_bandit_run_reaches_a_round_start_target(regressor, round_one_raises, tmp_path):
    _stops_at_round_one("bandit", {"K": 2, "sigma": 0.5, "T": 10, "regressor": regressor,
                                   "ground": {"atoms": 8},
                                   "class": {"type": "random_product", "H": 4},
                                   "class_seed": 7}, tmp_path)
