"""Runs of rounds against the per-round loop.

``harness.run_seed`` hands a learner whole runs of an oblivious adversary's
rounds through ``play``.  The reference here is the loop it replaced: select,
next_round, predict, the checks, observe and append, one round at a time.
Both must give the same trace bytes, oracle-call column, branch values and
generator states, and a run must never let a round see what comes after it.
"""

import copy
import inspect
import json

import numpy as np
import pytest

from smoothol import adversaries, ftpl, harness
from smoothol.cli import main as cli_main
from smoothol.core import LOSSES, ContextBlock, LossFunction, Trajectory, make_rng, regret_curve
from smoothol.harness import ExperimentConfig, InvariantViolation, build_pieces, run_seed
from smoothol.oracle import ErmOracle

_NOISY = {"rule": "noisy_comparator", "threshold": 0.5, "flip_prob": 0.1}
_RULES = {"noisy": _NOISY, "rademacher": {"rule": "rademacher"},
          "flip": {"rule": "adversarial_flip"}}
# (learner spec, loss): every learner, FTPL at an exact and an approximate oracle
_LEARNERS = {
    "relax-linear": ({"name": "relax-linear"}, "linear"),
    "relax-general": ({"name": "relax-general"}, "absolute"),
    **{f"{name}-zeta{zeta}": ({"name": name, "zeta": zeta}, loss)
       for name, loss in (("ftpl-cls", "linear"), ("ftpl-dual", "absolute"),
                          ("ftpl-single", "absolute"))
       for zeta in (0.0, 0.05)},
    # the band's n normals per round cut a perturbation block to 42 or 43 rounds, so runs
    # of 64 straddle blocks and swaps interleave with block draws
    **{f"{name}-zeta0.05-blocks": ({"name": name, "zeta": 0.05, "n": 3000}, loss)
       for name, loss in (("ftpl-cls", "linear"), ("ftpl-dual", "absolute"))},
}
_GROUNDS = {"grid": {"type": "grid", "atoms": 16}, "interval": {"type": "interval"}}
# a real table on 9 atoms whose first atom every hypothesis maps to 0, shattering atoms 1 and 2
_GAP_CLASS = {"type": "table", "values": [[0, 1, -1, 0.5, -0.25, 0, 0, 0, 0],
                                          [0, -1, 1, 0.75, 0, -0.5, 0, 0, 0],
                                          [0, 1, 1, -1, 0, 0, 0.25, 0, 0],
                                          [0, -1, -1, 0, 1, 0, 0, -1, 0]]}


def _config(learner, adversary, ground, T, klass=None):
    """A run config; a ``klass`` (the Rademacher-gap class) puts it on its 9 atoms."""
    spec, loss = _LEARNERS[learner]
    return ExperimentConfig.from_dict({
        "learner": dict(spec), "adversary": adversary, "loss": loss, "T": T, "sigma": 0.5,
        "seeds": [0], "ground": {"type": "grid", "atoms": 9} if klass else _GROUNDS[ground],
        "class": klass or {"type": "thresholds", "m": 8}})


def _per_round(cfg, seed):
    """The per-round loop: the trajectory, regret, learner and (adversary, learner) rngs."""
    rngs = make_rng(seed, 0), make_rng(seed, 1)
    klass, loss, adversary, learner = build_pieces(cfg, *rngs)
    oracle = learner.oracle
    lo, hi = loss.output_range
    traj = Trajectory(cfg.T)
    last_prediction = None
    for t in range(1, cfg.T + 1):
        if learner.proper:
            learner.select()
        context, label = adversary.next_round(last_prediction)
        yhat = learner.predict(context)
        if not (-1.0 - 1e-9 <= yhat <= 1.0 + 1e-9):
            raise InvariantViolation(f"prediction {yhat} outside [-1, 1] at round {t}")
        instant = loss.evaluate(yhat, label)
        if not (lo - 1e-9 <= instant <= hi + 1e-9):
            raise InvariantViolation(f"loss {instant} outside declared range at round {t}")
        learner.observe(context, label)
        traj.append(context, label, yhat, instant, oracle.calls)
        last_prediction = yhat
    return traj, regret_curve(traj, klass, loss)[0], learner, rngs


def _in_runs(cfg, seed, monkeypatch):
    """``run_seed``'s trajectory, regret, learner and rngs, read through ``build_pieces``."""
    seen = {}
    build = harness.build_pieces

    def spy(cfg, adversary_rng, learner_rng):
        pieces = build(cfg, adversary_rng, learner_rng)
        seen.update(learner=pieces[3], rngs=(adversary_rng, learner_rng))
        return pieces

    monkeypatch.setattr(harness, "build_pieces", spy)
    outcome = run_seed(cfg, seed)
    return outcome.trajectory, outcome.regret, seen["learner"], seen["rngs"]


def _plain(state):
    """A generator state with its arrays as lists, comparable with ==."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def _assert_same(cfg, seed, monkeypatch):
    traj, regret, learner, rngs = _in_runs(cfg, seed, monkeypatch)
    want_traj, want_regret, want_learner, want_rngs = _per_round(cfg, seed)
    for name in ("ids", "coords", "labels", "predictions", "instant_loss", "oracle_calls"):
        assert getattr(traj, name).tobytes() == getattr(want_traj, name).tobytes(), name
    assert regret.tobytes() == want_regret.tobytes()
    assert learner.oracle.calls == want_learner.oracle.calls
    assert learner.oracle.prefix.tobytes() == want_learner.oracle.prefix.tobytes()
    if hasattr(learner, "state"):
        assert learner.state.last_branch_values == want_learner.state.last_branch_values
    for rng, want in zip(rngs, want_rngs):
        assert _plain(rng.bit_generator.state) == _plain(want.bit_generator.state)


@pytest.mark.parametrize("rule", _RULES)
@pytest.mark.parametrize("ground", _GROUNDS)
@pytest.mark.parametrize("learner", _LEARNERS)
def test_runs_match_the_per_round_loop(learner, ground, rule, monkeypatch):
    """Byte for byte, at horizons around the 64-round block: one round, a partial block,
    a full one, one round past it, and two blocks and a bit."""
    for T in (1, 2, 63, 64, 65, 130):
        cfg = _config(learner, {"kind": "iid", "labels": _RULES[rule]}, ground, T)
        _assert_same(cfg, T, monkeypatch)


def _on(sources):
    """(learner, source) pairs; the classification variant needs a binary class, so it
    does not meet the real-valued Rademacher-gap class."""
    return [(learner, source) for learner in _LEARNERS for source in sources
            if not (source == "rademacher_gap" and learner.startswith("ftpl-cls"))]


@pytest.mark.parametrize("learner, source",
                         _on(["adaptive_mixture", "rademacher_gap", "hidden_mu"]))
def test_other_sources_match_the_per_round_loop(learner, source, monkeypatch):
    """Sources whose rounds are played one at a time (adaptive mixture, hidden mu) and the
    Rademacher-gap instance, whose i.i.d. rounds run 64 at a time on a real class."""
    adversary, ground, klass = {
        "adaptive_mixture": ({"kind": "adaptive_mixture", "labels": _NOISY}, "grid", None),
        "rademacher_gap": ({"kind": "rademacher_gap", "m": 2}, "grid", _GAP_CLASS),
        "hidden_mu": ({"kind": "hidden_mu_threshold"}, "interval", None)}[source]
    for T in (2, 70):
        _assert_same(_config(learner, adversary, ground, T, klass), T, monkeypatch)


# ---------------------------------------------------------------------------
# no look-ahead
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ground", _GROUNDS)
@pytest.mark.parametrize("learner", _LEARNERS)
def test_a_round_of_a_run_sees_nothing_after_it(learner, ground, monkeypatch):
    """Replacing the labels of rounds >= t and the contexts of rounds > t moves neither
    the predictions, nor the FTPL hypotheses, nor the objectives any round <= t was
    answered over (row i of each ``_objectives`` call of a play is its round i)."""
    cfg = _config(learner, {"kind": "iid", "labels": _NOISY}, ground, 200)
    _, _, adversary, learner = build_pieces(cfg, make_rng(5, 0), make_rng(5, 1))
    learner.play(*adversary.next_run(None, 64))  # a run played, so the history is not empty
    contexts, labels = adversary.next_run(None, 64)
    other, _ = adversary.next_run(None, 64)
    seen = {"approximate_run": [], "_objectives": []}
    for name, calls in seen.items():
        method = getattr(ErmOracle, name)
        monkeypatch.setattr(ErmOracle, name, lambda *args, method=method, calls=calls: (
            calls.append(method(*args)) or calls[-1]))

    def play(run):
        for calls in seen.values():
            calls.clear()
        predictions = copy.deepcopy(learner).play(*run)[0]
        return predictions, *(np.concatenate(calls) if calls else None
                              for calls in seen.values())

    for t in (1, 17, 64):  # rounds are 1-based: round t is row t - 1
        moved = ContextBlock(*(None if a is None else np.concatenate((a[:t], b[t:]))
                               for a, b in ((contexts.ids, other.ids),
                                            (contexts.coords, other.coords))))
        flipped = np.concatenate((labels[:t - 1], -labels[t - 1:]))
        played, changed = play((contexts, labels)), play((moved, flipped))
        for a, b in zip(played, changed):
            assert (a is None) == (b is None)
            assert a is None or a[:t].tobytes() == b[:t].tobytes()
        assert played[2][t:].tobytes() != changed[2][t:].tobytes() or t == 64


# ---------------------------------------------------------------------------
# invariants inside a run
# ---------------------------------------------------------------------------

class _Spoiler:
    """Plays 0.5 at every round but round ``at``, where it plays ``bad``."""

    proper = False

    def __init__(self, at, bad):
        self.at, self.bad, self.t = at, bad, 0
        self.oracle = type("NoOracle", (), {"calls": 0})()

    def predict(self, context):
        self.t += 1
        return self.bad if self.t == self.at else 0.5

    def observe(self, context, label):
        pass

    def play(self, contexts, labels):
        rounds = self.t + np.arange(1, len(labels) + 1)
        self.t += len(labels)
        return np.where(rounds == self.at, self.bad, 0.5), np.zeros(len(labels), dtype=np.int64)


def _spoiled(kind, value):
    """The linear loss, plus 5 where yhat is ``value`` when kind is 'loss'."""
    if kind == "prediction":
        return LOSSES["linear"]
    return lambda: LossFunction("linear", 0.5, lambda a, b: (1.0 - a * b) / 2.0
                                + 5.0 * (a == value), degree=1)


@pytest.mark.parametrize("kind, bad", [("prediction", 1.5), ("prediction", float("nan")),
                                       ("prediction", -float("inf")), ("loss", 0.25)])
def test_invariant_errors_inside_a_run_name_the_per_round_round(kind, bad, monkeypatch,
                                                                tmp_path, capsys):
    """Round 70 lies inside the second run of 64; its error is the per-round loop's, and
    the CLI exits 3 with it."""
    monkeypatch.setitem(LOSSES, "linear", _spoiled(kind, bad))
    monkeypatch.setattr(harness, "build_learner", lambda *args: _Spoiler(70, bad))
    cfg = _config("relax-linear", {"kind": "iid", "labels": _NOISY}, "grid", 100)
    with pytest.raises(InvariantViolation) as want:
        _per_round(cfg, 0)
    assert "at round 70" in str(want.value)
    with pytest.raises(InvariantViolation) as got:
        run_seed(cfg, 0)
    assert str(got.value) == str(want.value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert cli_main(["run", "--config", str(path)]) == 3
    assert capsys.readouterr().err == f"invariant violation: {want.value}\n"


# ---------------------------------------------------------------------------
# the first round starts where a per-round loop started it
# ---------------------------------------------------------------------------

class _RoundOne(Exception):
    pass


def _round_starts():
    """(class, name) of every method that opens a round: an adversary's next_round, a
    proper learner's select."""
    return [(cls, name) for module, name in ((adversaries, "next_round"), (ftpl, "select"))
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and name in cls.__dict__]


@pytest.mark.parametrize("learner, kind",
                         _on(["iid", "adaptive_mixture", "hidden_mu_threshold", "rademacher_gap"]))
def test_the_first_round_starts_at_a_round_start_method(learner, kind, monkeypatch, tmp_path):
    """With every round-start method raising, a run stops before it records round 1 or
    asks a learner for a prediction."""
    ground, klass = {"hidden_mu_threshold": ("interval", None),
                     "rademacher_gap": ("grid", _GAP_CLASS)}.get(kind, ("grid", None))
    adversary = {"kind": kind, **({"m": 2} if kind == "rademacher_gap" else {})}
    cfg = _config(learner, adversary, ground, 5, klass)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))

    def start(*args, **kwargs):
        raise _RoundOne

    work = []
    for cls, name in _round_starts():
        monkeypatch.setattr(cls, name, start)
    for cls, name in [(Trajectory, "append"), (Trajectory, "extend"),
                      *((type(build_pieces(cfg, make_rng(0), make_rng(0))[3]), name)
                        for name in ("play", "predict", "observe"))]:
        monkeypatch.setattr(cls, name, lambda *args, name=name: work.append(name))
    with pytest.raises(_RoundOne):
        cli_main(["run", "--config", str(path)])
    assert work == []
