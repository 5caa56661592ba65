import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothol.bandit import run_bandit_experiment
from smoothol.cli import build_parser, main as cli_main
from smoothol.core import ContextBlock, LOSSES, Trajectory
from smoothol.harness import (
    ConfigError,
    ExperimentConfig,
    KINDS,
    LEARNER_NAMES,
    NAMED,
    NUMBERS,
    build_class,
    build_ground_and_mu,
    run_experiment,
    run_seed,
    sweep,
    sweep_to_long_csv,
)

from conftest import regret_curve


ROOT = Path(__file__).resolve().parent.parent


def _base_config(**overrides):
    raw = {
        "learner": {"name": "ftpl-cls"},
        "adversary": {"kind": "iid", "p": "tilted",
                      "labels": {"rule": "noisy_comparator", "threshold": 0.5,
                                 "flip_prob": 0.1}},
        "class": {"type": "thresholds", "m": 8},
        "loss": "linear",
        "T": 10,
        "sigma": 0.5,
        "seeds": [0],
        "ground": {"type": "grid", "atoms": 16},
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_unknown_learner_lists_valid_names():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(_base_config(learner={"name": "sgd"}))
    for name in LEARNER_NAMES:
        assert name in str(err.value)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(T=0))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(seeds=[]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(sigma=0.0))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(loss="hinge"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(adversary={"kind": "worst_case"}))


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------

_HEADER = "t,context,label,prediction,instant_loss,cumulative_regret,oracle_calls"


def _traced(cfg, seed):
    """``run_seed``'s outcome and the trace it writes."""
    sink = io.StringIO()
    return run_seed(cfg, seed, sink), sink.getvalue()


def _trajectory(trace):
    """The trajectory and regret column whose rounds a trace's lines record; a context with
    an atom id keeps no coordinate there."""
    _, context, labels, predictions, instant, regret, calls = zip(
        *(line.split(",") for line in trace.splitlines()[1:]))
    floats = lambda column: np.array([float(v) for v in column])
    ids = context[0].isdigit()
    traj = Trajectory(len(context))
    traj.extend(ContextBlock(ids=np.array([int(i) for i in context]) if ids else None,
                             coords=None if ids else floats(context)),
                floats(labels), floats(predictions), floats(instant),
                np.array([int(c) for c in calls]))
    return traj, floats(regret)


def whole_run_csv(traj, regret):
    """A whole trajectory's trace, every line made at once: the reference for a trace
    written chunk by chunk."""
    rows = zip(range(1, len(traj) + 1), traj.ids.tolist(), traj.coords.tolist(),
               traj.labels.tolist(), traj.predictions.tolist(), traj.instant_loss.tolist(),
               regret.tolist(), traj.oracle_calls.tolist())
    lines = [_HEADER] + [f"{t},{i if i >= 0 else repr(c)},{y!r},{yhat!r},{inst!r},{reg!r},"
                         f"{calls}" for t, i, c, y, yhat, inst, reg, calls in rows]
    return "\n".join(lines) + "\n"

def test_single_round_single_seed(tmp_path):
    cfg = ExperimentConfig.from_dict(
        _base_config(T=1, seeds=[3], output_dir=str(tmp_path)))
    summary = run_experiment(cfg)
    assert len(summary["per_seed"]) == 1
    csv_path = tmp_path / "trace_seed3.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2  # header + one round
    assert lines[0] == _HEADER
    assert (tmp_path / "summary.json").exists()


def test_aggregate_mean_matches_per_seed_rows():
    cfg = ExperimentConfig.from_dict(_base_config(seeds=list(range(10))))
    summary = run_experiment(cfg)
    finals = [r["final_regret"] for r in summary["per_seed"]]
    assert len(finals) == 10
    assert summary["aggregate"]["mean_final_regret"] == pytest.approx(np.mean(finals), abs=1e-9)
    assert summary["aggregate"]["std_final_regret"] == pytest.approx(np.std(finals, ddof=1),
                                                                     abs=1e-9)


@pytest.mark.parametrize("learner", list(LEARNER_NAMES))
def test_every_learner_is_deterministic_per_seed(learner):
    cfg = ExperimentConfig.from_dict(_base_config(learner={"name": learner}, T=6))
    a = _traced(cfg, 7)[1]
    b = _traced(cfg, 7)[1]
    assert a == b
    c = _traced(cfg, 8)[1]
    assert a != c


def test_trace_oracle_accounting_totals():
    cfg = ExperimentConfig.from_dict(_base_config(learner={"name": "relax-linear"}, T=9))
    outcome, trace = _traced(cfg, 0)
    assert outcome.oracle_calls == _trajectory(trace)[0].oracle_calls[-1] == 2 * 9
    for name in ("ftpl-cls", "ftpl-dual", "ftpl-single"):
        cfg = ExperimentConfig.from_dict(_base_config(learner={"name": name}, T=9))
        outcome, trace = _traced(cfg, 0)
        assert outcome.oracle_calls == _trajectory(trace)[0].oracle_calls[-1] == 9


# learner -> a loss it runs with, so every loss shape is exercised
_DIFF_LOSSES = {"relax-linear": "linear", "relax-general": "absolute",
                "ftpl-cls": "linear", "ftpl-dual": "absolute", "ftpl-single": "scaled_square"}


@pytest.mark.parametrize("ground", ["grid", "interval"])
@pytest.mark.parametrize("learner", list(LEARNER_NAMES))
def test_regret_column_matches_per_round_reference(learner, ground):
    """The columnar regret equals the per-round comparator recurrence exactly."""
    cfg = ExperimentConfig.from_dict(_base_config(
        learner={"name": learner}, loss=_DIFF_LOSSES[learner], T=25,
        adversary={"kind": "iid", "p": "tilted" if ground == "grid" else "mu",
                   "labels": {"rule": "noisy_comparator", "threshold": 0.5,
                              "flip_prob": 0.1}},
        ground={"type": "grid", "atoms": 16} if ground == "grid" else {"type": "interval"},
        checkpoints=[1, 7, 25]))
    outcome, trace = _traced(cfg, 3)
    klass = build_class(cfg, build_ground_and_mu(cfg)[0])
    loss = LOSSES[cfg.loss]()

    traj = _trajectory(trace)[0]
    comparator = np.zeros(len(klass))
    cum_loss = 0.0
    expected = []
    for i, c, y, inst in zip(traj.ids.tolist(), traj.coords.tolist(),
                             traj.labels.tolist(), traj.instant_loss.tolist()):
        ctx = ContextBlock(ids=np.array([i]) if i >= 0 else None,
                           coords=None if np.isnan(c) else np.array([c]))
        comparator += loss.evaluate_array(klass.evaluate_block(ctx)[:, 0], y)
        cum_loss += inst
        expected.append(cum_loss - float(comparator.min()))

    column = [line.split(",")[5] for line in trace.splitlines()[1:]]
    assert column == [repr(r) for r in expected]
    assert outcome.final_regret == expected[-1]
    assert outcome.checkpoint_regrets == {t: expected[t - 1] for t in (1, 7, 25)}
    assert outcome.comparator_range == (float(comparator.min()), float(comparator.max()))


def test_dual_learner_heavy_tail_complexity_regime():
    cfg = ExperimentConfig.from_dict(_base_config(
        learner={"name": "ftpl-dual", "p": 4.0}, T=16))
    assert len(_trajectory(_traced(cfg, 0)[1])[0]) == 16


def test_hidden_mu_config_runs_on_interval_ground():
    cfg = ExperimentConfig.from_dict(_base_config(
        learner={"name": "relax-linear"},
        adversary={"kind": "hidden_mu_threshold"},
        ground={"type": "interval"},
        T=12, sigma=1 / 12, seeds=[0],
    ))
    assert len(_trajectory(_traced(cfg, 0)[1])[0]) == 12


def test_schedule_overrides_reach_the_learner():
    from smoothol.harness import build_class, build_ground_and_mu, build_learner
    from smoothol.core import LOSSES
    from smoothol.oracle import ErmOracle
    from smoothol.core import make_rng

    cfg = ExperimentConfig.from_dict(_base_config(
        learner={"name": "ftpl-dual", "eta": 2.5, "n": 7, "m": 5, "epsilon": 0.5,
                 "zeta": 0.25}))
    ground, mu = build_ground_and_mu(cfg)
    klass = build_class(cfg, ground)
    loss = LOSSES[cfg.loss]()
    learner = build_learner(cfg, klass, loss, mu, ErmOracle(klass, loss),
                            make_rng(0, 1))
    assert (learner.sched.eta, learner.sched.n, learner.sched.m,
            learner.sched.epsilon, learner.sched.zeta) == (2.5, 7, 5, 0.5, 0.25)
    # overriding n on the single variant re-derives eta = sqrt(n)
    cfg = ExperimentConfig.from_dict(_base_config(
        learner={"name": "ftpl-single", "n": 16}))
    learner = build_learner(cfg, klass, loss, mu, ErmOracle(klass, loss),
                            make_rng(0, 2))
    assert learner.sched.n == 16 and learner.sched.eta == 4.0


def _rademacher_gap(m):
    """Overrides for a rademacher_gap run: atom 0 is x*, atoms 1 and 2 are shattered."""
    values = [[0.0, 1.0, 1.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0], [0.0, -1.0, -1.0]]
    return {"learner": {"name": "ftpl-dual"},
            "adversary": {"kind": "rademacher_gap", "m": m, "scale": 2.0},
            "ground": {"type": "grid", "atoms": 3},
            "class": {"type": "table", "values": values}}


def _zero_table_gap(scale):
    """A rademacher_gap run at ``scale`` on a class that is 0 on every atom."""
    return {**_rademacher_gap(2), "adversary": {"kind": "rademacher_gap", "m": 2, "scale": scale},
            "class": {"type": "table", "values": [[0.0] * 3]}}


def test_rademacher_gap_config():
    cfg = ExperimentConfig.from_dict(_base_config(T=8, **_rademacher_gap(2)))
    assert len(_trajectory(_traced(cfg, 1)[1])[0]) == 8


class _Follower:
    """A learner that plays hypothesis h's value at each context, with no oracle calls."""

    proper = False

    def __init__(self, klass, h):
        self.klass, self.h = klass, h
        self.oracle = type("NoOracle", (), {"calls": 0})()

    def predict(self, context):
        return float(self.klass.evaluate_block(context)[self.h, 0])

    def observe(self, context, label):
        pass

    def play(self, contexts, labels):
        return self.klass.evaluate_block(contexts)[self.h], np.zeros(len(labels), dtype=np.int64)


def _pow_hazards(count, rng):
    """Values v in [-1, 1] at which a numpy scalar's ((v - y) / 2) ** 2, which calls pow,
    rounds apart from the product d * d for a label y = -1 or +1 (about 1 in 1,000)."""
    found = []
    while len(found) < count:
        v = np.float64(rng.uniform(-1.0, 1.0))
        if any(((v - y) / 2.0) ** 2 != ((v - y) / 2.0) * ((v - y) / 2.0) for y in (-1.0, 1.0)):
            found.append(float(v))
    return found


def test_a_learner_playing_the_best_hypothesis_has_zero_regret(monkeypatch):
    """Tie-breaking at T = 10^4 under scaled-square loss: the run's instant losses and
    the hypotheses' losses round alike, so following the best hypothesis in hindsight
    leaves a final regret of exactly 0, not a few ulps.  Every table entry is a value
    at which pow and a product round apart."""
    from smoothol import harness

    values = np.reshape(_pow_hazards(80, np.random.default_rng(60)), (5, 16)).tolist()
    cfg = ExperimentConfig.from_dict(_base_config(
        T=10_000, loss="scaled_square", learner={"name": "ftpl-dual"},
        **{"class": {"type": "table", "values": values}}))
    follow = [0]
    monkeypatch.setattr(harness, "build_learner",
                        lambda cfg, klass, *rest: _Follower(klass, follow[0]))
    first = _trajectory(_traced(cfg, 3)[1])[0]  # the rounds do not depend on the learner
    klass, loss = build_class(cfg, build_ground_and_mu(cfg)[0]), LOSSES["scaled_square"]()
    follow[0] = int(np.argmin(regret_curve(first, klass, loss)[1]))
    outcome, trace = _traced(cfg, 3)
    traj, regret = _trajectory(trace)
    assert traj.labels.tobytes() == first.labels.tobytes()
    best = np.concatenate([losses[follow[0]]
                           for _, _, losses in traj.hypothesis_losses(klass, loss)])
    assert traj.instant_loss.tobytes() == best.tobytes()
    assert outcome.final_regret == 0.0
    assert regret.min() >= 0.0  # it never leads the best hypothesis so far


# ---------------------------------------------------------------------------
# traces written a chunk of rounds at a time
# ---------------------------------------------------------------------------

def _whole_run(cfg, seed):
    """The run played into one ``Trajectory(T)`` and accounted at the end, every line of
    its trace made at once: the trace and the outcome, with a wall time of 0."""
    from smoothol.core import make_rng
    from smoothol.harness import SeedOutcome, build_pieces

    klass, loss, adversary, learner = build_pieces(cfg, make_rng(seed, 0), make_rng(seed, 1))
    traj, last = Trajectory(cfg.T), None
    while len(traj) < cfg.T:
        contexts, labels = adversary.next_run(last, cfg.T - len(traj))
        predictions, calls = learner.play(contexts, labels)
        traj.extend(contexts, labels, predictions, loss.evaluate_array(predictions, labels),
                    calls)
        last = float(predictions[-1])
    regret, totals = regret_curve(traj, klass, loss)
    checkpoints = sorted(set(cfg.checkpoints or [max(1, cfg.T // 2), cfg.T]))
    outcome = SeedOutcome(seed, float(regret[-1]), {t: float(regret[t - 1]) for t in checkpoints},
                          learner.oracle.calls, 0.0, (float(totals.min()), float(totals.max())))
    return whole_run_csv(traj, regret), outcome


def _timeless(summary):
    """A summary's JSON text without its wall times and output_dir."""
    for row in summary["per_seed"]:
        row.pop("wall_time_s")
    summary["aggregate"].pop("total_wall_time_s")
    summary["config"].pop("output_dir")
    return json.dumps(summary, indent=2)


@pytest.mark.parametrize("rule", ["noisy_comparator", "adversarial_flip"])
@pytest.mark.parametrize("ground", ["grid", "interval"])
@pytest.mark.parametrize("T", [1023, 1024, 1025, 2500])
def test_chunked_traces_match_the_whole_run(T, ground, rule, tmp_path):
    """Traces and summaries, byte for byte, at horizons on both sides of a chunk boundary:
    i.i.d. runs of 64 rounds (noisy labels) and runs of one round (adversarial flips),
    with checkpoints on both sides of the first boundary."""
    from smoothol.harness import summarize

    cfg = ExperimentConfig.from_dict(_base_config(
        T=T, seeds=[0, 1], output_dir=str(tmp_path),
        checkpoints=sorted({t for t in (1, 1024, 1025, T) if t <= T}),
        adversary={"kind": "iid", "p": "tilted" if ground == "grid" else "mu",
                   "labels": {"rule": rule}},
        ground={"type": "grid", "atoms": 16} if ground == "grid" else {"type": "interval"}))
    got = run_experiment(cfg)
    want = [_whole_run(cfg, seed) for seed in cfg.seeds]
    for seed, (trace, outcome) in zip(cfg.seeds, want):
        assert (tmp_path / f"trace_seed{seed}.csv").read_bytes() == trace.encode()
        assert run_seed(cfg, seed).comparator_range == outcome.comparator_range
    assert (tmp_path / "summary.json").read_text() == json.dumps(got, indent=2) + "\n"
    assert _timeless(got) == _timeless(summarize(cfg, [outcome for _, outcome in want]))


@pytest.mark.parametrize("excess, refused", [(2e-9, True), (0.5e-9, False)])
def test_a_prediction_past_one_by_more_than_rounding_is_an_invariant_violation(excess, refused):
    """|yhat| <= 1 + 1e-9: a prediction of 1 + 2e-9 at round 2 raises, 1 + 0.5e-9 passes."""
    from smoothol import harness
    from smoothol.harness import InvariantViolation

    predictions, labels = np.array([0.5, 1.0 + excess, 0.0]), np.ones(3)
    if refused:
        with pytest.raises(InvariantViolation, match="outside \\[-1, 1\\] at round 12"):
            harness._checked_losses(LOSSES["linear"](), predictions, labels, 10)
    else:
        assert len(harness._checked_losses(LOSSES["linear"](), predictions, labels, 10)) == 3


def test_a_seed_that_raises_mid_run_leaves_no_partial_trace(tmp_path, monkeypatch, capsys):
    """Seed 1 raises at round 1,500, after its first chunk was written: the CLI exits 3,
    seed 0's trace stays whole, seed 1's is removed, no summary is written and an earlier
    run's summary is gone, so none sits beside traces it does not describe."""
    from smoothol import harness
    from smoothol.harness import InvariantViolation

    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text("{}\n")
    checked, starts = harness._checked_losses, []

    def raising(loss, predictions, labels, start):
        starts.append(start)
        if starts.count(0) == 2 and start < 1500 <= start + len(labels):
            assert len((out / "trace_seed1.csv").read_text().splitlines()) == 1 + 1024
            raise InvariantViolation("loss 2.0 outside declared range at round 1500")
        return checked(loss, predictions, labels, start)

    monkeypatch.setattr(harness, "_checked_losses", raising)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(T=2000, seeds=[0, 1], output_dir=str(out))))
    assert cli_main(["run", "--config", str(cfg_path)]) == 3
    assert "at round 1500" in capsys.readouterr().err
    assert len((out / "trace_seed0.csv").read_text().splitlines()) == 1 + 2000
    assert sorted(path.name for path in out.iterdir()) == ["trace_seed0.csv"]


def test_a_failed_bandit_rerun_leaves_no_earlier_summary(tmp_path, monkeypatch, capsys):
    """A good ``bandit`` run writes its summary; a rerun whose reduction raises exits 3 and
    leaves no summary, not the first run's."""
    from smoothol import bandit
    from smoothol.harness import InvariantViolation

    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "K": 2, "sigma": 0.5, "T": 10, "seeds": [0], "regressor": "ftpl-dual",
        "ground": {"atoms": 6}, "class": {"type": "random_product", "H": 3},
        "output_dir": str(out)}))
    assert cli_main(["bandit", "--config", str(cfg_path)]) == 0
    assert (out / "bandit_summary.json").exists()

    def raising(*args, **kwargs):
        raise InvariantViolation("a regressor prediction went missing")

    monkeypatch.setattr(bandit, "run_square_cb", raising)
    assert cli_main(["bandit", "--config", str(cfg_path)]) == 3
    assert "went missing" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_a_failed_sweep_rerun_leaves_no_earlier_csv(tmp_path, monkeypatch, capsys):
    """A good ``sweep`` over T writes ``sweep_T.csv``; a rerun whose T = 20 seed exits 3
    leaves no CSV, not the first sweep's, which lists rows this sweep never produced."""
    from smoothol import harness
    from smoothol.harness import InvariantViolation

    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(output_dir=str(out))))
    args = ["sweep", "--config", str(cfg_path), "--param", "T", "--values", "10,20"]
    assert cli_main(args) == 0
    assert (out / "sweep_T.csv").read_text() == capsys.readouterr().out
    run_seed = harness.run_seed

    def raising(cfg, seed, trace=None):
        if cfg.T == 20:
            raise InvariantViolation("loss outside declared range at round 1")
        return run_seed(cfg, seed, trace)

    monkeypatch.setattr(harness, "run_seed", raising)
    assert cli_main(args) == 3
    assert "at round 1" in capsys.readouterr().err
    assert not (out / "sweep_T.csv").exists()
    assert (out / "T=10" / "summary.json").exists() and not (out / "T=20" / "summary.json").exists()


def test_the_regret_cross_check_holds_at_long_horizons_and_sees_a_moved_loss(monkeypatch):
    """At T = 10^5 an honest run's running regret and its pairwise-summed check differ by
    about 1e-8 (a follower of a hypothesis that is not the best, scaled-square loss on a
    table of tenths): the check's tolerance grows with the rounding bound of summing T
    terms.  A loss moved by 1e-3 in the running sums still raises."""
    from smoothol import harness
    from smoothol.harness import InvariantViolation

    values = (np.random.default_rng(1).integers(-9, 10, (6, 9)) / 10).tolist()
    cfg = ExperimentConfig.from_dict(_base_config(
        T=100_000, loss="scaled_square", learner={"name": "ftpl-dual"},
        adversary={"kind": "iid", "labels": _labels()["adversary"]["labels"]},
        ground={"type": "grid", "atoms": 9}, **{"class": {"type": "table", "values": values}}))
    monkeypatch.setattr(harness, "build_learner",
                        lambda cfg, klass, *rest: _Follower(klass, 0))
    assert run_seed(cfg, 0).final_regret > 3000.0  # hypothesis 0 is far from the best

    from smoothol.core import RunningRegret

    add, moved = RunningRegret.add, []

    def moving(self, traj):
        regret = add(self, traj)
        if not moved:  # as if a round of the first chunk had lost 1e-3 more
            self.learner += 1e-3
            moved.append(True)
        return regret

    monkeypatch.setattr(RunningRegret, "add", moving)
    with pytest.raises(InvariantViolation, match="running regret disagrees"):
        run_seed(cfg, 0)


def _ftpl_long(T):
    """The bench's ftpl-cls-long workload at horizon T."""
    return _base_config(T=T, sigma=0.2, **{"class": {"type": "thresholds", "m": 64}},
                        ground={"type": "grid", "atoms": 256})


def _peak_bytes(run):
    """The most bytes that Python's allocators held at once during ``run()``."""
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_run_with_a_trace_holds_memory_independent_of_T(tmp_path):
    """Eight times the rounds, with every line written to a trace file, within 1.25 times
    the peak: a run holds one chunk of rounds, not the whole trajectory."""
    peaks = {}
    for T in (2048, 16384):
        cfg = ExperimentConfig.from_dict(_ftpl_long(T))
        with (tmp_path / f"trace{T}.csv").open("w") as trace:
            peaks[T] = _peak_bytes(lambda: run_seed(cfg, 0, trace))
        assert len((tmp_path / f"trace{T}.csv").read_text().splitlines()) == 1 + T
    assert peaks[16384] <= 1.25 * peaks[2048], peaks


def test_a_huge_horizon_allocates_nothing_of_its_size_before_its_first_chunk(monkeypatch):
    """T = 10^15 loads and plays its first run of 64 rounds in under 1 MB.  One float per
    round would be 8 PB, more than any address space, so an allocation of that size fails
    at once rather than touching memory."""
    from smoothol import harness

    class _Stop(Exception):
        pass

    extend = Trajectory.extend

    def once(self, *args):
        extend(self, *args)
        raise _Stop

    monkeypatch.setattr(harness.Trajectory, "extend", once)

    def run():
        with pytest.raises(_Stop):
            run_seed(ExperimentConfig.from_dict(_ftpl_long(10**15)), 0)

    assert _peak_bytes(run) < 2**20


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_over_horizon():
    cfg = ExperimentConfig.from_dict(_base_config(seeds=[0, 1]))
    summaries = sweep(cfg, "T", [5, 10])
    assert len(summaries) == 2
    assert summaries[0]["config"]["T"] == 5
    csv_text = sweep_to_long_csv("T", [5, 10], summaries)
    assert csv_text.splitlines()[0] == "T,seed,final_regret,oracle_calls"
    assert len(csv_text.strip().splitlines()) == 1 + 4


def test_sweep_over_learner_shares_seeds_and_adversary(tmp_path):
    cfg = ExperimentConfig.from_dict(
        _base_config(seeds=[0, 1], T=6, output_dir=str(tmp_path)))
    summaries = sweep(cfg, "learner", ["relax-linear", "ftpl-cls"])
    assert [s["config"]["learner"]["name"] for s in summaries] == ["relax-linear", "ftpl-cls"]
    assert all(len(s["per_seed"]) == 2 for s in summaries)
    # traces for both learners persist side by side
    for name in ("relax-linear", "ftpl-cls"):
        assert (tmp_path / f"learner={name}" / "trace_seed0.csv").exists()
    # identical seeds/adversary: the context-label streams coincide per seed
    import csv

    pick = lambda name: list(csv.DictReader(
        (tmp_path / f"learner={name}" / "trace_seed0.csv").open()))
    rows_a, rows_b = pick("relax-linear"), pick("ftpl-cls")
    assert [r["context"] for r in rows_a] == [r["context"] for r in rows_b]
    assert [r["label"] for r in rows_a] == [r["label"] for r in rows_b]


@pytest.mark.parametrize("param, values, learner", [
    pytest.param("T", "5,0", {"name": "ftpl-cls"}, id="T-zero-last"),
    pytest.param("learner", "relax-linear,ftpl-cls", {"name": "relax-general", "k": 2},
                 id="k-on-ftpl-last"),
])
def test_cli_sweep_loads_every_value_before_it_runs_any(tmp_path, capsys, monkeypatch, param,
                                                        values, learner):
    from smoothol import harness

    ran = []
    monkeypatch.setattr(harness, "run_experiment",
                        lambda cfg: ran.append(cfg) or run_experiment(cfg))
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg_path.write_text(json.dumps(_base_config(learner=learner, T=4, output_dir=str(out))))
    rc = cli_main(["sweep", "--config", str(cfg_path), "--param", param, "--values", values])
    assert rc == 2 and "config error:" in capsys.readouterr().err
    assert ran == [] and not out.exists()


def test_cli_sweep_refuses_a_number_output_dir_before_it_runs(tmp_path, capsys, monkeypatch):
    from smoothol import harness

    monkeypatch.setattr(harness, "run_experiment", lambda cfg: pytest.fail("a value ran"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(T=4, output_dir=5)))
    rc = cli_main(["sweep", "--config", str(cfg_path), "--param", "T", "--values", "3,4"])
    assert rc == 2 and "output_dir" in capsys.readouterr().err


def test_sweep_rejects_unknown_parameter():
    cfg = ExperimentConfig.from_dict(_base_config())
    with pytest.raises(ConfigError, match="cannot sweep"):
        sweep(cfg, "learning_rate", [0.1])


def test_sweep_sigma_regret_grows_as_smoothness_shrinks():
    """Declared sigma drives the schedule; with p = mu the data stay fixed per
    seed, so the sweep isolates the 1/sqrt(sigma) parameter scaling."""
    cfg = ExperimentConfig.from_dict(_base_config(
        adversary={"kind": "iid", "p": "mu",
                   "labels": {"rule": "noisy_comparator", "threshold": 0.5,
                              "flip_prob": 0.1}},
        T=300, seeds=list(range(10)), ground={"type": "grid", "atoms": 64},
        **{"class": {"type": "thresholds", "m": 16}},
    ))
    summaries = sweep(cfg, "sigma", [1.0, 0.5, 0.1])
    finals = np.array([[r["final_regret"] for r in s["per_seed"]] for s in summaries])
    means = finals.mean(axis=1)
    assert means[0] <= means[1] + 1e-9 <= means[2] + 2e-9
    per_seed_trend = sum(finals[0, i] <= finals[2, i] + 1e-9 for i in range(10))
    assert per_seed_trend >= 8


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def test_cli_run_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(T=4, output_dir=str(tmp_path / "out"))))
    rc = cli_main(["run", "--config", str(cfg_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "aggregate" in payload
    assert (tmp_path / "out" / "trace_seed0.csv").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(_base_config(learner={"name": "nope"})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, names", [
    ("run", "bandit_small.json", ("no field 'learner'", "`smoothol bandit` config")),
    ("sweep", "bandit_small.json", ("no field 'learner'", "`smoothol bandit` config")),
    ("bandit", "thresholds_iid.json", ("no field 'K'", "`smoothol run` config")),
    ("run", "thresholds_iid.json without loss", ("no field 'loss'",)),
    ("bandit", "bandit_small.json without sigma", ("no field 'sigma'",)),
])
def test_cli_config_error_names_the_missing_field(tmp_path, capsys, command, config, names):
    """A config that lacks a field exits 2 naming it, and says when the config is one of
    the other command's."""
    name, _, missing = config.partition(" without ")
    raw = json.loads((ROOT / "configs" / name).read_text())
    raw.pop(missing, None)
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(raw))
    sweep_args = ["--param", "T", "--values", "5"] if command == "sweep" else []
    assert cli_main([command, "--config", str(cfg_path), *sweep_args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    for text in names:
        assert text in err, err
    assert ("smoothol" in err) == (len(names) == 2), err


def _labels(**rule):
    labels = {"rule": "noisy_comparator", "threshold": 0.5, "flip_prob": 0.1, **rule}
    return {"adversary": {"kind": "iid", "p": "tilted", "labels": labels}}


def _case(case_id, overrides, *fields):
    """A config that must exit 2 at load, with the fields its message must name."""
    return pytest.param(overrides, fields, id=case_id)


@pytest.mark.parametrize("overrides, fields", [
    _case("zero-atoms", {"ground": {"type": "grid", "atoms": 0}}, "ground.atoms"),
    _case("relax-linear-absolute", {"learner": {"name": "relax-linear"}, "loss": "absolute"}),
    # +/-1 thresholds leave the [0, 1] square-loss domain
    _case("square-on-thresholds", {"loss": "square"}),
    _case("table-over-one", {"class": {"type": "table", "values": [[0.5] * 15 + [1.5]]}},
          "class.values", "not 1.5 at [0][15]"),
    _case("fractional-atoms", {"ground": {"type": "grid", "atoms": 2.5}}, "ground.atoms"),
    _case("string-atoms", {"ground": {"type": "grid", "atoms": "abc"}}, "ground.atoms"),
    _case("mu-probs-length", {"ground": {"type": "grid", "atoms": 16, "mu_probs": [0.5, 0.5]}},
          "ground.mu_probs", "(16,)"),
    _case("zero-k", {"learner": {"name": "relax-linear", "k": 0}}, "learner.k"),
    _case("fractional-k", {"learner": {"name": "relax-linear", "k": 2.5}}, "learner.k"),
    _case("string-k", {"learner": {"name": "relax-linear", "k": "x"}}, "learner.k"),
    _case("string-n", {"learner": {"name": "ftpl-dual", "n": "x"}}, "learner.n"),
    _case("string-zeta", {"learner": {"name": "ftpl-cls", "zeta": "x"}}, "learner.zeta"),
    _case("bool-zeta", {"learner": {"name": "ftpl-cls", "zeta": True}}, "learner.zeta"),
    _case("negative-eta", {"learner": {"name": "ftpl-cls", "eta": -1}}, "learner.eta"),
    _case("string-eta", {"learner": {"name": "ftpl-cls", "eta": "x"}}, "learner.eta"),
    _case("numeric-string-eta", {"learner": {"name": "ftpl-cls", "eta": "2"}}, "learner.eta"),
    _case("string-epsilon", {"learner": {"name": "ftpl-dual", "epsilon": "x"}},
          "learner.epsilon"),
    _case("fractional-class-m", {"class": {"type": "thresholds", "m": 2.5}}, "class.m"),
    # thresholds have no point where all f = 0
    _case("rademacher-gap-on-thresholds", {"adversary": {"kind": "rademacher_gap"}}),
    _case("hidden-mu-one-round",
          {"adversary": {"kind": "hidden_mu_threshold"}, "T": 1, "ground": {"type": "interval"}}),
    _case("iid-p-length", {"adversary": {"kind": "iid", "p": [0.5, 0.5]}}, "adversary.p"),
    _case("fractional-T", {"T": 2.5}, "T"),
    _case("fractional-seed", {"seeds": [1.5]}, "seeds"),
    _case("negative-seed", {"seeds": [-1]}, "seeds"),
    _case("int-checkpoints", {"checkpoints": 5}, "checkpoints"),
    _case("string-checkpoint", {"checkpoints": ["a"]}, "checkpoints"),
    _case("zero-checkpoint", {"checkpoints": [0]}, "checkpoints"),
    _case("checkpoint-past-T", {"checkpoints": [11]}, "checkpoints"),  # T + 1
    # sigma = true was 1, the i.i.d. regime
    _case("bool-sigma", {"sigma": True}, "sigma"),
    _case("numeric-string-sigma", {"sigma": "0.5"}, "sigma"),
    _case("string-sigma", {"sigma": "x"}, "sigma"),
    # json writes and reads the NaN and Infinity literals
    _case("nan-mu-probs",
          {"ground": {"type": "grid", "atoms": 16, "mu_probs": [math.nan] + [1 / 15] * 15}},
          "ground.mu_probs"),
    _case("nan-iid-p", {"adversary": {"kind": "iid", "p": [math.nan] + [1 / 15] * 15}},
          "adversary.p"),
    _case("nan-beta", {"adversary": {"kind": "iid", "p": "tilted", "beta": math.nan}},
          "adversary.beta"),
    _case("bool-beta", {"adversary": {"kind": "iid", "p": "tilted", "beta": True}},
          "adversary.beta"),
    _case("string-beta", {"adversary": {"kind": "iid", "p": "tilted", "beta": "x"}},
          "adversary.beta"),
    _case("nan-eta", {"learner": {"name": "ftpl-cls", "eta": math.nan}}, "learner.eta"),
    _case("infinite-zeta", {"learner": {"name": "ftpl-cls", "zeta": math.inf}}, "learner.zeta"),
    _case("infinite-epsilon", {"learner": {"name": "ftpl-dual", "epsilon": math.inf}},
          "learner.epsilon"),
    _case("nan-flip-prob", _labels(flip_prob=math.nan), "adversary.labels.flip_prob"),
    _case("flip-prob-above-one", _labels(flip_prob=3.0), "adversary.labels.flip_prob"),
    # flip_prob = true flipped every label
    _case("bool-flip-prob", _labels(flip_prob=True), "adversary.labels.flip_prob"),
    _case("string-flip-prob", _labels(flip_prob="x"), "adversary.labels.flip_prob"),
    _case("nan-threshold", _labels(threshold=math.nan), "adversary.labels.threshold"),
    _case("string-threshold", _labels(threshold="x"), "adversary.labels.threshold"),
    _case("numeric-string-threshold", _labels(threshold="0.3"), "adversary.labels.threshold"),
    _case("fractional-adversary-m", _rademacher_gap(2.5), "adversary.m"),
    _case("string-adversary-m", _rademacher_gap("2"), "adversary.m"),
    # on an all-zero table, sign * 0 >= scale / 2 held for every sign pattern: it ran to exit 0
    _case("zero-scale-on-a-zero-table", _zero_table_gap(0), "adversary.scale"),
    _case("negative-scale-on-a-zero-table", _zero_table_gap(-1), "adversary.scale"),
    # about 2e300 label-grid points: refused before the grid is built
    _case("tiny-epsilon-ftpl-single", {"learner": {"name": "ftpl-single", "epsilon": 1e-300}},
          "epsilon = 1e-300"),
    # n = ceil(T / sqrt(sigma)) FTPL anchors pass 2^63 - 1
    _case("tiny-sigma-ftpl-anchors", {"sigma": 1e-40}, "sigma"),
    # (T - 1) * k playout draws do
    _case("tiny-sigma-relax-playout", {"learner": {"name": "relax-linear"}, "sigma": 1e-40}),
    # sqrt(T / sigma) is infinite
    _case("subnormal-sigma-ftpl-dual", {"learner": {"name": "ftpl-dual"}, "sigma": 5e-324},
          "sigma"),
    # so is 3 log(T) / sigma
    _case("subnormal-sigma-relax-linear", {"learner": {"name": "relax-linear"}, "sigma": 5e-324},
          "sigma"),
    _case("subnormal-sigma-relax-general",
          {"learner": {"name": "relax-general"}, "sigma": 5e-324}, "sigma"),
    _case("subnormal-sigma-ftpl-cls", {"sigma": 5e-324}, "sigma"),  # the ftpl-cls eta is infinite
    # n passes 2^63 - 1
    _case("subnormal-sigma-ftpl-single", {"learner": {"name": "ftpl-single"}, "sigma": 5e-324},
          "sigma"),
    _case("list-labels", {"adversary": {"kind": "iid", "labels": [1]}}, "adversary.labels"),
    # a grid's class is a table over atom ids, the adversary emits coordinates
    _case("hidden-mu-on-grid", {"adversary": {"kind": "hidden_mu_threshold"}},
          "adversary.kind", "ground.type"),
    # the tilt step e^beta overflows, or underflows to 0
    _case("huge-beta", {"adversary": {"kind": "iid", "p": "tilted", "beta": 1e6}},
          "adversary.beta"),
    _case("huge-negative-beta", {"adversary": {"kind": "iid", "p": "tilted", "beta": -1e6}},
          "adversary.beta"),
    # e^(beta i) underflows to 0 past the fourth atom, and four caps hold half the mass
    _case("underflowing-tilt", {"adversary": {"kind": "iid", "p": "tilted", "beta": -200}},
          "adversary.beta"),
    _case("nan-p", {"learner": {"name": "ftpl-dual", "p": math.nan}}, "learner.p"),
    _case("infinite-p", {"learner": {"name": "ftpl-dual", "p": math.inf}}, "learner.p"),
    _case("negative-infinite-p", {"learner": {"name": "ftpl-dual", "p": -math.inf}}, "learner.p"),
    _case("bool-p", {"learner": {"name": "ftpl-dual", "p": True}}, "learner.p"),
    # a field the named learner does not read
    _case("eta-on-relax-linear", {"learner": {"name": "relax-linear", "eta": 5}},
          "learner.eta", "relax-linear"),
    _case("n-on-relax-linear", {"learner": {"name": "relax-linear", "n": 3}}, "learner.n"),
    _case("zeta-on-relax-general", {"learner": {"name": "relax-general", "zeta": 0.5}},
          "learner.zeta"),
    _case("k-on-ftpl-cls", {"learner": {"name": "ftpl-cls", "k": 7}}, "learner.k", "ftpl-cls"),
    _case("m-on-ftpl-cls", {"learner": {"name": "ftpl-cls", "m": 7}}, "learner.m"),
    _case("epsilon-on-ftpl-cls", {"learner": {"name": "ftpl-cls", "epsilon": 0.5}},
          "learner.epsilon"),
    _case("k-on-ftpl-dual", {"learner": {"name": "ftpl-dual", "k": 7}}, "learner.k"),
    # p sets only the schedule values that the config gives
    _case("p-beside-every-value-it-sets", {"learner": {"name": "ftpl-dual", "p": 3.0, "eta": 2.0,
                                                       "n": 4, "m": 4, "epsilon": 0.5}},
          "learner.p"),
    # the single variant's eta is sqrt(n), and the Rademacher gap builds its own mu
    _case("eta-on-ftpl-single", {"learner": {"name": "ftpl-single", "eta": 5.0}},
          "learner.eta", "ftpl-single"),
    _case("mu-probs-under-rademacher-gap",
          {**_rademacher_gap(2), "ground": {"type": "grid", "atoms": 3,
                                            "mu_probs": [0.5, 0.25, 0.25]}},
          "ground.mu_probs", "rademacher_gap"),
    _case("p-on-ftpl-single", {"learner": {"name": "ftpl-single", "p": 3.0}}, "learner.p"),
    _case("m-on-ftpl-single", {"learner": {"name": "ftpl-single", "m": 7}}, "learner.m"),
    _case("unknown-learner-field", {"learner": {"name": "ftpl-dual", "lr": 0.1}}, "learner.lr"),
    # a field that the section's kind does not read, or a key that no config reads
    _case("m-and-scale-on-iid",
          {"adversary": {"kind": "iid", "p": "tilted", "m": 3, "scale": 2.0}}, "adversary.m"),
    _case("beta-with-p-mu", {"adversary": {"kind": "iid", "p": "mu", "beta": 5.0}},
          "adversary.beta"),
    _case("threshold-on-rademacher-labels",
          {"adversary": {"kind": "iid", "labels": {"rule": "rademacher", "threshold": 0.3}}},
          "adversary.labels.threshold"),
    _case("top-level-typo", {"chekpoints": [1]}, "chekpoints"),
    _case("ground-typo", {"ground": {"type": "grid", "atom": 8}}, "ground.atom"),
    _case("H-on-thresholds", {"class": {"type": "thresholds", "H": 9}}, "class.H"),
    _case("labels-on-hidden-mu",
          {"adversary": {"kind": "hidden_mu_threshold", "labels": {"rule": "rademacher"}},
           "ground": {"type": "interval"}}, "adversary.labels"),
    _case("random-product-in-a-run", {"class": {"type": "random_product", "H": 4}}, "class.type"),
    _case("null-labels", {"adversary": {"kind": "iid", "labels": None}}, "adversary.labels"),
    # density 4 on the first of 4 uniform atoms, against the cap 1/sigma = 2
    _case("p-above-the-density-cap", {"ground": {"type": "grid", "atoms": 4},
                                      "adversary": {"kind": "iid", "p": [1, 0, 0, 0]}},
          "adversary.p", "sigma = 0.5", "density 4 ", "1/sigma = 2"),
    _case("p-summing-to-eight", {"adversary": {"kind": "iid", "p": [0.5] * 16}}, "adversary.p"),
    _case("string-in-p", {"adversary": {"kind": "iid", "p": ["a"] + [1 / 15] * 15}},
          "adversary.p"),
    _case("p-on-the-interval", {"adversary": {"kind": "iid", "p": [1.0]},
                                "ground": {"type": "interval"}}, "adversary.p"),
    _case("bool-mu-probs", {"ground": {"type": "grid", "atoms": 2, "mu_probs": [True, False]}},
          "ground.mu_probs"),
    _case("bool-in-table-values",
          {"class": {"type": "table", "values": [[True] + [1.0] * 15, [-1.0] * 16]}},
          "class.values"),
    _case("ragged-table-values", {"class": {"type": "table", "values": [[1.0] * 16, [1.0]]}},
          "class.values", "(H, 16)"),
    _case("number-output-dir", {"output_dir": 5}, "output_dir"),
    # dict() would read a list of pairs as an object
    _case("learner-as-pairs", {"learner": [["name", "ftpl-cls"]]}, "learner must be an object"),
    _case("learner-as-a-list", {"learner": [1]}, "learner must be an object"),
])
def test_cli_config_errors_known_at_load_exit_2(tmp_path, capsys, overrides, fields):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(_base_config(**overrides)))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    for field in fields:  # the message names the cause
        assert field in err


# a value for each field of KINDS, named as a config error names it
_FIELD_VALUES = {
    "learner.k": 2, "learner.eta": 2.0, "learner.n": 4, "learner.m": 4, "learner.epsilon": 0.5,
    "learner.zeta": 0.0, "learner.p": 1.0, "adversary.p": "tilted", "adversary.beta": 0.35,
    "adversary.labels": {"rule": "adversarial_flip"}, "adversary.m": 2, "adversary.scale": 2.0,
    "adversary.labels.threshold": 0.5, "adversary.labels.flip_prob": 0.1, "class.m": 8,
    "class.values": [[1.0] * 16, [-1.0] * 16], "class.H": 3, "ground.atoms": 16,
    "ground.mu_probs": [1 / 16] * 16,
}
# a bandit config that sets every top-level key
_FULL_BANDIT = {"K": 2, "T": 4, "sigma": 0.5, "seeds": [0], "regressor": "relax-general", "k": 2,
                "ground": {"atoms": 4}, "class": {"type": "random_product", "H": 3},
                "class_seed": 7, "f_star_index": 0, "gamma": 10.0, "output_dir": None}


def _kind_base(kind):
    """(bandit, raw config) on which kind loads: what it needs elsewhere in the config."""
    if kind in ("bandit", "random_product"):
        return True, json.loads(json.dumps(_FULL_BANDIT))
    return False, _base_config(T=4, checkpoints=[2], output_dir=None, **{
        "hidden_mu_threshold": {"ground": {"type": "interval"}},
        "interval": {"adversary": {"kind": "iid", "p": "mu"}},
        "rademacher_gap": _rademacher_gap(2)}.get(kind, {}))


@pytest.mark.parametrize("section, kind", [
    pytest.param(section, kind, id=f"{section or 'top'}-{kind}")
    for section, (_, _, kinds) in KINDS.items() for kind in kinds])
def test_each_kind_loads_with_every_field_it_reads(section, kind):
    key, _, kinds = KINDS[section]
    bandit, raw = _kind_base(kind)
    if not section:  # the base sets every top-level key
        assert sorted(raw) == sorted(kinds[kind].split())
        ExperimentConfig.from_dict(raw, bandit=bandit)
        return
    # p sets eta, n, m and epsilon, and is refused beside all four: it loads without eta
    for left_out in {"ftpl-dual": ("p", "eta")}.get(kind, (None,)):
        spec = {key: kind, **{f: _FIELD_VALUES[f"{section}.{f}"] for f in kinds[kind].split()
                              if f != left_out}}
        *parents, last = section.split(".")
        target = raw
        for part in parents:
            target = target[part]
        target[last] = spec
        loaded = ExperimentConfig.from_dict(raw, bandit=bandit).to_dict()
        for part in section.split("."):
            loaded = loaded[part]
        assert loaded == spec


# a second value of each field, beside _FIELD_VALUES's or the base config's; top-level
# fields are named "command.field"
_OTHER_VALUES = {
    "learner.k": 3, "learner.eta": 50.0, "learner.n": 9, "learner.m": 9, "learner.epsilon": 1.0,
    "learner.zeta": 0.5, "learner.p": 2.0, "adversary.p": "mu", "adversary.beta": -1.0,
    "adversary.labels": {"rule": "rademacher"}, "adversary.m": 1,
    "adversary.labels.threshold": -1.5, "adversary.labels.flip_prob": 0.9, "class.m": 2,
    "class.values": [[1.0] * 8 + [-1.0] * 8, [-1.0] * 16], "class.H": 2, "ground.atoms": 12,
    "ground.mu_probs": [1 / 8] * 4 + [1 / 24] * 12,
    "run.learner": {"name": "relax-linear"}, "run.adversary": {"kind": "adaptive_mixture"},
    "run.class": {"type": "thresholds", "m": 2}, "run.loss": "scaled_square", "run.T": 7,
    "run.sigma": 0.25, "run.seeds": [1], "run.ground": {"type": "grid", "atoms": 12},
    "run.checkpoints": [3],
    "bandit.K": 3, "bandit.T": 7, "bandit.sigma": 0.25, "bandit.seeds": [1],
    "bandit.regressor": "ftpl-dual", "bandit.k": 3, "bandit.ground": {"atoms": 5},
    "bandit.class": {"type": "random_product", "H": 2}, "bandit.class_seed": 8,
    "bandit.f_star_index": 1, "bandit.gamma": 1.0,
}
# what a field needs beside it for its effect to show in 8 rounds: ftpl-dual's omega, at
# its default eta, outweighs the omega' that epsilon's label grid sets
_BESIDE = {"learner.epsilon-ftpl-dual": {"eta": 0.0}}
# every value ftpl-dual's p sets: beside all four, p changes nothing, and the loader refuses it
_P_SETS = {"eta": 2.0, "n": 4, "m": 4, "epsilon": 0.5}
# the fields whose value is no part of the run, and why the loader takes them
_NOT_THE_RUN = {"output_dir": "it says where the outputs go",
                "adversary.scale": "it sets the shattering check, not the draws"}


def _set(raw, path, value):
    """raw with the field at path set to value (raw itself, changed in place)."""
    spec = raw
    for part in path[:-1]:
        spec = spec.setdefault(part, {})
    spec[path[-1]] = value
    return raw


def _field_cases():
    """(command, config, path, value, other value) for each field KINDS lets a kind read, on
    its kind's base at T = 8 with four seeds.  Where what a field does hangs on another
    section's kind (a bandit's k on its regressor, its class_seed on its class, a grid's
    mu_probs on the adversary), on each such kind, where the loader may refuse it instead."""
    elsewhere = ("k", "class_seed")  # a bandit's, on each regressor and class type below
    for section, (key, default, kinds) in KINDS.items():
        path = tuple(section.split(".")) if section else ()
        for kind, fields in kinds.items():
            bandit, base = _kind_base(kind)
            base.update(T=8, seeds=[0, 1, 2, 3])
            if not section:
                base = {f: v for f, v in base.items() if f not in elsewhere}
            spec = base
            for part in path:
                spec = spec.get(part, {})
            if section and spec.get(key, default) != kind:
                _set(base, path, {key: kind})
            for f in fields.split():
                name = f"{section or kind}.{f}"
                case = f"{name}-{kind}" if section else name
                if (name if section else f) in (*_NOT_THE_RUN, *elsewhere):
                    continue
                raw = json.loads(json.dumps(base))
                for g, v in _BESIDE.get(case, {}).items():
                    _set(raw, (*path, g), v)
                yield pytest.param("bandit" if bandit else "run", raw, (*path, f),
                                   _FIELD_VALUES.get(name, base.get(f)), _OTHER_VALUES[name],
                                   id=case)
    yield pytest.param("run", {**_kind_base("ftpl-dual")[1], "T": 8, "seeds": [0, 1, 2, 3],
                               "learner": {"name": "ftpl-dual", **_P_SETS}},
                       ("learner", "p"), _FIELD_VALUES["learner.p"], _OTHER_VALUES["learner.p"],
                       id="learner.p-ftpl-dual-beside-all")
    bandit = {f: v for f, v in _FULL_BANDIT.items() if f not in elsewhere}
    bandit.update(T=8, seeds=[0, 1, 2, 3])
    for regressor in NAMED["bandit"]["learner"]:
        yield pytest.param("bandit", {**bandit, "regressor": regressor}, ("k",),
                           _FULL_BANDIT["k"], _OTHER_VALUES["bandit.k"], id=f"bandit.k-{regressor}")
    table = {"type": "table", "values": np.linspace(0, 1, 24).reshape(3, 4, 2).tolist()}
    for klass in (_FULL_BANDIT["class"], table):
        yield pytest.param("bandit", {**bandit, "class": klass}, ("class_seed",),
                           _FULL_BANDIT["class_seed"], _OTHER_VALUES["bandit.class_seed"],
                           id=f"bandit.class_seed-{klass['type']}")
    for adversary in ("adaptive_mixture", "rademacher_gap"):
        base = {**_kind_base(adversary)[1], "T": 8, "seeds": [0, 1, 2, 3]}
        if adversary == "adaptive_mixture":  # the gap's base names its own adversary
            base["adversary"] = {"kind": adversary}
        atoms = base["ground"]["atoms"]
        yield pytest.param("run", base, ("ground", "mu_probs"), [1 / atoms] * atoms,
                           [0.5] + [0.5 / (atoms - 1)] * (atoms - 1),
                           id=f"ground.mu_probs-{adversary}")


def _outputs(command, raw, out):
    """What a config's run writes to out: each trace CSV, and the summary without its wall
    times and its echo of the config."""
    raw = {**raw, "output_dir": str(out)}
    if command == "run":
        run_experiment(ExperimentConfig.from_dict(raw))
    else:
        run_bandit_experiment(raw)
    files = {}
    for path in sorted(out.iterdir()):
        files[path.name] = path.read_text()
        if path.suffix == ".json":
            summary = json.loads(files[path.name])
            for row in summary["per_seed"]:
                row.pop("wall_time_s", None)
            summary["aggregate"].pop("total_wall_time_s", None)
            del summary["config"]
            files[path.name] = summary
    return files


@pytest.mark.parametrize("command, raw, path, value, other", list(_field_cases()))
def test_every_field_the_loader_accepts_changes_the_run(tmp_path, command, raw, path, value,
                                                        other):
    """Two accepted values of a field give two different runs: no field is taken and then
    ignored.  Where another section's kind leaves the field unread, the loader refuses it
    at either value, naming it."""
    runs, refused = [], []
    for i, v in enumerate((value, other)):
        try:
            runs.append(_outputs(command, _set(json.loads(json.dumps(raw)), path, v),
                                 tmp_path / str(i)))
        except ConfigError as exc:
            refused.append(str(exc))
    name = "k is not a field" if path == ("k",) else ".".join(path)
    if refused:
        assert len(refused) == 2 and all(name in err for err in refused), refused
    else:
        assert runs[0] != runs[1], f"{name} = {value!r} and {other!r} give the same run"


def _bandit_table_outside_unit_interval():
    values = np.full((2, 4, 2), 0.5)
    values[1, 0, 0] = 1.5
    return {"ground": {"atoms": 4}, "class": {"type": "table", "values": values.tolist()}}


@pytest.mark.parametrize("overrides, fields", [
    _case("fractional-atoms", {"ground": {"atoms": 4.7}}, "ground.atoms"),
    # a bandit's k is its regressor's playout width
    _case("string-k", {"regressor": "relax-general", "k": "x"}, "k must be an integer"),
    _case("negative-gamma", {"gamma": -3}, "gamma"),
    _case("bool-gamma", {"gamma": True}, "gamma"),
    _case("numeric-string-gamma", {"gamma": "3"}, "gamma"),
    _case("bool-sigma", {"sigma": True}, "sigma"),
    _case("string-sigma", {"sigma": "x"}, "sigma"),
    _case("string-seed", {"seeds": ["a"]}, "seeds"),
    _case("zero-K", {"K": 0}, "K"),
    _case("zero-H", {"class": {"type": "random_product", "H": 0}}, "class.H"),
    _case("f-star-index-out-of-range", {"f_star_index": 9}, "f_star_index"),
    _case("fractional-f-star-index", {"f_star_index": 1.5}, "f_star_index"),
    _case("class-outside-unit-interval", _bandit_table_outside_unit_interval(),
          "class.values", "not 1.5 at [1][0][0]"),
    _case("interval-ground", {"ground": {"type": "interval", "atoms": 8}}, "ground.type"),
    _case("m-on-random-product", {"class": {"type": "random_product", "H": 4, "m": 9}},
          "class.m"),
    _case("loss", {"loss": "linear"}, "loss"),
    _case("thresholds-class", {"class": {"type": "thresholds", "m": 8}}, "class.type"),
    _case("ftpl-cls-regressor", {"regressor": "ftpl-cls"}, "regressor", "relax-general"),
    # ftpl-dual has no playout width, and a table class is drawn from no seed
    _case("k-on-ftpl-dual", {"regressor": "ftpl-dual", "k": 7},
          "k is not a field of regressor 'ftpl-dual'", "only the relax-general regressor"),
    _case("class-seed-on-a-table", {"ground": {"atoms": 2}, "class_seed": 7,
                                    "class": {"type": "table", "values": [[[0.5] * 2] * 2]}},
          "class_seed", "random_product"),
    _case("number-output-dir", {"output_dir": 5}, "output_dir"),
    _case("class-as-pairs", {"class": [["type", "table"]]}, "class must be an object"),
    _case("ground-as-pairs", {"ground": [["atoms", 4]]}, "ground must be an object"),
    _case("bool-in-table-values",
          {"ground": {"atoms": 2}, "class": {"type": "table", "values": [[[True, 0.5]] * 2]}},
          "class.values"),
    _case("table-values-of-the-wrong-shape",
          {"ground": {"atoms": 2}, "class": {"type": "table", "values": [[[0.5] * 3] * 2]}},
          "class.values", "(H, 2, 2)"),
])
def test_cli_bandit_config_errors_exit_2(tmp_path, capsys, monkeypatch, overrides, fields):
    from smoothol import bandit

    def no_rounds(*args, **kwargs):
        raise AssertionError("a bandit round ran on a bad config")

    monkeypatch.setattr(bandit, "run_square_cb", no_rounds)
    cfg_path = tmp_path / "bandit.json"
    cfg_path.write_text(json.dumps({"K": 2, "sigma": 0.5, "T": 12, "seeds": [0], **overrides}))
    assert cli_main(["bandit", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    for field in fields:  # the message names the cause
        assert field in err
    assert "learner." not in err  # a bandit config has no learner section: its k is top-level


# ---------------------------------------------------------------------------
# config fuzzer: every row of harness.NUMBERS, one field at a time
# ---------------------------------------------------------------------------

_FUZZ_RUN = _base_config(T=3, adversary=_labels()["adversary"])
_FUZZ_BANDIT = {"K": 2, "sigma": 0.5, "T": 3, "seeds": [0], "ground": {"atoms": 4}}


def _kinds_reading(command, section, key):
    """The kinds of section that command may name and that read key, in the table's order."""
    kinds = KINDS[section][2]
    return [kind for kind in NAMED[command].get(section, kinds) if key in kinds[kind].split()]


def _raw_path(command, section, key):
    """Where a table row sits in a raw run or bandit config; None where that config has none."""
    if section in ("", "bandit"):
        return (key,) if key in KINDS[""][2][command].split() else None
    if command == "bandit" and section not in ("class", "ground"):
        return None  # the bandit mapping fixes the rest; its k is read by relax-general only
    return (*section.split("."), key)


def _field_name(row):
    section, key = row[:2]
    return key if section in ("", "bandit") else f"{section}.{key}"


_FUZZ_FIELDS = [
    pytest.param(command, row, path, id=f"{command}-{_field_name(row)}")
    for command in ("run", "bandit") for row in NUMBERS
    if (path := _raw_path(command, row[0], row[1])) is not None
]


def _run_with(command, path, value):
    """(exit code, stderr) of ``smoothol command`` on the base config with path set to value.

    In a run config, the path's section names the first kind that reads the field."""
    raw = json.loads(json.dumps(_FUZZ_RUN if command == "run" else _FUZZ_BANDIT))
    section = ".".join(path[:-1])
    kinds = _kinds_reading(command, section, path[-1]) if command == "run" and section else []
    if kinds[:1] == ["rademacher_gap"]:  # it needs a class that shatters part of the ground
        raw.update(_rademacher_gap(2))
    spec = raw
    for part in path[:-1]:
        spec = spec.setdefault(part, {})
    if kinds:
        spec[KINDS[section][0]] = kinds[0]
    spec[path[-1]] = [value] if path[-1] in ("seeds", "checkpoints") else value
    return _exit_of(command, raw)


def _exit_of(command, raw):
    """(exit code, stderr) of ``smoothol command`` on the config raw."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli_main([command, "--config", str(cfg_path)])  # any other exception fails
    return rc, err.getvalue()


def _past_bounds(low, high, kind):
    """The values just outside each finite bound: one integer out for kind int."""
    past = []
    if low > -math.inf:
        past.append(low - 1 if kind is int else math.nextafter(low, -math.inf))
    if high < math.inf:
        past.append(high + 1 if kind is int else math.nextafter(high, math.inf))
    return past


def _assert_refused(command, row, path, value):
    rc, err = _run_with(command, path, value)
    assert rc == 2, (value, err)
    assert "Traceback" not in err
    assert err.startswith("config error:") and _field_name(row) in err, (value, err)


@pytest.mark.parametrize("command, row, path", _FUZZ_FIELDS)
def test_config_fuzzer_refuses_each_bad_number_naming_its_field(command, row, path):
    low, high, kind = row[2:]
    bad = ["0.5", True, False, math.nan, math.inf, -math.inf, [], {}]
    bad += _past_bounds(low, high, kind) + ([max(low, 0) + 0.5] if kind is int else [])
    for value in bad:
        _assert_refused(command, row, path, value)
    # an in-range value still runs, and an integer field takes an integral float, where a kind
    # of the command reads the field (class.H on a run and class.m on a bandit are refused)
    in_range = min(max(1, low), high)
    in_range = float(in_range) if kind is int else in_range
    if len(path) == 1 or _kinds_reading(command, ".".join(path[:-1]), path[-1]):
        assert _run_with(command, path, in_range)[0] == 0
    else:
        _assert_refused(command, row, path, in_range)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(field=st.sampled_from([p.values for p in _FUZZ_FIELDS]), data=st.data())
def test_config_fuzzer_refuses_drawn_strings_and_out_of_range_numbers(field, data):
    command, row, path = field
    low, high, kind = row[2:]
    bad = [st.text(max_size=4), st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf])]
    if low > -math.inf:
        bad += [st.floats(max_value=math.nextafter(low, -math.inf), allow_infinity=False),
                st.integers(max_value=math.ceil(low) - 1)]
    if high < math.inf:
        bad += [st.floats(min_value=math.nextafter(high, math.inf), allow_infinity=False),
                st.integers(min_value=math.floor(high) + 1)]
    if kind is int:  # a fraction in range
        bad.append(st.floats(max(low, 0), 1e15).filter(lambda v: not v.is_integer()))
    _assert_refused(command, row, path, data.draw(st.one_of(bad)))


# ---------------------------------------------------------------------------
# config fuzzer: the array fields, one mutation at a time
# ---------------------------------------------------------------------------

# (command, field, its section's other keys in the fuzz base config, a valid value, low, high)
_ARRAYS = [
    ("run", "class.values", {"type": "table"}, [[1.0] * 16, [-1.0] * 8 + [1.0] * 8], -1, 1),
    ("run", "ground.mu_probs", {"type": "grid", "atoms": 16}, [1 / 16] * 16, 0, 1),
    ("run", "adversary.p", {"kind": "iid", "labels": {"rule": "rademacher"}}, [1 / 16] * 16, 0, 1),
    ("bandit", "class.values", {"type": "table"}, [[[0.5, 1.0]] * 4, [[0.0, 0.25]] * 4], 0, 1),
    ("bandit", "ground.mu_probs", {"atoms": 4}, [0.25] * 4, 0, 1),
]


def _replaced(value, index, leaf):
    """A copy of the nested lists value with the number at index replaced by leaf."""
    out = json.loads(json.dumps(value))
    row = out
    for i in index[:-1]:
        row = row[i]
    row[index[-1]] = leaf
    return out


def _short(value):
    """value with every innermost list one number short."""
    return [_short(row) for row in value] if isinstance(value[0], list) else value[:-1]


def _array_mutations(valid, low, high):
    """(mutation, the entry and index its message must end with, or None) of the array valid."""
    shape = np.shape(valid)
    first, last = (0,) * len(shape), tuple(n - 1 for n in shape)
    number = np.array(valid)[first]
    yield [], None
    yield {}, None  # an object where the list belongs
    yield _replaced(valid, first, [number]), None  # a list where a number belongs
    yield _replaced(valid, first, {"x": number}), None  # an object where a number belongs
    yield _short(valid), None
    yield ([_short(valid[0])] + valid[1:]) if len(shape) > 1 else valid + [[number]], None  # ragged
    for index in (first, last):
        for bad in (low - 0.5, math.nextafter(low, -math.inf), high + 1,
                    math.nextafter(high, math.inf)):
            at = "".join(f"[{i}]" for i in index)
            yield _replaced(valid, index, bad), f"not {bad!r} at {at}"


@pytest.mark.parametrize("command, field, section, valid, low, high", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in _ARRAYS])
def test_config_fuzzer_refuses_each_bad_array_naming_its_field(command, field, section,
                                                               valid, low, high):
    base = _FUZZ_RUN if command == "run" else _FUZZ_BANDIT
    name, key = field.split(".")
    assert _exit_of(command, {**base, name: {**section, key: valid}}) == (0, "")
    rc, err = _exit_of(command, {**base, name: [section, valid]})  # a list where an object belongs
    assert rc == 2 and err.startswith("config error:") and f"{name} must be an object" in err, err
    for value, entry in _array_mutations(valid, low, high):
        rc, err = _exit_of(command, {**base, name: {**section, key: value}})
        assert rc == 2 and "Traceback" not in err, (value, err)
        assert err.startswith("config error:") and field in err, (value, err)
        if entry is not None:  # out of range: the message names the bounds and the entry
            assert f"must lie in [{low}, {high}]" in err and err.rstrip().endswith(entry), err


# a bandit config sets its top level, class and ground; the mapping fixes its other sections
@pytest.mark.parametrize("command, section", [
    pytest.param(command, section, id=f"{command}-{section or 'top'}")
    for command in ("run", "bandit") for section in KINDS
    if command == "run" or section in ("", "class", "ground")])
def test_config_fuzzer_refuses_an_unknown_key_naming_it(command, section):
    rc, err = _run_with(command, (*section.split("."), "colour") if section else ("colour",), 1)
    assert rc == 2 and "Traceback" not in err
    assert err.startswith("config error:") and f"{section}.colour".lstrip(".") in err, err


# ---------------------------------------------------------------------------
# config fuzzer: configs drawn from the tables run on the paper's budget or are refused
# ---------------------------------------------------------------------------

# drawn numbers stay in these ranges (within each row's bounds), so that every run is small
_CAPS = {"T": (1, 25), "seeds": (0, 99), "sigma": (0.05, 1.0),
         "atoms": (1, 40), "m": (1, 8), "H": (1, 8), "k": (1, 8), "n": (1, 40),
         "eta": (0.0, 4.0), "epsilon": (0.05, 1.0), "zeta": (0.0, 0.2), "p": (-2.0, 2.0),
         "beta": (-2.0, 2.0), "scale": (0.1, 2.0), "threshold": (-1.5, 1.5),
         "flip_prob": (0.0, 1.0), "K": (1, 3), "class_seed": (0, 99), "gamma": (0.1, 100.0)}
_LIPSCHITZ = {"linear": 0.5, "absolute": 0.5, "square": 2.0, "scaled_square": 1.0}


def _draw_number(rng, section, key):
    """A value for the NUMBERS row (section, key): a bound, or a draw between the caps."""
    low, high, kind = next(row[2:] for row in NUMBERS if row[:2] == (section, key))
    lo, hi = max(low, _CAPS[key][0]), min(high, _CAPS[key][1])
    if kind is int:
        return int(rng.integers(lo, hi + 1))
    return float(rng.choice([lo, hi])) if rng.random() < 0.2 else float(rng.uniform(lo, hi))


def _draw_spec(rng, section, kind):
    """A section naming ``kind``, with each number it reads set at even odds."""
    spec = {KINDS[section][0]: kind}
    for key in KINDS[section][2][kind].split():
        if rng.random() < 0.5 and any(row[:2] == (section, key) for row in NUMBERS):
            spec[key] = _draw_number(rng, section, key)
    return spec


def _draw_run(rng):
    """A run config of every kind the tables name, and its oracle calls per round.  The
    ground follows the adversary where only one type serves it, and a table class needs a
    grid; every other combination is drawn, and some of them are refused."""
    pick = lambda section, kinds=None: str(rng.choice(kinds or list(KINDS[section][2])))
    adversary = _draw_spec(rng, "adversary", pick("adversary"))
    ground = {"hidden_mu_threshold": "interval", "adaptive_mixture": "grid",
              "rademacher_gap": "grid"}.get(adversary["kind"]) or pick("ground")
    ground = _draw_spec(rng, "ground", ground)
    if ground["type"] == "grid":
        ground["atoms"] = _draw_number(rng, "ground", "atoms")
        klass = {"type": "table" if adversary["kind"] == "rademacher_gap"
                 else pick("class", NAMED["run"]["class"])}
    else:
        klass = {"type": "thresholds"}
    if klass["type"] == "thresholds":
        klass["m"] = _draw_number(rng, "class", "m")
    else:  # binary or real values on the grid's atoms; the Rademacher gap's x* is atom 0
        values = rng.uniform(-1.0, 1.0, (_draw_number(rng, "class", "H"), ground["atoms"]))
        values = np.sign(values) if rng.random() < 0.5 else values
        if adversary["kind"] == "rademacher_gap":
            values[:, 0] = 0.0
        klass["values"] = values.tolist()
    if "labels" in KINDS["adversary"][2][adversary["kind"]].split() and rng.random() < 0.8:
        adversary["labels"] = _draw_spec(rng, "adversary.labels", pick("adversary.labels"))
    if adversary["kind"] == "iid" and ("beta" in adversary or rng.random() < 0.5):
        adversary["p"] = "tilted"  # refused on the interval
    learner, loss = pick("learner"), pick("learner", list(LOSSES))
    T = _draw_number(rng, "", "T")
    spec = _draw_spec(rng, "learner", learner)
    raw = {"learner": spec, "adversary": adversary, "class": klass, "loss": loss, "T": T,
           "sigma": _draw_number(rng, "", "sigma"), "seeds": [_draw_number(rng, "", "seeds")],
           "ground": ground}
    if rng.random() < 0.2:
        raw["checkpoints"] = [int(rng.integers(1, T + 1))]
    budget = {"relax-linear": 2, "relax-general": _labels_per_round(_LIPSCHITZ[loss], T)}
    return raw, budget.get(learner, 1)


def _labels_per_round(L, T):
    """|S|, the relaxation's label grid: max(2, ceil(2 L sqrt(T)))."""
    return max(2, math.ceil(2.0 * L * math.sqrt(T) - 1e-9))


def _draw_bandit(rng, regressor, K):
    """A bandit config with this regressor and K actions, and its oracle calls per round."""
    T, atoms = _draw_number(rng, "", "T"), _draw_number(rng, "ground", "atoms")
    raw = {"K": K, "T": T, "sigma": _draw_number(rng, "", "sigma"), "regressor": regressor,
           "seeds": [_draw_number(rng, "", "seeds")], "ground": {"atoms": atoms}}
    if rng.random() < 0.5:
        raw["class"] = {"type": "random_product", "H": _draw_number(rng, "class", "H")}
    else:
        raw["class"] = {"type": "table", "values": rng.random(
            (_draw_number(rng, "class", "H"), atoms, K)).tolist()}
    # k only where the regressor has a playout width, class_seed only where it draws the class
    for section, key, read in (("learner", "k", regressor == "relax-general"),
                               ("bandit", "class_seed", raw["class"]["type"] == "random_product"),
                               ("bandit", "gamma", True)):
        if read and rng.random() < 0.5:
            raw[key] = _draw_number(rng, section, key)
    if rng.random() < 0.5:  # an index past H is refused
        raw["f_star_index"] = int(rng.integers(0, 5))
    return raw, 1 if regressor == "ftpl-dual" else K * _labels_per_round(2.0, T)


def _draws():
    """(command, raw config, oracle calls per round): 200 run configs, then 6 bandit configs
    for each regressor and K in {1, 2, 3}; the same draws at every call."""
    rng = np.random.default_rng(2025)
    for _ in range(200):
        yield ("run", *_draw_run(rng))
    for regressor in NAMED["bandit"]["learner"]:
        for K in (1, 2, 3):
            for _ in range(6):
                yield ("bandit", *_draw_bandit(rng, regressor, K))


def test_config_fuzzer_runs_drawn_configs_on_the_paper_oracle_budget():
    """Each drawn config exits 2 with a config error, or exits 0 silently having made exactly
    its oracle calls per round: 2 for relax-linear, |S| for relax-general and 1 for FTPL, and
    for a bandit 1 (ftpl-dual) or K |S| at L = 2 (relax-general).  None exits 1 or 3, and
    none raises a RuntimeWarning."""
    ran = {"run": 0, "bandit": 0}
    for command, raw, per_round in _draws():
        with tempfile.TemporaryDirectory() as out:
            rc, err = _exit_of(command, {**raw, "output_dir": out})
            assert rc in (0, 2), (raw, rc, err)
            if rc == 2:
                assert err.startswith("config error:") and "Traceback" not in err, (raw, err)
                continue
            assert err == "", (raw, err)
            name = "summary.json" if command == "run" else "bandit_summary.json"
            summary = json.loads((Path(out) / name).read_text())
        assert [row["oracle_calls"] for row in summary["per_seed"]] == \
            [per_round * raw["T"]] * len(raw["seeds"]), raw
        ran[command] += 1
    assert ran["run"] >= 60 and ran["bandit"] >= 24, ran  # the draws reach the rounds


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_each_shipped_config_runs(tmp_path, capsys, path):
    raw = json.loads(path.read_text())
    raw.update(T=5, seeds=raw["seeds"][:1], output_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / path.name
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["bandit" if "K" in raw else "run", "--config", str(cfg_path)]) == 0, \
        capsys.readouterr().err
    assert any((tmp_path / "out").iterdir())


def test_readme_names_every_kind_and_field_of_the_table():
    words = set(re.findall(r"[\w-]+", (ROOT / "README.md").read_text()))
    for section, (key, _, kinds) in KINDS.items():
        for kind, fields in kinds.items():
            missing = {kind, *fields.split(), *([key] if key else [])} - words
            assert not missing, (section, kind, missing)


def test_cli_couple_test(capsys):
    rc = cli_main(["couple-test", "--sigma", "0.5", "--k", "3",
                   "--trials", "2000", "--seed", "1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert {"x_marginal_pvalue", "z_marginal_pvalue", "miss_rate", "bound"} <= set(report)


def test_cli_refuses_an_ftpl_label_grid_too_large_to_build(tmp_path):
    """``"epsilon": 1e-10`` asks for about 2e10 label points; the load counts them before
    building any and exits 2.  Run in a child limited to 1.5 GB of address space, so a grid
    built anyway ends in a MemoryError there instead of filling the host's memory."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(learner={"name": "ftpl-dual", "epsilon": 1e-10})))
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1536 << 20,) * 2); "
            "from smoothol.cli import main; sys.exit(main(['run', '--config', sys.argv[1]]))")
    proc = subprocess.run([sys.executable, "-c", code, str(cfg_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "config error: epsilon = 1e-10 makes a label grid of more than 2^22 points" \
        in proc.stderr and not proc.stdout


def test_cli_calls_in_one_process_each_give_their_own_code_and_output(tmp_path, capsys):
    """``main`` builds its parser once per process; each later call still parses its own
    command and arguments, and returns its own exit code and output."""
    run_cfg, bandit_cfg, bad_cfg = (tmp_path / name for name in ("run.json", "bandit.json",
                                                                 "bad.json"))
    run_cfg.write_text(json.dumps(_base_config(T=4)))
    bandit_cfg.write_text(json.dumps({"K": 2, "sigma": 0.5, "T": 6, "seeds": [0],
                                      "ground": {"atoms": 4}}))
    bad_cfg.write_text(json.dumps(_base_config(learner={"name": "nope"})))
    assert cli_main(["run", "--config", str(run_cfg)]) == 0
    out = capsys.readouterr()
    assert "aggregate" in json.loads(out.out) and not out.err
    assert cli_main(["bandit", "--config", str(bandit_cfg)]) == 0
    out = capsys.readouterr()
    assert "per_seed" in json.loads(out.out) and not out.err
    assert cli_main(["run", "--config", str(bad_cfg)]) == 2
    out = capsys.readouterr()
    assert not out.out and "config error" in out.err and "nope" in out.err
    assert cli_main(["couple-test", "--sigma", "0.5", "--k", "3", "--trials", "2000"]) == 0
    out = capsys.readouterr()
    assert "miss_rate" in json.loads(out.out) and not out.err
    assert build_parser() is build_parser()


# with the default beta = 0.35, the tilt e^(beta i) overflows past atom 2028;
# those atoms sit at their cap, and the run goes on without a warning
def test_cli_run_tilted_p_on_a_grid_where_the_tilt_overflows(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(T=4, ground={"type": "grid", "atoms": 2100})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    assert "aggregate" in json.loads(capsys.readouterr().out)


def test_cli_bandit_on_a_grid_where_the_tilt_overflows(tmp_path, capsys):
    cfg_path = tmp_path / "bandit.json"
    cfg_path.write_text(json.dumps({"K": 2, "sigma": 0.5, "T": 12, "seeds": [0],
                                    "ground": {"atoms": 2100}}))
    assert cli_main(["bandit", "--config", str(cfg_path)]) == 0
    assert "per_seed" in json.loads(capsys.readouterr().out)


def test_cli_couple_test_on_a_grid_where_the_tilt_overflows(capsys):
    rc = cli_main(["couple-test", "--sigma", "0.5", "--k", "3", "--atoms", "2100",
                   "--trials", "2000", "--seed", "1"])
    assert rc == 0
    assert "miss_rate" in json.loads(capsys.readouterr().out)


def test_cli_couple_test_without_candidates_always_falls_back(capsys):
    rc = cli_main(["couple-test", "--sigma", "0.5", "--k", "0", "--trials", "2000"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["miss_rate"] == report["bound"] == 1.0
    assert report["z_marginal_pvalue"] == 1.0
    assert report["x_marginal_pvalue"] > 1e-3  # every x is a fallback draw from p


@pytest.mark.parametrize("flags", [
    {"--atoms": "0"},
    {"--sigma": "0"},
    {"--sigma": "1.5"},
    {"--k": "-1"},
    {"--k": "0", "--trials": "10"},
    {"--trials": "0"},
    {"--seed": "-1"},
], ids=["zero-atoms", "zero-sigma", "sigma-above-one", "negative-k", "few-trials-no-k",
        "zero-trials", "negative-seed"])
def test_cli_couple_test_flag_errors_exit_2(capsys, flags):
    args = {"--sigma": "0.5", "--k": "3", "--trials": "2000", **flags}
    assert cli_main(["couple-test", *(part for item in args.items() for part in item)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(T=4)))
    rc = cli_main(["sweep", "--config", str(cfg_path), "--param", "T",
                   "--values", "3,5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "T,seed,final_regret,oracle_calls"


def test_cli_sweep_seeds_value_is_one_seed(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(T=4)))
    rc = cli_main(["sweep", "--config", str(cfg_path), "--param", "seeds",
                   "--values", "12,3"])
    assert rc == 0
    rows = [line.split(",")[:2] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["12", "12"], ["3", "3"]]


@pytest.mark.parametrize("param, values, learner, field", [
    pytest.param("k", "2.5", "relax-linear", "learner.k", id="k-2.5"),
    pytest.param("sigma", "x", "relax-linear", "sigma", id="sigma-x"),
    pytest.param("T", "2.5", "relax-linear", "T", id="T-2.5"),
    pytest.param("seeds", "1.5", "relax-linear", "seeds", id="seeds-1.5"),
    # FTPL has no playout width: each k would run the same config
    pytest.param("k", "1,50", "ftpl-cls", "learner.k", id="k-on-ftpl"),
])
def test_cli_sweep_bad_value_exits_2(tmp_path, capsys, param, values, learner, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(learner={"name": learner}, T=4)))
    rc = cli_main(["sweep", "--config", str(cfg_path), "--param", param, "--values", values])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and field in err


def test_cli_invariant_violation_exit_code(tmp_path, capsys, monkeypatch):
    from smoothol import cli
    from smoothol.harness import InvariantViolation

    def boom(cfg):
        raise InvariantViolation("prediction left [-1, 1]")

    monkeypatch.setattr(cli, "run_experiment", boom)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(T=2)))
    assert cli_main(["run", "--config", str(cfg_path)]) == 3
    assert "invariant violation" in capsys.readouterr().err


def test_cli_bandit(tmp_path, capsys):
    cfg_path = tmp_path / "bandit.json"
    cfg_path.write_text(json.dumps({
        "K": 2, "sigma": 0.5, "T": 12, "seeds": [0],
        "regressor": "ftpl-dual", "ground": {"atoms": 6},
        "class": {"type": "random_product", "H": 3},
    }))
    rc = cli_main(["bandit", "--config", str(cfg_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "per_seed" in payload
