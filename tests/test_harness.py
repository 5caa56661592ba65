import json
import math

import numpy as np
import pytest

from smoothol.cli import main as cli_main
from smoothol.core import ContextBlock, LOSSES
from smoothol.harness import (
    ConfigError,
    ExperimentConfig,
    LEARNER_NAMES,
    build_class,
    build_ground_and_mu,
    rows_to_csv,
    run_experiment,
    run_seed,
    sweep,
    sweep_to_long_csv,
)


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

def test_single_round_single_seed(tmp_path):
    cfg = ExperimentConfig.from_dict(
        _base_config(T=1, seeds=[3], output_dir=str(tmp_path)))
    summary = run_experiment(cfg)
    assert len(summary["per_seed"]) == 1
    csv_path = tmp_path / "trace_seed3.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2  # header + one round
    assert lines[0] == "t,context,label,prediction,instant_loss,cumulative_regret,oracle_calls"
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
    a = run_seed(cfg, 7)
    b = run_seed(cfg, 7)
    assert rows_to_csv(a) == rows_to_csv(b)
    c = run_seed(cfg, 8)
    assert rows_to_csv(a) != rows_to_csv(c)


def test_trace_oracle_accounting_totals():
    cfg = ExperimentConfig.from_dict(_base_config(learner={"name": "relax-linear"}, T=9))
    outcome = run_seed(cfg, 0)
    assert outcome.oracle_calls == outcome.trajectory.oracle_calls[-1] == 2 * 9
    for name in ("ftpl-cls", "ftpl-dual", "ftpl-single"):
        cfg = ExperimentConfig.from_dict(_base_config(learner={"name": name}, T=9))
        outcome = run_seed(cfg, 0)
        assert outcome.oracle_calls == outcome.trajectory.oracle_calls[-1] == 9


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
    outcome = run_seed(cfg, 3)
    klass = build_class(cfg, build_ground_and_mu(cfg)[0])
    loss = LOSSES[cfg.loss]()

    traj = outcome.trajectory
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

    column = [line.split(",")[5] for line in rows_to_csv(outcome).splitlines()[1:]]
    assert column == [repr(r) for r in expected]
    assert outcome.final_regret == expected[-1]
    assert outcome.checkpoint_regrets == {t: expected[t - 1] for t in (1, 7, 25)}
    assert outcome.comparator_range == (float(comparator.min()), float(comparator.max()))


def test_dual_learner_heavy_tail_complexity_regime():
    cfg = ExperimentConfig.from_dict(_base_config(
        learner={"name": "ftpl-dual", "p": 4.0}, T=16))
    outcome = run_seed(cfg, 0)
    assert len(outcome.trajectory) == 16


def test_hidden_mu_config_runs_on_interval_ground():
    cfg = ExperimentConfig.from_dict(_base_config(
        learner={"name": "relax-linear"},
        adversary={"kind": "hidden_mu_threshold"},
        ground={"type": "interval"},
        T=12, sigma=1 / 12, seeds=[0],
    ))
    outcome = run_seed(cfg, 0)
    assert len(outcome.trajectory) == 12


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


def test_rademacher_gap_config():
    cfg = ExperimentConfig.from_dict(_base_config(T=8, **_rademacher_gap(2)))
    outcome = run_seed(cfg, 1)
    assert len(outcome.trajectory) == 8


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
        klass={"type": "thresholds", "m": 16},
        T=300, seeds=list(range(10)), ground={"type": "grid", "atoms": 64},
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


def _labels(**rule):
    labels = {"rule": "noisy_comparator", "threshold": 0.5, "flip_prob": 0.1, **rule}
    return {"adversary": {"kind": "iid", "p": "tilted", "labels": labels}}


@pytest.mark.parametrize("overrides", [
    {"ground": {"type": "grid", "atoms": 0}},
    {"learner": {"name": "relax-linear"}, "loss": "absolute"},
    {"loss": "square"},  # +/-1 thresholds leave the [0, 1] square-loss domain
    {"class": {"type": "table", "values": [[0.5] * 15 + [1.5]]}},
    {"ground": {"type": "grid", "atoms": 2.5}},
    {"ground": {"type": "grid", "atoms": "abc"}},
    {"ground": {"type": "grid", "atoms": 16, "mu_probs": [0.5, 0.5]}},
    {"learner": {"name": "relax-linear", "k": 0}},
    {"learner": {"name": "relax-linear", "k": 2.5}},
    {"learner": {"name": "relax-linear", "k": "x"}},
    {"learner": {"name": "ftpl-dual", "n": "x"}},
    {"learner": {"name": "ftpl-cls", "zeta": "x"}},
    {"learner": {"name": "ftpl-cls", "eta": -1}},
    {"class": {"type": "thresholds", "m": 2.5}},
    {"adversary": {"kind": "rademacher_gap"}},  # thresholds have no point where all f = 0
    {"adversary": {"kind": "hidden_mu_threshold"}, "T": 1},
    {"adversary": {"kind": "iid", "p": [0.5, 0.5]}},
    {"T": 2.5},
    {"seeds": [1.5]},
    {"seeds": [-1]},
    {"checkpoints": 5},
    {"checkpoints": ["a"]},
    {"checkpoints": [0]},
    {"checkpoints": [11]},  # T + 1
    # json writes and reads the NaN and Infinity literals
    {"ground": {"type": "grid", "atoms": 16, "mu_probs": [math.nan] + [1 / 15] * 15}},
    {"adversary": {"kind": "iid", "p": [math.nan] + [1 / 15] * 15}},
    {"adversary": {"kind": "iid", "p": "tilted", "beta": math.nan}},
    {"learner": {"name": "ftpl-cls", "eta": math.nan}},
    {"learner": {"name": "ftpl-cls", "zeta": math.inf}},
    {"learner": {"name": "ftpl-dual", "epsilon": math.inf}},
    _labels(flip_prob=math.nan),
    _labels(flip_prob=3.0),
    _labels(threshold=math.nan),
    _rademacher_gap(2.5),
    _rademacher_gap("2"),
    {"sigma": 1e-40},  # n = ceil(T / sqrt(sigma)) FTPL anchors pass 2^63 - 1
    {"learner": {"name": "relax-linear"}, "sigma": 1e-40},  # (T - 1) * k playout draws do
    {"learner": {"name": "ftpl-dual"}, "sigma": 5e-324},  # sqrt(T / sigma) is infinite
    {"learner": {"name": "relax-linear"}, "sigma": 5e-324},  # so is 3 log(T) / sigma
    {"learner": {"name": "relax-general"}, "sigma": 5e-324},
    {"sigma": 5e-324},  # the ftpl-cls eta is infinite
    {"learner": {"name": "ftpl-single"}, "sigma": 5e-324},  # n passes 2^63 - 1
], ids=["zero-atoms", "relax-linear-absolute", "square-on-thresholds", "table-over-one",
        "fractional-atoms", "string-atoms", "mu-probs-length", "zero-k", "fractional-k",
        "string-k", "string-n", "string-zeta", "negative-eta", "fractional-class-m",
        "rademacher-gap-on-thresholds", "hidden-mu-one-round", "iid-p-length",
        "fractional-T", "fractional-seed", "negative-seed", "int-checkpoints",
        "string-checkpoint", "zero-checkpoint", "checkpoint-past-T", "nan-mu-probs", "nan-iid-p",
        "nan-beta", "nan-eta", "infinite-zeta", "infinite-epsilon", "nan-flip-prob",
        "flip-prob-above-one", "nan-threshold", "fractional-adversary-m", "string-adversary-m",
        "tiny-sigma-ftpl-anchors", "tiny-sigma-relax-playout", "subnormal-sigma-ftpl-dual",
        "subnormal-sigma-relax-linear", "subnormal-sigma-relax-general",
        "subnormal-sigma-ftpl-cls", "subnormal-sigma-ftpl-single"])
def test_cli_config_errors_known_at_load_exit_2(tmp_path, capsys, overrides):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(_base_config(**overrides)))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if overrides.get("sigma") == 5e-324:  # the message names the cause
        assert "sigma" in err


def _bandit_table_outside_unit_interval():
    values = np.full((2, 4, 2), 0.5)
    values[1, 0, 0] = 1.5
    return {"ground": {"atoms": 4}, "class": {"type": "table", "values": values.tolist()}}


@pytest.mark.parametrize("overrides", [
    {"ground": {"atoms": 4.7}},
    {"regressor": "relax-general", "k": "x"},
    {"gamma": -3},
    {"seeds": ["a"]},
    {"K": 0},
    {"class": {"type": "random_product", "H": 0}},
    {"f_star_index": 9},
    {"f_star_index": 1.5},
    _bandit_table_outside_unit_interval(),
], ids=["fractional-atoms", "string-k", "negative-gamma", "string-seed", "zero-K", "zero-H",
        "f-star-index-out-of-range", "fractional-f-star-index", "class-outside-unit-interval"])
def test_cli_bandit_config_errors_exit_2(tmp_path, capsys, monkeypatch, overrides):
    from smoothol import bandit

    def no_rounds(*args, **kwargs):
        raise AssertionError("a bandit round ran on a bad config")

    monkeypatch.setattr(bandit, "run_square_cb", no_rounds)
    cfg_path = tmp_path / "bandit.json"
    cfg_path.write_text(json.dumps({"K": 2, "sigma": 0.5, "T": 12, "seeds": [0], **overrides}))
    assert cli_main(["bandit", "--config", str(cfg_path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_couple_test(capsys):
    rc = cli_main(["couple-test", "--sigma", "0.5", "--k", "3",
                   "--trials", "2000", "--seed", "1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert {"x_marginal_pvalue", "z_marginal_pvalue", "miss_rate", "bound"} <= set(report)


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


@pytest.mark.parametrize("param, values", [("k", "2.5"), ("sigma", "x"), ("T", "2.5"),
                                           ("seeds", "1.5")])
def test_cli_sweep_bad_value_exits_2(tmp_path, capsys, param, values):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(learner={"name": "relax-linear"}, T=4)))
    rc = cli_main(["sweep", "--config", str(cfg_path), "--param", param, "--values", values])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


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
