import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothol.adversaries import (
    IidAdversary,
    adversarial_flip_labels,
    rademacher_labels,
    tilted_smooth_probs,
)
from smoothol.bandit import (
    default_gamma,
    igw_distribution,
    run_bandit_experiment,
    run_square_cb,
)
from smoothol.core import (
    CHUNK,
    ContextBlock,
    FiniteMeasure,
    GroundSet,
    SmoothnessCertificate,
    TableClass,
    ThresholdClass,
    Trajectory,
    compose_smoothness,
    finalize_regret,
    joint_id,
    make_rng,
    product_class,
    product_measure,
    square_loss,
)
from smoothol.ftpl import FtplLearner, schedule
from smoothol.oracle import ErmOracle
from smoothol.relaxation import RelaxGeneralLearner

from conftest import OnePlayoutAtATime


# ---------------------------------------------------------------------------
# inverse-gap weighting
# ---------------------------------------------------------------------------

def test_igw_equal_predictions_is_uniform():
    p = igw_distribution(np.full(5, 0.3), gamma=7.0)
    np.testing.assert_allclose(p, np.full(5, 0.2), atol=1e-12)


def test_igw_worked_example():
    p = igw_distribution(np.array([0.0, 1.0]), gamma=2.0)
    np.testing.assert_allclose(p, [0.75, 0.25], atol=1e-12)


def test_igw_exploitation_limit():
    p = igw_distribution(np.array([0.2, 0.9, 0.7]), gamma=1e9)
    assert p[0] > 1 - 1e-6
    assert np.all(p > 0)


def test_igw_tie_goes_to_lowest_index():
    p = igw_distribution(np.array([0.4, 0.4, 0.9]), gamma=5.0)
    assert p[0] == max(p)
    assert np.argmax(p) == 0


def test_igw_validation():
    with pytest.raises(ValueError):
        igw_distribution(np.array([0.5]), gamma=1.0)
    with pytest.raises(ValueError):
        igw_distribution(np.array([0.5, 0.2]), gamma=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_igw_rejects_non_finite_predictions(bad):
    with pytest.raises(ValueError, match="finite"):
        igw_distribution(np.array([0.5, bad, 0.2]), gamma=3.0)
    with pytest.raises(ValueError, match="finite"):
        igw_distribution(np.array([0.5, 0.2]), gamma=bad)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 16), st.floats(0.1, 1e4), st.integers(0, 2**31 - 1))
def test_igw_always_a_distribution(K, gamma, seed):
    rng = make_rng(seed, 0)
    preds = rng.random(K)
    p = igw_distribution(preds, gamma)
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p > 0)


def test_igw_bulk_fuzz():
    rng = make_rng(1234, 0)
    for _ in range(20_000):
        K = int(rng.integers(2, 17))
        gamma = float(10 ** rng.uniform(-1, 4))
        p = igw_distribution(rng.random(K), gamma)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p > 0)


# ---------------------------------------------------------------------------
# smoothness composition
# ---------------------------------------------------------------------------

def test_compose_smoothness_values():
    assert compose_smoothness(1.0, 1) == 1.0
    assert compose_smoothness(0.5, 4) == 0.125


def test_compose_smoothness_empirical_joint_density():
    sigma, K, n_atoms, draws = 0.5, 2, 10, 100_000
    ground = GroundSet.grid(n_atoms)
    mu = FiniteMeasure.uniform(ground)
    p = tilted_smooth_probs(mu.probs, sigma)
    rng = make_rng(0, 0)
    xs = np.searchsorted(np.cumsum(p), rng.random(draws), side="right")
    # an arbitrary context-dependent action rule
    actions = (rng.random(draws) < (0.2 + 0.6 * (xs % 2))).astype(int)
    joint = np.bincount(xs * K + actions, minlength=n_atoms * K) / draws
    base = np.repeat(mu.probs / K, K)
    bound = K / sigma
    se = 3 * np.sqrt(joint * (1 - joint) / draws) / base
    assert np.all(joint / base <= bound + se + 1e-9)


# ---------------------------------------------------------------------------
# the reduction
# ---------------------------------------------------------------------------

def _bandit_pieces(seed, K=2, atoms=8, H=4, T=60, sigma=0.5):
    class_rng = make_rng(77, 0)
    values = class_rng.random((H, atoms, K))
    klass = product_class(values)
    ground = GroundSet.grid(atoms)
    mu_x = FiniteMeasure.uniform(ground)
    adversary = IidAdversary(SmoothnessCertificate(sigma=sigma, mu=mu_x),
                             rademacher_labels(), make_rng(seed, 0),
                             p=tilted_smooth_probs(mu_x.probs, sigma))
    sigma_joint = compose_smoothness(sigma, K)
    sched = schedule(T, sigma_joint, L=2.0, variant="dual")
    regressor = FtplLearner("dual", klass, square_loss(), product_measure(mu_x, K),
                            sched, ErmOracle(klass, square_loss()), make_rng(seed, 1))
    return adversary, regressor, values[0], klass


def _recompute_reg_sq(traj, klass):
    """Square-loss regret from the trajectory's rows, row by row."""
    learner = sum((pred - y) ** 2 for pred, y in zip(traj.predictions, traj.labels))
    values = klass.evaluate_block(ContextBlock(ids=traj.ids))
    best = min(sum((v - y) ** 2 for v, y in zip(row, traj.labels)) for row in values)
    return learner - best


def _record_nbytes(traj):
    return sum(a.nbytes for a in vars(traj).values() if isinstance(a, np.ndarray))


def test_square_cb_round_trip_and_bookkeeping():
    adversary, regressor, values0, klass = _bandit_pieces(seed=0)
    f_star = (values0 > 0.5).astype(np.float64)  # 0/1 means: every loss is deterministic
    gamma = default_gamma(60, 0.5, n_hypotheses=4)
    result = run_square_cb(adversary, regressor, K=2, T=60, f_star=f_star,
                           gamma=gamma, rng=make_rng(0, 2))
    traj = result.trajectory
    assert len(traj) == 60
    # one call per round for the proper regressor, counted after each observe
    assert np.array_equal(traj.oracle_calls, np.arange(1, 61))
    x_ids, actions = np.divmod(traj.ids, 2)
    assert np.array_equal(traj.labels, f_star[x_ids, actions])
    assert np.all(np.isnan(traj.coords))
    np.testing.assert_array_equal(traj.instant_loss, (traj.predictions - traj.labels) ** 2)
    # square-loss regret recomputation from the trace
    assert _recompute_reg_sq(traj, klass) == pytest.approx(result.reg_sq, abs=1e-9)
    # contextual-bandit regret against the policy greedy in f_star
    best = f_star[x_ids, np.argmin(f_star[x_ids], axis=1)].sum()
    assert result.reg_cb == traj.labels.sum() - best


def test_square_cb_single_action_has_zero_regret():
    adversary, regressor, f_star, klass = _bandit_pieces(seed=1, K=1)
    result = run_square_cb(adversary, regressor, K=1, T=40, f_star=f_star,
                           gamma=5.0, rng=make_rng(1, 2))
    assert result.reg_cb == pytest.approx(0.0, abs=1e-12)
    assert len(result.trajectory) == 40
    assert np.all((result.trajectory.ids >= 0) & (result.trajectory.ids < 8))  # joint id = x


def test_square_cb_record_does_not_grow_with_K():
    """The record is the regressor's trajectory: 48 bytes a round, whatever K is."""
    T, nbytes = 60, []
    for K in (2, 8):
        adversary, regressor, f_star, klass = _bandit_pieces(seed=5, K=K, T=T)
        result = run_square_cb(adversary, regressor, K=K, T=T, f_star=f_star,
                               gamma=10.0, rng=make_rng(5, 2))
        assert [type(v) for v in vars(result).values()] == [Trajectory, float, float]
        nbytes.append(_record_nbytes(result.trajectory))
    assert nbytes == [48 * T, 48 * T]


def test_square_cb_realizable_mean_structure():
    """Observed losses on each (x, a) pair average to f_star(x, a)."""
    adversary, regressor, f_star, klass = _bandit_pieces(seed=2, T=400)
    result = run_square_cb(adversary, regressor, K=2, T=400, f_star=f_star,
                           gamma=20.0, rng=make_rng(2, 2))
    traj = result.trajectory
    tested = 0
    for joint in np.unique(traj.ids):
        mask = traj.ids == joint
        if mask.sum() >= 50:
            emp = traj.labels[mask].mean()
            se = 3 / math.sqrt(mask.sum())
            assert abs(emp - f_star.ravel()[joint]) <= se + 0.05
            tested += 1
    assert tested >= 2


def test_relax_regressor_runs_inside_reduction():
    atoms, K, T = 6, 2, 6
    class_rng = make_rng(88, 0)
    values = class_rng.random((3, atoms, K))
    klass = product_class(values)
    mu_x = FiniteMeasure.uniform(GroundSet.grid(atoms))
    adversary = IidAdversary(SmoothnessCertificate(sigma=0.5, mu=mu_x),
                             rademacher_labels(), make_rng(3, 0))
    regressor = RelaxGeneralLearner(klass, square_loss(), product_measure(mu_x, K),
                                    T, compose_smoothness(0.5, K),
                                    ErmOracle(klass, square_loss()), make_rng(3, 1), k=4)
    result = run_square_cb(adversary, regressor, K=K, T=T, f_star=values[0],
                           gamma=10.0, rng=make_rng(3, 2))
    preds = result.trajectory.predictions
    assert np.all((preds >= 0.0) & (preds <= 1.0))
    # improper regressor: |S| oracle calls per action per round
    grid_size = len(regressor.state.grid)
    assert result.trajectory.oracle_calls[-1] == T * K * grid_size


def test_out_of_range_predictions_are_clamped_with_warning(caplog):
    class StubRegressor:
        proper = False

        def __init__(self, klass):
            self.klass = klass
            self.oracle = type("O", (), {"calls": 0})()

        def predictions(self, contexts):
            return np.full(len(contexts), 1.3)  # deliberately outside [0, 1]

        def observe(self, point, label):
            pass

    atoms, K = 4, 2
    values = make_rng(89, 0).random((2, atoms, K))
    klass = product_class(values)
    mu_x = FiniteMeasure.uniform(GroundSet.grid(atoms))
    adversary = IidAdversary(SmoothnessCertificate(sigma=1.0, mu=mu_x),
                             rademacher_labels(), make_rng(4, 0))
    with caplog.at_level(logging.WARNING):
        result = run_square_cb(adversary, StubRegressor(klass), K=K, T=3,
                               f_star=values[0], gamma=10.0, rng=make_rng(4, 1))
    assert any("clamp" in rec.message for rec in caplog.records)
    assert np.all(result.trajectory.predictions == 1.0)


def test_run_bandit_experiment_config_surface(tmp_path):
    raw = {
        "K": 2, "sigma": 0.5, "T": 30, "seeds": [0, 1],
        "regressor": "ftpl-dual", "ground": {"atoms": 6},
        "class": {"type": "random_product", "H": 3},
        "output_dir": str(tmp_path),
    }
    summary = run_bandit_experiment(raw)
    assert len(summary["per_seed"]) == 2
    assert (tmp_path / "bandit_summary.json").exists()
    finals = [r["reg_cb"] for r in summary["per_seed"]]
    assert summary["aggregate"]["mean_reg_cb"] == pytest.approx(np.mean(finals), abs=1e-9)


def test_run_bandit_experiment_validates():
    from smoothol.harness import ConfigError

    with pytest.raises(ConfigError, match="regressor"):
        run_bandit_experiment({"K": 2, "sigma": 0.5, "T": 10, "seeds": [0],
                               "regressor": "nope"})


@pytest.mark.parametrize("regressor", ["ftpl-dual", "relax-general"])
def test_run_bandit_experiment_keeps_its_rng_streams(regressor):
    """The config path draws exactly what pieces built by hand on the documented
    streams draw: adversary (seed, 0), regressor (seed, 1), actions (seed, 2),
    class (class_seed, 9)."""
    K, atoms, H, T, sigma, class_seed = 2, 6, 3, 25, 0.5, 5
    raw = {"K": K, "sigma": sigma, "T": T, "seeds": [0, 3], "regressor": regressor,
           "ground": {"atoms": atoms}, "class": {"type": "random_product", "H": H},
           "class_seed": class_seed, **({"k": 2} if regressor == "relax-general" else {})}
    values = make_rng(class_seed, 9).random((H, atoms, K))
    klass = product_class(values)
    mu_x = FiniteMeasure.uniform(GroundSet.grid(atoms))
    sigma_joint = compose_smoothness(sigma, K)
    gamma = default_gamma(T, sigma, L=2.0, n_hypotheses=H)
    expected = []
    for seed in raw["seeds"]:
        adversary = IidAdversary(SmoothnessCertificate(sigma=sigma, mu=mu_x),
                                 rademacher_labels(), make_rng(seed, 0),
                                 p=tilted_smooth_probs(mu_x.probs, sigma))
        oracle = ErmOracle(klass, square_loss())
        if regressor == "ftpl-dual":
            sched = schedule(T, sigma_joint, L=2.0, variant="dual")
            learner = FtplLearner("dual", klass, square_loss(), product_measure(mu_x, K),
                                  sched, oracle, make_rng(seed, 1))
        else:
            learner = RelaxGeneralLearner(klass, square_loss(), product_measure(mu_x, K), T,
                                          sigma_joint, oracle, make_rng(seed, 1), k=2)
        result = run_square_cb(adversary, learner, K, T, values[0], gamma, make_rng(seed, 2))
        expected.append({"seed": seed, "reg_cb": result.reg_cb, "reg_sq": result.reg_sq,
                         "gamma": gamma,
                         "oracle_calls": int(result.trajectory.oracle_calls[-1])})
    assert run_bandit_experiment(raw)["per_seed"] == expected


# ---------------------------------------------------------------------------
# the loop against its per-round reference
# ---------------------------------------------------------------------------

def _reference_square_cb(context_adversary, regressor, K, T, f_star, gamma, rng):
    """SquareCB drawn round by round, with every round's predictions and IGW law
    computed afresh, an improper regressor's one action at a time (with
    ``OnePlayoutAtATime``, each drawing its playout then), and each round written as a
    one-row ``extend``: the loop that ``run_square_cb`` must reproduce bit for bit."""
    traj = Trajectory(T)
    greedy = np.argmin(f_star, axis=1)
    reg_cb = 0.0
    all_actions = np.arange(K)
    for t in range(1, T + 1):
        h = regressor.select() if regressor.proper else None
        x_point, _ = context_adversary.next_round(last_prediction=None)
        x_id = x_point.id
        joint_ids = joint_id(x_id, all_actions, K)
        if h is not None:
            preds = regressor.klass.evaluate_block(ContextBlock(ids=joint_ids))[h]
        else:
            preds = np.array([regressor.predict(ContextBlock(ids=joint_ids[a:a + 1]))
                              for a in all_actions])
        if np.any((preds < 0.0) | (preds > 1.0)):
            logging.getLogger("smoothol.bandit").warning(
                "round %d: regressor prediction outside [0, 1]; clamping", t)
            preds = np.clip(preds, 0.0, 1.0)
        action = 0
        if K > 1:
            p = igw_distribution(preds, gamma)
            action = int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))
            action = min(action, K - 1)
        row_losses = (rng.random(K) < f_star[x_id]).astype(np.float64)
        pair, observed = ContextBlock(ids=joint_ids[action:action + 1]), float(row_losses[action])
        regressor.observe(pair, observed)
        miss = float(preds[action]) - observed
        traj.extend(pair, [observed], [float(preds[action])], [miss * miss],
                    [regressor.oracle.calls])
        reg_cb += observed - row_losses[greedy[x_id]]
    return traj, float(reg_cb), finalize_regret(traj, regressor.klass, square_loss())


def _loop_pieces(regressor, K, seed, clamped, atoms=5, H=3, T=150, relax=RelaxGeneralLearner,
                 labels=rademacher_labels):
    """Pieces on a fresh seed each call, so two runs see the same streams.  With
    ``clamped`` the class's table has negative entries, which the loop clamps; ``relax``
    is the class of a relax-general regressor, ``labels`` the context source's label rule."""
    values = make_rng(90, K).random((H, atoms, K))
    if clamped:
        values[1:] = 2.0 * values[1:] - 1.0  # values in [-1, 1): not a product class
    klass = TableClass(values.reshape(H, atoms * K))
    mu_x = FiniteMeasure.uniform(GroundSet.grid(atoms))
    adversary = IidAdversary(SmoothnessCertificate(sigma=0.5, mu=mu_x), labels(),
                             make_rng(seed, 0), p=tilted_smooth_probs(mu_x.probs, 0.5))
    sigma_joint, oracle = compose_smoothness(0.5, K), ErmOracle(klass, square_loss())
    if regressor == "ftpl-dual":
        sched = schedule(T, sigma_joint, L=2.0, variant="dual")
        learner = FtplLearner("dual", klass, square_loss(), product_measure(mu_x, K), sched,
                              oracle, make_rng(seed, 1))
    else:
        T = 20  # K * |S| oracle calls a round
        learner = relax(klass, square_loss(), product_measure(mu_x, K), T, sigma_joint, oracle,
                        make_rng(seed, 1), k=2)
    f_star = np.clip(values[0], 0.0, 1.0)
    return adversary, learner, K, T, f_star, 6.0, make_rng(seed, 2)


@pytest.mark.parametrize("clamped", [False, True], ids=["in-range", "clamped"])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("regressor", ["ftpl-dual", "relax-general"])
def test_square_cb_matches_the_per_round_loop(regressor, K, clamped, caplog):
    with caplog.at_level(logging.WARNING):
        want_pieces = _loop_pieces(regressor, K, 7, clamped, relax=OnePlayoutAtATime)
        want_traj, want_cb, want_sq = _reference_square_cb(*want_pieces)
        want_warnings = [rec.getMessage() for rec in caplog.records]
        caplog.clear()
        pieces = _loop_pieces(regressor, K, 7, clamped)
        result = run_square_cb(*pieces)
        warnings = [rec.getMessage() for rec in caplog.records]
    traj = result.trajectory
    assert len(traj) == len(want_traj)
    for name in ("ids", "coords", "labels", "predictions", "instant_loss", "oracle_calls"):
        assert getattr(traj, name).tobytes() == getattr(want_traj, name).tobytes(), name
    assert type(result.reg_cb) is float and result.reg_cb == want_cb
    assert result.reg_sq == want_sq
    assert warnings == want_warnings  # one per clamped round, with its round number
    assert bool(warnings) == clamped
    assert pieces[0].rng.integers(2**62) == want_pieces[0].rng.integers(2**62)


@pytest.mark.parametrize("regressor", ["ftpl-dual", "relax-general"])
def test_square_cb_fills_its_blocks_from_one_round_runs(regressor):
    """A context source whose label rule reads the learner hands over one round per
    ``next_run``: the loop fills each block from such runs (T = 150 leaves a partial last
    block), gives the per-round loop's bytes, and leaves the source's generator where that
    loop does."""
    want_pieces = _loop_pieces(regressor, 2, 11, False, relax=OnePlayoutAtATime,
                               labels=adversarial_flip_labels)
    want_traj, want_cb, want_sq = _reference_square_cb(*want_pieces)
    pieces = _loop_pieces(regressor, 2, 11, False, labels=adversarial_flip_labels)
    adversary, runs = pieces[0], []
    next_run = adversary.next_run

    def recording_next_run(last_prediction, limit):
        contexts, labels = next_run(last_prediction, limit)
        runs.append(len(contexts))
        return contexts, labels

    adversary.next_run = recording_next_run
    result = run_square_cb(*pieces)
    assert runs == [1] * len(want_traj)
    for name in ("ids", "coords", "labels", "predictions", "instant_loss", "oracle_calls"):
        assert getattr(result.trajectory, name).tobytes() == getattr(want_traj, name).tobytes()
    assert (result.reg_cb, result.reg_sq) == (want_cb, want_sq)
    assert adversary.rng.integers(2**62) == want_pieces[0].rng.integers(2**62)


@pytest.mark.parametrize("K", [2, 3])
def test_square_cb_holds_one_igw_law_per_hypothesis_and_context(K, monkeypatch):
    """A proper regressor's law at (h, x) is computed on the first round that reaches
    (h, x), and its CDF is np.cumsum of igw_distribution of the clamped row."""
    from smoothol import bandit

    laws, selected = [], []
    action_law = bandit._action_law

    def spy(preds, gamma):
        law = action_law(preds, gamma)
        laws.append((preds.copy(), gamma, law))
        return law

    monkeypatch.setattr(bandit, "_action_law", spy)
    pieces = _loop_pieces("ftpl-dual", K, 8, clamped=True)
    regressor = pieces[1]
    select = regressor.select

    def recording_select():
        selected.append(select())
        return selected[-1]

    regressor.select = recording_select
    traj = run_square_cb(*pieces).trajectory
    rows = regressor.klass.values.reshape(len(regressor.klass), -1, K)
    visited = list(dict.fromkeys(zip(selected, (traj.ids // K).tolist())))
    assert len(laws) == len(visited) <= rows.shape[0] * rows.shape[1]
    assert any(law[2] for _, _, law in laws)  # some rows needed clamping
    for (h, x), (preds, gamma, (clamped_preds, cdf, clamped)) in zip(visited, laws):
        assert preds.tobytes() == rows[h, x].tobytes()
        row = np.clip(rows[h, x], 0.0, 1.0)
        assert clamped == bool(np.any(rows[h, x] < 0.0))
        assert np.array(clamped_preds).tobytes() == row.tobytes()
        assert np.array(cdf).tobytes() == np.cumsum(igw_distribution(row, gamma)).tobytes()


# ---------------------------------------------------------------------------
# the regret of square-loss predictions, past one chunk
# ---------------------------------------------------------------------------

def _record(kind: str, rng: np.random.Generator, T: int = 2500):
    """(class, contexts) of a T-round record: atom ids of a real or binary table, or
    coordinates on the interval under thresholds."""
    if kind == "interval":
        return ThresholdClass(rng.random(9)), ContextBlock(coords=rng.random(T))
    values = rng.choice([-1.0, 1.0], (6, 12)) if kind == "binary" else rng.random((6, 12))
    return TableClass(values), ContextBlock(ids=rng.integers(0, 12, T))


def _reg_sq_reference(klass, contexts: ContextBlock, labels, squares) -> float:
    """The sum of the squares minus the least hypothesis total, each total summed chunk by
    chunk: a chunk's square losses summed per hypothesis, added in chunk order."""
    totals = np.zeros(len(klass))
    for start in range(0, len(labels), CHUNK):
        rows = slice(start, start + CHUNK)
        chunk = ContextBlock(ids=None if contexts.ids is None else contexts.ids[rows],
                             coords=None if contexts.coords is None else contexts.coords[rows])
        totals += ((klass.evaluate_block(chunk) - labels[None, rows]) ** 2).sum(axis=1)
    return float(squares.sum()) - float(totals.min())


@pytest.mark.parametrize("kind", ["real", "binary", "interval"])
def test_reg_sq_is_the_chunked_square_regret_bit_for_bit(kind):
    """``finalize_regret`` under square loss, the bandit's reg_sq, on a record of 2,500
    rounds (three chunks), equal bit for bit to its reference above."""
    rng = make_rng(97, ["real", "binary", "interval"].index(kind))
    klass, contexts = _record(kind, rng)
    labels = (rng.random(len(contexts)) < 0.5).astype(float)
    predicted = rng.random(len(contexts))
    squares = (predicted - labels) * (predicted - labels)
    traj = Trajectory(len(labels))
    traj.extend(contexts, labels, predicted, squares, np.arange(1, len(labels) + 1))
    assert len(labels) > 2 * CHUNK
    assert finalize_regret(traj, klass, square_loss()) == \
        _reg_sq_reference(klass, contexts, labels, squares)
