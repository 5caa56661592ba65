import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from smoothol.core import (
    ContextBlock,
    FiniteMeasure,
    GroundSet,
    TableClass,
    ThresholdClass,
    UniformIntervalMeasure,
    absolute_loss,
    linear_loss,
    make_rng,
    scaled_square_loss,
)
from smoothol import relaxation
from smoothol.oracle import IDENTITY, MAIN, ErmOracle, ErmQuery
from smoothol.relaxation import (
    PlayoutDraw,
    RelaxLinearLearner,
    RelaxState,
    default_playout_width,
    draw_playout,
    predict_general,
    predict_linear,
    three_point_min,
)

from conftest import random_table_class, sample


# ---------------------------------------------------------------------------
# three-point search
# ---------------------------------------------------------------------------

class CountingOracle:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.calls = 0

    def __call__(self, i):
        self.calls += 1
        return float(self.values[i])


def test_three_point_simple_parabola():
    grid = np.array([-1.0, 0.0, 1.0])
    oracle = CountingOracle(grid ** 2)
    assert three_point_min(oracle, grid) == 1


def test_three_point_large_grid_call_budget():
    grid = np.linspace(-1, 1, 1024)
    oracle = CountingOracle((grid - 0.3) ** 2)
    idx = three_point_min(oracle, grid)
    assert idx == int(np.argmin((grid - 0.3) ** 2))
    budget = 3 * math.ceil(math.log2(1024)) + 3
    assert budget == 33
    assert oracle.calls <= budget


def test_three_point_monotone_returns_leftmost():
    grid = np.linspace(-1, 1, 1000)
    oracle = CountingOracle(grid)  # increasing
    assert three_point_min(oracle, grid) == 0
    oracle = CountingOracle(-grid)  # decreasing
    assert three_point_min(oracle, grid) == 999


def test_three_point_empty_grid_errors():
    with pytest.raises(ValueError, match="empty grid"):
        three_point_min(lambda i: 0.0, np.array([]))


def test_three_point_constant_function_lowest_index():
    grid = np.linspace(0, 1, 57)
    oracle = CountingOracle(np.zeros(57))
    assert three_point_min(oracle, grid) == 0


@pytest.mark.parametrize("seed", range(30))
def test_three_point_random_convex_with_plateaus(seed):
    rng = make_rng(200 + seed, 0)
    m = int(rng.integers(1, 600))
    # build a convex sequence by double integration of nonnegative curvature,
    # with zero stretches to force plateaus and ties
    curv = rng.exponential(1.0, size=max(m - 2, 0))
    curv[rng.random(curv.shape) < 0.4] = 0.0
    slope0 = float(rng.normal() * 2)
    slopes = slope0 + np.concatenate(([0.0], np.cumsum(curv))) if m > 1 else np.array([])
    vals = np.concatenate(([0.0], np.cumsum(slopes))) if m > 1 else np.array([0.0])
    vals = np.round(vals, 12)
    oracle = CountingOracle(vals)
    idx = three_point_min(oracle, np.arange(m, dtype=float))
    assert idx == int(np.argmin(vals))
    assert oracle.calls <= 3 * math.ceil(math.log2(max(m, 2))) + 3


# ---------------------------------------------------------------------------
# playouts
# ---------------------------------------------------------------------------

def test_playout_dimensions_and_signs():
    mu = FiniteMeasure.uniform(GroundSet.grid(6))
    playout = draw_playout(mu, 7, 3, make_rng(0, 0))
    assert len(playout.contexts) == len(playout.signs) == 6
    assert np.array_equal(playout.contexts.ids, np.arange(6))
    drawn = int(np.abs(playout.signs).sum())
    assert drawn <= 21 and (21 - drawn) % 2 == 0
    with pytest.raises(ValueError):
        PlayoutDraw(playout.contexts, playout.signs[:3], 7, 3)
    for signs in ([22, 0, 0, 0, 0, 0], [20, 0, 0, 0, 0, 0]):  # too many draws, wrong parity
        with pytest.raises(ValueError):
            PlayoutDraw(playout.contexts, np.array(signs), 7, 3)


def _explicit_net_signs(mu, n, rng):
    """Reference playout: n points from mu with +/-1 signs, folded into per-atom net counts."""
    ids = mu.sample_ids(rng, n)
    signs = 2 * rng.integers(0, 2, size=n) - 1
    return np.bincount(ids, weights=signs, minlength=mu.ground.size).astype(np.int64)


def test_playout_counts_match_exact_law_and_explicit_sampling():
    """Net-sign vectors of 3 draws on 3 atoms: exact pmf vs histogram and explicit draws."""
    probs = np.array([0.5, 0.3, 0.2])
    mu = FiniteMeasure(GroundSet.grid(3), probs)
    n, draws = 3, 20_000
    pmf: dict[tuple, float] = {}
    for cells in itertools.product(range(3), (-1, 1), repeat=n):
        net, mass = [0, 0, 0], 1.0
        for atom, sign in zip(cells[::2], cells[1::2]):
            net[atom] += sign
            mass *= probs[atom] / 2.0
        pmf[tuple(net)] = pmf.get(tuple(net), 0.0) + mass
    outcomes = sorted(pmf)
    expected = np.array([pmf[o] for o in outcomes]) * draws
    assert math.isclose(expected.sum(), draws)

    rng = make_rng(12, 0)
    histogram = [tuple(draw_playout(mu, n, 1, rng).signs) for _ in range(draws)]
    rng = make_rng(12, 1)
    explicit = [tuple(_explicit_net_signs(mu, n, rng)) for _ in range(draws)]
    for sample in (histogram, explicit):
        assert set(sample) <= set(outcomes)
        observed = np.array([sample.count(o) for o in outcomes])
        assert stats.chisquare(observed, expected).pvalue > 1e-3


@settings(max_examples=60, deadline=None)
@given(atoms=st.integers(1, 12), rounds_left=st.integers(0, 40), k=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_playout_counts_property(atoms, rounds_left, k, seed):
    rng = make_rng(seed, 0)
    mu = FiniteMeasure(GroundSet.grid(atoms), rng.dirichlet(np.ones(atoms)))
    playout = draw_playout(mu, rounds_left, k, rng)
    n, drawn = rounds_left * k, int(np.abs(playout.signs).sum())
    assert len(playout.signs) == len(playout.contexts) == atoms
    assert drawn <= n and (n - drawn) % 2 == 0


@pytest.mark.parametrize("seed", range(5))
def test_threshold_cell_measure_gaps(seed):
    rng = make_rng(13, seed)
    thetas = rng.random(int(rng.integers(1, 40)))
    thetas[: len(thetas) // 4] = thetas[-1]  # repeated thresholds leave empty gaps
    thetas = np.append(thetas, [0.0, 1.0, -0.25, 1.5])  # ends, and thresholds clipped to them
    klass = ThresholdClass(thetas)
    cells = klass.cell_measure(UniformIntervalMeasure())
    left = cells.ground.coords
    assert len(cells.probs) == len(thetas) + 1
    assert cells.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(cells.probs, np.diff(left, append=1.0))
    x = np.concatenate((rng.random(2000), np.clip(thetas, 0.0, 1.0)))
    gap = np.searchsorted(left, x, side="right") - 1
    assert np.array_equal(klass.evaluate_block(ContextBlock(coords=x)),
                          klass.evaluate_block(ContextBlock(coords=left[gap])))


def test_cell_measure_finite_groups_equal_columns_and_continuous_needs_cells():
    """A cell is a maximal set of atoms with equal columns, and its mass is their sum."""
    values = np.array([[1.0, -1.0, 1.0, 1.0, -1.0], [0.5, 0.2, 0.5, 0.5, 0.2]])
    table = TableClass(values, ground=GroundSet.grid(5))
    cells = table.cell_measure(FiniteMeasure(table.ground, [0.1, 0.2, 0.3, 0.15, 0.25]))
    assert np.array_equal(cells.atoms.ids, [0, 1])  # each cell's first atom
    assert np.array_equal(cells.atoms.coords, table.ground.coords[[0, 1]])
    assert np.allclose(cells.probs, [0.1 + 0.3 + 0.15, 0.2 + 0.25])
    # thresholds at 1/8, 3/8, 5/8, 7/8 on atoms at 0, 1/8, ..., 1: the gaps hold 1, 2, 2, 2, 2
    cells = ThresholdClass.grid(4).cell_measure(FiniteMeasure.uniform(GroundSet.grid(9)))
    assert np.array_equal(cells.atoms.ids, [0, 1, 3, 5, 7])
    assert np.allclose(cells.probs, np.array([1, 2, 2, 2, 2]) / 9)
    klass = random_table_class(make_rng(14, 0), 3, 5)  # every column distinct
    mu = FiniteMeasure.uniform(klass.ground)
    assert klass.cell_measure(mu) is mu
    with pytest.raises(ValueError, match="cell partition"):
        klass.cell_measure(UniformIntervalMeasure())
    with pytest.raises(ValueError, match="cell partition"):
        RelaxLinearLearner(klass, linear_loss(), UniformIntervalMeasure(), 4, 0.5,
                           ErmOracle(klass, linear_loss()), make_rng(14, 1))


def test_default_playout_width_controls_tail():
    for T in (10, 100, 2000):
        for sigma in (0.1, 0.5, 1.0):
            k = default_playout_width(T, sigma)
            assert T ** 3 * math.exp(-sigma * k) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# linear-loss prediction
# ---------------------------------------------------------------------------

def _empty_playout(mu, k=2):
    return draw_playout(mu, 0, k, make_rng(99, 0))


def test_predict_linear_symmetric_class_predicts_zero():
    ground = GroundSet.grid(5)
    values = np.array([[0.6, -0.2, 0.8, -1.0, 0.3]])
    klass = TableClass(np.vstack([values, -values]), ground=ground)
    mu = FiniteMeasure.uniform(ground)
    loss = linear_loss()
    oracle = ErmOracle(klass, loss)
    state = RelaxState(loss, T=1, sigma=0.5, k=2)
    yhat = predict_linear(state, _empty_playout(mu), ground.block(np.array([2])), oracle)
    assert yhat == pytest.approx(0.0, abs=1e-12)
    a_plus, a_minus = state.last_branch_values
    assert a_plus == pytest.approx(a_minus, abs=1e-12)


def test_predict_linear_requires_linear_loss():
    klass = random_table_class(make_rng(1, 0), 3, 5)
    mu = FiniteMeasure.uniform(klass.ground)
    state = RelaxState(absolute_loss(), T=2, sigma=0.5, k=1)
    oracle = ErmOracle(klass, absolute_loss())
    with pytest.raises(ValueError, match="linear loss required"):
        predict_linear(state, _empty_playout(mu), klass.ground.block(np.array([0])), oracle)


def test_predict_linear_sign_convention_hand_expanded():
    """Two constant hypotheses, one playout point: branch values worked by hand.

    With L = 1/2 the playout row weight is -6L = -3; for sign +1 the branch
    suprema are a+ = max(3 - l(1,1), -3 - l(-1,1)) = 3 and
    a- = max(3 - l(1,-1), -3 - l(-1,-1)) = 2, so yhat = a+ - a- = 1.
    Flipping the sign mirrors everything to yhat = -1.
    """
    ground = GroundSet.grid(3)
    klass = TableClass(np.vstack([np.ones(3), -np.ones(3)]), ground=ground)
    loss = linear_loss()
    x_t = ground.block(np.array([1]))
    for sign, want_ap, want_am, want_yhat in ((1, 3.0, 2.0, 1.0), (-1, 2.0, 3.0, -1.0)):
        oracle = ErmOracle(klass, loss)
        state = RelaxState(loss, T=2, sigma=0.5, k=1)
        playout = PlayoutDraw(
            contexts=ground.block(np.array([0])),
            signs=np.array([sign], dtype=np.int8),
            rounds_left=1, k=1,
        )
        yhat = predict_linear(state, playout, x_t, oracle)
        a_plus, a_minus = state.last_branch_values
        assert (a_plus, a_minus, yhat) == (want_ap, want_am, want_yhat)


def test_predict_linear_three_hypotheses_matches_fine_grid():
    """Small fixed-seed instance against the exhaustive min-max on a 1e-6 grid."""
    rng = make_rng(77, 0)
    ground = GroundSet.grid(8)
    klass = TableClass(np.round(rng.uniform(-1, 1, (3, 8)), 4), ground=ground)
    mu = FiniteMeasure.uniform(ground)
    loss = linear_loss()
    oracle = ErmOracle(klass, loss)
    state = RelaxState(loss, T=4, sigma=0.5, k=2)
    grid = np.linspace(-1.0, 1.0, 2_000_001)
    for t in range(1, 5):
        playout = draw_playout(mu, 4 - t, 2, rng)
        x = mu.sample_point(rng)
        yhat = predict_linear(state, playout, x, oracle)
        a_plus, a_minus = state.last_branch_values
        g = np.maximum((1 - grid) / 2 + a_plus, (1 + grid) / 2 + a_minus)
        assert abs(yhat - grid[np.argmin(g)]) <= 1e-6
        state.observe(x, float(rng.choice([-1.0, 1.0])), oracle)


def test_predict_linear_branch_gap_and_call_count():
    rng = make_rng(2, 0)
    klass = random_table_class(rng, 6, 8)
    mu = FiniteMeasure.uniform(klass.ground)
    loss = linear_loss()
    oracle = ErmOracle(klass, loss)
    T = 10
    state = RelaxState(loss, T=T, sigma=0.4)
    for t in range(1, T + 1):
        playout = draw_playout(mu, T - t, state.k, rng)
        x = mu.sample_point(rng)
        before = oracle.calls
        yhat = predict_linear(state, playout, x, oracle)
        assert oracle.calls - before == 2
        a_plus, a_minus = state.last_branch_values
        assert abs(a_plus - a_minus) <= 1.0 + 1e-9
        assert -1.0 <= yhat <= 1.0
        state.observe(x, float(rng.choice([-1.0, 1.0])), oracle)


# ---------------------------------------------------------------------------
# general prediction
# ---------------------------------------------------------------------------

def test_predict_general_agrees_with_linear_within_delta():
    rng = make_rng(3, 0)
    klass = random_table_class(rng, 5, 7)
    mu = FiniteMeasure.uniform(klass.ground)
    loss = linear_loss()
    T = 9
    o1 = ErmOracle(klass, loss)
    o2 = ErmOracle(klass, loss)
    s1 = RelaxState(loss, T, 0.5)
    s2 = RelaxState(loss, T, 0.5)
    delta = 1.0 / (loss.lipschitz_L * math.sqrt(T))
    for t in range(1, T + 1):
        playout = draw_playout(mu, T - t, s1.k, rng)
        x = mu.sample_point(rng)
        y_lin = predict_linear(s1, playout, x, o1)
        y_gen = predict_general(s2, playout, x, o2)
        assert abs(y_lin - y_gen) <= delta + 1e-9
        y = float(rng.choice([-1.0, 1.0]))
        s1.observe(x, y, o1)
        s2.observe(x, y, o2)


def test_predict_general_single_hypothesis_tracks_it():
    ground = GroundSet.grid(4)
    klass = TableClass(np.array([[0.52, -0.44, 0.12, -0.83]]), ground=ground)
    mu = FiniteMeasure.uniform(ground)
    loss = absolute_loss()
    oracle = ErmOracle(klass, loss)
    state = RelaxState(loss, T=16, sigma=0.5, k=1)
    for atom in range(4):
        yhat = predict_general(state, _empty_playout(mu), ground.block(np.array([atom])), oracle)
        target = klass.values[0, atom]
        # grid spacing bounds the match quality
        spacing = state.grid[1] - state.grid[0]
        assert abs(yhat - target) <= spacing / 2 + 1e-9


def test_predict_general_oracle_budget():
    rng = make_rng(4, 0)
    klass = random_table_class(rng, 5, 6)
    mu = FiniteMeasure.uniform(klass.ground)
    loss = scaled_square_loss()
    oracle = ErmOracle(klass, loss)
    T = 16
    state = RelaxState(loss, T, 0.5)
    S = len(state.grid)
    cap = S + 3 * math.ceil(math.log2(S)) * S
    playout = draw_playout(mu, T - 1, state.k, rng)
    before = oracle.calls
    predict_general(state, playout, mu.sample_point(rng), oracle)
    used = oracle.calls - before
    assert used <= cap
    assert used == S  # branch values are cached across the outer search


# ---------------------------------------------------------------------------
# all branches from one evaluation against one query per branch
# ---------------------------------------------------------------------------

def _reference_branch_value(oracle, playout, x, y, L):
    """One branch with the playout as an identity row block of its own query."""
    weights = -6.0 * L * playout.signs.astype(np.float64).ravel()
    q = ErmQuery().add_block(IDENTITY, playout.contexts, np.zeros(len(weights)), weights)
    q.add_block(MAIN, x, np.array([y]), np.array([1.0]))
    return -float(oracle.objective_vector(q).min())


@pytest.mark.parametrize("space", ["table-grid", "thresholds-interval"])
def test_shared_playout_matches_per_branch_rows(space):
    rng = make_rng(11, 0)
    if space == "table-grid":
        klass = random_table_class(rng, 12, 16)
        mu = FiniteMeasure.uniform(klass.ground)
    else:
        klass, mu = ThresholdClass.grid(24), UniformIntervalMeasure()
    cells = klass.cell_measure(mu)
    T = 12
    lin, gen = linear_loss(), absolute_loss()
    o_lin, o_gen = ErmOracle(klass, lin), ErmOracle(klass, gen)
    s_lin, s_gen = RelaxState(lin, T, 0.5, k=4), RelaxState(gen, T, 0.5, k=4)
    for t in range(1, T + 1):
        playout = draw_playout(cells, T - t, 4, rng)
        x = sample(mu, rng)
        predict_linear(s_lin, playout, x, o_lin)
        predict_general(s_gen, playout, x, o_gen)
        assert s_lin.last_branch_values == tuple(
            _reference_branch_value(o_lin, playout, x, y, lin.lipschitz_L) for y in (1.0, -1.0))
        assert s_gen.last_branch_values == tuple(
            _reference_branch_value(o_gen, playout, x, float(y), gen.lipschitz_L)
            for y in s_gen.grid)
        y = float(rng.choice([-1.0, 1.0]))
        s_lin.observe(x, y, o_lin)
        s_gen.observe(x, y, o_gen)


# ---------------------------------------------------------------------------
# relaxation value estimate
# ---------------------------------------------------------------------------

@dataclass
class RelaxationEstimate:
    mean: float
    std_error: float
    num_playouts: int


def estimate_relaxation(state: RelaxState, sigma: float, oracle: ErmOracle, num_playouts: int,
                        rng: np.random.Generator, mu) -> RelaxationEstimate:
    """Monte-Carlo value of the playout relaxation after the observed history.

    Averages sup_f [ 2L sum eps f(x_future) - L_t(f) ] over fresh playouts and
    adds the deterministic (T - t)^3 e^{-sigma k} remainder.
    """
    if num_playouts < 2:
        raise ValueError("need at least two playouts")
    L = state.loss.lipschitz_L
    rounds_left = state.T - state.t
    cells = oracle.klass.cell_measure(mu)
    values = np.empty(num_playouts)
    for i in range(num_playouts):
        playout = draw_playout(cells, rounds_left, state.k, rng)
        weights = -2.0 * L * playout.signs.astype(np.float64)  # the oracle minimizes
        q = ErmQuery().add_block(IDENTITY, playout.contexts, np.zeros(len(weights)), weights)
        values[i] = -oracle.exact(q).objective_value
    tail = rounds_left ** 3 * math.exp(-sigma * state.k)
    std_error = float(values.std(ddof=1) / math.sqrt(num_playouts))
    return RelaxationEstimate(float(values.mean() + tail), std_error, num_playouts)


def test_estimate_relaxation_terminal_round_is_deterministic():
    rng = make_rng(5, 0)
    klass = random_table_class(rng, 4, 6)
    mu = FiniteMeasure.uniform(klass.ground)
    loss = linear_loss()
    oracle = ErmOracle(klass, loss)
    T = 5
    state = RelaxState(loss, T, 0.5, k=3)
    totals = np.zeros(len(klass))
    for t in range(T):
        x = mu.sample_point(rng)
        y = float(rng.choice([-1.0, 1.0]))
        state.observe(x, y, oracle)
        for h in range(len(klass)):
            totals[h] += loss.evaluate(klass.evaluate_block(x)[h, 0], y)
    before = oracle.calls
    est = estimate_relaxation(state, 0.5, oracle, 8, rng, mu)
    assert oracle.calls - before == 8  # one oracle call per playout
    assert est.std_error == 0.0
    assert est.mean == pytest.approx(-totals.min(), abs=1e-9)


def test_estimate_relaxation_symmetric_class_nonnegative():
    ground = GroundSet.grid(6)
    base = np.array([[0.9, -0.3, 0.5, -0.7, 0.1, -0.2]])
    klass = TableClass(np.vstack([base, -base]), ground=ground)
    mu = FiniteMeasure.uniform(ground)
    loss = linear_loss()
    oracle = ErmOracle(klass, loss)
    state = RelaxState(loss, T=6, sigma=0.5, k=2)
    est = estimate_relaxation(state, 0.5, oracle, 20, make_rng(6, 0), mu)
    tail = 6 ** 3 * math.exp(-0.5 * state.k)
    assert est.mean - tail >= -1e-9  # sup of a sign-symmetric process


def test_estimate_relaxation_needs_two_playouts():
    klass = random_table_class(make_rng(7, 0), 3, 4)
    mu = FiniteMeasure.uniform(klass.ground)
    state = RelaxState(linear_loss(), 4, 0.5, k=1)
    with pytest.raises(ValueError):
        estimate_relaxation(state, 0.5, ErmOracle(klass, linear_loss()), 1, make_rng(7, 1), mu)


def test_relaxation_admissibility_along_smooth_trajectory():
    """E[loss_t + Rel_t] stays below Rel_{t-1} within Monte-Carlo error."""
    rng = make_rng(8, 0)
    klass = random_table_class(rng, 6, 8, binary=True)
    mu = FiniteMeasure.uniform(klass.ground)
    loss = linear_loss()
    T = 6
    oracle = ErmOracle(klass, loss)
    state = RelaxState(loss, T, sigma=0.5)
    learner_oracle = ErmOracle(klass, loss)
    learner_state = RelaxState(loss, T, sigma=0.5)
    playouts = 200
    for t in range(1, T + 1):
        before = estimate_relaxation(state, 0.5, oracle, playouts, make_rng(80, t), mu)
        x = mu.sample_point(rng)
        playout = draw_playout(mu, T - t, learner_state.k, rng)
        yhat = predict_linear(learner_state, playout, x, learner_oracle)
        y = float(rng.choice([-1.0, 1.0]))
        state.observe(x, y, oracle)
        learner_state.observe(x, y, learner_oracle)
        after = estimate_relaxation(state, 0.5, oracle, playouts, make_rng(81, t), mu)
        combined_se = 3 * (before.std_error + after.std_error)
        assert loss.evaluate(yhat, y) + after.mean <= before.mean + combined_se + 1e-9


# ---------------------------------------------------------------------------
# learner wrappers
# ---------------------------------------------------------------------------

def test_relax_linear_learner_rejects_other_losses():
    klass = random_table_class(make_rng(9, 0), 3, 4)
    mu = FiniteMeasure.uniform(klass.ground)
    with pytest.raises(ValueError, match="linear loss required"):
        RelaxLinearLearner(klass, absolute_loss(), mu, 4, 0.5,
                           ErmOracle(klass, absolute_loss()), make_rng(9, 1))


def test_relax_learner_round_trip_and_fresh_playouts(monkeypatch):
    rng = make_rng(10, 0)
    klass = random_table_class(rng, 4, 6)
    mu = FiniteMeasure.uniform(klass.ground)
    loss = linear_loss()
    learner = RelaxLinearLearner(klass, loss, mu, 5, 0.5,
                                 ErmOracle(klass, loss), make_rng(10, 1))
    drawn, draw = [], relaxation.draw_playout
    monkeypatch.setattr(relaxation, "draw_playout",
                        lambda *a, **kw: drawn.append(draw(*a, **kw)) or drawn[-1])
    for t in range(5):
        x = mu.sample_point(rng)
        yhat = learner.predict(x)
        assert -1 <= yhat <= 1
        learner.observe(x, 1.0)
    # one fresh playout per round, shrinking with the horizon: the first round's alone,
    # then the rest as one block that stops at round T
    assert [p.rounds_left.tolist() for p in drawn] == [[4], [3, 2, 1, 0]]
