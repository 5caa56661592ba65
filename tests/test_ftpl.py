import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothol.core import (
    ContextPoint,
    FiniteMeasure,
    GroundSet,
    TableClass,
    linear_loss,
    make_rng,
)
from smoothol.ftpl import (
    FtplLearner,
    FtplSchedule,
    GaussianPerturbation,
    draw_perturbation,
    epsilon_grid,
    ftpl_select_classification,
    ftpl_select_dual,
    ftpl_select_single,
    omega_values,
    schedule,
    with_anchor_point,
)
from smoothol.oracle import ErmOracle

from conftest import random_table_class


# ---------------------------------------------------------------------------
# epsilon grid
# ---------------------------------------------------------------------------

def test_epsilon_grid_degenerate_two_includes_endpoints():
    grid = epsilon_grid(2.0)
    np.testing.assert_allclose(grid, [-1.0, 0.0, 1.0])
    assert len(grid) == 3


def test_epsilon_grid_half():
    np.testing.assert_allclose(epsilon_grid(0.5), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_epsilon_grid_non_divisor_stays_interior():
    grid = epsilon_grid(0.3)
    assert grid.min() == pytest.approx(-0.9)
    assert grid.max() == pytest.approx(0.9)
    assert len(grid) == 7


def test_epsilon_grid_unit_range():
    grid = epsilon_grid(0.25, 0.0, 1.0)
    np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=3.0, allow_nan=False))
def test_epsilon_grid_properties(eps):
    grid = epsilon_grid(eps)
    assert len(grid) >= 1
    assert grid.min() >= -1.0 - 1e-12 and grid.max() <= 1.0 + 1e-12
    assert np.all(np.diff(grid) > 0)  # strictly sorted, no duplicates
    # every interior point is an integer multiple of eps
    interior = grid[(np.abs(grid) < 1.0 - 1e-12)]
    np.testing.assert_allclose(interior / eps, np.round(interior / eps), atol=1e-9)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_classification_formulas():
    s = schedule(1000, 0.1, L=1.0, variant="classification")
    assert s.eta == pytest.approx(math.sqrt(1000 * math.log(10_000) / 0.1), rel=1e-12)
    assert s.eta == pytest.approx(303.48, abs=0.5)
    assert s.n == 3163


def test_schedule_dual_formulas():
    s = schedule(1000, 0.1, variant="dual")
    assert s.eta == pytest.approx(1000 ** (2 / 3) * 0.1 ** (-1 / 3), rel=1e-12)
    assert s.eta == pytest.approx(215.44, abs=0.01)
    assert s.n == 100
    assert s.m == 100
    assert s.epsilon == pytest.approx(0.1, rel=1e-12)


def test_schedule_single_exact_powers_of_two():
    s = schedule(4096, 1.0, variant="single")
    assert s.eta == 32.0
    assert s.n == 1024
    assert s.epsilon == pytest.approx(2.0 ** -9, rel=1e-12)


def test_schedule_p_ge_two_branch():
    s = schedule(256, 0.25, d_or_p=4.0, variant="dual")
    assert s.n == 256
    assert s.eta == pytest.approx(256 ** 0.5, rel=1e-12)
    assert s.epsilon == pytest.approx((0.25 * 256) ** (-1 / 5), rel=1e-12)


def test_schedule_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant"):
        schedule(10, 0.5, variant="mystery")


def test_single_schedule_enforces_coupling():
    with pytest.raises(ValueError, match="couples"):
        FtplSchedule("single", eta=3.0, n=4)
    FtplSchedule("single", eta=2.0, n=4)


# ---------------------------------------------------------------------------
# selection rules
# ---------------------------------------------------------------------------

def _history(rng, klass, t):
    return [(klass.ground.point(int(rng.integers(klass.ground.size))),
             float(rng.choice([-1.0, 1.0]))) for _ in range(t)]


def _oracle_with(klass, loss, history):
    """A fresh oracle whose history prefix holds ``history``."""
    oracle = ErmOracle(klass, loss)
    for ctx, y in history:
        oracle.extend_prefix(ctx, y)
    return oracle


def test_singleton_class_always_selected():
    ground = GroundSet.grid(4)
    klass = TableClass(np.array([[1.0, -1.0, 1.0, -1.0]]), ground=ground)
    mu = FiniteMeasure.uniform(ground)
    oracle = ErmOracle(klass, linear_loss())
    rng = make_rng(42, 0)
    pert = draw_perturbation(mu, 8, rng)
    assert ftpl_select_classification(pert, 3.0, oracle) == 0


def test_zero_eta_is_follow_the_leader():
    rng = make_rng(0, 0)
    klass = random_table_class(rng, 8, 10, binary=True)
    mu = FiniteMeasure.uniform(klass.ground)
    loss = linear_loss()
    history = _history(rng, klass, 25)
    pert = draw_perturbation(mu, 50, rng)
    idx = ftpl_select_classification(pert, eta=0.0, oracle=_oracle_with(klass, loss, history))
    cumulative = np.zeros(len(klass))
    for ctx, y in history:
        for h in range(len(klass)):
            cumulative[h] += loss.evaluate(klass.evaluate(h, ctx), y)
    assert idx == int(np.argmin(cumulative))


def test_dual_zero_eta_zero_n_is_follow_the_leader():
    rng = make_rng(1, 0)
    klass = random_table_class(rng, 6, 8)
    mu = FiniteMeasure.uniform(klass.ground)
    loss = linear_loss()
    history = _history(rng, klass, 15)
    pert_m = draw_perturbation(mu, 20, rng)
    pert_n = draw_perturbation(mu, 0, rng, normalization="none", eps=0.5)
    idx = ftpl_select_dual(pert_m, pert_n, eta=0.0, oracle=_oracle_with(klass, loss, history))
    cumulative = np.zeros(len(klass))
    for ctx, y in history:
        for h in range(len(klass)):
            cumulative[h] += loss.evaluate(klass.evaluate(h, ctx), y)
    assert idx == int(np.argmin(cumulative))


def test_single_zero_scale_is_follow_the_leader():
    rng = make_rng(2, 0)
    klass = random_table_class(rng, 5, 9)
    mu = FiniteMeasure.uniform(klass.ground)
    loss = linear_loss()
    history = _history(rng, klass, 12)
    pert = draw_perturbation(mu, 30, rng, normalization="none", eps=0.25)
    idx = ftpl_select_single(pert, eta_over_sqrt_n=0.0,
                             oracle=_oracle_with(klass, loss, history))
    cumulative = np.zeros(len(klass))
    for ctx, y in history:
        for h in range(len(klass)):
            cumulative[h] += loss.evaluate(klass.evaluate(h, ctx), y)
    assert idx == int(np.argmin(cumulative))


def test_symmetric_pair_selected_equally_often():
    ground = GroundSet.grid(6)
    base = np.array([[1.0, -1.0, 1.0, -1.0, 1.0, -1.0]])
    klass = TableClass(np.vstack([base, -base]), ground=ground)
    mu = FiniteMeasure.uniform(ground)
    oracle = ErmOracle(klass, linear_loss())
    rng = make_rng(3, 0)
    n_trials = 10_000
    picks = 0
    for _ in range(n_trials):
        pert = draw_perturbation(mu, 16, rng)
        picks += ftpl_select_classification(pert, eta=1.0, oracle=oracle) == 0
    se = math.sqrt(0.25 / n_trials)
    assert abs(picks / n_trials - 0.5) <= 3 * se


def _direct_objective(klass, loss, history, terms):
    obj = np.zeros(len(klass))
    for ctx, y in history:
        for h in range(len(klass)):
            obj[h] += loss.evaluate(klass.evaluate(h, ctx), y)
    for scale, pert, with_loss in terms:
        obj += scale * omega_values(pert, klass, loss if with_loss else None)
    return obj


@pytest.mark.parametrize("variant", ["classification", "dual", "single"])
def test_selection_matches_exhaustive_recomputation(variant):
    rng = make_rng(4, 0)
    klass = random_table_class(rng, 7, 9, binary=(variant == "classification"))
    mu = FiniteMeasure.uniform(klass.ground)
    loss = linear_loss()
    for trial in range(40):
        history = _history(rng, klass, int(rng.integers(0, 20)))
        oracle = _oracle_with(klass, loss, history)
        eta = float(rng.uniform(0.1, 5.0))
        before = oracle.calls
        if variant == "classification":
            pert = draw_perturbation(mu, 12, rng)
            idx = ftpl_select_classification(pert, eta, oracle)
            direct = _direct_objective(klass, loss, history, [(eta, pert, False)])
        elif variant == "dual":
            pert_m = draw_perturbation(mu, 10, rng)
            pert_n = draw_perturbation(mu, 8, rng, normalization="none", eps=0.5)
            idx = ftpl_select_dual(pert_m, pert_n, eta, oracle)
            direct = _direct_objective(klass, loss, history,
                                       [(eta, pert_m, False), (1.0, pert_n, True)])
        else:
            pert = draw_perturbation(mu, 9, rng, normalization="none", eps=0.25)
            idx = ftpl_select_single(pert, eta, oracle)
            direct = _direct_objective(klass, loss, history, [(eta, pert, True)])
        assert oracle.calls - before == 1
        assert idx == int(np.argmin(direct))


def test_dual_labels_live_on_epsilon_grid():
    mu = FiniteMeasure.uniform(GroundSet.grid(5))
    pert = draw_perturbation(mu, 200, make_rng(5, 0), normalization="none", eps=0.5)
    grid = set(np.round(epsilon_grid(0.5), 12))
    assert set(np.round(pert.labels, 12)) <= grid


def test_perturbation_validation():
    mu = FiniteMeasure.uniform(GroundSet.grid(4))
    rng = make_rng(6, 0)
    pert = draw_perturbation(mu, 5, rng)
    with pytest.raises(ValueError):
        GaussianPerturbation(pert.contexts, pert.coeffs[:3])
    with pytest.raises(ValueError):
        GaussianPerturbation(pert.contexts, pert.coeffs, normalization="bogus")
    labeled = draw_perturbation(mu, 5, rng, normalization="none", eps=0.5)
    oracle = ErmOracle(random_table_class(rng, 3, 4), linear_loss())
    with pytest.raises(ValueError, match="normalized"):
        ftpl_select_classification(labeled, 1.0, oracle)


# ---------------------------------------------------------------------------
# perturbation covariance
# ---------------------------------------------------------------------------

def test_omega_covariance_matches_empirical_kernel():
    rng = make_rng(7, 0)
    klass = random_table_class(rng, 8, 16)
    mu = FiniteMeasure.uniform(klass.ground)
    anchors = mu.sample_block(rng, 64)
    f_vals = klass.evaluate_block(anchors)  # (8, 64)
    n = 64
    target = f_vals @ f_vals.T / n
    draws = 10_000
    gammas = rng.standard_normal((draws, n))
    omegas = gammas @ f_vals.T / math.sqrt(n)  # (draws, 8)
    emp = omegas.T @ omegas / draws
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / draws)
    assert np.all(np.abs(emp - target) <= 4 * se)


# ---------------------------------------------------------------------------
# stability trend and anchor wrapper
# ---------------------------------------------------------------------------

def test_with_anchor_point_wrapper():
    rng = make_rng(8, 0)
    klass = random_table_class(rng, 5, 6)
    mu = FiniteMeasure.uniform(klass.ground)
    wrapped, mu2 = with_anchor_point(klass, mu)
    star = wrapped.ground.size - 1
    for h in range(len(wrapped)):
        assert wrapped.evaluate(h, ContextPoint(id=star, coordinate=0.5)) == 1.0
    assert mu2.probs[star] == pytest.approx(2 / 3)
    np.testing.assert_allclose(mu2.probs[:-1], mu.probs / 3)


def test_switch_probability_nonincreasing_in_eta():
    """Under the shared-perturbation coupling, larger eta makes the leader stickier.

    f_t and f_{t+1} share one perturbation draw and differ by a single history
    row, mirroring the coupling the stability analysis uses.
    """
    rng = make_rng(9, 0)
    klass = random_table_class(rng, 16, 12, binary=True)
    mu = FiniteMeasure.uniform(klass.ground)
    klass, mu = with_anchor_point(klass, mu)
    loss = linear_loss()
    # label-balanced pairs tie every hypothesis exactly, so the switch
    # probability is governed by the perturbation scale alone
    hist_rng = make_rng(9, 1)
    history = []
    for _ in range(15):
        ctx = klass.ground.point(int(hist_rng.integers(klass.ground.size)))
        history += [(ctx, 1.0), (ctx, -1.0)]
    extra = _history(make_rng(9, 2), klass, 1)
    oracle_t = _oracle_with(klass, loss, history)
    oracle_next = _oracle_with(klass, loss, history + extra)
    trials = 1500
    rates = []
    for eta in (1.0, 10.0, 100.0):
        switches = 0
        sub_rng = make_rng(9, 3)
        for _ in range(trials):
            pert = draw_perturbation(mu, 32, sub_rng)
            f_t = ftpl_select_classification(pert, eta, oracle_t)
            f_next = ftpl_select_classification(pert, eta, oracle_next)
            switches += f_t != f_next
        rates.append(switches / trials)
    se = math.sqrt(0.25 / trials)
    assert rates[1] <= rates[0] + 3 * se
    assert rates[2] <= rates[1] + 3 * se


# ---------------------------------------------------------------------------
# learner wrapper
# ---------------------------------------------------------------------------

def test_learner_enforces_properness_order():
    rng = make_rng(10, 0)
    klass = random_table_class(rng, 4, 6, binary=True)
    mu = FiniteMeasure.uniform(klass.ground)
    loss = linear_loss()
    sched = schedule(8, 0.5, L=loss.lipschitz_L, variant="classification")
    learner = FtplLearner("classification", klass, loss, mu, sched,
                          ErmOracle(klass, loss), make_rng(10, 1))
    with pytest.raises(RuntimeError, match="select"):
        learner.predict(klass.ground.point(0))
    h = learner.select()
    yhat = learner.predict(klass.ground.point(0))
    assert yhat == klass.evaluate(h, klass.ground.point(0))
    learner.observe(klass.ground.point(0), 1.0)
    with pytest.raises(RuntimeError):
        learner.predict(klass.ground.point(1))  # must re-select each round


def test_learner_variant_validation():
    rng = make_rng(11, 0)
    real_klass = random_table_class(rng, 4, 6, binary=False)
    mu = FiniteMeasure.uniform(real_klass.ground)
    loss = linear_loss()
    sched = schedule(8, 0.5, L=loss.lipschitz_L, variant="classification")
    with pytest.raises(ValueError, match="binary"):
        FtplLearner("classification", real_klass, loss, mu, sched,
                    ErmOracle(real_klass, loss), make_rng(11, 1))
    with pytest.raises(ValueError, match="unknown variant"):
        FtplLearner("tripe", real_klass, loss, mu, sched,
                    ErmOracle(real_klass, loss), make_rng(11, 2))
    # dual and single variants refuse schedules without a label grid
    with pytest.raises(ValueError, match="epsilon"):
        FtplLearner("dual", real_klass, loss, mu, sched,
                    ErmOracle(real_klass, loss), make_rng(11, 3))


def test_approximate_selection_respects_slack_band():
    rng = make_rng(12, 0)
    klass = random_table_class(rng, 10, 8, binary=True)
    mu = FiniteMeasure.uniform(klass.ground)
    loss = linear_loss()
    history = _history(rng, klass, 20)
    oracle = _oracle_with(klass, loss, history)
    zeta = 0.05
    for _ in range(50):
        pert = draw_perturbation(mu, 16, rng)
        idx = ftpl_select_classification(pert, 2.0, oracle, zeta=zeta, rng=rng)
        obj = np.zeros(len(klass))
        for ctx, y in history:
            for h in range(len(klass)):
                obj[h] += loss.evaluate(klass.evaluate(h, ctx), y)
        obj += 2.0 * omega_values(pert, klass)
        total_abs = len(history) + np.abs(2.0 * pert.scale * pert.coeffs).sum()
        assert obj[idx] <= obj.min() + zeta * total_abs + 1e-9
