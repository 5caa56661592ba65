import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from smoothol import ftpl
from smoothol.core import (
    ContextBlock,
    FiniteMeasure,
    GroundSet,
    TableClass,
    ThresholdClass,
    UniformIntervalMeasure,
    linear_loss,
    make_rng,
)
from smoothol.ftpl import (
    FtplLearner,
    FtplSchedule,
    GaussianPerturbation,
    draw_perturbation,
    epsilon_grid,
    fewer_cells,
    ftpl_select_classification,
    ftpl_select_dual,
    ftpl_select_single,
    schedule,
)
from smoothol.oracle import ErmOracle

from conftest import atom, random_table_class, sample


def omega_values(pert, klass, loss=None):
    """Reference: each hypothesis's perturbation value by direct evaluation.

    With labels and a loss this is omega'(f) = sum_j gamma_j l(f(Z_j), y_j);
    otherwise omega(f) = scale * sum_i gamma_i f(Z_i).
    """
    values = klass.evaluate_block(pert.contexts)
    if pert.labels is not None:
        return loss.evaluate_array(values, pert.labels[None, :]) @ pert.coeffs
    return pert.scale * (values @ pert.coeffs)


def with_anchor_point(klass, mu):
    """Append a point where every hypothesis equals 1 and reweight the base measure.

    The new measure is (1/3) mu + (2/3) delta_{x*}, which lower-bounds every
    hypothesis norm under empirical anchor measures.
    """
    values = np.hstack([klass.values, np.ones((len(klass), 1))])
    coords = None
    if klass.ground.coords is not None:
        coords = np.concatenate([klass.ground.coords, [0.5]])  # x* at an interior point
    ground = GroundSet(size=klass.ground.size + 1, coords=coords)
    probs = np.concatenate([mu.probs / 3.0, [2.0 / 3.0]])
    return TableClass(values, ground=ground, kind=klass.kind), FiniteMeasure(ground, probs)


def _explicit_perturbation(mu, n, rng, grid=None):
    """Reference: every anchor drawn from mu (with a uniform grid label), N(0, 1) each."""
    contexts = sample(mu, rng, n)
    coeffs = rng.standard_normal(n)
    if grid is None:
        return GaussianPerturbation(contexts, coeffs)
    return GaussianPerturbation(contexts, coeffs, "none", grid[rng.integers(0, len(grid), n)])


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


@pytest.mark.parametrize("eps", [1e-300, 5e-324])
def test_epsilon_grid_refuses_more_points_than_an_index_holds(eps):
    """About 2e300 points (an infinite quotient at 5e-324): refused before any is built."""
    with pytest.raises(ValueError, match=f"epsilon = {eps} .* 2\\^63 - 1"):
        epsilon_grid(eps)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(min_value=1e-3, max_value=3.0).map(lambda eps: (eps, False)),
                 st.integers(1, 2000).map(lambda k: (2.0 / k, True))))
def test_epsilon_grid_properties(case):
    eps, divides_two = case
    grid = epsilon_grid(eps)
    assert len(grid) >= 1
    assert grid.min() >= -1.0 and grid.max() <= 1.0
    assert np.all(np.diff(grid) > 0)  # strictly sorted, no duplicates
    # every interior point is an integer multiple of eps
    interior = grid[(np.abs(grid) < 1.0 - 1e-12)]
    np.testing.assert_allclose(interior / eps, np.round(interior / eps), atol=1e-9)
    # every multiple of eps in [-1, 1] is on the grid
    k = np.arange(math.ceil(-1.0 / eps), math.floor(1.0 / eps) + 1)
    multiples = k[np.abs(k * eps) <= 1.0] * eps
    assert np.abs(multiples[:, None] - grid[None, :]).min(axis=1).max() <= 1e-12
    if divides_two:  # both endpoints join
        assert grid[0] == -1.0 and grid[-1] == 1.0
    mu = FiniteMeasure.uniform(GroundSet(size=3))
    pert = draw_perturbation(mu, 20, make_rng(0, 0), normalization="none", eps=eps)
    assert np.isin(pert.labels, grid).all()


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


def test_single_learner_enforces_coupling():
    """The learner names the variant, so it checks eta = sqrt(n): a dual schedule (eta /
    sqrt(n) about 5.4) is refused by the single learner, and played by the dual one."""
    rng = make_rng(13, 0)
    klass = random_table_class(rng, 4, 6, binary=False)
    mu, loss = FiniteMeasure.uniform(klass.ground), linear_loss()

    def learner(variant, sched):
        return FtplLearner(variant, klass, loss, mu, sched, ErmOracle(klass, loss),
                           make_rng(13, 1))

    dual = schedule(50, 0.5, variant="dual")
    assert dual.eta / math.sqrt(dual.n) > 5
    learner("dual", dual).select()
    for sched in (dual, FtplSchedule(eta=3.0, n=4, epsilon=0.5)):
        with pytest.raises(ValueError, match="couples eta = sqrt"):
            learner("single", sched)
    learner("single", FtplSchedule(eta=2.0, n=4, epsilon=0.5)).select()


@pytest.mark.parametrize("m", [0, -3])
def test_schedule_refuses_anchor_counts_below_one(m):
    with pytest.raises(ValueError, match="out of range"):
        FtplSchedule(eta=1.0, n=5, m=m, epsilon=0.5)


# ---------------------------------------------------------------------------
# selection rules
# ---------------------------------------------------------------------------

def _history(rng, klass, t):
    return [(atom(klass.ground, int(rng.integers(klass.ground.size))),
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
            cumulative[h] += loss.evaluate(klass.evaluate_block(ctx)[h, 0], y)
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
            cumulative[h] += loss.evaluate(klass.evaluate_block(ctx)[h, 0], y)
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
            cumulative[h] += loss.evaluate(klass.evaluate_block(ctx)[h, 0], y)
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
            obj[h] += loss.evaluate(klass.evaluate_block(ctx)[h, 0], y)
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
    # omega is drawn per cell, so only on a finite measure such as a class's cells
    with pytest.raises(ValueError, match="cell_measure"):
        draw_perturbation(UniformIntervalMeasure(), 5, rng)


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
# per-cell draws against the explicit per-anchor reference
# ---------------------------------------------------------------------------

_CELL_PROBS = np.array([0.5, 0.3, 0.2])
# zeros on some atoms leave omega(f) an atom at 0 when those cells are empty
_CELL_VALUES = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 1.0], [1.0, -0.5, 0.25]])


@pytest.mark.parametrize("labelled", [False, True], ids=["omega", "omega-prime"])
def test_cell_draws_match_explicit_anchors_in_law(labelled, monkeypatch):
    """3 atoms, n = 4: omega(f) (or omega'(f)) per f, per cell against per anchor, by KS.
    omega' has 9 (cell, label) pairs, so the per-cell route is forced."""
    monkeypatch.setattr(ftpl, "fewer_cells", lambda *a: True)
    mu = FiniteMeasure(GroundSet.grid(3), _CELL_PROBS)
    klass, loss = TableClass(_CELL_VALUES, ground=mu.ground), linear_loss()
    grid = epsilon_grid(1.0) if labelled else None
    n, draws = 4, 20_000
    rng_cells, rng_explicit = make_rng(14, 0), make_rng(14, 1)
    cells, explicit = [], []
    for _ in range(draws):
        pert = draw_perturbation(mu, n, rng_cells, "none" if labelled else "inv_sqrt_n",
                                 grid=grid)
        cells.append(omega_values(pert, klass, loss))
        explicit.append(omega_values(_explicit_perturbation(mu, n, rng_explicit, grid),
                                     klass, loss))
    cells, explicit = np.array(cells), np.array(explicit)
    for f in range(len(klass)):
        assert stats.ks_2samp(cells[:, f], explicit[:, f]).pvalue > 1e-3


def test_empty_cell_probability_is_binomial():
    """A cell's coefficient is 0 exactly when no anchor lands in it: (1 - mu_c)^n."""
    mu = FiniteMeasure(GroundSet.grid(3), _CELL_PROBS)
    n, draws = 4, 20_000
    rng = make_rng(15, 0)
    zeros = np.zeros(3, dtype=np.int64)
    for _ in range(draws):
        zeros += draw_perturbation(mu, n, rng).coeffs == 0.0
    for c in range(3):
        assert stats.binomtest(int(zeros[c]), draws, (1 - _CELL_PROBS[c]) ** n).pvalue > 1e-3


@settings(max_examples=80, deadline=None)
@given(atoms=st.integers(1, 12), n=st.integers(0, 60),
       eps=st.sampled_from([None, 2.0, 1.0, 0.5]), seed=st.integers(0, 2 ** 32 - 1))
def test_perturbation_cells_property(atoms, n, eps, seed):
    mu = FiniteMeasure(GroundSet.grid(atoms), make_rng(seed, 0).dirichlet(np.ones(atoms)))
    grid = None if eps is None else epsilon_grid(eps)
    normalization = "inv_sqrt_n" if eps is None else "none"
    pert = draw_perturbation(mu, n, make_rng(seed, 1), normalization, eps=eps)
    assert pert.n == n
    assert len(pert.coeffs) == len(pert.contexts)
    if eps is None:
        assert pert.scale == (1.0 / math.sqrt(n) if n else 1.0)
    else:
        assert pert.scale == 1.0 and set(pert.labels) <= set(grid)
    cells = atoms * (1 if grid is None else len(grid))
    if grid is None or cells < n:  # omega always per cell, omega' with fewer pairs
        assert len(pert.coeffs) == cells
        if grid is not None:  # every (cell, label) pair exactly once
            assert len(set(zip(pert.contexts.ids, pert.labels))) == cells
        else:
            assert np.array_equal(pert.contexts.ids, np.arange(atoms))
        # with the band, each cell sums its run of n normals, against np.split's runs
        banded = draw_perturbation(mu, n, make_rng(seed, 1), normalization, eps=eps, band=True)
        probs = mu.probs if grid is None else np.repeat(mu.probs / len(grid), len(grid))
        reference = make_rng(seed, 1)
        counts = reference.multinomial(n, probs)
        normals = reference.standard_normal(n)
        runs = [run.sum() for run in np.split(normals, np.cumsum(counts)[:-1])]
        assert np.array_equal(banded.contexts.ids, pert.contexts.ids)
        assert np.abs(banded.coeffs - runs).max(initial=0.0) <= 1e-12 * n
        assert banded.abs_sum == np.abs(normals).sum()
    else:
        reference = _explicit_perturbation(mu, n, make_rng(seed, 1), grid)
        assert np.array_equal(pert.contexts.ids, reference.contexts.ids)
        assert np.array_equal(pert.coeffs, reference.coeffs)
        assert pert.labels is None or np.array_equal(pert.labels, reference.labels)


@pytest.mark.parametrize("variant", ["classification", "dual", "single"])
@pytest.mark.parametrize("interval", [False, True], ids=["grid", "interval"])
def test_approximate_oracle_learner_matches_its_draws_as_anchors(variant, interval):
    """With zeta > 0, omega is drawn per cell with its band, and omega' per anchor from mu
    (then summed per cell): the horizon's 60 rounds as one block, in one call per kind of
    draw.  Laid out as anchors -- each cell's run of normals on the cell, omega''s anchors
    as drawn -- and answered one round at a time, they select the same hypotheses."""
    loss = linear_loss()
    if interval:
        klass, mu = ThresholdClass.grid(8), UniformIntervalMeasure()
    else:
        klass = random_table_class(make_rng(16, 0), 6, 5, binary=(variant == "classification"))
        mu = FiniteMeasure.uniform(klass.ground)
    sched = schedule(60, 0.5, L=loss.lipschitz_L, variant=variant, zeta=0.05)
    learner = FtplLearner(variant, klass, loss, mu, sched, ErmOracle(klass, loss),
                          make_rng(16, 1))
    per_cell = {"classification": [True], "dual": [True, False], "single": [False]}[variant]
    assert [("values" in p) for p in learner._processes if p] == per_cell
    oracle, rng = ErmOracle(klass, loss), make_rng(16, 1)
    history = make_rng(16, 2)
    blocks = []  # each process's 60 rounds of anchors, in the learner's draw order
    if variant != "single":
        m, cells = sched.m or sched.n, learner.cells
        counts = rng.multinomial(m, cells.probs, size=60)
        normals = rng.standard_normal((60, m))
        runs = np.repeat(np.tile(np.arange(cells.ground.size), 60), counts.ravel())
        blocks.append(GaussianPerturbation(cells.ground.block(runs), normals.ravel()))
    if variant != "classification":
        blocks.append(_explicit_perturbation(mu, 60 * sched.n, rng, learner.grid))

    def round_of(block, t):
        n = len(block.coeffs) // 60
        rows = slice(t * n, (t + 1) * n)
        return GaussianPerturbation(block.contexts[rows], block.coeffs[rows],
                                    block.normalization,
                                    None if block.labels is None else block.labels[rows])

    for t in range(40):
        perts = [round_of(block, t) for block in blocks]
        if variant == "classification":
            idx = ftpl_select_classification(perts[0], sched.eta, oracle, sched.zeta, rng)
        elif variant == "dual":
            idx = ftpl_select_dual(perts[0], perts[1], sched.eta, oracle, sched.zeta, rng)
        else:
            idx = ftpl_select_single(perts[0], sched.eta / math.sqrt(sched.n), oracle,
                                     sched.zeta, rng)
        assert learner.select() == idx
        x, y = sample(mu, history), float(history.choice([-1.0, 1.0]))
        learner.observe(x, y)
        oracle.extend_prefix(x, y)


def test_exact_learner_draws_per_cell_only_below_the_anchor_count(monkeypatch):
    loss = linear_loss()
    klass = ThresholdClass.grid(8)
    sched = schedule(60, 0.5, L=loss.lipschitz_L, variant="dual")
    learner = FtplLearner("dual", klass, loss, UniformIntervalMeasure(), sched,
                          ErmOracle(klass, loss), make_rng(17, 0))
    assert learner.cells.ground.size == 9  # the m + 1 gaps between thresholds
    assert learner.cells.ground.size < sched.n  # 9 cells against 11 anchors
    assert not fewer_cells(learner.cells, sched.n, learner.grid)
    drawn, draw = [], ftpl.draw_perturbation
    monkeypatch.setattr(ftpl, "draw_perturbation", lambda *a, **kw: drawn.append(draw(*a, **kw))
                        or drawn[-1])
    history = make_rng(17, 1)
    for _ in range(3):
        learner.select()
        learner.observe(ContextBlock(coords=history.random(1)), 1.0)
    assert len(drawn) == 2  # one block of the horizon's 60 rounds, each process drawn once
    omega, omega_label = drawn
    # omega per cell: one coefficient at each gap's left end per round, with the class's
    # values there
    assert omega.n == sched.n and omega.labels is None and omega.coeffs.shape == (60, 9)
    assert np.array_equal(omega.contexts.coords, learner.cells.atoms.coords)
    assert np.array_equal(omega.values, klass.evaluate_block(learner.cells.atoms))
    # omega' per anchor, drawn from mu and summed per cell and power of f (any loss is
    # affine on a binary class): one coefficient per (power, gap) and round, over [1 | V]
    assert omega_label.n == sched.n and omega_label.labels is None
    assert omega_label.coeffs.shape == (60, 2 * 9)
    assert np.array_equal(omega_label.values, np.hstack([np.ones((8, 9)), omega.values]))


def test_learner_builds_the_label_grid_once(monkeypatch):
    rng = make_rng(18, 0)
    klass = random_table_class(rng, 4, 6)
    mu = FiniteMeasure.uniform(klass.ground)
    loss = linear_loss()
    sched = schedule(50, 0.5, L=loss.lipschitz_L, variant="dual")
    learner = FtplLearner("dual", klass, loss, mu, sched, ErmOracle(klass, loss),
                          make_rng(18, 1))
    calls = []
    monkeypatch.setattr(ftpl, "epsilon_grid", lambda *a: calls.append(a))
    for _ in range(5):
        learner.select()
        learner.observe(atom(klass.ground, 0), 1.0)
    assert calls == []


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
        assert wrapped.evaluate_block(atom(wrapped.ground, star))[h, 0] == 1.0
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
        ctx = atom(klass.ground, int(hist_rng.integers(klass.ground.size)))
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
        learner.predict(atom(klass.ground, 0))
    h = learner.select()
    yhat = learner.predict(atom(klass.ground, 0))
    assert yhat == klass.evaluate_block(atom(klass.ground, 0))[h, 0]
    learner.observe(atom(klass.ground, 0), 1.0)
    with pytest.raises(RuntimeError):
        learner.predict(atom(klass.ground, 1))  # must re-select each round


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
                obj[h] += loss.evaluate(klass.evaluate_block(ctx)[h, 0], y)
        obj += 2.0 * omega_values(pert, klass)
        total_abs = len(history) + np.abs(2.0 * pert.scale * pert.coeffs).sum()
        assert obj[idx] <= obj.min() + zeta * total_abs + 1e-9
