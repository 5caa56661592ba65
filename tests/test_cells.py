"""Cells of a finite base measure: maximal sets of atoms with equal value columns.

The playout and the FTPL perturbations see the class only through per-cell
sums, so drawing them over the cells must give the law of drawing them over
the atoms; these tests check the partition itself and that law.
"""

from dataclasses import replace

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
    product_class,
    product_measure,
    scaled_square_loss,
)
from smoothol import ftpl, relaxation
from smoothol.ftpl import FtplLearner, epsilon_grid, draw_perturbation, schedule
from smoothol.oracle import IDENTITY, MAIN, ErmOracle, ErmQuery
from smoothol.relaxation import RelaxLinearLearner, draw_playout

from conftest import OnDoubles, random_table_class, sample


def _cell_of_atoms(klass, mu, cells) -> np.ndarray:
    """Each atom's cell: the one representative whose column equals the atom's."""
    atoms = klass.evaluate_block(mu.atoms).T
    reps = klass.evaluate_block(cells.atoms).T
    match = (atoms[:, None, :] == reps[None, :, :]).all(axis=2)
    assert np.array_equal(match.sum(axis=1), np.ones(len(atoms)))  # one cell each
    return match.argmax(axis=1)


def _shuffled_table(rng):
    """4 distinct columns, each repeated on 3 atoms spread across a 12-atom grid."""
    columns = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0],
                        [0.5, 0.0, -0.5, 0.25]])
    klass = TableClass(columns[:, rng.permutation(np.arange(12) % 4)], ground=GroundSet.grid(12))
    return klass, FiniteMeasure(klass.ground, rng.dirichlet(np.ones(12)))


# ---------------------------------------------------------------------------
# the partition
# ---------------------------------------------------------------------------

def test_ground_set_id_map():
    ground = GroundSet(3, coords=np.array([0.1, 0.4, 0.9]), ids=np.array([4, 7, 9]))
    block = ground.block(np.array([2, 0]))
    assert np.array_equal(block.ids, [9, 4]) and np.array_equal(block.coords, [0.9, 0.1])
    with pytest.raises(ValueError, match="ids length"):
        GroundSet(3, ids=np.array([4, 7]))


@settings(max_examples=80, deadline=None)
@given(atoms=st.integers(1, 24), distinct=st.integers(1, 6), n_hyp=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cell_partition_property(atoms, distinct, n_hyp, seed):
    rng = make_rng(seed, 0)
    columns = np.round(rng.uniform(-1.0, 1.0, (n_hyp, distinct)), 1)  # may repeat too
    values = columns[:, rng.integers(0, distinct, atoms)]
    probs = rng.dirichlet(np.ones(atoms))
    probs[rng.random(atoms) < 0.2] = 0.0  # cells of mass 0 are cells too
    if probs.sum() == 0.0:
        probs[0] = 1.0
    klass = TableClass(values, ground=GroundSet.grid(atoms))
    mu = FiniteMeasure(klass.ground, probs / probs.sum())
    cells = klass.cell_measure(mu)
    reps = cells.atoms.ids
    cell_of = _cell_of_atoms(klass, mu, cells)
    # every atom's column equals its representative's, and the representatives differ
    assert np.array_equal(values, values[:, reps[cell_of]])
    assert np.array_equal(np.unique(cell_of), np.arange(len(reps)))
    # each representative is its cell's first atom, and cells follow them
    assert np.array_equal(reps, [np.flatnonzero(cell_of == c)[0] for c in range(len(reps))])
    assert np.all(np.diff(reps) > 0)
    assert np.array_equal(cells.atoms.coords, klass.ground.coords[reps])
    # a cell's mass is its atoms' mass
    for c in range(len(reps)):
        assert cells.probs[c] == pytest.approx(mu.probs[cell_of == c].sum(), abs=1e-15)
    distinct_columns = len(np.unique(values.T, axis=0)) == atoms
    assert (cells is mu) == distinct_columns


def test_distinct_columns_keep_mu_itself():
    """The bandit's random product class has distinct columns, so its stream is unchanged."""
    klass = product_class(make_rng(7, 9).random((4, 16, 2)))
    mu = product_measure(FiniteMeasure.uniform(GroundSet.grid(16)), 2)
    assert klass.cell_measure(mu) is mu


@pytest.mark.parametrize("space", ["uniform-merged", "dirichlet-merged", "interval",
                                   "interval-on-thresholds"])
def test_cell_measure_draws_the_cell_of_mus_own_draw(space):
    """At the same seed, byte for byte, a cell measure's ``sample_ids`` is the cell that
    holds mu's own draw, and that cell holds the draw's value column: on a finite mu,
    through mu's ``sample_ids`` (integers for a uniform mu, the CDF otherwise); on the
    interval, the gap [left_c, left_c+1) that holds each double, thresholds repeated and
    outside [0, 1] included, and doubles placed exactly on every threshold."""
    rng, size = make_rng(39, 0), 5000
    if space.endswith("merged"):
        klass, mu = _shuffled_table(rng)
        if space == "uniform-merged":
            mu = FiniteMeasure.uniform(klass.ground)
            assert mu.draws_integers
        cells = klass.cell_measure(mu)
        cell_of = _cell_of_atoms(klass, mu, cells)
        drawn, reference = make_rng(39, 1), make_rng(39, 1)
        atoms = mu.sample_ids(reference, size)
        points, expected = mu.ground.block(atoms), cell_of[atoms]
    else:
        klass = ThresholdClass(np.r_[rng.random(6), 0.25, 0.25, 0.0, -0.5, 1.5])
        cells = klass.cell_measure(UniformIntervalMeasure())
        left = cells.atoms.coords
        drawn, reference = make_rng(39, 1), make_rng(39, 1)
        if space == "interval-on-thresholds":
            doubles = np.r_[np.clip(klass.thetas, 0.0, 1.0), 0.0, np.nextafter(left[1:], 0.0)]
            drawn, reference = OnDoubles(drawn, doubles), OnDoubles(reference, doubles)
            size = len(doubles)
        u = reference.random(size)
        points = ContextBlock(coords=u)
        expected = (left[None, :] <= u[:, None]).sum(axis=1) - 1  # the last left end <= u
    ids = cells.sample_ids(drawn, size)
    assert ids.dtype == np.int64 and ids.tobytes() == expected.tobytes()
    assert drawn.integers(2**62) == reference.integers(2**62)  # the same numbers read
    assert np.array_equal(klass.evaluate_block(cells.atoms)[:, ids],
                          klass.evaluate_block(points))
    distinct = random_table_class(make_rng(39, 2), 3, 12)
    mu = FiniteMeasure.uniform(distinct.ground)
    assert distinct.cell_measure(mu) is mu  # every column distinct: mu's own draws


def test_threshold_grid_table_has_one_cell_per_gap(monkeypatch):
    """64 thresholds restricted to 256 grid atoms: 65 distinct columns."""
    ground = GroundSet.grid(256)
    values = ThresholdClass.grid(64).evaluate_block(ContextBlock(coords=ground.coords))
    klass, loss = TableClass(values, ground=ground, kind="binary"), linear_loss()
    learner = RelaxLinearLearner(klass, loss, FiniteMeasure.uniform(ground), 6, 0.5,
                                 ErmOracle(klass, loss), make_rng(31, 0))
    assert learner.cells.ground.size == 65
    assert learner.cells.probs.sum() == pytest.approx(1.0, abs=1e-12)
    drawn, draw = [], relaxation.draw_playout
    monkeypatch.setattr(relaxation, "draw_playout",
                        lambda *a, **kw: drawn.append(draw(*a, **kw)) or drawn[-1])
    for t in range(3):  # the representatives' block is built once, not per round
        x = FiniteMeasure.uniform(ground).sample_point(make_rng(31, 1 + t))
        learner.predict(x)
        learner.observe(x, 1.0)
    assert len(drawn) == 1  # rounds 1..6 as one block
    assert all(playout.contexts is learner.cells.atoms for playout in drawn)


# ---------------------------------------------------------------------------
# per-cell draws against per-atom draws of the same class
# ---------------------------------------------------------------------------

def _same_law_pvalue(a, b, bins=None):
    """Chi-square p-value that samples a and b share one law, over their values or
    over ``bins`` pooled quantile bins; values seen fewer than 10 times are pooled."""
    if bins is not None:
        edges = np.unique(np.quantile(np.concatenate((a, b)), np.linspace(0, 1, bins + 1)))
        a, b = np.digitize(a, edges[1:-1]), np.digitize(b, edges[1:-1])
    values = np.union1d(a, b)
    table = np.array([[np.sum(s == v) for v in values] for s in (a, b)])
    rare = table.sum(axis=0) < 10
    if rare.any():
        table = np.column_stack((table[:, ~rare], table[:, rare].sum(axis=1)))
    return stats.chi2_contingency(table).pvalue


def test_playout_per_cell_matches_per_atom_in_law():
    klass, mu = _shuffled_table(make_rng(32, 0))
    cells = klass.cell_measure(mu)
    cell_of = _cell_of_atoms(klass, mu, cells)
    draws = 20_000
    rng_cells, rng_atoms = make_rng(32, 1), make_rng(32, 2)
    per_cell = np.array([draw_playout(cells, 3, 2, rng_cells).signs for _ in range(draws)])
    per_atom = np.array([np.bincount(cell_of, weights=draw_playout(mu, 3, 2, rng_atoms).signs)
                         for _ in range(draws)])
    assert per_cell.shape == per_atom.shape == (draws, 4)
    for c in range(4):  # each cell's net sign count
        assert _same_law_pvalue(per_cell[:, c], per_atom[:, c]) > 1e-3


@pytest.mark.parametrize("labelled", [False, True], ids=["omega", "omega-prime"])
def test_perturbation_per_cell_matches_per_atom_in_law(labelled, monkeypatch):
    """Each cell's (or each (cell, label) pair's) summed coefficient, n = 30 anchors.  The
    12 atoms have 36 (atom, label) pairs, so the per-cell route is forced on them."""
    monkeypatch.setattr(ftpl, "fewer_cells", lambda *a: True)
    klass, mu = _shuffled_table(make_rng(33, 0))
    cells = klass.cell_measure(mu)
    cell_of = _cell_of_atoms(klass, mu, cells)
    grid = epsilon_grid(1.0) if labelled else None
    normalization = "none" if labelled else "inv_sqrt_n"
    pairs = 4 * (1 if grid is None else len(grid))
    draws = 20_000
    rng_cells, rng_atoms = make_rng(33, 1), make_rng(33, 2)

    def folded(pert):  # coefficients summed per (cell, label) pair, cell-major
        index = cell_of[pert.contexts.ids]
        if grid is not None:
            index = index * len(grid) + np.searchsorted(grid, pert.labels)
        return np.bincount(index, weights=pert.coeffs, minlength=pairs)

    per_cell, per_atom = [], []
    for _ in range(draws):
        pert = draw_perturbation(cells, 30, rng_cells, normalization, grid=grid)
        assert len(pert.coeffs) == pairs
        per_cell.append(folded(pert))
        per_atom.append(folded(draw_perturbation(mu, 30, rng_atoms, normalization, grid=grid)))
    per_cell, per_atom = np.array(per_cell), np.array(per_atom)
    for pair in range(pairs):
        assert _same_law_pvalue(per_cell[:, pair], per_atom[:, pair], bins=10) > 1e-3


@pytest.mark.parametrize("labelled", [False, True], ids=["omega", "omega-prime"])
def test_per_cell_band_is_a_sum_of_n_half_normals(labelled):
    """A per-cell draw with the band carries sum |gamma| over its n = 30 normals: by KS,
    a sum of 30 half-normals, and never below the sum of its cells' |coefficients|."""
    klass, mu = _shuffled_table(make_rng(38, 0))
    grid = epsilon_grid(1.0) if labelled else None
    pert = draw_perturbation(klass.cell_measure(mu), 30, make_rng(38, 1),
                             "none" if labelled else "inv_sqrt_n", grid=grid,
                             rounds=20_000, band=True)
    assert pert.abs_sum.shape == (20_000,)
    assert np.all(np.abs(pert.coeffs).sum(axis=1) <= pert.abs_sum * (1 + 1e-12))
    reference = np.abs(make_rng(38, 2).standard_normal((20_000, 30))).sum(axis=1)
    assert stats.ks_2samp(pert.abs_sum, reference).pvalue > 1e-3


# ---------------------------------------------------------------------------
# the value matrix: each learner evaluates the class on its cells once, and its
# per-cell blocks carry that matrix to the oracle; each route is checked against
# evaluating the block's contexts, the route the oracle takes without it
# ---------------------------------------------------------------------------

def _threshold_space(interval):
    """64 thresholds on the interval, or as a table on the 256-atom grid."""
    thresholds = ThresholdClass.grid(64)
    if interval:
        return thresholds, UniformIntervalMeasure()
    ground = GroundSet.grid(256)
    table = TableClass(thresholds.evaluate_block(ContextBlock(coords=ground.coords)),
                       ground=ground, kind="binary")
    return table, FiniteMeasure.uniform(ground)


@pytest.mark.parametrize("interval", [False, True], ids=["grid", "interval"])
def test_playout_value_matrix_matches_both_evaluations_bit_for_bit(interval):
    klass, mu = _threshold_space(interval)
    loss = linear_loss()
    learner = RelaxLinearLearner(klass, loss, mu, 2000, 0.2, ErmOracle(klass, loss),
                                 make_rng(34, 0))
    cells = learner.cells
    assert len(cells.atoms) == 65 and np.array_equal(learner.values,
                                                      klass.evaluate_block(cells.atoms))
    rng, oracle = make_rng(34, 1), ErmOracle(klass, loss)  # no history: the block's own sum
    for _ in range(2000):
        playout = draw_playout(cells, int(rng.integers(1, 2000)), learner.state.k, rng,
                               learner.values)
        w = -6.0 * loss.lipschitz_L * playout.signs.astype(np.float64)
        fast = oracle.objective_vector(
            ErmQuery().add_block(IDENTITY, cells.atoms, np.zeros(65), w, playout.values))
        evaluated = oracle.objective_vector(ErmQuery().add_block(IDENTITY, cells.atoms,
                                                                 np.zeros(65), w))
        assert np.array_equal(fast, evaluated)
        assert np.array_equal(fast, klass.evaluate_block(cells.atoms) @ w)


@pytest.mark.parametrize("interval", [False, True], ids=["grid", "interval"])
def test_relaxation_rounds_never_reach_identity_dot(interval, monkeypatch):
    klass, mu = _threshold_space(interval)
    loss = linear_loss()
    learner = RelaxLinearLearner(klass, loss, mu, 50, 0.2, ErmOracle(klass, loss),
                                 make_rng(35, 0))

    def refuse(*args):
        raise AssertionError("a playout was evaluated again")

    monkeypatch.setattr(type(klass), "identity_dot", refuse)
    rng = make_rng(35, 1)
    for _ in range(10):
        x = sample(mu, rng)
        learner.predict(x)
        learner.observe(x, float(rng.choice([-1.0, 1.0])))


@pytest.mark.parametrize("interval", [False, True], ids=["grid", "interval"])
def test_per_cell_gaussian_coefficients_match_evaluating_the_cells_bit_for_bit(interval):
    """V @ w of the carried values against evaluating the cells: the same product of
    equal arrays."""
    klass, mu = _threshold_space(interval)
    cells = klass.cell_measure(mu)
    values = klass.evaluate_block(cells.atoms)
    rng, oracle = make_rng(36, 0), ErmOracle(klass, linear_loss())
    for _ in range(2000):
        pert = draw_perturbation(cells, 14_143, rng, values=values)
        w = 71.3 * pert.scale * pert.coeffs
        fast = oracle.objective_vector(
            ErmQuery().add_block(IDENTITY, pert.contexts, np.zeros(65), w, pert.values))
        assert np.array_equal(fast, klass.evaluate_block(pert.contexts) @ w)


@pytest.mark.parametrize("loss", [linear_loss(), absolute_loss(), scaled_square_loss()],
                         ids=lambda loss: loss.kind)
def test_per_cell_label_anchor_values_match_evaluating_the_pairs_bit_for_bit(loss, monkeypatch):
    """omega' per cell: the learner's value matrix over its (cell, label) pairs gives
    the oracle's loss(values, labels) @ w of evaluating the pairs, bit for bit, round
    by round; the block's rounds, evaluated together, agree within 1e-12 * sum|w|."""
    klass, mu = _threshold_space(False)
    drawn, draw = [], ftpl.draw_perturbation
    monkeypatch.setattr(ftpl, "draw_perturbation", lambda *a, **kw: drawn.append(draw(*a, **kw))
                        or drawn[-1])
    for T in (40, 1):  # a block of the horizon's 40 rounds, and a one-round block
        sched = schedule(40, 0.5, L=loss.lipschitz_L, variant="single")
        sched = replace(sched, n=10**6, eta=1e3, T=T)  # more anchors than (cell, label) pairs
        learner = FtplLearner("single", klass, loss, mu, sched, ErmOracle(klass, loss),
                              make_rng(37, 0))
        for _ in range(T):
            learner.select()
    assert [len(pert.coeffs) for pert in drawn] == [40, 1]
    block_oracle = ErmOracle(klass, loss)
    for pert in drawn:
        assert pert.values is not None and pert.coeffs.shape[1] == 65 * len(learner.grid)
        losses = loss.evaluate_array(klass.evaluate_block(pert.contexts), pert.labels[None, :])
        stacked = ErmQuery(len(pert.coeffs)).add_block(MAIN, pert.contexts, pert.labels,
                                                      pert.coeffs, pert.values)
        for i, w in enumerate(pert.coeffs):
            reference = losses @ w
            carried = ErmQuery().add_block(MAIN, pert.contexts, pert.labels, w, pert.values)
            evaluated = ErmQuery().add_block(MAIN, pert.contexts, pert.labels, w)
            assert np.array_equal(block_oracle.objective_vector(carried), reference)
            assert np.array_equal(block_oracle.objective_vector(evaluated), reference)
            gap = np.abs(block_oracle.objective_vector(stacked, i) - reference).max()
            assert gap <= 1e-12 * np.abs(w).sum()
