"""omega' summed per cell: the label-anchor process through its loss's coefficients in f.

A per-anchor draw of omega'(f) = sum_j gamma_j l(f(Z_j), y_j)
reaches the oracle as per-(power, cell) sums over the class's stacked values
[1 | V | V^2] wherever l is a polynomial of degree at most 2 in f on the class.
These tests hold that route, and the band it carries for an approximate oracle,
against evaluating every anchor, and check where it must not apply.
"""

import numpy as np
import pytest

from smoothol import ftpl
from smoothol.bandit import build_bandit_pieces
from smoothol.core import (
    LOSSES,
    FiniteMeasure,
    GroundSet,
    TableClass,
    ThresholdClass,
    UniformIntervalMeasure,
    absolute_loss,
    make_rng,
    product_class,
    product_measure,
)
from smoothol.ftpl import (
    FtplLearner,
    FtplSchedule,
    GaussianPerturbation,
    draw_perturbation,
    epsilon_grid,
    label_anchor_sums,
    schedule,
)
from smoothol.harness import ExperimentConfig
from smoothol.oracle import IDENTITY, MAIN, ErmOracle

from conftest import OnDoubles, random_table_class, sample

# |reduced - per anchor| per round, relative to that round's sum |gamma_j|: each of the
# n <= a few hundred terms is at most 4 in size and rounds within 1e-16 of it
TOL = 1e-12


def _space(kind: str, rng: np.random.Generator):
    """(class, base measure) of each kind of space the reduction meets."""
    if kind == "binary-table":
        klass = random_table_class(rng, 6, 12, binary=True)
        return klass, FiniteMeasure(klass.ground, rng.dirichlet(np.ones(12)))
    if kind == "real-table":  # repeated columns: fewer cells than atoms
        klass = random_table_class(rng, 5, 6)
        klass = TableClass(klass.values[:, rng.integers(0, 6, 14)], ground=GroundSet.grid(14))
        return klass, FiniteMeasure.uniform(klass.ground)
    if kind == "product":
        klass = product_class(np.round(rng.random((4, 8, 2)), 3))
        return klass, product_measure(FiniteMeasure.uniform(GroundSet.grid(8)), 2)
    if kind == "thresholds-grid":
        ground = GroundSet.grid(40)
        return ThresholdClass.grid(8), FiniteMeasure(ground, rng.dirichlet(np.ones(40)))
    return ThresholdClass(np.r_[rng.random(6), 0.25, 0.25, -0.5, 1.5]), UniformIntervalMeasure()


def _anchors(mu, n: int, rounds, grid: np.ndarray, rng) -> GaussianPerturbation:
    """Reference: per-anchor omega' drawn on ``mu`` itself, in ``draw_perturbation``'s order."""
    size = n * (rounds or 1)
    contexts = sample(mu, rng, size)
    coeffs = rng.standard_normal(n if rounds is None else (rounds, n))
    labels = grid[rng.integers(0, len(grid), size)]
    return GaussianPerturbation(contexts, coeffs, "none", labels, n)


def _per_anchor(klass, loss, pert: GaussianPerturbation) -> np.ndarray:
    """(rounds, H): loss(values[:, anchors], labels) @ gamma, round by round."""
    values = klass.evaluate_block(pert.contexts)
    coeffs = pert.coeffs.reshape(-1, pert.n)
    return np.array([loss.evaluate_array(values[:, i * pert.n:(i + 1) * pert.n],
                                         pert.labels[None, i * pert.n:(i + 1) * pert.n]) @ w
                     for i, w in enumerate(coeffs)])


SPACES = ["binary-table", "real-table", "product", "thresholds-grid", "thresholds-interval"]


@pytest.mark.parametrize("rounds", [None, 1, 7, 64])
@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("name", list(LOSSES))
def test_reduced_block_matches_every_anchor_evaluated(name, space, rounds):
    """The oracle's objective of the reduced block, every round of it, against
    loss(values[:, anchors], labels) @ gamma with the anchors drawn on mu, within
    TOL * sum |gamma|: the full objective, its constant (the k = 0 rows) included.  On
    the interval, the anchors include every (clipped) threshold and 0."""
    rng = make_rng(91, SPACES.index(space), list(LOSSES).index(name))
    loss, (klass, mu) = LOSSES[name](), _space(space, rng)
    cells, grid = klass.cell_measure(mu), epsilon_grid(0.1, *loss.domain)
    sums = label_anchor_sums(klass, loss, cells, grid)
    if klass.kind == "real" and loss.degree is None:
        assert sums is None  # absolute loss on a real class keeps per-anchor rows
        return
    assert not ftpl.fewer_cells(cells, 37, grid)  # per anchor
    draws = [make_rng(91), make_rng(91)]
    if space == "thresholds-interval":
        points = np.r_[np.clip(klass.thetas, 0.0, 1.0), 0.0]
        size = 37 * (rounds or 1)
        doubles = rng.permutation(np.r_[points, rng.random(size - len(points))])
        draws = [OnDoubles(draw, doubles) for draw in draws]
    pert = _anchors(mu, 37, rounds, grid, draws[0])
    reduced = draw_perturbation(cells, 37, draws[1], "none", grid=grid, rounds=rounds,
                                sums=sums)  # the same draws, each anchor as its cell, summed
    assert reduced.labels is None and reduced.n == 37
    columns = len(sums.coefs) * cells.ground.size  # a row per power and cell
    assert reduced.coeffs.shape == pert.coeffs.shape[:-1] + (columns,)
    oracle = ErmOracle(klass, loss)
    query = ftpl._query(None, reduced, 0.0, 1.0)
    assert [b.selector for b in query.blocks] == [IDENTITY]
    reference = _per_anchor(klass, loss, pert)
    for i, row in enumerate(pert.coeffs.reshape(-1, 37)):
        gap = np.abs(oracle.objective_vector(query, i) - reference[i]).max()
        assert gap <= TOL * np.abs(row).sum()


@pytest.mark.parametrize("space", SPACES)
def test_atom_cells_map_each_anchor_to_a_cell_with_its_values(space):
    """Every anchor's cell holds the anchor's value column, on thresholds exactly too: the
    cell measure's ``sample_ids`` against mu's own draw at the same seed."""
    rng = make_rng(92, SPACES.index(space))
    klass, mu = _space(space, rng)
    cells = klass.cell_measure(mu)
    draws = [make_rng(92), make_rng(92)]
    if space == "thresholds-interval":
        points = np.r_[np.clip(klass.thetas, 0.0, 1.0), 0.0]
        doubles = rng.permutation(np.r_[points, rng.random(300 - len(points))])
        draws = [OnDoubles(draw, doubles) for draw in draws]
    contexts, cell = sample(mu, draws[0], 300), cells.sample_ids(draws[1], 300)
    assert np.array_equal(klass.evaluate_block(cells.atoms)[:, cell],
                          klass.evaluate_block(contexts))


@pytest.mark.parametrize("name", list(LOSSES))
def test_loss_coefficients_reproduce_the_loss(name):
    """sum_k c_k(y) f^k against fn on random pairs: for f in {-1, 1} at degree 1 for
    every loss, and for f anywhere in [-1, 1] at the loss's own degree."""
    loss, rng = LOSSES[name](), make_rng(93, list(LOSSES).index(name))
    y = rng.uniform(*loss.domain, 10**4)
    signs = rng.choice([-1.0, 1.0], 10**4)
    c = loss.coefficients(y, 1)
    assert np.abs(c[0] + c[1] * signs - loss.fn(signs, y)).max() <= 1e-15
    if loss.degree is None:
        f = rng.uniform(-1.0, 1.0, 10**4)  # absolute loss: no polynomial of degree <= 2
        assert all(np.abs(sum(c * f**k for k, c in enumerate(loss.coefficients(y, d)))
                          - loss.fn(f, y)).max() > 0.1 for d in (1, 2))
        return
    f = rng.uniform(-1.0, 1.0, 10**4)
    c = loss.coefficients(y, loss.degree)
    assert len(c) == loss.degree + 1
    # a few roundings of terms at most 4 in size
    assert np.abs(sum(ck * f**k for k, ck in enumerate(c)) - loss.fn(f, y)).max() <= 1e-14


def _learner(space: str, name: str, variant: str, seed: int, reference: bool, monkeypatch,
             zeta: float = 0.0):
    rng = make_rng(94, SPACES.index(space))
    loss, (klass, mu) = LOSSES[name](), _space(space, rng)
    sched = schedule(150, 0.3, L=loss.lipschitz_L, variant=variant,  # blocks of 64, 64, 22
                     zeta=zeta)
    with monkeypatch.context() as m:
        if reference:
            m.setattr(ftpl, "label_anchor_sums", lambda *a: None)
        learner = FtplLearner(variant, klass, loss, mu, sched, ErmOracle(klass, loss),
                              make_rng(seed, 1))
    assert (learner._processes[1].get("sums") is None) == reference
    return learner, mu, loss


@pytest.mark.parametrize("variant", ["dual", "single"])
@pytest.mark.parametrize("space,name", [("thresholds-grid", "linear"),
                                        ("thresholds-grid", "absolute"),
                                        ("thresholds-interval", "scaled_square"),
                                        ("binary-table", "square"),
                                        ("real-table", "scaled_square"),
                                        ("product", "square")])
def test_learner_selections_match_the_per_anchor_reference(space, name, variant, monkeypatch):
    """The same seed with and without the reduction: the same draws, the same history,
    and the same hypothesis every round to the horizon (no near-tie at these seeds)."""
    for seed in (0, 1):
        fast, mu, loss = _learner(space, name, variant, seed, False, monkeypatch)
        slow, _, _ = _learner(space, name, variant, seed, True, monkeypatch)
        history = make_rng(seed, 2)
        for _ in range(150):
            assert fast.select() == slow.select()
            x = sample(mu, history)
            y = float(history.uniform(*loss.domain))
            fast.observe(x, y)
            slow.observe(x, y)
        assert np.array_equal(fast.oracle.prefix, slow.oracle.prefix)
        assert fast.oracle.calls == slow.oracle.calls == 150
        assert fast.rng.integers(2**62) == slow.rng.integers(2**62)  # the same draws made


@pytest.mark.parametrize("variant", ["dual", "single"])
@pytest.mark.parametrize("space,name", [("binary-table", "absolute"),
                                        ("thresholds-interval", "scaled_square"),
                                        ("product", "square")])
def test_summed_label_anchors_carry_the_band_of_their_draws(space, name, variant, monkeypatch):
    """With zeta > 0, each round's sum |w| of the query with omega' summed against that of
    the same draws left as per-anchor main-loss rows (same seed): within 1e-12 of it."""
    fast, _, _ = _learner(space, name, variant, 0, False, monkeypatch, zeta=0.05)
    slow, _, _ = _learner(space, name, variant, 0, True, monkeypatch, zeta=0.05)
    fast.select()
    slow.select()
    assert fast._query.blocks[-1].abs_weight is not None
    assert slow._query.blocks[-1].abs_weight is None  # summed from its weights
    for i in range(fast._query.rounds):
        reference = slow._query.total_abs_weight(i)
        assert abs(fast._query.total_abs_weight(i) - reference) <= 1e-12 * reference


def test_per_anchor_rows_stay_where_the_reduction_does_not_apply():
    """For absolute loss on a real class, at any zeta, omega' still reaches the oracle
    as per-anchor main-loss rows."""
    rng = make_rng(95, 0)
    klass = random_table_class(rng, 5, 12)
    mu, loss = FiniteMeasure.uniform(klass.ground), absolute_loss()
    sched = FtplSchedule(eta=1.0, n=40, m=40, epsilon=0.1, zeta=0.05)
    learner = FtplLearner("dual", klass, loss, mu, sched, ErmOracle(klass, loss),
                          make_rng(95, 1))
    assert learner._processes[1].get("sums") is None
    learner.select()
    block = learner._query.blocks[-1]
    assert block.selector == MAIN and block.values is None and len(block) == 40


def test_bench_bandit_regressor_builds_no_per_anchor_main_loss_block():
    """The bandit workload's setup (K = 2, 16 atoms, H = 4, T = 20,000, sigma = 0.5):
    its ftpl-dual regressor's omega' is summed per cell, so no round evaluates
    per-anchor main-loss rows."""
    raw = {"K": 2, "sigma": 0.5, "T": 20000, "regressor": "ftpl-dual",
           "ground": {"atoms": 16}, "class": {"type": "random_product", "H": 4},
           "class_seed": 7, "seeds": [0], "output_dir": None}
    _, regressor, _, _ = build_bandit_pieces(ExperimentConfig.from_dict(raw, bandit=True), 0)
    assert regressor._processes[1]["sums"] is not None
    regressor.select()
    assert all(b.selector == IDENTITY and b.values is not None
               for b in regressor._query.blocks)
    assert regressor._query.blocks[-1].weights.shape == (64, 3 * 32)  # 1, f, f^2 per cell


@pytest.mark.parametrize("shapes", [[(8, 3), (6, 4)], [(6, 4), (8, 3)], [(24, None), (24, 1)],
                                    [(24, 1), (24, None)]], ids=str)
def test_kept_buffers_follow_the_coefficient_shape(shapes):
    """Draws of (n, rounds) with one anchor count but another shape, through one kept
    ``LabelAnchorSums``, each equal bit for bit to a fresh object's draw at the same seed:
    keyed by the anchor count, (6, 4) after (8, 3) kept the old round offsets, and (8, 3)
    after (6, 4) failed to reshape."""
    rng = make_rng(96, 0)
    klass, loss = random_table_class(rng, 4, 5), LOSSES["square"]()
    cells = klass.cell_measure(FiniteMeasure.uniform(klass.ground))
    grid = epsilon_grid(0.1, *loss.domain)
    kept = label_anchor_sums(klass, loss, cells, grid)
    for i, (n, rounds) in enumerate(shapes):
        assert not ftpl.fewer_cells(cells, n, grid)  # per anchor, so summed by ``sums``
        drawn = [draw_perturbation(cells, n, make_rng(96, 1, i), "none", grid=grid,
                                   rounds=rounds, sums=sums)
                 for sums in (kept, label_anchor_sums(klass, loss, cells, grid))]
        assert drawn[0].coeffs.shape == drawn[1].coeffs.shape
        assert np.array_equal(drawn[0].coeffs, drawn[1].coeffs)
        assert np.array_equal(drawn[0].abs_sum, drawn[1].abs_sum)
