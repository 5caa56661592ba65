"""Block draws: playouts and perturbations drawn for many rounds at once.

A learner's randomness never reads the history, so it draws a block of
rounds with one call per kind of draw, and the oracle evaluates the block's
rows together.  These tests hold each fast path to a naive reference: the
block's rows against one query per round and a direct evaluation, the
relaxation's stream against drawing every playout at its round, and the FTPL
selections against per-round, per-anchor draws in law.  They also bound the blocks in
memory and in the horizon.
"""

import numpy as np
import pytest
from scipy import stats

from smoothol import ftpl, relaxation
from smoothol.bandit import run_square_cb
from smoothol.core import (
    BLOCK,
    BLOCK_ELEMENTS,
    ContextBlock,
    FiniteMeasure,
    GroundSet,
    SmoothnessCertificate,
    TableClass,
    ThresholdClass,
    UniformIntervalMeasure,
    absolute_loss,
    compose_smoothness,
    linear_loss,
    make_rng,
    product_class,
    product_measure,
    scaled_square_loss,
    square_loss,
)
from smoothol.adversaries import IidAdversary, rademacher_labels
from smoothol.ftpl import (
    FtplLearner,
    FtplSchedule,
    GaussianPerturbation,
    epsilon_grid,
    schedule,
)
from smoothol.oracle import IDENTITY, MAIN, ErmOracle, ErmQuery
from smoothol.relaxation import (
    RelaxGeneralLearner,
    RelaxLinearLearner,
    draw_playout,
    predict_general,
    predict_linear,
)

from conftest import OnePlayoutAtATime, plain, sample

LOSSES = [linear_loss(), absolute_loss(), scaled_square_loss()]


def _space(interval):
    """64 thresholds on the interval, or as a table on the 256-atom grid."""
    thresholds = ThresholdClass.grid(64)
    if interval:
        return thresholds, UniformIntervalMeasure()
    ground = GroundSet.grid(256)
    table = TableClass(thresholds.evaluate_block(ContextBlock(coords=ground.coords)),
                       ground=ground, kind="binary")
    return table, FiniteMeasure.uniform(ground)


def _spy(monkeypatch, module, name):
    """Record every result of ``module.name`` as the learners call it."""
    drawn, draw = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: drawn.append(draw(*a, **kw)) or drawn[-1])
    return drawn


# ---------------------------------------------------------------------------
# the oracle: a block's rounds against one query per round
# ---------------------------------------------------------------------------

ROUTES = ["identity-cells", "main-cells", "identity-anchors", "main-anchors"]


@pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("interval", [False, True], ids=["grid", "interval"])
def test_block_objective_matches_one_query_per_round(interval, route, loss):
    """Rows over fixed cells carry their values; per-anchor rows are drawn per round.
    Each round of the block agrees with its own query and with evaluating the round's
    rows directly within 1e-12 * sum|w|."""
    klass, mu = _space(interval)
    rng, rounds = make_rng(50, 0), 17
    oracle = ErmOracle(klass, loss)
    for x in (sample(mu, rng) for _ in range(5)):
        oracle.extend_prefix(x, float(rng.choice([-1.0, 1.0])))
    cells = klass.cell_measure(mu)
    selector = IDENTITY if route.startswith("identity") else MAIN
    if route.endswith("cells"):
        contexts, values = cells.atoms, klass.evaluate_block(cells.atoms)
        labels = rng.uniform(-1.0, 1.0, len(contexts))
        weights = rng.normal(size=(rounds, len(contexts))) * 40.0
        per_round = [(contexts, labels, w) for w in weights]
    else:
        n, values = 50, None
        contexts, labels = sample(mu, rng, rounds * n), rng.uniform(-1.0, 1.0, rounds * n)
        weights = rng.normal(size=(rounds, n)) * 40.0
        per_round = [(contexts[i * n:(i + 1) * n], labels[i * n:(i + 1) * n], weights[i])
                     for i in range(rounds)]
    block = ErmQuery().add_block(selector, contexts, labels, weights, values)
    for i, (ctx, y, w) in enumerate(per_round):
        own = oracle.objective_vector(ErmQuery().add_block(
            selector, ctx, y, w, None if values is None else values))
        f = klass.evaluate_block(ctx)
        direct = oracle.prefix + (f @ w if selector == IDENTITY
                                  else loss.evaluate_array(f, y[None, :]) @ w)
        tol = 1e-12 * np.abs(w).sum()
        assert np.abs(oracle.objective_vector(block, i) - own).max() <= tol
        assert np.abs(own - direct).max() <= tol
        own_weight = ErmQuery().add_block(selector, ctx, y, w).total_abs_weight()
        assert block.total_abs_weight(i) == own_weight


@pytest.mark.parametrize("interval", [False, True], ids=["grid", "interval"])
def test_block_of_playouts_equals_one_query_per_round_bit_for_bit(interval):
    """+-1 values times integer playout weights sum exactly, in any order: the block's
    rounds, their own queries and the branch values of ``exact_labels`` agree bit for bit."""
    klass, mu = _space(interval)
    loss = linear_loss()
    learner = RelaxLinearLearner(klass, loss, mu, 2000, 0.2, ErmOracle(klass, loss),
                                 make_rng(51, 0))
    oracle, rng = learner.oracle, make_rng(51, 1)
    for x in (sample(mu, rng) for _ in range(7)):
        oracle.extend_prefix(x, float(rng.choice([-1.0, 1.0])))
    rounds_left = rng.integers(0, 2000, size=BLOCK)
    playouts = draw_playout(learner.cells, rounds_left, learner.state.k, rng, learner.values)
    assert playouts.signs.shape == (BLOCK, 65)
    block = learner.state.playout_query(playouts)
    x_t, labels = sample(mu, rng), np.array([1.0, -1.0])
    for i, signs in enumerate(playouts.signs):
        w = -3.0 * signs.astype(np.float64)
        own = ErmQuery().add_block(IDENTITY, learner.cells.atoms, np.zeros(65), w, learner.values)
        assert np.array_equal(oracle.objective_vector(block, i), oracle.objective_vector(own))
        assert np.array_equal(oracle.objective_vector(own), oracle.prefix + learner.values @ w)
        values, prefix = klass.evaluate_block(x_t), oracle.prefix[None, :]
        assert np.array_equal(oracle.exact_labels(block, values, labels, i, prefix),
                              oracle.exact_labels(own, values, labels, 0, prefix))


def test_queries_refuse_blocks_of_another_round_count():
    ctx = ContextBlock(ids=np.array([0, 1]))
    with pytest.raises(ValueError, match="holds 3 rounds, not the query's 2"):
        ErmQuery().add_block(IDENTITY, ctx, np.zeros(2), np.ones((2, 2))).add_block(
            IDENTITY, ctx, np.zeros(2), np.ones((3, 2)))
    with pytest.raises(ValueError, match="holds 1 rounds, not the query's 2"):  # (rows,): one
        ErmQuery().add_block(IDENTITY, ctx, np.zeros(2), np.ones((2, 2))).add_block(
            IDENTITY, ctx, np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="share a length"):  # 2 rounds of 3 rows over 2 contexts
        ErmQuery().add_block(IDENTITY, ctx, np.zeros(2), np.ones((2, 3)))
    with pytest.raises(ValueError, match="holds 0 rounds, not the query's 1"):
        ErmQuery().add_block(IDENTITY, ctx, np.zeros(2), np.ones((0, 2)))


def test_a_query_counts_the_rounds_of_its_first_stored_block():
    """An empty query holds one round; its first block with rows sets the count, and a
    block of no rows is not stored, so it sets none."""
    ctx, none = ContextBlock(ids=np.array([0, 1])), ContextBlock(ids=np.array([], dtype=int))
    assert ErmQuery().rounds == 1 and ErmQuery().n_rows == 0
    query = ErmQuery().add_block(IDENTITY, none, np.zeros(0), np.ones((3, 0)))
    assert query.rounds == 1 and query.blocks == []
    query.add_block(MAIN, ctx, np.zeros(2), np.ones((4, 2)))
    assert query.rounds == 4 and query.blocks[0].weights.shape == (4, 2)
    query.add_block(IDENTITY, ctx, np.zeros(2), np.ones((4, 2)))
    assert query.rounds == 4 and len(query.blocks) == 2
    one = ErmQuery().add_block(IDENTITY, ctx, np.zeros(2), np.ones(2))
    assert one.rounds == 1 and one.blocks[0].weights.shape == (1, 2)


# ---------------------------------------------------------------------------
# class values: one layout for every class
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("interval", [False, True], ids=["grid", "interval"])
def test_class_values_are_c_contiguous(interval):
    klass, mu = _space(interval)
    rng = make_rng(52, 0)
    for size in (1, 2, 65, 1000):
        values = klass.evaluate_block(sample(mu, rng, size))
        assert values.shape == (64, size) and values.flags.c_contiguous


def test_equal_table_values_give_equal_row_sums():
    """A copy of a table's values (here repeated per label) sums like the gather itself."""
    table = TableClass(np.round(make_rng(53, 0).uniform(-1.0, 1.0, (64, 256)), 6))
    rng, grid = make_rng(53, 1), epsilon_grid(0.1)
    ids = rng.integers(0, 256, 40)
    pairs = ContextBlock(ids=np.repeat(ids, len(grid)))
    labels, w = np.tile(grid, len(ids)), rng.normal(size=len(ids) * len(grid))
    repeated = np.repeat(table.evaluate_block(ContextBlock(ids=ids)), len(grid), axis=1)
    loss = scaled_square_loss()
    assert np.array_equal(loss.evaluate_array(repeated, labels[None, :]) @ w,
                          loss.evaluate_array(table.evaluate_block(pairs), labels[None, :]) @ w)


# ---------------------------------------------------------------------------
# the relaxation: the stream of drawing every playout at its round
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("interval", [False, True], ids=["grid", "interval"])
@pytest.mark.parametrize("rule", [predict_linear, predict_general], ids=["linear", "general"])
def test_relaxation_predictions_equal_one_playout_per_round(rule, interval):
    klass, mu = _space(interval)
    loss, T = (linear_loss(), 150) if rule is predict_linear else (absolute_loss(), 140)
    learners = [cls(klass, loss, mu, T, 0.2, ErmOracle(klass, loss), make_rng(54, 0))
                for cls in (RelaxLinearLearner if rule is predict_linear else RelaxGeneralLearner,
                            OnePlayoutAtATime)]
    learners[1].round_rule = rule
    rng = make_rng(54, 1)
    for _ in range(T):
        x, y = sample(mu, rng), float(rng.choice([-1.0, 1.0]))
        block, single = (learner.predict(x) for learner in learners)
        assert block == single
        assert learners[0].oracle.calls == learners[1].oracle.calls
        for learner in learners:
            learner.observe(x, y)


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("interval", [False, True], ids=["grid", "interval"])
@pytest.mark.parametrize("rule", [predict_linear, predict_general], ids=["linear", "general"])
def test_predictions_equal_one_context_predictions_drawing_no_playout_ahead(rule, interval, K):
    """A round's K predictions from one ``predictions`` call against K ``predict`` calls of
    the reference, which draws each playout when it is asked: bit for bit, with equal oracle
    calls, branch values and generator states, at horizons around the block."""
    klass, mu = _space(interval)
    loss = linear_loss() if rule is predict_linear else absolute_loss()
    for T in (1, 63, 64, 65, 130):
        learners = [cls(klass, loss, mu, T, 0.2, ErmOracle(klass, loss), make_rng(60, T))
                    for cls in (RelaxLinearLearner if rule is predict_linear
                                else RelaxGeneralLearner, OnePlayoutAtATime)]
        learner, reference = learners
        reference.round_rule = rule
        rng = make_rng(61, T)
        for _ in range(T):
            contexts, y = sample(mu, rng, K), float(rng.choice([-1.0, 1.0]))
            got = learner.predictions(contexts)
            want = np.array([reference.predict(contexts[i:i + 1]) for i in range(K)])
            assert got.tobytes() == want.tobytes()
            assert learner.oracle.calls == reference.oracle.calls
            assert learner.state.last_branch_values == reference.state.last_branch_values
            for each in learners:
                each.observe(contexts[:1], y)
        assert plain(learner.rng.bit_generator.state) == plain(reference.rng.bit_generator.state)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_ftpl_predictions_are_the_selected_hypothesis_at_each_context(K):
    klass, mu = _space(True)
    loss = linear_loss()
    sched = schedule(20, 0.2, L=loss.lipschitz_L, variant="classification")
    learner = FtplLearner("classification", klass, loss, mu, sched, ErmOracle(klass, loss),
                          make_rng(62, 0))
    rng = make_rng(62, 1)
    with pytest.raises(RuntimeError, match="select"):
        learner.predictions(sample(mu, rng, K))
    for _ in range(20):
        h, contexts = learner.select(), sample(mu, rng, K)
        got = learner.predictions(contexts)
        assert got.tobytes() == klass.evaluate_block(contexts)[h].tobytes()
        assert got.tolist() == [learner.predict(contexts[i:i + 1]) for i in range(K)]
        learner.observe(contexts[:1], 1.0)


def test_no_drawn_playout_answers_twice(monkeypatch):
    """A second ``predict`` in one round, and ``play`` after a partly used ``predictions``
    block, take playouts no call has taken, each drawn for its own round; the rest of a
    block left behind is never used."""
    klass, mu = _space(False)
    loss, T = linear_loss(), 12
    learner = RelaxLinearLearner(klass, loss, mu, T, 0.2, ErmOracle(klass, loss),
                                 make_rng(63, 0))
    drawn = _spy(monkeypatch, relaxation, "draw_playout")
    taken, rule = [], learner.rule  # (block, index, its rounds_left) of each playout answered

    def spy(state, query, values, oracle, index, history):
        assert query is learner._query  # the query of the block drawn last
        playouts = learner._playouts
        block = next(b for b, p in enumerate(drawn) if p is playouts)
        taken.extend((block, i, playouts.rounds_left[i])
                     for i in range(index, index + values.shape[1]))
        return rule(state, query, values, oracle, index, history)

    learner.rule = spy
    rng = make_rng(63, 1)

    def answered(calls, rounds_left):
        """The last ``calls`` playouts were for these rounds, and none was taken twice."""
        assert [left for *_, left in taken[-calls:]] == rounds_left
        assert len({(block, i) for block, i, _ in taken}) == len(taken)

    x = sample(mu, rng)
    learner.predict(x)
    learner.predict(x)  # a second prediction in round 1 draws a new block
    answered(2, [T - 1] * 2)
    assert len(drawn) == 2
    learner.observe(x, 1.0)
    learner.predictions(sample(mu, rng, 3))  # round 2 draws 3 playouts a round
    answered(3, [T - 2] * 3)
    assert len(drawn) == 3
    learner.observe(x, -1.0)
    learner.predictions(sample(mu, rng, 2))  # round 3 takes two of its three
    answered(2, [T - 3] * 2)
    learner.observe(x, 1.0)
    learner.play(sample(mu, rng, 3), np.array([1.0, -1.0, 1.0]))  # rounds 4..6: a new block
    answered(3, [T - 4, T - 5, T - 6])
    assert len(drawn) == 4 and drawn[-1].rounds_left.tolist() == list(range(T - 4, -1, -1))


def _bandit_relax(cls, T):
    """The run's trajectory and the predictions of each of its regressor's calls, in order."""
    atoms, K = 6, 3
    values = make_rng(55, 0).random((4, atoms, K))
    klass = product_class(values)
    mu_x = FiniteMeasure.uniform(GroundSet.grid(atoms))
    adversary = IidAdversary(SmoothnessCertificate(sigma=0.5, mu=mu_x), rademacher_labels(),
                             make_rng(55, 1))
    regressor = cls(klass, square_loss(), product_measure(mu_x, K), T, compose_smoothness(0.5, K),
                    ErmOracle(klass, square_loss()), make_rng(55, 2), k=3)
    asked, answer = [], regressor.predictions

    def spy(contexts):
        asked.append(answer(contexts).tolist())
        return np.array(asked[-1])

    regressor.predictions = spy
    result = run_square_cb(adversary, regressor, K=K, T=T, f_star=values[0], gamma=10.0,
                           rng=make_rng(55, 3))
    return result.trajectory, asked


def test_bandit_relax_regressor_gets_a_fresh_playout_per_prediction(monkeypatch):
    """One call for a round's K predictions, each with its own playout: blocks of
    BLOCK // K rounds, K playouts each, with the stream of drawing them one by one."""
    T = 40
    drawn = _spy(monkeypatch, relaxation, "draw_playout")
    traj, asked = _bandit_relax(RelaxGeneralLearner, T)
    rounds_left = np.concatenate([np.atleast_1d(p.rounds_left) for p in drawn])
    assert np.array_equal(rounds_left, np.repeat(np.arange(T - 1, -1, -1), 3))
    assert [np.size(p.rounds_left) for p in drawn] == [63, 57]
    assert [len(a) for a in asked] == [3] * T
    reference_traj, reference = _bandit_relax(OnePlayoutAtATime, T)
    assert asked == reference  # bit for bit
    assert np.array_equal(traj.ids, reference_traj.ids)  # the chosen (x, a) pairs


# ---------------------------------------------------------------------------
# FTPL: block selections against per-round selections, in law
# ---------------------------------------------------------------------------

def _same_law_pvalue(a, b):
    """Chi-square p-value that two samples of indices share one law; values seen fewer
    than 10 times are pooled."""
    values = np.union1d(a, b)
    table = np.array([[np.sum(s == v) for v in values] for s in (a, b)])
    rare = table.sum(axis=0) < 10
    if rare.any():
        table = np.column_stack((table[:, ~rare], table[:, rare].sum(axis=1)))
    return stats.chi2_contingency(table).pvalue


# (anchors, zeta): 200 anchors against 9 cells and 45 (cell, label) pairs, and 5 against
# both, for an exact and an approximate oracle
DRAWS = {"n200": (200, 0.0), "n5": (5, 0.0), "n200-zeta": (200, 0.05), "n5-zeta": (5, 0.05)}


# each variant's eta, and the history's rows: the leader's lead is of the order of
# the perturbation's spread, so that a change of its scale moves the selection
VARIANTS = {"classification": (3.0, 3), "dual": (0.5, 3), "single": (None, 9)}


@pytest.mark.parametrize("interval", [False, True], ids=["grid", "interval"])
@pytest.mark.parametrize("draw", list(DRAWS))
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_ftpl_block_selections_match_per_round_selections_in_law(variant, draw, interval):
    """The learner's block draws against the per-anchor reference, drawn one round at a
    time (every anchor from mu, one N(0, 1) each), under one fixed history: the selected
    hypothesis has one law, and so, with zeta > 0, has whether the approximate oracle
    swapped the minimizer for another hypothesis in its band."""
    n, zeta = DRAWS[draw]
    eta, rows = VARIANTS[variant]
    ground, thresholds = GroundSet.grid(32), ThresholdClass.grid(8)
    if interval:
        klass, mu = thresholds, UniformIntervalMeasure()
    else:
        klass = TableClass(thresholds.evaluate_block(ground.block(np.arange(32))),
                           ground=ground, kind="binary")
        mu = FiniteMeasure.uniform(ground)
    loss = linear_loss()
    sched = FtplSchedule(eta=eta or np.sqrt(n), n=n, m=n, zeta=zeta,
                         epsilon=None if variant == "classification" else 0.5)
    learner = FtplLearner(variant, klass, loss, mu, sched, ErmOracle(klass, loss),
                          make_rng(56, 0))
    # omega per cell; omega' per cell with fewer (cell, label) pairs than anchors
    assert all(("values" in p) == (p["grid"] is None or n == 200) for p in learner._processes if p)
    oracle, rng = ErmOracle(klass, loss), make_rng(56, 1)
    for t in range(rows):  # labels of the threshold at 1/2, one row in three flipped
        x = (9 + 7 * t) % 32
        y = (1.0 if x >= 16 else -1.0) * (-1.0 if t % 3 == 2 else 1.0)
        for o in (learner.oracle, oracle):
            o.extend_prefix(ground.block(np.array([x])), y)
    draws = 4000
    block, block_swaps = [], []
    for _ in range(draws):
        block.append(learner.select())
        exact = learner.oracle.objective_vector(learner._query, learner._next - 1).argmin()
        block_swaps.append(block[-1] != exact)

    def anchors(grid=None):
        contexts, coeffs = sample(mu, rng, n), rng.standard_normal(n)
        labels = None if grid is None else grid[rng.integers(0, len(grid), n)]
        return GaussianPerturbation(contexts, coeffs, "inv_sqrt_n" if grid is None else "none",
                                    labels)

    single, single_swaps = [], []
    for _ in range(draws):
        if variant == "classification":
            query = ftpl._query(anchors(), None, sched.eta, 1.0)
        elif variant == "dual":
            query = ftpl._query(anchors(), anchors(learner.grid), sched.eta, 1.0)
        else:
            query = ftpl._query(None, anchors(learner.grid), 0.0, 1.0)
        single.append(oracle.approximate(query, zeta, rng).hypothesis_index)
        single_swaps.append(single[-1] != oracle.objective_vector(query).argmin())
    assert len(np.unique(block)) >= 3  # the perturbation matters
    assert _same_law_pvalue(np.array(block), np.array(single)) > 1e-3
    if zeta:
        assert _same_law_pvalue(np.array(block_swaps), np.array(single_swaps)) > 1e-3
    else:
        assert not any(block_swaps) and not any(single_swaps)


# ---------------------------------------------------------------------------
# bounded blocks: memory and horizon
# ---------------------------------------------------------------------------

def _held_bytes(query, *arrays):
    """Bytes of a block's weights, its evaluated objectives and the given arrays."""
    held = sum(b.weights.nbytes + sum(a.nbytes for a in (b.contexts.ids, b.contexts.coords,
                                                           b.labels) if a is not None)
               for b in query.blocks)
    held += sum(obj.nbytes for obj in query.evaluated[1]) if query.evaluated else 0
    return held + sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("variant", ["relax-linear", "ftpl-cls"])
def test_block_buffers_hold_the_same_bytes_at_any_horizon(variant):
    """Built at T = 10^3 and at T = 10^6, a learner's first full block holds as many
    bytes: the block length is a constant and a round's rows, one per cell, do not grow
    with T.  (Label anchors do: the epsilon grid refines with T.)"""
    klass, mu = _space(False)
    loss = linear_loss()
    held = []
    for T in (10**3, 10**6):
        oracle, rng = ErmOracle(klass, loss), make_rng(57, 0)
        if variant == "relax-linear":
            learner = RelaxLinearLearner(klass, loss, mu, T, 0.2, oracle, rng)
            x = mu.sample_point(rng)
            learner.predict(x)  # a block of BLOCK rounds, the second of which is next
            learner.observe(x, 1.0)
            learner.predict(x)
            playouts = learner._playouts
            assert len(playouts.rounds_left) == BLOCK
            held.append(_held_bytes(learner.state.playout_query(playouts), playouts.signs,
                                    playouts.rounds_left))
        else:
            sched = schedule(T, 0.2, L=loss.lipschitz_L, variant="classification")
            learner = FtplLearner("classification", klass, loss, mu, sched, oracle, rng)
            learner.select()
            assert learner._query.rounds == BLOCK
            held.append(_held_bytes(learner._query))
    assert held[0] == held[1]


def test_blocks_stay_under_the_element_cap():
    """ftpl-single on the grid at T = 4,000 and sigma = 0.2 gathers H * n ~ 1.4e5 elements
    per round, above the cap, so it draws one round at a time; smaller processes fill a
    block up to the cap."""
    klass, mu = _space(False)
    loss = linear_loss()
    sched = schedule(4000, 0.2, L=loss.lipschitz_L, variant="single")
    learner = FtplLearner("single", klass, loss, mu, sched, ErmOracle(klass, loss),
                          make_rng(58, 0))
    process = learner._processes[1]
    assert "values" not in process and learner._elements(process) == 64 * sched.n > BLOCK_ELEMENTS
    assert learner._block_rounds == 1
    # per round, omega's draw with its band holds its 65 cells and n normals, omega''s
    # main-loss gather H * n
    for variant, n, rounds in (("classification", 100, BLOCK), ("classification", 4000, 32),
                               ("dual", 100, 20), ("dual", 1000, 2), ("dual", 4000, 1)):
        sched = FtplSchedule(eta=1.0, n=n, m=n, epsilon=0.01, zeta=0.05)
        learner = FtplLearner(variant, klass, loss, mu, sched, ErmOracle(klass, loss),
                              make_rng(58, 1))
        assert learner._block_rounds == rounds
        elements = max(learner._elements(p) for p in learner._processes if p)
        assert elements == (65 + n if variant == "classification" else 64 * n)
        assert rounds == 1 or rounds * elements <= BLOCK_ELEMENTS


def _relax_general(binary, T, seed):
    """``relax-general`` under absolute loss on the 256-atom grid's 64 thresholds, as a
    binary table or halved to a real one, for horizon T at sigma = 0.2."""
    klass, mu = _space(False)
    if not binary:
        klass = TableClass(klass.values * 0.5, ground=klass.ground)
    loss = absolute_loss()
    learner = RelaxGeneralLearner(klass, loss, mu, T, 0.2, ErmOracle(klass, loss),
                                  make_rng(seed, 0))
    assert klass.kind == ("binary" if binary else "real")
    return learner, mu


@pytest.mark.parametrize("binary, T, rounds, pieces", [
    (True, 20_000, 64, [6] * 10 + [4]),
    (False, 20_000, 64, [6] * 10 + [4]),
    (False, 200, 200, [136, 64]),
], ids=["binary", "real", "real-short"])
def test_relax_general_answers_a_run_in_pieces_of_its_largest_array(binary, T, rounds, pieces):
    """The rule's largest array per round is the (|S| x |S|) outer array, or a real class's
    (|S| x H) objectives where larger; a piece holds ``BLOCK_ELEMENTS`` of it.  At T = 20,000
    (|S| = 142) that is 6 rounds for either class; at T = 200 (|S| = 15, H = 64) a real
    class takes 136 rounds a piece."""
    learner, mu = _relax_general(binary, T, 60)
    S = learner.branches
    assert S == (142 if T == 20_000 else 15)
    answered, answer = [], learner.oracle.exact_labels
    learner.oracle.exact_labels = lambda *a: answered.append(a[1].shape[1]) or answer(*a)
    rng = make_rng(60, 1)
    _, calls = learner.play(sample(mu, rng, rounds), rng.choice([-1.0, 1.0], rounds))
    assert answered == pieces
    assert learner._chunk * max(S * S, (1 if binary else S) * 64) <= BLOCK_ELEMENTS
    assert calls[-1] == learner.oracle.calls == rounds * S


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "real"])
def test_pieces_never_change_a_prediction(binary):
    """The same two 64-round runs at T = 20,000, answered in pieces of 1 round, of the
    computed 6, and of the whole run: byte-equal predictions and oracle-call columns."""
    played = []
    for chunk in (1, None, 10**6):
        learner, mu = _relax_general(binary, 20_000, 61)
        assert learner._chunk == 6
        learner._chunk = chunk or learner._chunk
        rng, columns = make_rng(61, 1), []
        for _ in range(2):
            columns += learner.play(sample(mu, rng, 64), rng.choice([-1.0, 1.0], 64))
        played.append([column.tobytes() for column in columns])
    assert played[0] == played[1] == played[2]


def test_no_learner_draws_past_the_horizon(monkeypatch):
    klass, mu = _space(False)
    loss, T = linear_loss(), 70
    perts = _spy(monkeypatch, ftpl, "draw_perturbation")
    sched = schedule(T, 0.2, L=loss.lipschitz_L, variant="classification")
    learner = FtplLearner("classification", klass, loss, mu, sched, ErmOracle(klass, loss),
                          make_rng(59, 0))
    for _ in range(T):
        learner.select()
    assert [len(p.coeffs) for p in perts] == [BLOCK, T - BLOCK]
    with pytest.raises(ValueError, match=f"round {T + 1} is past the horizon T = {T}"):
        learner.select()  # a round past the horizon draws nothing
    assert len(perts) == 2
    playouts = _spy(monkeypatch, relaxation, "draw_playout")
    learner = RelaxLinearLearner(klass, loss, mu, T, 0.2, ErmOracle(klass, loss),
                                 make_rng(59, 1))
    for _ in range(T):
        x = mu.sample_point(make_rng(59, 2))
        learner.predict(x)
        learner.observe(x, 1.0)
    assert [p.rounds_left.tolist() for p in playouts] == [
        list(range(T - 1, T - 1 - BLOCK, -1)), list(range(T - 1 - BLOCK, -1, -1))]


@pytest.mark.parametrize("T", [1, 2, 64, 65])
def test_a_learner_answers_rounds_one_to_T_and_refuses_round_T_plus_one(T):
    """Both learners answer rounds 1..T, and asked for round T + 1 raise a ValueError that
    names it and T: round by round, after a run of T rounds, and in a run past T."""
    klass, mu = _space(False)
    loss, rng = linear_loss(), make_rng(64, T)
    past = f"round {T + 1} is past the horizon T = {T}"

    def learners():
        sched = schedule(T, 0.2, L=loss.lipschitz_L, variant="classification")
        return (RelaxLinearLearner(klass, loss, mu, T, 0.2, ErmOracle(klass, loss),
                                   make_rng(64, 0)),
                FtplLearner("classification", klass, loss, mu, sched, ErmOracle(klass, loss),
                            make_rng(64, 1)))

    for learner in learners():
        for _ in range(T):
            if learner.proper:
                learner.select()
            x = sample(mu, rng)
            assert -1.0 <= learner.predict(x) <= 1.0
            learner.observe(x, 1.0)
        with pytest.raises(ValueError, match=past):
            learner.select() if learner.proper else learner.predict(sample(mu, rng))
        if not learner.proper:
            with pytest.raises(ValueError, match=past):
                learner.predictions(sample(mu, rng, 3))
    for learner in learners():
        assert len(learner.play(sample(mu, rng, T), np.ones(T))[0]) == T
        with pytest.raises(ValueError, match=past):
            learner.play(sample(mu, rng), np.ones(1))
    for learner in learners():
        with pytest.raises(ValueError, match=past):
            learner.play(sample(mu, rng, T + 1), np.ones(T + 1))


@pytest.mark.parametrize("T", [2, 65])
def test_a_play_past_the_horizon_refuses_before_it_touches_the_oracle(T):
    """A ``play`` that would run past T raises before it adds a row to the oracle's history,
    counts a call or draws: at round 1 and again halfway, the oracle's history, rows and
    calls and the learner's generator are unchanged, and the learner then plays rounds 1..T
    as a fresh one does, byte for byte."""
    klass, mu = _space(False)
    rng, half = make_rng(66, T), T // 2
    contexts, labels = sample(mu, rng, T + 1), rng.choice([-1.0, 1.0], size=T + 1)

    def learners():
        linear, absolute = linear_loss(), absolute_loss()
        sched = schedule(T, 0.2, L=linear.lipschitz_L, variant="classification")
        return (RelaxLinearLearner(klass, linear, mu, T, 0.2, ErmOracle(klass, linear),
                                   make_rng(66, 0)),
                RelaxGeneralLearner(klass, absolute, mu, T, 0.2, ErmOracle(klass, absolute),
                                    make_rng(66, 1)),
                FtplLearner("classification", klass, linear, mu, sched,
                            ErmOracle(klass, linear), make_rng(66, 2)))

    def untouched(learner):
        oracle = learner.oracle
        return (oracle.prefix.tobytes(), oracle.prefix_rows, oracle.calls,
                plain(learner.rng.bit_generator.state))

    for learner, fresh in zip(learners(), learners()):
        for start, stop in ((0, half), (half, T)):
            before = untouched(learner)
            with pytest.raises(ValueError, match=f"round {T + 1} is past the horizon T = {T}"):
                learner.play(contexts[start:], labels[start:])
            assert untouched(learner) == before
            got = learner.play(contexts[start:stop], labels[start:stop])
            want = fresh.play(contexts[start:stop], labels[start:stop])
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert untouched(learner) == untouched(fresh)


@pytest.mark.parametrize("T", [1, 63, 64, 65, 130])
def test_relaxation_builds_and_evaluates_one_query_per_drawn_block(T, monkeypatch):
    """The learner builds its block's query when it draws the block, and the oracle
    evaluates each block's rows once, whatever rounds of it a call answers."""
    klass, mu = _space(False)
    loss, rng = linear_loss(), make_rng(65, T)
    drawn = _spy(monkeypatch, relaxation, "draw_playout")
    built = _spy(monkeypatch, relaxation.RelaxState, "playout_query")
    evaluated, objective = [], ErmOracle._block_objective
    monkeypatch.setattr(ErmOracle, "_block_objective",
                        lambda self, block: evaluated.append(block) or objective(self, block))
    learner = RelaxLinearLearner(klass, loss, mu, T, 0.2, ErmOracle(klass, loss),
                                 make_rng(65, 0))
    half = T // 2
    for _ in range(half):
        x = sample(mu, rng)
        learner.predict(x)
        learner.observe(x, 1.0)
    learner.play(sample(mu, rng, T - half), np.ones(T - half))
    assert len(drawn) == len(built) == -(-T // BLOCK)
    assert [id(block) for block in evaluated] == [id(query.blocks[0]) for query in built]
