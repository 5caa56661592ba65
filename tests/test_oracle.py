import numpy as np
import pytest

from smoothol.core import (
    ContextBlock,
    DomainMismatchError,
    GroundSet,
    TableClass,
    ThresholdClass,
    absolute_loss,
    linear_loss,
    make_rng,
    scaled_square_loss,
    square_loss,
)
from smoothol.oracle import IDENTITY, KEPT_ROW_FLOATS, MAIN, ErmOracle, ErmQuery

from conftest import atom, random_table_class


def _query(*rows):
    """A query of one-row blocks, each row (atom id, label, weight[, selector])."""
    q = ErmQuery()
    for ctx_id, y, w, *selector in rows:
        q.add_block(selector[0] if selector else MAIN, ContextBlock(ids=np.array([ctx_id])),
                    np.array([y]), np.array([w]))
    return q


def test_single_positive_example_selects_plus_one(sign_constants):
    oracle = ErmOracle(sign_constants, linear_loss())
    res = oracle.exact(_query((0, 1.0, 1.0)))
    assert res.hypothesis_index == 0  # f = +1 listed first


def test_negative_weight_flips_the_objective(sign_constants):
    oracle = ErmOracle(sign_constants, linear_loss())
    res = oracle.exact(_query((0, 1.0, -1.0)))
    assert res.hypothesis_index == 1  # f = -1 now minimizes


def test_empty_query_returns_lowest_index(sign_constants):
    oracle = ErmOracle(sign_constants, linear_loss())
    res = oracle.exact(ErmQuery())
    assert res.hypothesis_index == 0
    assert res.objective_value == 0.0


def test_exact_is_pure(sign_constants):
    oracle = ErmOracle(sign_constants, linear_loss())
    q = _query((0, 1.0, 2.0), (1, -1.0, -0.5, IDENTITY))
    r1 = oracle.exact(q)
    r2 = oracle.exact(q)
    assert r1 == r2


def test_call_counter(sign_constants):
    oracle = ErmOracle(sign_constants, linear_loss())
    assert oracle.calls == 0
    for _ in range(3):
        oracle.exact(_query((0, 1.0, 1.0)))
    assert oracle.calls == 3
    oracle.approximate(_query((0, 1.0, 1.0)), zeta=0.5, rng=make_rng(0, 0))
    assert oracle.calls == 4


def test_zeta_zero_is_exact(sign_constants):
    oracle = ErmOracle(sign_constants, linear_loss())
    q = _query((0, 1.0, 1.0))
    assert oracle.approximate(q, zeta=0.0, rng=make_rng(1, 0)).hypothesis_index == \
        oracle.exact(q).hypothesis_index


def test_large_zeta_widens_admissible_set_but_respects_bound(sign_constants):
    oracle = ErmOracle(sign_constants, linear_loss())
    q = _query((0, 1.0, 1.0))  # objective gap 1, sum |w| = 1
    rng = make_rng(2, 0)
    seen = set()
    for _ in range(100):
        res = oracle.approximate(q, zeta=10.0, rng=rng)
        exact_min = min(oracle.objective_vector(q))
        assert res.objective_value <= exact_min + 10.0 * 1.0 + 1e-12
        seen.add(res.hypothesis_index)
    assert seen == {0, 1}  # both admissible hypotheses get exercised


def test_tiny_zeta_with_separated_objectives_matches_exact(sign_constants):
    oracle = ErmOracle(sign_constants, linear_loss())
    q = _query((0, 1.0, 1.0))
    rng = make_rng(3, 0)
    for _ in range(20):
        assert oracle.approximate(q, zeta=1e-12, rng=rng).hypothesis_index == 0


def test_slack_scales_with_total_weight(sign_constants):
    # objective gap is 2 here (weights 2): zeta = 1 times sum|w| = 2 admits both
    # hypotheses, where a flat band of width zeta would admit only the minimizer
    oracle = ErmOracle(sign_constants, linear_loss())
    q = _query((0, 1.0, 2.0))
    seen = {oracle.approximate(q, zeta=1.0, rng=make_rng(5, i)).hypothesis_index
            for i in range(60)}
    assert seen == {0, 1}


def test_total_abs_weight_reads_a_carried_band_and_sums_every_other_block():
    """A block summed from drawn rows carries each round's sum |w| of them, which the band
    reads; a block without one (criterion 3's fuzzed rows) sums |w| of its own weights."""
    contexts = ContextBlock(ids=np.array([0, 1, 0]))
    weights = np.array([[1.0, -2.0, 0.5], [-0.25, 0.0, 3.0]])
    query = ErmQuery().add_block(MAIN, contexts, np.zeros(3), weights)
    assert [query.total_abs_weight(i) for i in range(2)] == [3.5, 3.25]
    query.add_block(IDENTITY, contexts, np.zeros(3), weights, abs_weight=np.array([10.0, 20.0]))
    assert [query.total_abs_weight(i) for i in range(2)] == [13.5, 23.25]
    one = ErmQuery().add_block(IDENTITY, contexts, np.zeros(3), weights[0], abs_weight=4.0)
    assert one.total_abs_weight() == 4.0
    with pytest.raises(ValueError):
        ErmQuery().add_block(IDENTITY, contexts, np.zeros(3), weights, abs_weight=[1.0])


def test_objective_value_matches_row_recomputation():
    rng = make_rng(6, 0)
    klass = random_table_class(rng, 7, 9)
    loss = linear_loss()
    oracle = ErmOracle(klass, loss)
    q = ErmQuery()
    ids = rng.integers(0, 9, size=25)
    q.add_block(MAIN, klass.ground.block(ids), rng.uniform(-1, 1, 25), rng.normal(size=25))
    ids2 = rng.integers(0, 9, size=10)
    q.add_block(IDENTITY, klass.ground.block(ids2), np.zeros(10), rng.normal(size=10))
    res = oracle.exact(q)
    manual = 0.0
    for block in q.blocks:
        for ctx_id, y, w in zip(block.contexts.ids, block.labels, block.weights[0]):
            v = klass.evaluate_block(atom(klass.ground, int(ctx_id)))[res.hypothesis_index, 0]
            term = v if block.selector == IDENTITY else loss.evaluate(v, float(y))
            manual += float(w) * term
    assert res.objective_value == pytest.approx(manual, abs=1e-9)


def test_partial_equals_same_rows_as_block():
    """History rows fed through ``extend_prefix``, or given in the same order as
    explicit one-row main-loss blocks to a fresh oracle, give the same answers:
    exact minimizer and objective bit for bit, and the same approximate slack band."""
    rng = make_rng(7, 0)
    klass = random_table_class(rng, 6, 8)
    loss = linear_loss()
    oracle, fresh = ErmOracle(klass, loss), ErmOracle(klass, loss)
    history = [(atom(klass.ground, int(rng.integers(8))), float(rng.choice([-1, 1])))
               for _ in range(40)]
    for ctx, y in history:
        oracle.extend_prefix(ctx, y)
    ids = rng.integers(0, 8, size=5)
    extra_w = rng.normal(size=5)

    def with_extra(q):
        return q.add_block(IDENTITY, klass.ground.block(ids), np.zeros(5), extra_w)

    via_prefix = with_extra(ErmQuery())
    explicit = ErmQuery()
    for ctx, y in history:
        explicit.add_block(MAIN, ctx, [y], [1.0])
    explicit = with_extra(explicit)
    assert via_prefix.n_rows == 5  # n_rows counts row-block rows only
    assert oracle.prefix_rows == 40

    r1, r2 = oracle.exact(via_prefix), fresh.exact(explicit)
    assert r1.hypothesis_index == r2.hypothesis_index
    assert r1.objective_value == r2.objective_value
    assert np.array_equal(oracle.objective_vector(via_prefix), fresh.objective_vector(explicit))

    zeta = 0.02
    objs = fresh.objective_vector(explicit)
    band = set(np.flatnonzero(objs <= objs.min() + zeta * explicit.total_abs_weight()).tolist())
    assert len(band) > 1
    for o, q in ((oracle, via_prefix), (fresh, explicit)):
        seen = {o.approximate(q, zeta, make_rng(8, i)).hypothesis_index for i in range(40)}
        assert seen == band


@pytest.mark.parametrize("loss", [linear_loss, scaled_square_loss], ids=["linear", "scaled-square"])
@pytest.mark.parametrize("space", ["table-grid", "thresholds-interval"])
def test_prefix_is_the_in_order_sum_of_one_row_partials(space, loss):
    rng = make_rng(9, 0)
    if space == "table-grid":
        klass = random_table_class(rng, 6, 8)
        points = [atom(klass.ground, int(i)) for i in rng.integers(8, size=40)]
    else:
        klass = ThresholdClass.grid(16)
        points = [ContextBlock(coords=np.array([c])) for c in rng.random(40)]
    oracle, fresh = ErmOracle(klass, loss()), ErmOracle(klass, loss())
    expected = np.zeros(len(klass))
    for x, y in zip(points, rng.uniform(-1, 1, 40)):
        oracle.extend_prefix(x, float(y))
        expected += fresh.objective_vector(ErmQuery().add_block(MAIN, x, [y], [1.0]))
    assert np.array_equal(oracle.prefix, expected)
    assert oracle.prefix_rows == 40


_LABEL_SETS = {"signs": [-1.0, 1.0], "bits": [0.0, 1.0],
               "reals": [-0.75, -0.2, 0.0, 0.35, 0.9]}


@pytest.mark.parametrize("loss", [linear_loss, absolute_loss, scaled_square_loss],
                         ids=["linear", "absolute", "scaled-square"])
@pytest.mark.parametrize("labels", list(_LABEL_SETS))
@pytest.mark.parametrize("space", ["table-ids", "thresholds-grid", "interval"])
def test_kept_history_rows_give_the_uncached_prefix_bytes(space, labels, loss):
    """``extend_prefix`` keeps a row per (atom, label) and adds it again: the prefix is the
    recurrence that evaluates every row afresh, byte for byte, and it keeps no more rows
    than the (id, label) pairs it saw, and none for a context without an id."""
    rng = make_rng(31, 0)
    if space == "table-ids":
        klass = TableClass(np.round(rng.uniform(-1.0, 1.0, (6, 8)), 6), ground=GroundSet(8))
        points = [atom(klass.ground, int(i)) for i in rng.integers(8, size=500)]
    elif space == "thresholds-grid":
        klass, ground = ThresholdClass.grid(16), GroundSet.grid(24)
        points = [atom(ground, int(i)) for i in rng.integers(24, size=500)]
    else:
        klass = ThresholdClass.grid(16)
        points = [ContextBlock(coords=rng.random(1)) for _ in range(500)]
    ys = rng.choice(_LABEL_SETS[labels], size=500).tolist()
    loss = loss()
    oracle, expected = ErmOracle(klass, loss), np.zeros(len(klass))
    for ctx, y in zip(points, ys):
        oracle.extend_prefix(ctx, y)
        expected += loss.evaluate_array(klass.evaluate_block(ctx)[:, 0], y)
        assert oracle.prefix.tobytes() == expected.tobytes()
    seen = {(ctx.id, y) for ctx, y in zip(points, ys) if ctx.ids is not None}
    assert len(oracle._rows) <= len(seen)
    assert (len(oracle._rows) == 0) == (space == "interval")
    assert oracle.prefix_rows == 500


def test_kept_rows_stop_at_their_float_budget_under_distinct_real_labels():
    """Every round at a new real label makes a new key; the kept rows stop at
    ``KEPT_ROW_FLOATS`` floats and the prefix stays the uncached recurrence."""
    rng = make_rng(31, 1)
    klass = TableClass(np.round(rng.uniform(-1.0, 1.0, (4096, 8)), 6), ground=GroundSet(8))
    loss = absolute_loss()
    oracle, expected = ErmOracle(klass, loss), np.zeros(len(klass))
    for i, y in zip(rng.integers(8, size=300), rng.uniform(-1.0, 1.0, 300).tolist()):
        ctx = atom(klass.ground, int(i))
        oracle.extend_prefix(ctx, y)
        expected += loss.evaluate_array(klass.evaluate_block(ctx)[:, 0], y)
    assert oracle.prefix.tobytes() == expected.tobytes()
    assert len(oracle._rows) == KEPT_ROW_FLOATS // 4096 == 16


def test_no_row_is_kept_for_a_label_unequal_to_itself():
    klass = ThresholdClass.grid(4)
    oracle, x = ErmOracle(klass, linear_loss()), atom(GroundSet.grid(8), 3)
    for _ in range(3):
        oracle.extend_prefix(x, float("nan"))
    assert not oracle._rows and np.isnan(oracle.prefix).all()


def test_one_id_at_two_coordinates_keeps_a_row_for_each():
    """Library contexts may carry one id at different coordinates; thresholds on the
    interval read the coordinate, so each (id, coordinate, label) gets its own kept row and
    the prefix is the uncached recurrence byte for byte."""
    klass, loss = ThresholdClass.grid(16), absolute_loss()
    points = [ContextBlock(ids=np.array([0]), coords=np.array([c])) for c in (0.2, 0.8)]
    oracle, expected = ErmOracle(klass, loss), np.zeros(len(klass))
    for ctx in points * 3:
        oracle.extend_prefix(ctx, 1.0)
        expected += loss.evaluate_array(klass.evaluate_block(ctx)[:, 0], 1.0)
        assert oracle.prefix.tobytes() == expected.tobytes()
    assert sorted(oracle._rows) == [(0, 0.2, 1.0), (0, 0.8, 1.0)]


@pytest.mark.parametrize("loss", [linear_loss, absolute_loss, scaled_square_loss],
                         ids=["linear", "absolute", "scaled-square"])
@pytest.mark.parametrize("space", ["table-grid", "thresholds-interval", "real-table-grid"])
def test_exact_labels_matches_one_exact_call_per_label(space, loss):
    """One evaluation for a family of queries that differ in one row's label gives
    each label's ``exact`` answer bit for bit, with its call count: through a binary
    class's two groups, and through a real class's array over every hypothesis."""
    rng = make_rng(12, 0)
    if space != "thresholds-interval":
        table = random_table_class(rng, 6, 8, binary=space == "table-grid")
        # each hypothesis twice: every minimum is a tie, won by the first copy
        klass = TableClass(np.vstack([table.values, table.values]), ground=table.ground)

        def contexts(n):
            return klass.ground.block(rng.integers(8, size=n))
    else:
        klass = ThresholdClass.grid(16)

        def contexts(n):
            return ContextBlock(coords=rng.random(n))
    oracle = ErmOracle(klass, loss())
    for _ in range(10):
        oracle.extend_prefix(contexts(1), float(rng.choice([-1.0, 1.0])))
    shared, shared_w = contexts(6), rng.normal(size=6)
    labels = np.concatenate([np.linspace(-1.0, 1.0, 7), [1.0, -1.0]])

    for _ in range(5):
        x_t, extra, extra_w = contexts(1), contexts(3), rng.normal(size=3)

        def query():
            return ErmQuery().add_block(IDENTITY, shared, np.zeros(6), shared_w).add_block(
                IDENTITY, extra, np.zeros(3), extra_w)

        calls = oracle.calls
        values = oracle.exact_labels(query(), klass.evaluate_block(x_t), labels, 0,
                                     oracle.prefix[None, :])[0]
        assert oracle.calls == calls + len(labels)
        per_label = [oracle.exact(query().add_block(MAIN, x_t, np.array([y]), np.array([1.0])))
                     for y in labels]
        assert values.tolist() == [r.objective_value for r in per_label]
        if space != "thresholds-interval":
            assert max(r.hypothesis_index for r in per_label) < 6

    calls = oracle.calls
    values = oracle.exact_labels(query(), klass.evaluate_block(x_t), np.array([]), 0,
                                 oracle.prefix[None, :])
    assert values.shape == (1, 0)
    assert oracle.calls == calls


ALL_LOSSES = [linear_loss, absolute_loss, square_loss, scaled_square_loss]


def _least_over_every_hypothesis(loss, values, labels, objectives):
    """Reference for ``exact_labels``: the (rounds x labels x H) array of every round's
    objective plus each hypothesis's main loss at its x_t and each label, and each
    (round, label)'s lowest-index minimum in it, gathered as ``exact`` reads it."""
    full = loss.evaluate_array(values.T[:, None, :], labels[None, :, None])
    full += objectives[:, None, :]
    return np.take_along_axis(full, full.argmin(axis=2)[..., None], 2)[..., 0]


def _binary_space(space, rng):
    """A binary class with every hypothesis twice, and 12 contexts for it: the last two
    where every hypothesis is -1, and where every one is +1."""
    if space == "thresholds-interval":
        klass = ThresholdClass(np.repeat(ThresholdClass.grid(16).thetas, 2))
        return klass, ContextBlock(coords=np.append(rng.random(10), [0.0, 1.0]))
    table = random_table_class(rng, 8, 12, binary=True).values
    table[:, -2:] = [-1.0, 1.0]
    klass = TableClass(np.vstack([table, table]), ground=GroundSet.grid(12))
    return klass, klass.ground.block(np.append(rng.integers(10, size=10), [10, 11]))


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("space", ["table-grid", "thresholds-interval"])
def test_binary_exact_labels_equal_the_array_over_every_hypothesis(space, loss):
    """A binary class's values from its two groups equal, bit for bit, the lowest-index
    minimum over every hypothesis, on labels on and off the dyadic grid, with duplicated
    hypotheses and rounds where one group is empty; each round and label counts a call."""
    rng, loss = make_rng(14, 0), loss()
    klass, x_t = _binary_space(space, rng)
    oracle, rounds = ErmOracle(klass, loss), len(x_t)
    for i, y in zip(rng.integers(rounds, size=7), rng.choice([-1.0, 1.0], size=7)):
        oracle.extend_prefix(x_t[i:i + 1], float(y))
    shared = klass.ground.block(np.arange(5)) if space == "table-grid" else \
        ContextBlock(coords=rng.random(5))
    query = ErmQuery().add_block(IDENTITY, shared, np.zeros(5), rng.normal(size=(rounds, 5)))
    values = klass.evaluate_block(x_t)
    assert (values[:, -2] == -1.0).all() and (values[:, -1] == 1.0).all()
    objectives = np.array([oracle.objective_vector(query, i) for i in range(rounds)])
    history = oracle.prefix[None, :].repeat(rounds, axis=0)
    for labels in (np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 7),
                   rng.uniform(-1.0, 1.0, 5), np.array([0.1, 1.0 / 3.0, -0.7])):
        calls = oracle.calls
        got = oracle.exact_labels(query, values, labels, 0, history)
        assert oracle.calls == calls + rounds * len(labels)
        assert got.shape == (rounds, len(labels))
        assert got.tobytes() == _least_over_every_hypothesis(
            loss, values, labels, objectives).tobytes()


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda f: f.__name__)
def test_binary_exact_labels_at_ulp_gaps_infinities_nans_and_no_labels(loss):
    """Objectives one ulp apart across the groups, infinite and NaN objectives (a NaN
    prefix), and an empty group give the reference's floats, NaN where it has NaN; no
    labels give (rounds, 0) and count no call."""
    loss = loss()
    plus, minus = np.array([1.0, 1.0, -1.0, -1.0]), np.array([-1.0, -1.0, 1.0, 1.0])
    klass = TableClass(np.stack([plus, minus, plus, minus], axis=1))  # 4 hypotheses, 4 atoms
    oracle = ErmOracle(klass, loss)
    x, up = 0.1, np.nextafter(0.1, 1.0)
    history = np.array([[x, x, up, up],             # one group one ulp above the other
                        [up, x, up, x],
                        [x, 1.0, 2.0, np.nan],       # a NaN in one group
                        [np.nan] * 4,                # a NaN prefix
                        [np.inf, x, -np.inf, 0.5],   # infinite objectives
                        [3.0, np.inf, np.inf, 0.25],  # an empty group
                        [np.inf] * 4])               # an empty group, the other all +inf
    values = np.stack([plus, plus, minus, minus, plus, np.ones(4), -np.ones(4)], axis=1)
    labels = np.array([-1.0, -0.5, 0.0, 1.0 / 3.0, 0.1, 1.0, np.nextafter(1.0, 0.0)])
    got = oracle.exact_labels(ErmQuery(), values, labels, 0, history)
    assert got.tobytes() == _least_over_every_hypothesis(loss, values, labels, history).tobytes()
    assert np.isnan(got[2:4]).all() and not np.isnan(got[[0, 1, 4, 5, 6]]).any()
    assert (got[6] == np.inf).all()
    calls = oracle.calls
    none = oracle.exact_labels(ErmQuery(), values, np.array([]), 0, history)
    assert none.shape == (7, 0) and oracle.calls == calls


def test_binary_exact_labels_hold_no_array_over_labels_and_hypotheses():
    """At H = 4,096, |S| = 64 and 64 rounds the (rounds x labels x H) array alone is
    134 MB; the two groups' path holds a few (rounds x H) arrays, 2 MB each."""
    import tracemalloc

    rng = make_rng(15, 0)
    klass = ThresholdClass.grid(4096)
    oracle = ErmOracle(klass, absolute_loss())
    values = klass.evaluate_block(ContextBlock(coords=rng.random(64)))
    history, labels = rng.normal(size=(64, 4096)), np.linspace(-1.0, 1.0, 64)
    assert 64 * len(labels) * len(klass) * 8 > 134e6
    tracemalloc.start()
    try:
        got = oracle.exact_labels(ErmQuery(), values, labels, 0, history)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (64, 64)
    assert peak < 8e6


def test_add_block_rejects_unknown_selector(sign_constants):
    q = ErmQuery()
    with pytest.raises(ValueError, match="selector"):
        q.add_block("hinge", ContextBlock(ids=np.array([0])), np.array([1.0]), np.array([1.0]))


def test_block_values_of_the_wrong_shape_raise(sign_constants):
    ctx, zeros, ones = ContextBlock(ids=np.array([0, 1])), np.zeros(2), np.ones(2)
    for values in (np.ones(2), np.ones((2, 3)), np.ones((2, 2, 1))):  # (H, rows) is (2, 2)
        with pytest.raises(ValueError, match="block values must be"):
            ErmQuery().add_block(IDENTITY, ctx, zeros, ones, values)
    for selector in (IDENTITY, MAIN):
        query = ErmQuery().add_block(selector, ctx, ones, ones, np.ones((3, 2)))
        with pytest.raises(ValueError, match="3 hypotheses"):
            ErmOracle(sign_constants, linear_loss()).exact(query)


def test_domain_mismatch_propagates(sign_constants):
    oracle = ErmOracle(sign_constants, linear_loss())
    q = ErmQuery().add_block(MAIN, ContextBlock(coords=np.array([0.5])),
                             np.array([1.0]), np.array([1.0]))
    with pytest.raises(DomainMismatchError, match="domain mismatch"):
        oracle.exact(q)


@pytest.mark.parametrize("seed", range(4))
def test_soundness_fuzz_small(seed):
    """Exhaustive-scan soundness on random weighted queries, both conventions."""
    rng = make_rng(100 + seed, 0)
    klass = random_table_class(rng, int(rng.integers(2, 40)), 12)
    loss = linear_loss()
    oracle = ErmOracle(klass, loss)
    for _ in range(50):
        q = ErmQuery()
        m = int(rng.integers(0, 12))
        if m:
            ids = rng.integers(0, 12, size=m)
            sel = MAIN if rng.random() < 0.5 else IDENTITY
            q.add_block(sel, klass.ground.block(ids),
                        rng.uniform(-1, 1, m), rng.normal(size=m) * 3)
        zeta = float(rng.choice([0.0, 0.0, 0.5]))
        if zeta == 0.0:
            res = oracle.exact(q)
        else:
            res = oracle.approximate(q, zeta, rng)
        objs = oracle.objective_vector(q)
        slack = zeta * q.total_abs_weight()
        assert res.objective_value <= objs.min() + slack + 1e-12
        if zeta == 0.0:
            assert res.hypothesis_index == int(np.argmin(objs))
