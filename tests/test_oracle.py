import numpy as np
import pytest

from smoothol.core import (
    ContextBlock,
    DomainMismatchError,
    TableClass,
    ThresholdClass,
    absolute_loss,
    linear_loss,
    make_rng,
    scaled_square_loss,
)
from smoothol.oracle import IDENTITY, MAIN, ErmOracle, ErmQuery

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


@pytest.mark.parametrize("loss", [linear_loss, absolute_loss, scaled_square_loss],
                         ids=["linear", "absolute", "scaled-square"])
@pytest.mark.parametrize("space", ["table-grid", "thresholds-interval"])
def test_exact_labels_matches_one_exact_call_per_label(space, loss):
    """One evaluation for a family of queries that differ in one row's label gives
    each label's ``exact`` answer bit for bit, with its call count."""
    rng = make_rng(12, 0)
    if space == "table-grid":
        table = random_table_class(rng, 6, 8, binary=True)
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
        idx, values = (a[0] for a in oracle.exact_labels(
            query(), klass.evaluate_block(x_t), labels, 0, oracle.prefix[None, :]))
        assert oracle.calls == calls + len(labels)
        per_label = [oracle.exact(query().add_block(MAIN, x_t, np.array([y]), np.array([1.0])))
                     for y in labels]
        assert idx.tolist() == [r.hypothesis_index for r in per_label]
        assert values.tolist() == [r.objective_value for r in per_label]
        if space == "table-grid":
            assert idx.max() < 6

    calls = oracle.calls
    idx, values = oracle.exact_labels(query(), klass.evaluate_block(x_t), np.array([]), 0,
                                      oracle.prefix[None, :])
    assert (idx.shape, values.shape) == ((1, 0), (1, 0))
    assert oracle.calls == calls


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
