import io
import json

import numpy as np
import pytest

from smoothol.core import (
    ContextBlock,
    ContextPoint,
    DomainMismatchError,
    linear_loss,
    make_rng,
)
from smoothol.oracle import IDENTITY, MAIN, ErmOracle, ErmQuery

from conftest import random_table_class


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
    assert res.calls_consumed == 1


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


def test_flat_slack_convention(sign_constants):
    oracle = ErmOracle(sign_constants, linear_loss(), scale_slack_by_total_weight=False)
    # objective gap is 2 here (weights 2), flat zeta = 1 admits only the minimizer
    q = _query((0, 1.0, 2.0))
    rng = make_rng(4, 0)
    for _ in range(50):
        assert oracle.approximate(q, zeta=1.0, rng=rng).hypothesis_index == 0
    # scaled convention would have admitted the other hypothesis: zeta*sum|w| = 2
    scaled = ErmOracle(sign_constants, linear_loss())
    seen = {scaled.approximate(q, zeta=1.0, rng=make_rng(5, i)).hypothesis_index
            for i in range(60)}
    assert seen == {0, 1}


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
        for ctx_id, y, w in zip(block.contexts.ids, block.labels, block.weights):
            v = klass.evaluate(res.hypothesis_index, klass.ground.point(int(ctx_id)))
            term = v if block.selector == IDENTITY else loss.evaluate(v, float(y))
            manual += float(w) * term
    assert res.objective_value == pytest.approx(manual, abs=1e-9)


def test_partial_equals_same_rows_as_block():
    """History rows fed as the prefix, or as an explicit partial, or as a row block
    give the same answers: exact minimizer and value, and the approximate slack band."""
    rng = make_rng(7, 0)
    klass = random_table_class(rng, 6, 8)
    loss = linear_loss()
    oracle = ErmOracle(klass, loss)
    history = [(klass.ground.point(int(rng.integers(8))), float(rng.choice([-1, 1])))
               for _ in range(40)]
    for ctx, y in history:
        oracle.extend_prefix(ctx, y)
    pts = ContextBlock.from_points([c for c, _ in history])
    ys = np.array([y for _, y in history])
    ids = rng.integers(0, 8, size=5)
    extra_w = rng.normal(size=5)

    def with_extra(q):
        return q.add_block(IDENTITY, klass.ground.block(ids), np.zeros(5), extra_w)

    via_prefix = with_extra(ErmQuery().add_partial(oracle.prefix))
    via_partial = with_extra(ErmQuery().add_partial(
        oracle.partial(MAIN, pts, ys, np.ones(len(history)))))
    explicit = with_extra(ErmQuery().add_block(MAIN, pts, ys, np.ones(len(history))))

    r2 = oracle.exact(explicit)
    for q in (via_prefix, via_partial):
        r1 = oracle.exact(q)
        assert r1.hypothesis_index == r2.hypothesis_index
        assert r1.objective_value == pytest.approx(r2.objective_value, abs=1e-9)
        assert q.total_abs_weight() == pytest.approx(explicit.total_abs_weight(), abs=1e-9)
        assert q.n_rows == 5  # n_rows counts row-block rows only

    zeta = 0.02
    band = zeta * explicit.total_abs_weight()
    best = oracle.objective_vector(explicit).min()
    for q in (via_prefix, via_partial, explicit):
        seen = {oracle.approximate(q, zeta, make_rng(8, i)).hypothesis_index
                for i in range(40)}
        objs = oracle.objective_vector(explicit)
        assert seen == set(np.flatnonzero(objs <= best + band).tolist())


def test_query_log_is_line_delimited_json(sign_constants):
    stream = io.StringIO()
    oracle = ErmOracle(sign_constants, linear_loss(), log_stream=stream)
    oracle.extend_prefix(ContextPoint(id=1), 1.0)
    oracle.exact(_query((0, 1.0, 1.0), (2, -1.0, 0.5, IDENTITY)))
    oracle.exact(_query((1, -1.0, 2.0)).add_partial(oracle.prefix))
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["result_index"] == 0
    assert rec["rows"] == {MAIN: 1, IDENTITY: 1}
    assert rec["partial_rows"] == 0
    assert rec["abs_weight"] == 1.5
    assert rec["objective"] == 0.5
    rec = json.loads(lines[1])
    assert rec["rows"] == {MAIN: 1, IDENTITY: 0}
    assert (rec["partial_rows"], rec["abs_weight"]) == (1, 3.0)


def test_add_block_rejects_unknown_selector(sign_constants):
    q = ErmQuery()
    with pytest.raises(ValueError, match="selector"):
        q.add_block("hinge", ContextBlock.from_points([ContextPoint(id=0)]),
                    np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="selector"):
        ErmOracle(sign_constants, linear_loss()).partial(
            "hinge", ContextBlock(ids=np.array([0])), np.array([1.0]), np.array([1.0]))


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
