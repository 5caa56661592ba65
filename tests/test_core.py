from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothol.core import (
    ContextBlock,
    DomainMismatchError,
    EmptyTraceError,
    FiniteMeasure,
    GroundSet,
    LOSSES,
    TableClass,
    ThresholdClass,
    Trajectory,
    UniformIntervalMeasure,
    absolute_loss,
    finalize_regret,
    linear_loss,
    make_rng,
    regret_curve,
)

from conftest import atom, random_table_class


# ---------------------------------------------------------------------------
# contexts, ground sets, measures
# ---------------------------------------------------------------------------

def test_ground_grid_coords_span_unit_interval():
    g = GroundSet.grid(5)
    assert g.coords[0] == 0.0 and g.coords[-1] == 1.0
    assert np.all((g.coords >= 0) & (g.coords <= 1))


def test_finite_measure_validation():
    ground = GroundSet.grid(3)
    with pytest.raises(ValueError):
        FiniteMeasure(ground, np.array([0.5, 0.5, 0.1]))
    with pytest.raises(ValueError):
        FiniteMeasure(ground, np.array([0.5, 0.6, -0.1]))
    mu = FiniteMeasure(ground, np.array([0.2, 0.3, 0.5]))
    assert abs(mu.probs.sum() - 1.0) < 1e-12


def test_smoothness_certificate_validates_sigma():
    from smoothol.core import SmoothnessCertificate

    mu = FiniteMeasure.uniform(GroundSet.grid(3))
    SmoothnessCertificate(sigma=1.0, mu=mu)
    SmoothnessCertificate(sigma=0.01, mu=mu)
    with pytest.raises(ValueError):
        SmoothnessCertificate(sigma=0.0, mu=mu)
    with pytest.raises(ValueError):
        SmoothnessCertificate(sigma=1.5, mu=mu)


def test_finite_measure_sampling_is_seeded():
    mu = FiniteMeasure.uniform(GroundSet.grid(7))
    a = mu.sample_ids(make_rng(3, 0), 50)
    b = mu.sample_ids(make_rng(3, 0), 50)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("mu", [FiniteMeasure.uniform(GroundSet.grid(7)),
                                FiniteMeasure(GroundSet.grid(3), np.array([0.2, 0.3, 0.5]))])
def test_sample_point_is_the_one_row_sample_block(mu):
    for key in range(5):
        x = mu.sample_point(make_rng(4, key))
        row = mu.sample_block(make_rng(4, key), 1)
        assert len(x) == 1
        for got, want in ((x.ids, row.ids), (x.coords, row.coords)):
            assert (got is None and want is None) or np.array_equal(got, want)
        assert x.id == (None if row.ids is None else int(row.ids[0]))
        assert x.coordinate == (None if row.coords is None else float(row.coords[0]))
    with pytest.raises(FrozenInstanceError):
        x.coords = np.array([0.5])


# ---------------------------------------------------------------------------
# hypothesis classes
# ---------------------------------------------------------------------------

def test_table_class_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        TableClass(np.array([[1.5, 0.0]]))


def test_table_class_binary_detection():
    binary = TableClass(np.array([[1.0, -1.0], [-1.0, -1.0]]))
    assert binary.kind == "binary"
    real = TableClass(np.array([[0.5, -1.0]]))
    assert real.kind == "real"
    with pytest.raises(ValueError):
        TableClass(np.array([[0.5, 0.0]]), kind="binary")


def test_table_class_domain_mismatch():
    klass = TableClass(np.array([[1.0, -1.0]]))
    with pytest.raises(DomainMismatchError, match="domain mismatch"):
        klass.evaluate_block(ContextBlock(coords=np.array([0.5])))
    with pytest.raises(DomainMismatchError, match="domain mismatch"):
        klass.evaluate_block(ContextBlock(ids=np.array([5])))


@pytest.mark.parametrize("method", ["evaluate_block", "identity_dot"])
@pytest.mark.parametrize("ids", [[-1], [2], [0, -1, 1], [1, 2, 0]],
                         ids=["one-row-minus-1", "one-row-width", "rows-minus-1", "rows-width"])
def test_table_class_rejects_ids_outside_the_table(method, ids):
    """Id -1 would wrap to the last atom in ``take``; id = width is past the end."""
    klass = TableClass(np.array([[1.0, -1.0], [0.5, 0.25]]))  # width 2
    block = ContextBlock(ids=np.array(ids))
    args = (block,) if method == "evaluate_block" else (block, np.ones(len(ids)))
    with pytest.raises(DomainMismatchError, match="out of range"):
        getattr(klass, method)(*args)
    in_range = ContextBlock(ids=np.clip(np.array(ids), 0, 1))
    getattr(klass, method)(*((in_range,) + args[1:]))


def test_threshold_class_outputs_are_signs():
    klass = ThresholdClass.grid(8)
    xs = np.linspace(0, 1, 33)
    vals = klass.evaluate_block(ContextBlock(coords=xs))
    assert set(np.unique(vals)) <= {-1.0, 1.0}
    # lowest threshold fires first
    assert klass.evaluate_block(ContextBlock(coords=np.array([0.9])))[0, 0] == 1.0
    assert klass.evaluate_block(ContextBlock(coords=np.array([0.0])))[7, 0] == -1.0


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(LOSSES))
def test_loss_lipschitz_and_convexity_on_grids(name):
    loss = LOSSES[name]()
    lo, hi = loss.domain
    grid = np.linspace(lo, hi, 41)
    for y in np.linspace(lo, hi, 9):
        vals = loss.evaluate_array(grid, np.full_like(grid, y))
        rlo, rhi = loss.output_range
        assert np.all(vals >= rlo - 1e-12) and np.all(vals <= rhi + 1e-12)
        # Lipschitz in the first argument
        diffs = np.abs(np.diff(vals)) / np.diff(grid)
        assert np.all(diffs <= loss.lipschitz_L + 1e-9)
        # midpoint convexity
        mid = loss.evaluate_array((grid[:-2] + grid[2:]) / 2, np.full(len(grid) - 2, y))
        assert np.all(mid <= (vals[:-2] + vals[2:]) / 2 + 1e-12)


def test_linear_loss_values():
    loss = linear_loss()
    assert loss.evaluate(1.0, 1.0) == 0.0
    assert loss.evaluate(-1.0, 1.0) == 1.0
    assert loss.evaluate(0.0, 1.0) == 0.5


# each loss as its array form computed it before the squares became products
_ARRAY_FORMS = {"linear": lambda a, b: (1.0 - a * b) / 2.0,
                "absolute": lambda a, b: np.abs(a - b) / 2.0,
                "square": lambda a, b: (a - b) ** 2,
                "scaled_square": lambda a, b: ((a - b) / 2.0) ** 2}


@pytest.mark.parametrize("name", list(LOSSES))
def test_loss_scalar_and_array_forms_are_bit_equal(name):
    """``evaluate`` on numpy scalars rounds as ``evaluate_array`` does, and the array
    results are those of the forms above, on 10^5 random pairs over the domain
    (half of them with a label at an end of it)."""
    loss = LOSSES[name]()
    lo, hi = loss.domain
    rng = make_rng(50, len(name))
    yhat, y = rng.uniform(lo, hi, (2, 100_000))
    y[::2] = np.where(y[::2] < (lo + hi) / 2, lo, hi)
    array = loss.evaluate_array(yhat, y)
    assert array.tobytes() == _ARRAY_FORMS[name](yhat, y).tobytes()
    scalar = np.array([loss.evaluate(a, b) for a, b in zip(yhat, y)])
    assert scalar.tobytes() == array.tobytes()


# ---------------------------------------------------------------------------
# traces and regret
# ---------------------------------------------------------------------------

def _trace(rows):
    trace = Trajectory(len(rows))
    for i, (ctx, y, yhat, inst) in enumerate(rows, start=1):
        trace.append(ctx, y, yhat, inst, oracle_calls=i)
    return trace


def test_finalize_regret_single_round_perfect(sign_constants):
    loss = linear_loss()
    ctx = atom(sign_constants.ground, 0)
    trace = _trace([(ctx, 1.0, 1.0, loss.evaluate(1.0, 1.0))])
    assert finalize_regret(trace, sign_constants, loss) == pytest.approx(0.0, abs=1e-12)


def test_finalize_regret_maximal_mismatch(sign_constants):
    loss = linear_loss()
    ctx = atom(sign_constants.ground, 1)
    rows = [(ctx, 1.0, -1.0, loss.evaluate(-1.0, 1.0))] * 2
    trace = _trace(rows)
    assert finalize_regret(trace, sign_constants, loss) == pytest.approx(2.0, abs=1e-12)
    regret, totals = regret_curve(trace, sign_constants, loss)
    assert regret.tolist() == [1.0, 2.0]
    assert totals.tolist() == [0.0, 2.0]


def test_finalize_regret_matches_bruteforce_recomputation():
    rng = make_rng(11, 0)
    klass = random_table_class(rng, 5, 6)
    loss = absolute_loss()
    rows = []
    for t in range(20):
        ctx = atom(klass.ground, int(rng.integers(6)))
        y = float(rng.uniform(-1, 1))
        yhat = float(rng.uniform(-1, 1))
        rows.append((ctx, y, yhat, loss.evaluate(yhat, y)))
    trace = _trace(rows)

    # independent recomputation with plain python loops
    best = min(
        sum(loss.evaluate(klass.evaluate_block(ctx)[h, 0], y) for ctx, y, _, _ in rows)
        for h in range(len(klass))
    )
    expected = sum(r[3] for r in rows) - best
    assert finalize_regret(trace, klass, loss) == pytest.approx(expected, abs=1e-9)
    assert regret_curve(trace, klass, loss)[0][-1] == pytest.approx(expected, abs=1e-9)


def test_regret_curve_chunks_match_per_round_recurrence():
    """Past one comparator chunk, the curve still equals the += recurrence exactly."""
    rng = make_rng(12, 0)
    klass = random_table_class(rng, 7, 9)
    loss = absolute_loss()
    T = 2500
    trace = Trajectory(T)
    comparator, cum_loss, expected = np.zeros(len(klass)), 0.0, []
    for t in range(1, T + 1):
        ctx = atom(klass.ground, int(rng.integers(9)))
        y, yhat = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        inst = loss.evaluate(yhat, y)
        trace.append(ctx, y, yhat, inst, oracle_calls=t)
        comparator += loss.evaluate_array(
            klass.evaluate_block(ctx)[:, 0], y)
        cum_loss += inst
        expected.append(cum_loss - float(comparator.min()))
    regret, totals = regret_curve(trace, klass, loss)
    assert regret.tolist() == expected
    assert totals.tolist() == comparator.tolist()
    assert finalize_regret(trace, klass, loss) == pytest.approx(expected[-1], abs=1e-9)


def test_trajectory_columns_hold_ids_and_coordinates():
    trace = Trajectory(3)
    trace.append(ContextBlock(ids=np.array([2]), coords=np.array([0.5])), 1.0, 0.25, 0.375, 1)
    trace.append(ContextBlock(coords=np.array([0.75])), -1.0, -0.5, 0.25, 1)
    assert len(trace) == 2
    assert trace.ids[:2].tolist() == [2, -1]
    assert trace.coords[:2].tolist() == [0.5, 0.75]
    assert trace.labels[:2].tolist() == [1.0, -1.0]
    assert trace.predictions[:2].tolist() == [0.25, -0.5]
    assert trace.instant_loss[:2].tolist() == [0.375, 0.25]
    # the second round has no atom id, so a table class cannot score the trace
    with pytest.raises(DomainMismatchError):
        finalize_regret(trace, TableClass(np.ones((1, 4))), linear_loss())
    thresholds = ThresholdClass(np.array([0.6]))  # wrong on both rounds: loss 1 each
    assert finalize_regret(trace, thresholds, linear_loss()) == pytest.approx(0.625 - 2.0)


def test_finalize_regret_empty_trace_errors(sign_constants):
    with pytest.raises(EmptyTraceError, match="empty trace"):
        finalize_regret(Trajectory(3), sign_constants, linear_loss())


def test_regret_lower_bounds(sign_constants):
    loss = linear_loss()
    rng = make_rng(5, 1)
    rows = []
    for t in range(30):
        ctx = atom(sign_constants.ground, int(rng.integers(4)))
        y = float(rng.choice([-1.0, 1.0]))
        yhat = float(rng.uniform(-1, 1))
        rows.append((ctx, y, yhat, loss.evaluate(yhat, y)))
    trace = _trace(rows)
    width = loss.output_range[1] - loss.output_range[0]
    assert finalize_regret(trace, sign_constants, loss) >= -width * len(rows) - 1e-9

    # perfect comparator: labels all +1 and f=+1 in the class, so regret >= 0
    rows = [(atom(sign_constants.ground, 0), 1.0, float(rng.uniform(-1, 1)), None)]
    rows = [(c, y, p, loss.evaluate(p, y)) for c, y, p, _ in rows * 10]
    trace = _trace(rows)
    assert finalize_regret(trace, sign_constants, loss) >= -1e-12
    assert np.all(regret_curve(trace, sign_constants, loss)[0] >= -1e-12)


def test_oracle_call_counter_must_be_nondecreasing():
    trace = Trajectory(2)
    ctx = ContextBlock(ids=np.array([0]), coords=np.array([0.0]))
    trace.append(ctx, 1.0, 1.0, 0.0, oracle_calls=5)
    with pytest.raises(ValueError):
        trace.append(ctx, 1.0, 1.0, 0.0, oracle_calls=4)


# ---------------------------------------------------------------------------
# rng
# ---------------------------------------------------------------------------

def test_make_rng_streams_are_reproducible_and_distinct():
    a = make_rng(42, 0).random(8)
    b = make_rng(42, 0).random(8)
    c = make_rng(42, 1).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=5))
def test_make_rng_any_seed_key(seed, key):
    x = make_rng(seed, key).random(3)
    y = make_rng(seed, key).random(3)
    assert np.array_equal(x, y)
