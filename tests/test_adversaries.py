import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from smoothol.adversaries import (
    AdaptiveMixtureAdversary,
    HiddenMuThresholdAdversary,
    IidAdversary,
    _is_shattered,
    adversarial_flip_labels,
    build_rademacher_gap_adversary,
    noisy_comparator_labels,
    rademacher_labels,
    tilted_smooth_probs,
)
from smoothol.cli import main as cli_main
from smoothol.core import (
    BLOCK,
    FiniteMeasure,
    GroundSet,
    SmoothnessCertificate,
    SmoothnessViolation,
    TableClass,
    density_ratio,
    make_rng,
)


def _uniform_cert(n, sigma):
    return SmoothnessCertificate(sigma=sigma, mu=FiniteMeasure.uniform(GroundSet.grid(n)))


# ---------------------------------------------------------------------------
# iid
# ---------------------------------------------------------------------------

def test_iid_sigma_one_matches_mu_chisquare():
    cert = _uniform_cert(12, 1.0)
    adv = IidAdversary(cert, rademacher_labels(), make_rng(0, 0))
    n = 100_000
    counts = np.zeros(12)
    for _ in range(n):
        ctx, _ = adv.next_round()
        counts[ctx.id] += 1
    p = stats.chisquare(counts, np.full(12, n / 12)).pvalue
    assert p > 0.01


def test_iid_explicit_p_is_used():
    cert = _uniform_cert(4, 0.5)
    p = np.array([0.5, 0.5, 0.0, 0.0])
    adv = IidAdversary(cert, rademacher_labels(), make_rng(1, 0), p=p)
    ids = {adv.next_round()[0].id for _ in range(500)}
    assert ids <= {0, 1}


def test_iid_refuses_p_above_the_density_cap():
    n = 100
    probs = np.full(n, 0.1 / (n - 1))
    probs[42] = 0.9
    probs /= probs.sum()
    with pytest.raises(SmoothnessViolation, match=r"density 90 .*1/sigma = 2$"):
        IidAdversary(_uniform_cert(n, 0.5), rademacher_labels(), make_rng(9, 0), p=probs)


def test_iid_refuses_p_off_the_support_of_mu():
    cert = SmoothnessCertificate(0.5, FiniteMeasure(GroundSet.grid(3), [0.5, 0.5, 0.0]))
    with pytest.raises(SmoothnessViolation, match="support"):
        IidAdversary(cert, rademacher_labels(), make_rng(9, 1), p=[0.5, 0.0, 0.5])


# ---------------------------------------------------------------------------
# adaptive mixture
# ---------------------------------------------------------------------------

def test_adaptive_mixture_density_bound_exact_every_round():
    for sigma, seed in ((0.5, 2), (0.25, 8)):
        cert = _uniform_cert(10, sigma)
        adv = AdaptiveMixtureAdversary(cert, rademacher_labels(), make_rng(seed, 0))
        targets = set()
        for t in range(200):
            probs = adv.conditional_probs()
            targets.add(int(np.argmax(probs)))
            assert abs(probs.sum() - 1.0) < 1e-12
            ratio = probs / cert.mu.probs
            # the target atom sits exactly at the cap
            assert np.max(ratio) == pytest.approx(1.0 / sigma, rel=1e-12)
            adv.next_round(last_prediction=0.5)
        assert len(targets) > 1  # adaptivity: the point mass moves with history


@pytest.mark.parametrize("zero", [0, 5], ids=["zero-mass-first", "zero-mass-last"])
def test_adaptive_mixture_targets_only_atoms_that_mu_charges(zero):
    """An atom with mu = 0 is never drawn, so it is never the target: every round reaches
    the density cap 1/sigma on the least-sampled charged atom, lowest id on ties."""
    sigma, mu = 0.25, np.full(6, 0.2)  # each charged atom can carry density 1/sigma
    mu[zero] = 0.0
    cert = SmoothnessCertificate(sigma=sigma, mu=FiniteMeasure(GroundSet.grid(6), mu))
    adv = AdaptiveMixtureAdversary(cert, rademacher_labels(), make_rng(3, 0))
    counts = np.zeros(6, dtype=np.int64)
    for _ in range(200):
        probs = adv.conditional_probs()
        target = min(np.flatnonzero(mu > 0), key=lambda a: (counts[a], a))
        assert probs[zero] == 0.0
        assert probs[target] / mu[target] == pytest.approx(1.0 / sigma, rel=1e-12)
        counts[adv.next_round(last_prediction=0.5)[0].id] += 1
    assert counts[zero] == 0 and counts.sum() == 200


def test_verify_smoothness_adaptive_quarter():
    cert = _uniform_cert(10, 0.25)
    adv = AdaptiveMixtureAdversary(cert, rademacher_labels(), make_rng(8, 0))
    worst = 0.0
    for _ in range(50):
        worst = max(worst, density_ratio(adv.conditional_probs(), cert.mu.probs, 0.25).max())
        adv.next_round(last_prediction=0.5)
    assert worst <= 4.0 + 1e-9


# ---------------------------------------------------------------------------
# hidden-mu threshold construction
# ---------------------------------------------------------------------------

def test_hidden_mu_opening_moves_and_halving():
    adv = HiddenMuThresholdAdversary(T=12, rng=make_rng(3, 0))
    (x1, y1) = adv.next_round()
    (x2, y2) = adv.next_round()
    assert (x1.coordinate, y1) == (0.0, -1.0)
    assert (x2.coordinate, y2) == (1.0, 1.0)
    x3, _ = adv.next_round()
    assert x3.coordinate == 0.5  # 1 - y2 * 2^{-1}
    # recurrence x_t = x_{t-1} - y_{t-1} 2^{-(t-2)} holds exactly
    prev = x3.coordinate
    prev_y = adv.history[-1][1]
    for t in range(4, 13):
        x, y = adv.next_round()
        assert x.coordinate == pytest.approx(prev - prev_y * 2.0 ** -(t - 2), abs=0.0)
        prev, prev_y = x.coordinate, y


def test_hidden_mu_exact_dyadic_arithmetic_to_fifty_rounds():
    adv = HiddenMuThresholdAdversary(T=50, rng=make_rng(4, 0))
    frac = None
    prev_y = None
    for t in range(1, 51):
        x, y = adv.next_round()
        if t == 1:
            frac = Fraction(0)
        elif t == 2:
            frac = Fraction(1)
        else:
            frac = frac - int(prev_y) * Fraction(1, 2 ** (t - 2))
        prev_y = y
        assert Fraction(x.coordinate).limit_denominator(2 ** 50) == frac


def test_hidden_mu_realizable_threshold_makes_zero_mistakes():
    adv = HiddenMuThresholdAdversary(T=40, rng=make_rng(5, 0))
    rounds = [adv.next_round() for _ in range(40)]
    theta = adv.realizable_threshold()
    for ctx, y in rounds:
        pred = 1.0 if ctx.coordinate >= theta else -1.0
        assert pred == y


def test_hidden_mu_hardness_any_learner_errs_half_the_time():
    """Mistake counts concentrate at T/2 regardless of the prediction rule."""
    T, seeds = 40, 200
    for predictor in (lambda ctx: 1.0, lambda ctx: 2.0 * (ctx.coordinate >= 0.5) - 1.0):
        mistakes = []
        for s in range(seeds):
            adv = HiddenMuThresholdAdversary(T, make_rng(900 + s, 0))
            m = 0
            for _ in range(T):
                ctx, y = adv.next_round()
                m += predictor(ctx) != y
            mistakes.append(m)
        mean = np.mean(mistakes)
        assert abs(mean - T / 2) <= 3 * np.sqrt(T)


# ---------------------------------------------------------------------------
# rademacher-gap construction
# ---------------------------------------------------------------------------

def _gap_class(m=2):
    """A class with a distinguished zero point (atom 0) shattering atoms 1..m."""
    n_atoms = m + 1
    patterns = np.array(np.meshgrid(*([[-1.0, 1.0]] * m), indexing="ij")).reshape(m, -1).T
    values = np.hstack([np.zeros((2 ** m, 1)), patterns])
    return TableClass(values, ground=GroundSet.grid(n_atoms))


def test_gap_adversary_requires_structure():
    klass = _gap_class(2)
    build_rademacher_gap_adversary(0.5, 2, klass, klass.ground, make_rng(10, 0), scale=2.0)
    no_star = TableClass(np.array([[1.0, 1.0, -1.0]]))
    with pytest.raises(ValueError, match="distinguished point"):
        build_rademacher_gap_adversary(0.5, 2, no_star, no_star.ground, make_rng(10, 1))
    constant = TableClass(np.array([[0.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="shatter"):
        build_rademacher_gap_adversary(0.5, 2, constant, constant.ground, make_rng(10, 2))
    zero = TableClass(np.zeros((1, 3)))  # sign * 0 >= scale / 2 holds for every scale <= 0
    for scale in (0.0, -1.0):
        with pytest.raises(ValueError, match="scale must be positive"):
            build_rademacher_gap_adversary(0.5, 2, zero, zero.ground, make_rng(10, 3), scale=scale)


def _shattered_by_enumeration(values: np.ndarray, scale: float) -> bool:
    """Reference: every one of the 2^m sign patterns s has a row f with s * f >= scale / 2
    on all m columns."""
    m = values.shape[1]
    signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * m), indexing="ij")).reshape(m, -1).T
    hit = (signs[:, None, :] * values[None, :, :] >= scale / 2.0).all(axis=2)
    return bool(hit.any(axis=1).all())


def _random_table(rng: np.random.Generator, m: int, scale: float) -> np.ndarray:
    """Rows for atoms 1..m: each sign pattern a few times or not at all, each entry at
    exactly scale / 2, zero, a float below the margin, or above it, up to 1."""
    patterns = np.array(np.meshgrid(*([[-1.0, 1.0]] * m), indexing="ij")).reshape(m, -1).T
    rows = patterns[rng.integers(0, 2 ** m, rng.integers(1, 3 * 2 ** m + 1))]
    if rng.random() < 0.5:  # every pattern at least once, so some tables shatter
        rows = np.vstack([patterns, rows])
    half = scale / 2.0
    magnitudes = np.array([half, 0.0, np.nextafter(half, 0.0), min(scale, 1.0), 1.0])
    return rows * rng.choice(magnitudes, rows.shape, p=[0.8, 0.02, 0.02, 0.08, 0.08])


def test_sign_codes_decide_shattering_as_the_enumeration_does():
    """``_is_shattered``, one sign code per hypothesis, against every sign pattern
    enumerated, on 600 random tables over 1..5 atoms: values at exactly +/-scale/2, at 0,
    and a float below the margin; and a full sign table on 8 atoms, which is shattered."""
    rng = make_rng(99, 0)
    outcomes = []
    for case in range(600):
        m, scale = 1 + case % 5, float(rng.choice([2.0, 0.5, 0.3]))
        rows = _random_table(rng, m, scale)
        klass = TableClass(np.hstack([np.zeros((len(rows), 1)), rows]))
        expected = _shattered_by_enumeration(rows, scale)
        assert _is_shattered(klass, klass.ground, np.arange(1, m + 1), scale) == expected
        outcomes.append(expected)
    assert 100 < sum(outcomes) < 500  # both answers are tested
    full = _gap_class(8)
    assert len(full) == 2 ** 8
    assert _is_shattered(full, full.ground, np.arange(1, 9), 2.0)
    assert not _is_shattered(full, full.ground, np.arange(1, 9), 2.0 + 1e-12)
    assert not _is_shattered(TableClass(full.values[1:]), full.ground, np.arange(1, 9), 2.0)


def test_a_scale_whose_half_is_zero_is_refused():
    """At scale 5e-324 the margin scale / 2 rounds to 0, where a zero value met every sign
    pattern: an all-zero class "shattered" any set."""
    zero = TableClass(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="scale must be positive"):
        build_rademacher_gap_adversary(0.5, 2, zero, zero.ground, make_rng(10, 4), scale=5e-324)
    klass = _gap_class(2)
    build_rademacher_gap_adversary(0.5, 2, klass, klass.ground, make_rng(10, 5), scale=1e-323)


@pytest.mark.parametrize("m", [16, 20])
def test_a_large_candidate_set_is_refused_in_little_memory(m, tmp_path, capsys):
    """A 64-row table cannot shatter 16 or 20 atoms: the run exits 2, having allocated
    under 8 MB (enumerating the 2^16 patterns against every row took about 0.6 GB)."""
    values = np.hstack([np.zeros((64, 1)), make_rng(99, m).choice([-1.0, 1.0], (64, m))])
    raw = {"learner": {"name": "ftpl-dual"}, "loss": "linear", "T": 8, "sigma": 0.5,
           "seeds": [0], "adversary": {"kind": "rademacher_gap", "m": m, "scale": 2.0},
           "ground": {"type": "grid", "atoms": m + 1},
           "class": {"type": "table", "values": values.tolist()}}
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(raw))
    tracemalloc.start()
    try:
        code = cli_main(["run", "--config", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "does not shatter" in capsys.readouterr().err
    assert peak < 8 * 2**20


def test_gap_adversary_density_and_marginals():
    sigma = 0.5
    klass = _gap_class(2)
    adv = build_rademacher_gap_adversary(sigma, 2, klass, klass.ground,
                                         make_rng(11, 0), scale=2.0)
    probs = adv.p.probs
    mu = adv.certificate.mu.probs
    on_support = probs > 0
    assert np.allclose(probs[on_support] / mu[on_support], 1.0 / sigma)

    # p_t draws are uniform over the shattering atoms
    # x* carries mu's mass but none of p's; the shattering atoms carry all of p's
    (star_id,) = np.flatnonzero((mu > 0) & (probs == 0))
    shatter_ids = np.flatnonzero(on_support)
    n = 100_000
    counts = np.zeros(klass.ground.size)
    for _ in range(n):
        ctx, _ = adv.next_round()
        counts[ctx.id] += 1
    assert counts[star_id] == 0
    p = stats.chisquare(counts[shatter_ids],
                        np.full(len(shatter_ids), n / len(shatter_ids))).pvalue
    assert p > 0.01

    # mu itself: x* frequency near 1 - sigma
    draws = adv.certificate.mu.sample_ids(adv.rng, 100_000)
    frac = np.mean(draws == star_id)
    se = np.sqrt(sigma * (1 - sigma) / 100_000)
    assert abs(frac - (1 - sigma)) <= 3 * se


def test_gap_adversary_sigma_one_density_ratio_one():
    klass = _gap_class(2)
    adv = build_rademacher_gap_adversary(1.0, 2, klass, klass.ground,
                                         make_rng(12, 0), scale=2.0)
    ratio = density_ratio(adv.p.probs, adv.certificate.mu.probs, 1.0)
    assert ratio.max() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("excess, refused", [(2e-9, True), (0.5e-9, False)])
def test_density_ratio_tolerance_is_one_part_in_a_billion(excess, refused):
    """A p whose density is (1 + 2e-9)/sigma is refused; at (1 + 0.5e-9)/sigma it is
    rounding, and passes."""
    mu, sigma = np.full(4, 0.25), 0.5
    p = np.array([0.5 * (1 + excess), 0.5 * (1 - excess), 0.0, 0.0])
    if refused:
        with pytest.raises(SmoothnessViolation, match="above 1/sigma"):
            density_ratio(p, mu, sigma)
    else:
        assert sigma * density_ratio(p, mu, sigma).max() == pytest.approx(1 + excess)


def test_gap_adversary_at_the_cap_builds_for_a_tiny_sigma():
    """Its density is 1/sigma up to rounding, which at sigma = 1e-9 passes 1/sigma + 1e-9;
    the check's tolerance is relative, so the construction still builds."""
    klass = _gap_class(5)
    adv = build_rademacher_gap_adversary(1e-9, 5, klass, klass.ground, make_rng(12, 1),
                                         scale=2.0)
    ratio = density_ratio(adv.p.probs, adv.certificate.mu.probs, 1e-9)
    assert ratio.max() > 1.0 / 1e-9 + 1e-9  # what an absolute tolerance would refuse


# ---------------------------------------------------------------------------
# rounds drawn ahead, against the per-round reference
# ---------------------------------------------------------------------------

def _predictions(T):
    """A scripted prediction before each round, for the flip rule to read: none before round one."""
    return [None] + [(0.5, -0.25, 0.0, -1.0, 1.0)[t % 5] for t in range(T - 1)]


def _reference_rounds(p, rule, rng, T):
    """Each round drawn as it comes: two doubles, the context through p's CDF at the first,
    the label from the rule at the second."""
    rounds = []
    for last in _predictions(T):
        ctx = p.block_at(np.array([rng.random()]))
        x = ctx.coordinate if ctx.coordinate is not None else ctx.id
        rounds.append((ctx, rule(x, rng.random(), last)))
    return rounds


def _adversary_rounds(adv, T):
    return [adv.next_round(last) for last in _predictions(T)]


def _assert_same_rounds(got, want):
    assert len(got) == len(want)
    for (ctx, y), (ref, y_ref) in zip(got, want):
        assert type(y) is float and y == y_ref
        for a, b in ((ctx.ids, ref.ids), (ctx.coords, ref.coords)):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_position(a, b):
    """Whether two generators stand at the same point of the same stream."""
    return repr(a.bit_generator.state) == repr(b.bit_generator.state)


def _tilted_grid(rule, rng):
    mu = FiniteMeasure.uniform(GroundSet.grid(32))
    return IidAdversary(SmoothnessCertificate(sigma=0.3, mu=mu), rule, rng,
                        p=tilted_smooth_probs(mu.probs, 0.3))


def _uniform_grid(rule, rng):
    return IidAdversary(_uniform_cert(20, 0.5), rule, rng)


def _interval(rule, rng):
    from smoothol.core import UniformIntervalMeasure

    return IidAdversary(SmoothnessCertificate(sigma=0.3, mu=UniformIntervalMeasure()), rule, rng)


def _gap_source(rule, rng):
    klass = _gap_class(3)
    return build_rademacher_gap_adversary(0.4, 3, klass, klass.ground, rng, scale=2.0,
                                          label_rule=rule)


def _ids_only(rule, rng):
    """A tilted p on a ground set without coordinates: the comparator reads the id."""
    mu = FiniteMeasure.uniform(GroundSet(size=20))
    return IidAdversary(SmoothnessCertificate(sigma=0.5, mu=mu), rule, rng,
                        p=tilted_smooth_probs(mu.probs, 0.5))


_SOURCES = {"tilted-grid": _tilted_grid, "uniform-grid": _uniform_grid, "interval": _interval,
            "gap": _gap_source, "ids-only": _ids_only}
_RULES = {"noisy-comparator": lambda: noisy_comparator_labels(0.4, 0.3),
          "comparator-on-ids": lambda: noisy_comparator_labels(7, 0.2),
          "rademacher": rademacher_labels, "adversarial-flip": adversarial_flip_labels}


@pytest.mark.parametrize("T", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("rule", sorted(_RULES))
@pytest.mark.parametrize("source", sorted(_SOURCES))
def test_iid_rounds_drawn_ahead_match_per_round_draws(source, rule, T):
    adv = _SOURCES[source](_RULES[rule](), make_rng(40, T))
    reference = make_rng(40, T)
    _assert_same_rounds(_adversary_rounds(adv, T),
                        _reference_rounds(adv.p, _RULES[rule](), reference, T))
    # the generator stands at the end of the last block: up to BLOCK - 1 rounds ahead
    reference.random(2 * (-T % BLOCK))
    assert _same_position(adv.rng, reference)


@pytest.mark.parametrize("T", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("rule", sorted(_RULES))
def test_adaptive_mixture_rounds_match_per_round_draws(rule, T):
    """Each round takes two doubles: its context's, through the CDF of that round's
    p_t, and its label's; the generator is never ahead of the rounds asked for."""
    adv = AdaptiveMixtureAdversary(_uniform_cert(10, 0.25), _RULES[rule](), make_rng(41, T))
    reference_rule, reference = _RULES[rule](), make_rng(41, T)
    for last in _predictions(T):
        p_t = FiniteMeasure(adv.certificate.mu.ground, adv.conditional_probs())
        ctx = p_t.block_at(np.array([reference.random()]))
        want = (ctx, reference_rule(ctx.coordinate, reference.random(), last))
        _assert_same_rounds([adv.next_round(last)], [want])
    assert _same_position(adv.rng, reference)


@pytest.mark.parametrize("n, seed", [(3, 0), (7, 1), (100, 2)])
def test_iid_uniform_p_draws_each_atom_equally_often(n, seed):
    """A uniform p draws its contexts through its CDF, whose steps 1/n round in floats:
    the counts still fit n equal cells."""
    adv = IidAdversary(_uniform_cert(n, 0.5), rademacher_labels(), make_rng(42, seed))
    rounds = 1000 * n
    counts = np.bincount([adv.next_round()[0].id for _ in range(rounds)], minlength=n)
    assert stats.chisquare(counts, np.full(n, rounds / n)).pvalue > 0.01


# ---------------------------------------------------------------------------
# label rules and helpers
# ---------------------------------------------------------------------------

def test_label_rules():
    comparator = noisy_comparator_labels(0.5, flip_prob=0.25)
    assert comparator(0.9, 0.5, None) == 1.0
    assert comparator(0.1, 0.5, None) == -1.0
    assert comparator(0.9, 0.1, None) == -1.0  # u < flip_prob flips the sign
    assert comparator(7, 0.5, -1.0) == 1.0  # an atom id where there is no coordinate
    rademacher = rademacher_labels()
    assert (rademacher(0.9, 0.25, None), rademacher(0.9, 0.75, None)) == (1.0, -1.0)
    flip = adversarial_flip_labels()
    assert flip(0.1, 0.3, None) == 1.0
    assert flip(0.1, 0.3, 0.0) == 1.0
    assert flip(0.1, 0.3, 0.7) == -1.0
    assert flip(0.1, 0.3, -0.7) == 1.0


@pytest.mark.parametrize("sigma", [1.0, 0.5, 0.3, 0.1])
def test_tilted_probs_respect_cap(sigma):
    mu = np.full(10, 0.1)
    p = tilted_smooth_probs(mu, sigma)
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p <= mu / sigma + 1e-12)
    if sigma == 1.0:
        np.testing.assert_allclose(p, mu)
    else:
        assert not np.allclose(p, mu)  # genuinely tilted


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_tilted_probs_property(n, sigma, beta):
    mu = np.full(n, 1.0 / n)
    p = tilted_smooth_probs(mu, sigma, beta=beta)
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p <= mu / sigma + 1e-9)
    assert np.all(p >= -1e-15)


@pytest.mark.parametrize("n, sigma", [(2100, 0.5), (2100, 0.01), (5000, 0.2)])
def test_tilted_probs_where_the_tilt_overflows(n, sigma):
    """With the default beta = 0.35, e^(beta i) overflows past atom 2028 and the
    level lam is below 2^-200; p is still min(lam e^(beta i), mu_i / sigma), and
    no warning is printed."""
    mu = np.full(n, 1.0 / n)
    cap = mu / sigma
    p = tilted_smooth_probs(mu, sigma)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p <= cap)
    assert np.all(np.diff(p) >= 0)  # the tilt rises with i
    assert p[-1] >= cap[-1] * (1 - 1e-12)  # the top atom sits at its cap
    # one ratio p / e^(beta i) below the caps, compared in logs where p is a normal float
    below = (p < cap * (1 - 1e-9)) & (p >= np.finfo(np.float64).tiny)
    log_ratio = np.log(p[below]) - 0.35 * np.flatnonzero(below)
    assert below.sum() > n / 10
    np.testing.assert_allclose(log_ratio, log_ratio[-1], rtol=0, atol=1e-9)


@pytest.mark.parametrize("beta, match", [(1e6, "out of float range"),
                                         (-1e6, "out of float range"),
                                         (float("nan"), "out of float range"),
                                         (-200.0, "no finite p")])
def test_tilted_probs_refuse_a_beta_out_of_range(beta, match):
    # beta = -200 on 16 atoms: e^(beta i) is 0 past the fourth atom, whose caps hold half the mass
    with pytest.raises(ValueError, match=match):
        tilted_smooth_probs(np.full(16, 1.0 / 16), 0.5, beta=beta)


def test_tilted_probs_sigma_within_ulps_of_one_terminates():
    """n = 14, sigma = 1 - 2^-52: sum(mu)/sigma rounds below 1, so the mass can
    never reach 1; the bracket must stop growing where every atom is capped."""
    import signal

    def timeout(signum, frame):
        raise TimeoutError("tilted_smooth_probs did not terminate")

    n, sigma = 14, 1.0 - 2.0 ** -52
    mu = np.full(n, 1.0 / n)
    assert (mu / sigma).sum() < 1.0
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        p = tilted_smooth_probs(mu, sigma)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p <= mu / sigma)
    FiniteMeasure(GroundSet(size=n), p)  # accepted as a probability vector
