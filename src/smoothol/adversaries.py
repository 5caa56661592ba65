"""Smooth data sources: i.i.d., adaptive-mixture, and two adversarial stress constructions.

Every adversary emits (context, label) pairs round by round and carries a
smoothness certificate (sigma, mu).  On finite ground sets the conditional
context distribution of each shipped kind keeps its density below 1/sigma
with respect to mu, which ``verify_smoothness`` checks by direct ratio.

Label strategies are parametric (noisy comparator, Rademacher, adversarial
flip); they do not exhaust what an unconstrained label adversary could do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    ContextBlock,
    FiniteMeasure,
    GroundSet,
    HypothesisClass,
    SmoothnessCertificate,
)

__all__ = [
    "LabelRule",
    "noisy_comparator_labels",
    "rademacher_labels",
    "adversarial_flip_labels",
    "Adversary",
    "IidAdversary",
    "AdaptiveMixtureAdversary",
    "HiddenMuThresholdAdversary",
    "RademacherGapAdversary",
    "build_rademacher_gap_adversary",
    "SmoothnessReport",
    "verify_smoothness",
    "tilted_smooth_probs",
]

# A label rule maps (context, last_prediction, rng) -> label in [-1, 1].
LabelRule = Callable[[ContextBlock, Optional[float], np.random.Generator], float]


def noisy_comparator_labels(target: Callable[[float], float],
                            flip_prob: float) -> LabelRule:
    """Labels from a target function of the coordinate, sign-flipped with flip_prob."""

    def rule(ctx, last_prediction, rng):
        y = float(target(ctx.coordinate if ctx.coordinate is not None else ctx.id))
        if rng.random() < flip_prob:
            y = -y
        return y

    return rule


def rademacher_labels() -> LabelRule:
    def rule(ctx, last_prediction, rng):
        return 1.0 if rng.random() < 0.5 else -1.0

    return rule


def adversarial_flip_labels() -> LabelRule:
    """Label opposite in sign to the learner's previous prediction (+1 on round one)."""

    def rule(ctx, last_prediction, rng):
        if last_prediction is None or last_prediction == 0.0:
            return 1.0
        return -1.0 if last_prediction > 0 else 1.0

    return rule


class Adversary:
    """Base class: stateful generator of sigma-smooth (context, label) rounds."""

    kind: str = "base"

    def __init__(self, certificate: SmoothnessCertificate,
                 label_rule: LabelRule, rng: np.random.Generator):
        self.certificate = certificate
        self.label_rule = label_rule
        self.rng = rng

    def conditional_probs(self) -> np.ndarray:
        """Exact conditional context distribution for the next round (finite sets only)."""
        raise NotImplementedError

    def _draw_context(self) -> ContextBlock:
        raise NotImplementedError

    def next_round(self, last_prediction: Optional[float] = None) -> tuple[ContextBlock, float]:
        ctx = self._draw_context()
        return ctx, float(self.label_rule(ctx, last_prediction, self.rng))


class IidAdversary(Adversary):
    """Contexts i.i.d. from a fixed distribution p with density <= 1/sigma w.r.t. mu."""

    kind = "iid"

    def __init__(self, certificate: SmoothnessCertificate, label_rule: LabelRule,
                 rng: np.random.Generator, p: Optional[np.ndarray] = None):
        super().__init__(certificate, label_rule, rng)
        mu = certificate.mu
        if p is None:
            self._p = mu
        else:
            if not mu.finite:
                raise ValueError("explicit p requires a finite base measure")
            self._p = FiniteMeasure(mu.ground, np.asarray(p, dtype=np.float64))

    def conditional_probs(self) -> np.ndarray:
        if not self._p.finite:
            raise ValueError("not checkable exactly")
        return self._p.probs

    def _draw_context(self) -> ContextBlock:
        return self._p.sample_point(self.rng)


class AdaptiveMixtureAdversary(Adversary):
    """Maximally adaptive mixture: a history-dependent point mass blended with mu.

    Each round targets the least-sampled atom a (ties to the lowest id) with
    the largest point-mass weight that keeps the density ratio at exactly
    1/sigma: p_t = w * delta_a + (1 - w) * mu.
    """

    kind = "adaptive_mixture"

    def __init__(self, certificate: SmoothnessCertificate, label_rule: LabelRule,
                 rng: np.random.Generator):
        if certificate.mu is None or not certificate.mu.finite:
            raise ValueError("adaptive mixture needs a finite base measure")
        super().__init__(certificate, label_rule, rng)
        self._counts = np.zeros(certificate.mu.ground.size, dtype=np.int64)

    def _target_atom(self) -> int:
        return int(np.argmin(self._counts))

    def conditional_probs(self) -> np.ndarray:
        mu = self.certificate.mu.probs
        sigma = self.certificate.sigma
        a = self._target_atom()
        if mu[a] >= 1.0 - 1e-15:
            w = 1.0
        else:
            w = min(1.0, (1.0 / sigma - 1.0) * mu[a] / (1.0 - mu[a]))
        probs = (1.0 - w) * mu
        probs[a] += w
        return probs

    def _draw_context(self) -> ContextBlock:
        probs = self.conditional_probs()
        cdf = np.cumsum(probs)
        atom = int(np.searchsorted(cdf, self.rng.random(), side="right"))
        atom = min(atom, len(probs) - 1)
        self._counts[atom] += 1
        return self.certificate.mu.ground.block(np.array([atom]))


_DYADIC_BITS = 48  # exact integer/2^48 arithmetic; increments clamp beyond this


class HiddenMuThresholdAdversary(Adversary):
    """Interval-halving threshold adversary whose smoothing measure stays hidden.

    x_1 = 0, x_2 = 1, y_1 = -1, y_2 = +1, then x_t = x_{t-1} - y_{t-1} * 2^{-(t-2)}
    with i.i.d. Rademacher labels.  The realized sequence is always consistent
    with some threshold (exactly so while increments stay above 2^-48), yet any
    learner errs on half the Rademacher rounds in expectation.  The adversary
    is (1/T)-smooth with respect to the empirical measure of its own contexts,
    which the learner never sees; the certificate therefore carries mu = None.
    """

    kind = "hidden_mu_threshold"

    def __init__(self, T: int, rng: np.random.Generator):
        if T < 2:
            raise ValueError("need at least two rounds")
        super().__init__(SmoothnessCertificate(sigma=1.0 / T, mu=None),
                         rademacher_labels(), rng)
        self.T = T
        self._t = 0
        self._scale = 1 << _DYADIC_BITS
        self._x_num = 0  # current coordinate, times 2^48
        self._lo_num = 0  # consistent thresholds lie in (lo, hi]
        self._hi_num = self._scale
        # (context, label, last_prediction) per round, for the recurrence
        self.history: list[tuple[ContextBlock, float, Optional[float]]] = []

    def conditional_probs(self) -> np.ndarray:
        raise ValueError("not checkable exactly")

    def next_round(self, last_prediction: Optional[float] = None) -> tuple[ContextBlock, float]:
        self._t += 1
        t = self._t
        if t == 1:
            self._x_num = 0
            y = -1.0
        elif t == 2:
            self._x_num = self._scale
            y = 1.0
        else:
            prev_y = self.history[-1][1]
            step = 1 << (_DYADIC_BITS - min(t - 2, _DYADIC_BITS))
            self._x_num = self._x_num - int(prev_y) * step
            self._x_num = min(max(self._x_num, 0), self._scale)
            y = 1.0 if self.rng.random() < 0.5 else -1.0
        ctx = ContextBlock(coords=np.array([self._x_num / self._scale]))
        if y > 0:
            self._hi_num = min(self._hi_num, self._x_num)
        else:
            self._lo_num = max(self._lo_num, self._x_num)
        self.history.append((ctx, y, last_prediction))
        return ctx, y

    def realizable_threshold(self) -> float:
        """A threshold consistent with every label emitted so far (x >= theta -> +1)."""
        if self._lo_num >= self._hi_num:
            raise ValueError("constraint interval collapsed (only exact for t <= 50)")
        return self._hi_num / self._scale


class RademacherGapAdversary(Adversary):
    """i.i.d. uniform draws from a shattering set, smooth w.r.t. a mass-at-x* mixture.

    mu puts 1 - sigma on a distinguished atom x* where every hypothesis
    vanishes and sigma spread uniformly over m shattering atoms; p_t is
    uniform on the shattering atoms, with density exactly 1/sigma there.
    """

    kind = "rademacher_gap"

    def __init__(self, certificate: SmoothnessCertificate, label_rule: LabelRule,
                 rng: np.random.Generator, shatter_ids: np.ndarray, star_id: int):
        super().__init__(certificate, label_rule, rng)
        self.shatter_ids = np.asarray(shatter_ids, dtype=np.int64)
        self.star_id = int(star_id)

    def conditional_probs(self) -> np.ndarray:
        probs = np.zeros(self.certificate.mu.ground.size)
        probs[self.shatter_ids] = 1.0 / len(self.shatter_ids)
        return probs

    def _draw_context(self) -> ContextBlock:
        atom = int(self.rng.choice(self.shatter_ids))
        return self.certificate.mu.ground.block(np.array([atom]))


def _is_shattered(klass: HypothesisClass, ground: GroundSet,
                  ids: np.ndarray, scale: float) -> bool:
    m = len(ids)
    if m > 16:
        raise ValueError("shattering check enumerates 2^m sign patterns; keep m <= 16")
    values = klass.evaluate_block(ground.block(ids))  # (H, m)
    signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * m), indexing="ij")).reshape(m, -1).T
    hit = (signs[:, None, :] * values[None, :, :] >= scale / 2.0).all(axis=2)
    return bool(hit.any(axis=1).all())


def build_rademacher_gap_adversary(sigma: float, shatter_set_size: int,
                                   klass: HypothesisClass, ground: GroundSet,
                                   rng: np.random.Generator,
                                   scale: float = 1.0,
                                   label_rule: Optional[LabelRule] = None,
                                   ) -> RademacherGapAdversary:
    """Locate x* and a shattering set inside ``ground`` and assemble the adversary."""
    values = klass.evaluate_block(ground.block(np.arange(ground.size)))
    star_candidates = np.flatnonzero(np.all(values == 0.0, axis=0))
    if len(star_candidates) == 0:
        raise ValueError("class has no distinguished point with f(x*) = 0 for all f")
    star_id = int(star_candidates[0])
    others = np.array([i for i in range(ground.size) if i != star_id], dtype=np.int64)
    if len(others) < shatter_set_size:
        raise ValueError("ground set too small for the requested shattering set")
    ids = others[:shatter_set_size]
    if not _is_shattered(klass, ground, ids, scale):
        raise ValueError("class does not shatter the candidate set at the given scale")
    probs = np.zeros(ground.size)
    probs[star_id] = 1.0 - sigma
    probs[ids] += sigma / shatter_set_size
    mu = FiniteMeasure(ground, probs)
    cert = SmoothnessCertificate(sigma=sigma, mu=mu)
    return RademacherGapAdversary(cert, label_rule or rademacher_labels(), rng,
                                  shatter_ids=ids, star_id=star_id)


@dataclass(frozen=True)
class SmoothnessReport:
    max_density_ratio: float
    bound: float
    passed: bool


def verify_smoothness(adversary: Adversary, num_probes: int) -> SmoothnessReport:
    """Probe ``num_probes`` rounds and compare exact conditional densities to 1/sigma.

    Consumes rounds on the given adversary instance; pass a fresh one.  Only
    finite ground sets are exactly checkable.
    """
    cert = adversary.certificate
    if cert.mu is None or not cert.mu.finite:
        raise ValueError("not checkable exactly")
    mu = cert.mu.probs
    support = mu > 0
    worst = 0.0
    for _ in range(num_probes):
        p = adversary.conditional_probs()
        if np.any(p[~support] > 0):
            worst = np.inf
            break
        ratio = float(np.max(p[support] / mu[support]))
        worst = max(worst, ratio)
        adversary.next_round(last_prediction=0.0)
    bound = 1.0 / cert.sigma
    return SmoothnessReport(worst, bound, worst <= bound + 1e-9)


def tilted_smooth_probs(mu_probs: np.ndarray, sigma: float, beta: float = 0.35) -> np.ndarray:
    """An exponentially tilted distribution water-filled under the density cap 1/sigma.

    Solves p_i = min(lam * e^{beta i}, mu_i / sigma) with lam chosen by bisection
    so the masses sum to one.  A nontrivial sigma-smooth stand-in for p in
    tests; for sigma = 1 it collapses to mu.
    """
    mu_probs = np.asarray(mu_probs, dtype=np.float64)
    if sigma >= 1.0:
        return mu_probs.copy()
    with np.errstate(over="ignore"):  # an infinite cap is no cap
        cap = mu_probs / sigma
    raw = np.exp(beta * np.arange(len(mu_probs)))

    def mass(lam: float) -> float:
        return float(np.minimum(lam * raw, cap).sum())

    # sum(cap) can round below 1 when sigma is within ulps of 1; mass(hi) reaches
    # sum(cap) once hi >= 1/sigma (raw >= 1, cap <= 1/sigma), so the doubling ends
    target = min(1.0, float(cap.sum()))
    lo, hi = 0.0, 1.0
    while mass(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    p = np.minimum(hi * raw, cap)
    p /= p.sum()
    return np.minimum(p, cap)


def make_threshold_target(theta: float) -> Callable[[float], float]:
    """Sign comparator x >= theta -> +1, else -1."""

    def target(x: float) -> float:
        return 1.0 if x >= theta else -1.0

    return target
