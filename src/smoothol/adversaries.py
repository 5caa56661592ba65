"""Smooth data sources: i.i.d. (the Rademacher-gap instance among them), adaptive-mixture,
and the hidden-mu threshold adversary.

Every adversary carries a smoothness certificate (sigma, mu).  On a finite ground set each
shipped kind keeps its conditional context density at most 1/sigma with respect to mu: an
i.i.d. adversary checks its explicit p when it is built, and the adaptive mixture holds its
ratio at 1/sigma by construction.  ``next_run`` adds to a round from ``next_round`` only
rounds that cannot depend on the learner, with the draws and labels ``next_round`` makes.
README ("Smooth adversaries") describes the sources and label rules.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .core import (
    BLOCK,
    ContextBlock,
    FiniteMeasure,
    GroundSet,
    HypothesisClass,
    SmoothnessCertificate,
    density_ratio,
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
    "build_rademacher_gap_adversary",
    "tilted_smooth_probs",
]

# A label rule maps (x, u, last_prediction) -> label in [-1, 1]: x is the context's coordinate
# (its atom id where it has none), u the round's label double, drawn whether or not it is read.
# A rule marked ``oblivious`` never reads last_prediction, so its rounds can be played ahead.
LabelRule = Callable[[float, float, Optional[float]], float]


def noisy_comparator_labels(theta: float, flip_prob: float) -> LabelRule:
    """Labels x >= theta -> +1, else -1, sign-flipped where u < flip_prob."""

    def rule(x, u, last_prediction):
        y = 1.0 if x >= theta else -1.0
        return -y if u < flip_prob else y

    rule.oblivious = True
    return rule


def rademacher_labels() -> LabelRule:
    def rule(x, u, last_prediction):
        return 1.0 if u < 0.5 else -1.0

    rule.oblivious = True
    return rule


def adversarial_flip_labels() -> LabelRule:
    """Label opposite in sign to the learner's previous prediction (+1 on round one)."""

    def rule(x, u, last_prediction):
        if last_prediction is None or last_prediction == 0.0:
            return 1.0
        return -1.0 if last_prediction > 0 else 1.0

    return rule


class Adversary:
    """Base class: stateful generator of sigma-smooth (context, label) rounds."""

    def __init__(self, certificate: SmoothnessCertificate,
                 label_rule: LabelRule, rng: np.random.Generator):
        self.certificate = certificate
        self.label_rule = label_rule
        self.rng = rng

    def next_run(self, last_prediction: Optional[float],
                 limit: int) -> tuple[ContextBlock, np.ndarray]:
        """The next run of at most ``limit`` rounds, as their contexts and labels: here the
        next round alone, from ``next_round``."""
        context, label = self.next_round(last_prediction)
        return context, np.array([label])


class IidAdversary(Adversary):
    """Contexts i.i.d. from ``p``: mu, or an explicit p with density <= 1/sigma w.r.t. mu;
    rounds are drawn ``BLOCK`` at a time, and each label at its own round."""

    def __init__(self, certificate: SmoothnessCertificate, label_rule: LabelRule,
                 rng: np.random.Generator, p: Optional[np.ndarray] = None):
        super().__init__(certificate, label_rule, rng)
        mu = certificate.mu
        if p is None:
            self.p = mu
        else:
            if not mu.finite:
                raise ValueError("explicit p requires a finite base measure")
            self.p = FiniteMeasure(mu.ground, p)
            density_ratio(self.p.probs, mu.probs, certificate.sigma)
        self._contexts, self._x, self._u, self._next = None, [], [], 0  # the rounds drawn ahead

    def next_round(self, last_prediction: Optional[float] = None) -> tuple[ContextBlock, float]:
        if self._next == len(self._x):
            u = self.rng.random((BLOCK, 2)).T.copy()  # rows: the contexts', the labels'
            contexts = self.p.block_at(u[0])
            x = contexts.coords if contexts.coords is not None else contexts.ids
            self._contexts, self._x, self._u, self._next = contexts, x.tolist(), u[1].tolist(), 0
        i = self._next
        self._next += 1
        return self._contexts[i:i + 1], self.label_rule(self._x[i], self._u[i], last_prediction)

    def next_run(self, last_prediction: Optional[float],
                 limit: int) -> tuple[ContextBlock, np.ndarray]:
        """The next round, from ``next_round``, and where the label rule is ``oblivious``
        the rounds drawn ahead after it, up to ``limit`` rounds in all."""
        context, label = self.next_round(last_prediction)
        if not getattr(self.label_rule, "oblivious", False):
            return context, np.array([label])
        start, stop = self._next - 1, min(len(self._x), self._next + limit - 1)
        labels = [label] + [self.label_rule(x, u, None)
                            for x, u in zip(self._x[start + 1:stop], self._u[start + 1:stop])]
        self._next = stop
        return self._contexts[start:stop], np.array(labels)


class AdaptiveMixtureAdversary(Adversary):
    """Maximally adaptive mixture: a history-dependent point mass blended with mu.

    Each round targets the least-sampled atom a that mu charges (ties to the
    lowest id) with the largest point-mass weight that keeps the density
    ratio at exactly 1/sigma: p_t = w * delta_a + (1 - w) * mu.
    """

    def __init__(self, certificate: SmoothnessCertificate, label_rule: LabelRule,
                 rng: np.random.Generator):
        if certificate.mu is None or not certificate.mu.finite:
            raise ValueError("adaptive mixture needs a finite base measure")
        super().__init__(certificate, label_rule, rng)
        self._counts = np.zeros(certificate.mu.ground.size, dtype=np.int64)

    def conditional_probs(self) -> np.ndarray:
        """The next round's context distribution, p_t above."""
        mu = self.certificate.mu.probs
        sigma = self.certificate.sigma
        # an atom with mu = 0 is never drawn, and as the target it would stay one with w = 0
        a = int(np.argmin(np.where(mu > 0, self._counts, np.iinfo(np.int64).max)))
        if mu[a] >= 1.0 - 1e-15:
            w = 1.0
        else:
            w = min(1.0, (1.0 / sigma - 1.0) * mu[a] / (1.0 - mu[a]))
        probs = (1.0 - w) * mu
        probs[a] += w
        return probs

    def next_round(self, last_prediction: Optional[float] = None) -> tuple[ContextBlock, float]:
        u_context, u_label = self.rng.random(2).tolist()
        cdf = np.cumsum(self.conditional_probs())
        atom = int(np.searchsorted(cdf, u_context, side="right"))
        atom = min(atom, len(cdf) - 1)
        self._counts[atom] += 1
        ctx = self.certificate.mu.ground.block(np.array([atom]))
        x = ctx.coordinate if ctx.coordinate is not None else ctx.id
        return ctx, self.label_rule(x, u_label, last_prediction)


_DYADIC_BITS = 48  # coordinates in 2^-48 Z, exact in a double; increments clamp beyond this


class HiddenMuThresholdAdversary(Adversary):
    """Interval-halving threshold adversary whose smoothing measure stays hidden.

    x_1 = 0, x_2 = 1, y_1 = -1, y_2 = +1, then x_t = x_{t-1} - y_{t-1} * 2^{-(t-2)}
    with i.i.d. Rademacher labels.  The realized sequence is always consistent
    with some threshold (exactly so while increments stay above 2^-48), yet any
    learner errs on half the Rademacher rounds in expectation.  The adversary
    is (1/T)-smooth with respect to the empirical measure of its own contexts,
    which the learner never sees; the certificate therefore carries mu = None.
    """

    def __init__(self, T: int, rng: np.random.Generator):
        if T < 2:
            raise ValueError("need at least two rounds")
        super().__init__(SmoothnessCertificate(sigma=1.0 / T, mu=None),
                         rademacher_labels(), rng)
        self._t = 0
        self._x = 0.0  # current coordinate
        self._lo, self._hi = 0.0, 1.0  # consistent thresholds lie in (lo, hi]
        # (context, label, last_prediction) per round, for the recurrence
        self.history: list[tuple[ContextBlock, float, Optional[float]]] = []

    def next_round(self, last_prediction: Optional[float] = None) -> tuple[ContextBlock, float]:
        self._t += 1
        t = self._t
        if t == 1:
            self._x = 0.0
            y = -1.0
        elif t == 2:
            self._x = 1.0
            y = 1.0
        else:
            prev_y = self.history[-1][1]
            step = 2.0 ** -min(t - 2, _DYADIC_BITS)
            self._x = min(max(self._x - prev_y * step, 0.0), 1.0)
            y = None  # a Rademacher draw at the new context
        ctx = ContextBlock(coords=np.array([self._x]))
        if y is None:
            y = self.label_rule(ctx.coordinate, self.rng.random(), last_prediction)
        if y > 0:
            self._hi = min(self._hi, self._x)
        else:
            self._lo = max(self._lo, self._x)
        self.history.append((ctx, y, last_prediction))
        return ctx, y

    def realizable_threshold(self) -> float:
        """A threshold consistent with every label emitted so far (x >= theta -> +1)."""
        if self._lo >= self._hi:
            raise ValueError("constraint interval collapsed (only exact for t <= 50)")
        return self._hi


def _is_shattered(klass: HypothesisClass, ground: GroundSet,
                  ids: np.ndarray, scale: float) -> bool:
    """Whether every sign pattern s on the atoms ``ids`` has an f with s * f >= scale / 2
    there: as scale / 2 > 0, f meets only the pattern sign(f), and only where |f| >= scale / 2
    on every atom, so the class shatters them iff those f give 2^m distinct sign codes."""
    m = len(ids)
    if len(klass) < 2 ** m:
        return False
    values = klass.evaluate_block(ground.block(ids))  # (H, m)
    meets = (np.abs(values) >= scale / 2.0).all(axis=1)
    return len(np.unique((values[meets] > 0) @ (1 << np.arange(m)))) == 2 ** m


def build_rademacher_gap_adversary(sigma: float, shatter_set_size: int,
                                   klass: HypothesisClass, ground: GroundSet,
                                   rng: np.random.Generator,
                                   scale: float = 1.0,
                                   label_rule: Optional[LabelRule] = None,
                                   ) -> IidAdversary:
    """i.i.d. uniform draws from a shattering set inside ``ground``.

    mu puts 1 - sigma on a distinguished atom x* where every hypothesis
    vanishes and sigma spread uniformly over the shattering atoms; p is
    uniform on the shattering atoms, with density exactly 1/sigma there.
    The atoms are shattered at ``scale`` > 0: each sign pattern has a
    hypothesis with sign * f >= scale / 2 on every atom.
    """
    if not scale / 2.0 > 0:  # the margin: half of 5e-324, the least positive float, is 0
        raise ValueError(f"scale must be positive, and its half too, not {scale}")
    values = klass.evaluate_block(ground.block(np.arange(ground.size)))
    star_candidates = np.flatnonzero(np.all(values == 0.0, axis=0))
    if len(star_candidates) == 0:
        raise ValueError("class has no distinguished point with f(x*) = 0 for all f")
    star_id = int(star_candidates[0])
    others = np.delete(np.arange(ground.size), star_id)
    if len(others) < shatter_set_size:
        raise ValueError("ground set too small for the requested shattering set")
    ids = others[:shatter_set_size]
    if not _is_shattered(klass, ground, ids, scale):
        raise ValueError("class does not shatter the candidate set at the given scale")
    mu, p = np.zeros(ground.size), np.zeros(ground.size)
    mu[star_id] = 1.0 - sigma
    mu[ids] += sigma / shatter_set_size
    p[ids] = 1.0 / shatter_set_size
    cert = SmoothnessCertificate(sigma=sigma, mu=FiniteMeasure(ground, mu))
    return IidAdversary(cert, label_rule or rademacher_labels(), rng, p=p)


def _least(mass: Callable[[float], float], lo: float, hi: float) -> float:
    """The least float x in (lo, hi] with mass(x) >= 1, for nondecreasing mass and
    mass(lo) < 1: bisection down to adjacent floats, so any bracket gives the same x."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if mass(mid) < 1.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    return hi


# an infinite cap or tilt, and the log of a zero cap; a NaN p is refused
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def tilted_smooth_probs(mu_probs: np.ndarray, sigma: float, beta: float = 0.35) -> np.ndarray:
    """An exponentially tilted distribution water-filled under the density cap 1/sigma.

    Solves p_i = min(lam * e^{beta i}, mu_i / sigma) with lam chosen by bisection
    so the masses sum to one, in log(lam) where lam is below the normal floats.
    A nontrivial sigma-smooth stand-in for p in tests; for sigma = 1 it collapses
    to mu.  A tilt step e^beta out of float range, or no finite p, raises ValueError.
    """
    if not abs(beta) <= np.log(np.finfo(np.float64).max):
        raise ValueError(f"the tilt step e^{beta} is out of float range")
    mu_probs = np.asarray(mu_probs, dtype=np.float64)
    if sigma >= 1.0:
        return mu_probs.copy()
    cap = mu_probs / sigma
    tilt = beta * np.arange(len(mu_probs))
    raw = np.exp(tilt)

    def mass(lam: float) -> float:
        return float(np.minimum(lam * raw, cap).sum())

    # sum(cap) can round below 1 when sigma is within ulps of 1; mass(hi) reaches
    # sum(cap) once hi >= 1/sigma (raw >= 1, cap <= 1/sigma), so the doubling ends
    target = min(1.0, float(cap.sum()))
    hi = 1.0
    while mass(hi) < target:
        hi *= 2.0
    lam = _least(mass, 0.0, hi)
    # an overflowed tilt holds its cap at every lam > 0, so a normal lam leaves it a cap < 1 <
    # lam e^709; else bisect in log(lam), from a mass of at most 1/2 to every atom at its cap
    if lam < np.finfo(np.float64).tiny:
        log_lam = _least(lambda ell: float(np.minimum(np.exp(ell + tilt), cap).sum()),
                         -np.log(2.0 * len(cap)) - tilt.max(), float(np.max(np.log(cap) - tilt)))
        lam, raw = 1.0, np.exp(log_lam + tilt)
    p = np.minimum(lam * raw, cap)
    p /= p.sum()
    if not np.isfinite(p).all():  # lam overflowed: the tilt underflows where mass is needed
        raise ValueError(f"the tilt e^({beta} i) leaves no finite p under the caps")
    return np.minimum(p, cap)
