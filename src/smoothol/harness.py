"""Experiment runner: JSON configs, seeded replication, CSV traces, JSON summaries.

A config is checked and its pieces built when it loads, so a bad one fails before round 1.
Each seed is played as runs of rounds (README, "Experiment harness"), and its trace is
that of playing round by round.  All randomness derives from the seed through Philox
streams keyed per component, so a (config, seed) rerun reproduces traces byte for byte.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import adversaries as adv
from .core import (
    CHUNK,
    ContextBlock,
    FiniteMeasure,
    GroundSet,
    HypothesisClass,
    LOSSES,
    LossFunction,
    RunningRegret,
    SmoothnessCertificate,
    TableClass,
    ThresholdClass,
    Trajectory,
    UniformIntervalMeasure,
    compose_smoothness,
    finalize_regret,  # unused here; bound so the bench's tracer finds it by name
    make_rng,
    product_class,
    product_measure,
)
from .ftpl import FtplLearner, FtplSchedule, schedule
from .oracle import ErmOracle
from .relaxation import RelaxGeneralLearner, RelaxLinearLearner

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "ExperimentConfig",
    "SeedOutcome",
    "read_config",
    "run_seed",
    "run_experiment",
    "sweep",
    "LEARNER_NAMES",
]

# Where each config field may appear: section -> (the key naming its kind, the kind when that
# key is absent, {kind: the fields it reads}); the top level's kind is its command.
KINDS = {
    "": (None, None, {"run": "learner adversary class loss T sigma seeds ground output_dir "
                             "checkpoints",
                      "bandit": "K T sigma seeds regressor k ground class class_seed "
                                "f_star_index gamma output_dir"}),
    "learner": ("name", None, {"relax-linear": "k", "relax-general": "k",
                               "ftpl-cls": "eta n zeta", "ftpl-dual": "eta n m epsilon zeta p",
                               "ftpl-single": "n epsilon zeta"}),
    "adversary": ("kind", None, {"iid": "p beta labels",  # beta only with p "tilted"
                                 "adaptive_mixture": "labels", "hidden_mu_threshold": "",
                                 "rademacher_gap": "m scale labels"}),
    "adversary.labels": ("rule", "rademacher", {"noisy_comparator": "threshold flip_prob",
                                                "rademacher": "", "adversarial_flip": ""}),
    "class": ("type", None, {"thresholds": "m", "table": "values", "random_product": "H"}),
    "ground": ("type", "grid", {"grid": "atoms mu_probs", "interval": ""}),
}
# each command's kinds where it may not name them all; random_product is a bandit's class
NAMED = {"run": {"class": ("thresholds", "table")},
         "bandit": {"learner": ("ftpl-dual", "relax-general"),
                    "class": ("random_product", "table"), "ground": ("grid",)}}
LEARNER_NAMES = tuple(KINDS["learner"][2])
FTPL_VARIANTS = {"ftpl-cls": "classification", "ftpl-dual": "dual", "ftpl-single": "single"}
SWEEPABLE = ("T", "sigma", "learner", "k", "seeds")

# rng stream indices, fixed so reruns reproduce draws exactly
_STREAM_ADVERSARY = 0
_STREAM_LEARNER = 1

_INF, _POSITIVE = math.inf, 5e-324  # as a low bound, the least positive float means > 0
_MAX, _EPS = float(np.finfo(np.float64).max), float(np.finfo(np.float64).eps)
# Every numeric config field, read once at load: (section, key, low, high, kind).  A value
# is a finite JSON number in [low, high], integral for kind int, stored as kind (None: as
# given, for the config echo).  Section "" is the top level, where seeds and checkpoints
# are lists; "bandit" is the top level of a bandit config.
NUMBERS = (
    ("", "T", 1, _INF, int), ("", "sigma", _POSITIVE, 1.0, float), ("", "seeds", 0, _INF, int),
    ("", "checkpoints", 1, _INF, int), ("ground", "atoms", 1, _INF, int),
    ("class", "m", 1, _INF, int), ("class", "H", 1, _INF, int), ("learner", "k", 1, _INF, int),
    ("learner", "n", 1, _INF, int), ("learner", "m", 1, _INF, int),
    ("learner", "eta", 0.0, _INF, None), ("learner", "epsilon", _POSITIVE, _INF, None),
    ("learner", "zeta", 0.0, _INF, None), ("learner", "p", -_INF, _INF, None),
    ("adversary", "beta", -_INF, _INF, None), ("adversary", "m", 1, _INF, int),
    ("adversary", "scale", _POSITIVE, _INF, None),
    ("adversary.labels", "threshold", -_INF, _INF, None),
    ("adversary.labels", "flip_prob", 0.0, 1.0, None), ("bandit", "K", 1, _INF, int),
    ("bandit", "class_seed", 0, _INF, int), ("bandit", "f_star_index", 0, _INF, int),
    ("bandit", "gamma", _POSITIVE, _INF, float),
)


class ConfigError(ValueError):
    """Unresolvable or invalid experiment configuration (CLI exit code 2)."""


class InvariantViolation(RuntimeError):
    """A runtime contract broke mid-run (CLI exit code 3)."""


@dataclass
class ExperimentConfig:
    learner: dict
    adversary: dict
    klass: dict
    loss: str
    T: int
    sigma: float
    seeds: list[int]
    ground: dict = field(default_factory=lambda: {"type": "grid", "atoms": 64})
    output_dir: Optional[str] = None
    checkpoints: Optional[list[int]] = None
    # set for bandit configs: K, class_seed, f_star_index and gamma (absent: the default)
    bandit: Optional[dict] = None

    @staticmethod
    def from_dict(raw: dict, bandit: bool = False) -> "ExperimentConfig":
        """A checked run config, or with ``bandit`` a checked ``smoothol bandit`` config."""
        try:
            for key in ("learner", "adversary", "class", "ground"):  # dict() would take pairs
                if type(raw.get(key, {})) is not dict:
                    raise ConfigError(f"{key} must be an object, not {raw[key]!r}")
            spec = _bandit_as_run(raw) if bandit else raw
            cfg = ExperimentConfig(
                learner=dict(spec["learner"]),
                adversary=dict(spec["adversary"]),
                klass=dict(spec["class"]),
                loss=str(spec["loss"]),
                T=spec["T"],
                sigma=spec["sigma"],
                seeds=list(spec["seeds"]),
                ground=dict(spec.get("ground", {"type": "grid", "atoms": 64})),
                output_dir=spec.get("output_dir"),
                checkpoints=spec.get("checkpoints"),
            )
            if bandit:  # an absent class_seed or gamma is the default
                cfg.bandit = {"K": raw["K"], "f_star_index": raw.get("f_star_index", 0),
                              **{key: raw[key] for key in ("class_seed", "gamma") if key in raw}}
        except KeyError as exc:  # a top-level field, which the other command's config lacks
            command, key = ("run", "learner") if bandit else ("bandit", "K")
            hint = f": it is a `smoothol {command}` config" if key in raw else ""
            raise ConfigError(f"the config has no field {exc}{hint}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        cfg.validate(raw)
        return cfg

    def validate(self, raw: dict) -> None:  # raw: the JSON object that this config loads
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if not isinstance(self.checkpoints, (list, type(None))):
            raise ConfigError(f"checkpoints must be a list of rounds, not {self.checkpoints!r}")
        if not isinstance(self.output_dir, (str, type(None))):
            raise ConfigError(f"output_dir must be a path string or null, not {self.output_dir!r}")
        command = "run" if self.bandit is None else "bandit"
        sections = {"": raw, "learner": self.learner, "adversary": self.adversary,
                    "adversary.labels": self.adversary.get("labels", {}), "class": self.klass,
                    "ground": self.ground}
        for section, (key, default, kinds) in KINDS.items():
            spec, regressor = sections[section], (section, command) == ("learner", "bandit")
            if type(spec) is not dict:
                raise ConfigError(f"{section} must be an object, not {spec!r}")
            kind = spec.get(key, default) if section else command
            names = NAMED[command].get(section, tuple(kinds))
            if kind not in names:
                raise ConfigError(f"unknown {'regressor' if regressor else f'{section}.{key}'} "
                                  f"{kind!r}; valid: {', '.join(names)}")
            reads = [f for f in kinds[kind].split() if f != "beta" or spec.get("p") == "tilted"]
            unread = [f"{section}.{f}".lstrip(".") for f in spec if f not in (key, *reads)]
            if unread and regressor:  # a bandit passes its regressor k alone
                raise ConfigError(f"k is not a field of regressor {kind!r}: only the "
                                  f"relax-general regressor reads it")
            if unread:
                raise ConfigError(f"{unread[0]} is not a field of {section or 'config'} {kind!r}, "
                                  f"which reads {', '.join(reads) or 'no other field'}")
        sections.update({"": vars(self), "bandit": self.bandit})
        # sections whose fields a config holds at its top level: a bandit's k too
        top = ("", "bandit") if command == "run" else ("", "bandit", "learner")
        for section, key, low, high, kind in NUMBERS:  # checked numbers are stored in place
            spec = sections[section]  # None checkpoints: the default
            if type(spec) is dict and key in spec and (spec[key], key) != (None, "checkpoints"):
                name = key if section in top else f"{section}.{key}"
                spec[key] = ([_number(v, name, low, high, kind) for v in spec[key]]
                             if key in ("seeds", "checkpoints")
                             else _number(spec[key], name, low, high, kind))
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}; valid: {', '.join(LOSSES)}")
        if any(t > self.T for t in self.checkpoints or ()):
            raise ConfigError(f"checkpoints must lie in [1, {self.T}], not {self.checkpoints}")
        try:  # build what the run builds, so it fails here; an unkeyed rng is no seed's stream
            klass, loss, _, _ = build_pieces(self, make_rng(0), make_rng(0))
        except OverflowError as exc:  # sqrt(T / sigma) or log(T) / sigma is infinite
            raise ConfigError(f"sigma = {self.sigma} is too small for T = {self.T}: an anchor "
                              f"count or playout width overflows ({exc})") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        lo, hi = loss.domain
        # labels, and the values of threshold classes, are +/-1; a bandit's labels are 0/1 losses
        labels = [-1, 1] if self.bandit is None else [0, 1]
        values = np.append(klass.values if isinstance(klass, TableClass) else [], labels)
        if values.min() < lo or values.max() > hi:
            raise ConfigError(f"labels and class values must lie in the {self.loss} "
                              f"loss domain [{lo}, {hi}]")
        if self.bandit is not None and self.bandit["f_star_index"] >= len(klass):
            raise ConfigError(f"f_star_index must index one of the class's {len(klass)} "
                              f"hypotheses, not {self.bandit['f_star_index']}")

    def to_dict(self) -> dict:
        """The run config's top-level keys, in the order of ``KINDS``, and their values."""
        return {key: getattr(self, "klass" if key == "class" else key)
                for key in KINDS[""][2]["run"].split()}


def read_config(path: str | Path) -> dict:
    """The JSON object in ``path``; an unreadable file or bad JSON is a config error."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _bandit_as_run(raw: dict) -> dict:
    """A bandit config's run part: a square-loss regressor and i.i.d. tilted contexts."""
    klass = {"type": "random_product", **raw.get("class", {})}  # the user's keys, to be checked
    return {
        "learner": {"name": raw.get("regressor", "ftpl-dual"),
                    **{key: raw[key] for key in ("k",) if key in raw}},
        "adversary": {"kind": "iid", "p": "tilted"},
        "class": {"H": 4, **klass} if klass["type"] == "random_product" else klass,
        "loss": "square",
        "T": raw["T"], "sigma": raw["sigma"], "seeds": raw.get("seeds", [0]),
        "ground": {"type": "grid", "atoms": 16, **raw.get("ground", {})},
        "output_dir": raw.get("output_dir"),
    }


def _number(value, name: str, low: float, high: float, kind: Optional[type]):
    """value, a finite JSON number in [low, high] (integral for kind int), stored as kind."""
    if (type(value) not in (int, float) or not abs(value) <= _MAX
            or not low <= value <= high or kind is int and value % 1):
        left = "(0" if low == _POSITIVE else "(-inf" if low == -_INF else f"[{low}"
        right = "inf)" if high == _INF else f"{high}]"
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{name} must be {what} in {left}, {right}, not {value!r}")
    return value if kind is None else kind(value)


def _array(value, name: str, shape: tuple, low: float, high: float) -> np.ndarray:
    """value, nested lists of JSON numbers in [low, high] in shape (None: any length), as floats."""
    arr = np.array(value, dtype=object)  # ragged lists nest only as deep as they agree
    if (arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape))
            or not all(type(v) in (int, float) and abs(v) <= _MAX for v in arr.flat)):
        want = str(tuple("H" if n is None else n for n in shape)).replace("'", "")
        raise ConfigError(f"{name} must be finite numbers in shape {want}, not {value!r:.60}")
    out = arr.astype(np.float64)
    outside = np.argwhere((out < low) | (out > high))
    if len(outside):
        index = tuple(outside[0])
        raise ConfigError(f"{name} entries must lie in [{low}, {high}], not {arr[index]!r} at "
                          + "".join(f"[{i}]" for i in index))
    return out


# ---------------------------------------------------------------------------
# Component builders
# ---------------------------------------------------------------------------

def build_ground_and_mu(cfg: ExperimentConfig):
    if cfg.ground.get("type", "grid") == "interval":
        return None, UniformIntervalMeasure()
    ground = GroundSet.grid(cfg.ground.get("atoms", 64))
    probs = cfg.ground.get("mu_probs")
    return ground, (FiniteMeasure(ground, _array(probs, "ground.mu_probs", (ground.size,), 0, 1))
                    if probs is not None else FiniteMeasure.uniform(ground))


def build_class(cfg: ExperimentConfig, ground) -> HypothesisClass:
    kind = cfg.klass.get("type")
    if cfg.bandit is not None:  # f(x, a) in [0, 1] for the grid's atoms x and K actions a
        K = cfg.bandit["K"]
        if kind == "random_product":
            return product_class(make_rng(cfg.bandit.get("class_seed", 7), 9).random(
                (cfg.klass["H"], ground.size, K)))
        if "class_seed" in cfg.bandit:
            raise ConfigError("class_seed draws a random_product class; a table reads none")
        return product_class(_array(cfg.klass["values"], "class.values", (None, ground.size, K),
                                     0, 1))
    if kind == "thresholds":
        thresholds = ThresholdClass.grid(cfg.klass.get("m", 64))
        if ground is not None and ground.coords is not None:
            # on a finite grid the class restricts to an explicit sign table,
            # which evaluates much faster at long horizons
            values = thresholds.evaluate_block(ContextBlock(coords=ground.coords))
            return TableClass(values, ground=ground, kind="binary")
        return thresholds
    if ground is None:
        raise ConfigError("table classes need a finite ground set")
    return TableClass(_array(cfg.klass["values"], "class.values", (None, ground.size), -1, 1),
                      ground=ground)


def build_label_rule(spec: dict) -> adv.LabelRule:
    rule = spec.get("rule", "rademacher")
    if rule == "noisy_comparator":
        return adv.noisy_comparator_labels(spec.get("threshold", 0.5), spec.get("flip_prob", 0.1))
    return adv.rademacher_labels() if rule == "rademacher" else adv.adversarial_flip_labels()


def build_adversary(cfg: ExperimentConfig, mu, klass, rng: np.random.Generator):
    kind = cfg.adversary.get("kind")
    label_rule = build_label_rule(cfg.adversary.get("labels", {}))
    cert = SmoothnessCertificate(sigma=cfg.sigma, mu=mu)
    if kind == "iid":
        p_spec, p = cfg.adversary.get("p", "mu"), None
        if p_spec != "mu" and not mu.finite:
            raise ConfigError(f"adversary.p {p_spec!r:.60} needs a finite ground set")
        if p_spec == "tilted":
            try:
                p = adv.tilted_smooth_probs(mu.probs, cfg.sigma, cfg.adversary.get("beta", 0.35))
            except ValueError as exc:
                raise ConfigError(f"adversary.beta on {mu.ground.size} atoms: {exc}") from exc
        elif p_spec != "mu":
            p = _array(p_spec, "adversary.p (unless 'mu' or 'tilted')", (mu.ground.size,), 0, 1)
        try:  # a listed p may not sum to 1, or may pass the density cap
            return adv.IidAdversary(cert, label_rule, rng, p=p)
        except ValueError as exc:
            raise ConfigError(f"adversary.p at sigma = {cfg.sigma}: {exc}") from exc
    if kind == "adaptive_mixture":
        return adv.AdaptiveMixtureAdversary(cert, label_rule, rng)
    if kind == "hidden_mu_threshold":
        if mu.finite:  # a grid's class is a table over atom ids
            raise ConfigError("adversary.kind 'hidden_mu_threshold' emits coordinates in [0, 1]; "
                              "it needs ground.type 'interval', not 'grid'")
        return adv.HiddenMuThresholdAdversary(cfg.T, rng)
    if mu is None or not mu.finite:
        raise ConfigError("rademacher_gap needs a finite ground set")
    if "mu_probs" in cfg.ground:
        raise ConfigError("rademacher_gap builds its own mu: it reads no ground.mu_probs")
    return adv.build_rademacher_gap_adversary(cfg.sigma, cfg.adversary.get("m", 2), klass,
        mu.ground, rng, scale=cfg.adversary.get("scale", 1.0), label_rule=label_rule)


def build_pieces(cfg: ExperimentConfig, adversary_rng: np.random.Generator,
                 learner_rng: np.random.Generator):
    """(klass, loss, adversary, learner) of one run; the learner holds its own oracle.

    A bandit's learner is its regressor, which sees (context, action) pairs:
    sigma/K-smooth with respect to mu x Unif([K]).
    """
    ground, mu = build_ground_and_mu(cfg)
    klass = build_class(cfg, ground)
    loss = LOSSES[cfg.loss]()
    adversary = build_adversary(cfg, mu, klass, adversary_rng)
    if cfg.bandit is not None:
        K = cfg.bandit["K"]
        cfg, mu = replace(cfg, sigma=compose_smoothness(cfg.sigma, K)), product_measure(mu, K)
    elif adversary.certificate.mu is not None:
        mu = adversary.certificate.mu  # learners use the adversary's base measure when shared
    learner = build_learner(cfg, klass, loss, mu, ErmOracle(klass, loss), learner_rng)
    return klass, loss, adversary, learner


def build_learner(cfg: ExperimentConfig, klass: HypothesisClass, loss: LossFunction,
                  mu, oracle: ErmOracle, rng: np.random.Generator):
    spec = cfg.learner
    name = spec["name"]
    if name in ("relax-linear", "relax-general"):
        cls = RelaxLinearLearner if name == "relax-linear" else RelaxGeneralLearner
        return cls(klass, loss, mu, cfg.T, cfg.sigma, oracle, rng,
                   k=spec.get("k"))
    return FtplLearner(FTPL_VARIANTS[name], klass, loss, mu, build_schedule(cfg, loss),
                       oracle, rng)


def build_schedule(cfg: ExperimentConfig, loss: LossFunction) -> FtplSchedule:
    """The FTPL variant's default schedule, with the config's overrides applied."""
    spec = cfg.learner
    variant = FTPL_VARIANTS[spec["name"]]
    try:
        sched = schedule(cfg.T, cfg.sigma, L=loss.lipschitz_L, d_or_p=spec.get("p"),
                         variant=variant, zeta=spec.get("zeta", 0.0))
    except ValueError as exc:  # a tiny sigma drives eta or the anchor count out of range
        raise ValueError(f"FTPL schedule for T = {cfg.T}, sigma = {cfg.sigma}: {exc}") from exc
    overrides = {k: spec[k] for k in ("eta", "n", "m", "epsilon") if k in spec}
    if "p" in spec and len(overrides) == 4:
        raise ValueError("learner.p sets eta, n, m and epsilon, which the config gives: "
                         "it changes nothing")
    if variant == "single" and "n" in overrides:  # eta = sqrt(n)
        overrides["eta"] = math.sqrt(overrides["n"])
    return replace(sched, **overrides)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class SeedOutcome:
    seed: int
    final_regret: float
    checkpoint_regrets: dict[int, float]
    oracle_calls: int
    wall_time_s: float
    comparator_range: tuple[float, float]  # (best, worst) hypothesis cumulative loss


def run_seed(cfg: ExperimentConfig, seed: int, trace=None) -> SeedOutcome:
    """One full trajectory, held ``CHUNK`` rounds at a time; returns its summary figures.

    When the chunk fills, and after round T, its rounds are accounted (regret, checkpoints,
    the cross-check's sums) and their CSV lines written to ``trace``, a text sink, if
    given; then the buffer is reused, so a run holds O(H * CHUNK) floats whatever T."""
    t0 = time.perf_counter()
    klass, loss, adversary, learner = build_pieces(cfg, make_rng(seed, _STREAM_ADVERSARY),
                                                   make_rng(seed, _STREAM_LEARNER))
    size = min(cfg.T, CHUNK)
    chunk, running = Trajectory(size), RunningRegret(klass, loss)
    pending = sorted(set(cfg.checkpoints or [max(1, cfg.T // 2), cfg.T]), reverse=True)
    checkpoint_regrets = {}
    played, last_prediction = 0, None
    while played < cfg.T:
        contexts, labels = adversary.next_run(last_prediction,
                                              min(cfg.T - played, size - len(chunk)))
        predictions, calls = learner.play(contexts, labels)
        instant = _checked_losses(loss, predictions, labels, played)
        chunk.extend(contexts, labels, predictions, instant, calls)
        played += len(labels)
        last_prediction = float(predictions[-1])
        if len(chunk) == size or played == cfg.T:
            done, regret = played - len(chunk), running.add(chunk)
            while pending and pending[-1] <= played:
                t = pending.pop()
                checkpoint_regrets[t] = float(regret[t - done - 1])
            if trace is not None:
                trace.write(rows_to_csv(chunk, regret, done))
            chunk.clear()

    final_regret = float(regret[-1])
    # a sum of T terms in [0, 1] rounds off by at most T^2 eps / 2 in any order, so two
    # regrets, each a difference of such sums, differ by at most 2 T^2 eps
    if abs(running.finalized() - final_regret) > max(1e-9, 2 * cfg.T ** 2 * _EPS):
        raise InvariantViolation("running regret disagrees with finalized regret")
    return SeedOutcome(
        seed=seed,
        final_regret=final_regret,
        checkpoint_regrets=checkpoint_regrets,
        oracle_calls=learner.oracle.calls,
        wall_time_s=time.perf_counter() - t0,
        comparator_range=(float(running.totals.min()), float(running.totals.max())),
    )


def _checked_losses(loss: LossFunction, predictions: np.ndarray, labels: np.ndarray,
                    start: int) -> np.ndarray:
    """A run's instant losses, its first round after ``start``; raises InvariantViolation
    at the first round whose prediction leaves [-1, 1] (NaN included) or whose loss leaves
    the loss's declared range, as the rounds would one by one."""
    lo, hi = loss.output_range
    ok = np.abs(predictions) <= 1.0 + 1e-9  # False for NaN
    valid = len(ok) if ok.all() else int(ok.argmin())  # losses only where yhat is valid
    instant = loss.evaluate_array(predictions[:valid], labels[:valid])
    ok = (lo - 1e-9 <= instant) & (instant <= hi + 1e-9)
    if not ok.all():
        i = int(ok.argmin())
        raise InvariantViolation(f"loss {float(instant[i])} outside declared range "
                                 f"at round {start + i + 1}")
    if valid < len(predictions):
        raise InvariantViolation(f"prediction {float(predictions[valid])} outside [-1, 1] "
                                 f"at round {start + valid + 1}")
    return instant


def rows_to_csv(traj: Trajectory, regret: np.ndarray, done: int) -> str:
    """The CSV lines of a chunk of rounds, the first being round ``done + 1``, with the
    header before round 1; floats print as Python reprs, so reruns match byte for byte."""
    n = len(traj)
    rows = zip(range(done + 1, done + n + 1), traj.ids[:n].tolist(), traj.coords[:n].tolist(),
               traj.labels[:n].tolist(), traj.predictions[:n].tolist(),
               traj.instant_loss[:n].tolist(), regret.tolist(), traj.oracle_calls[:n].tolist())
    lines = [] if done else ["t,context,label,prediction,instant_loss,cumulative_regret,"
                             "oracle_calls"]
    lines += [f"{t},{i if i >= 0 else repr(c)},{y!r},{yhat!r},{inst!r},{reg!r},{calls}"
              for t, i, c, y, yhat, inst, reg, calls in rows]
    return "\n".join(lines) + "\n"


def summarize(cfg: ExperimentConfig, outcomes: list[SeedOutcome]) -> dict:
    finals = np.array([o.final_regret for o in outcomes])
    per_seed = [
        {
            "seed": o.seed,
            "final_regret": o.final_regret,
            "checkpoint_regrets": {str(k): v for k, v in sorted(o.checkpoint_regrets.items())},
            "oracle_calls": o.oracle_calls,
            "wall_time_s": o.wall_time_s,
        }
        for o in outcomes
    ]
    aggregate = {
        "mean_final_regret": float(finals.mean()),
        "std_final_regret": float(finals.std(ddof=1)) if len(finals) > 1 else 0.0,
        "mean_oracle_calls": float(np.mean([o.oracle_calls for o in outcomes])),
        "total_wall_time_s": float(sum(o.wall_time_s for o in outcomes)),
    }
    return {"per_seed": per_seed, "aggregate": aggregate, "config": cfg.to_dict()}


def write_outputs(cfg: ExperimentConfig, name: str, summary: dict) -> None:
    """Write the summary as ``name`` under output_dir, if set (``clear_output`` made it)."""
    if cfg.output_dir:
        (Path(cfg.output_dir) / name).write_text(json.dumps(summary, indent=2) + "\n")


def clear_output(cfg: ExperimentConfig, name: str) -> Optional[Path]:
    """Make output_dir, if set, and remove the ``name`` an earlier run left in it; returns
    the directory, or None.  Called once everything has loaded and before the first seed,
    so a run that fails writes no ``name`` and leaves none that it did not produce."""
    if not cfg.output_dir:
        return None
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).unlink(missing_ok=True)
    return out


def run_experiment(cfg: ExperimentConfig) -> dict:
    """All seeds of one config; returns the summary and, with an output_dir, writes each
    seed's trace as it runs and the summary after the last.  A seed that raises leaves no
    trace, and the run no summary: an earlier run's is removed before the first seed."""
    out = clear_output(cfg, "summary.json")
    outcomes = []
    for seed in cfg.seeds:
        if out is None:
            outcomes.append(run_seed(cfg, seed))
            continue
        path = out / f"trace_seed{seed}.csv"
        try:
            with path.open("w") as trace:
                outcomes.append(run_seed(cfg, seed, trace))
        except BaseException:
            path.unlink(missing_ok=True)
            raise
    summary = summarize(cfg, outcomes)
    write_outputs(cfg, "summary.json", summary)
    return summary


def sweep(cfg: ExperimentConfig, param: str, values: list) -> list[dict]:
    """One run_experiment per parameter value, checked by the loader; a seeds value is one seed.

    With an output_dir, value v runs in ``<param>=v`` under it and ``sweep_to_long_csv`` is
    written there as ``sweep_<param>.csv`` after the last, an earlier one removed before the
    first.  A k on an FTPL learner, which has no playout width, is refused like any unread field."""
    if param not in SWEEPABLE:
        raise ConfigError(f"cannot sweep {param!r}; valid: {', '.join(SWEEPABLE)}")
    subs = []  # every value loads before any runs, so a bad one exits 2 with no output
    for value in values:
        raw = cfg.to_dict()
        if param == "learner":
            raw["learner"] = {**raw["learner"], "name": value}
        elif param == "k":
            raw["learner"] = {**raw["learner"], "k": value}
        elif param == "seeds":
            raw["seeds"] = [value]
        else:  # T, sigma
            raw[param] = value
        subs.append(ExperimentConfig.from_dict(raw))
        if cfg.output_dir:
            subs[-1].output_dir = str(Path(cfg.output_dir) / f"{param}={value}")
    name = f"sweep_{param}.csv"
    out = clear_output(cfg, name)
    summaries = [run_experiment(sub) for sub in subs]
    if out is not None:
        (out / name).write_text(sweep_to_long_csv(param, values, summaries))
    return summaries


def sweep_to_long_csv(param: str, values: list, summaries: list[dict]) -> str:
    """Long-format rows suitable for regret-vs-parameter plots."""
    lines = [f"{param},seed,final_regret,oracle_calls"]
    for value, summary in zip(values, summaries):
        for row in summary["per_seed"]:
            lines.append(f"{value},{row['seed']},{row['final_regret']!r},{row['oracle_calls']}")
    return "\n".join(lines) + "\n"
