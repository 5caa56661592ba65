"""Experiment runner: JSON configs, seeded replication, CSV traces, JSON summaries.

A config names a learner, an adversary, a hypothesis class and a loss, plus
the horizon, smoothness level and seed list.  Each seed yields one trajectory
written as a CSV trace; a JSON summary aggregates final regrets, oracle call
counts and wall times.  All randomness derives from the seed through Philox
streams keyed per component, so a (config, seed) rerun reproduces traces
byte for byte.
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
    ContextBlock,
    FiniteMeasure,
    GroundSet,
    HypothesisClass,
    LOSSES,
    LossFunction,
    SmoothnessCertificate,
    TableClass,
    ThresholdClass,
    Trajectory,
    UniformIntervalMeasure,
    compose_smoothness,
    finalize_regret,
    make_rng,
    product_class,
    product_measure,
    regret_curve,
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
    "ADVERSARY_KINDS",
]

LEARNER_NAMES = ("relax-linear", "relax-general", "ftpl-cls", "ftpl-dual", "ftpl-single")
REGRESSORS = ("ftpl-dual", "relax-general")  # the learners a bandit config may name
FTPL_VARIANTS = {"ftpl-cls": "classification", "ftpl-dual": "dual", "ftpl-single": "single"}
ADVERSARY_KINDS = ("iid", "adaptive_mixture", "hidden_mu_threshold", "rademacher_gap")
SWEEPABLE = ("T", "sigma", "learner", "k", "seeds")

# rng stream indices, fixed so reruns reproduce draws exactly
_STREAM_ADVERSARY = 0
_STREAM_LEARNER = 1


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
    # set for bandit configs: K, class_seed, f_star_index and gamma (None: the default)
    bandit: Optional[dict] = None

    @staticmethod
    def from_dict(raw: dict, bandit: bool = False) -> "ExperimentConfig":
        """A checked run config, or with ``bandit`` a checked ``smoothol bandit`` config."""
        try:
            spec = _bandit_as_run(raw) if bandit else raw
            cfg = ExperimentConfig(
                learner=dict(spec["learner"]),
                adversary=dict(spec["adversary"]),
                klass=dict(spec["class"]),
                loss=str(spec["loss"]),
                T=spec["T"],
                sigma=float(spec["sigma"]),
                seeds=list(spec["seeds"]),
                ground=dict(spec.get("ground", {"type": "grid", "atoms": 64})),
                output_dir=spec.get("output_dir"),
                checkpoints=spec.get("checkpoints"),
            )
            if bandit:
                gamma = raw.get("gamma")
                cfg.bandit = {"K": raw["K"], "class_seed": raw.get("class_seed", 7),
                              "f_star_index": raw.get("f_star_index", 0),
                              "gamma": None if gamma is None else float(gamma)}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        cfg.validate()
        return cfg

    def validate(self) -> None:
        # integers arrive as ints; integral floats are normalized in place
        self.T = _integer(self.T, "T")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        self.seeds = [_integer(s, "seeds", low=0) for s in self.seeds]
        if not (0.0 < self.sigma <= 1.0):
            raise ConfigError("sigma must lie in (0, 1]")
        name = self.learner.get("name")
        role, names = (("learner", LEARNER_NAMES) if self.bandit is None
                       else ("regressor", REGRESSORS))
        if name not in names:
            raise ConfigError(f"unknown {role} {name!r}; valid: {', '.join(names)}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}; valid: {', '.join(LOSSES)}")
        for part, spec, key in (("ground", self.ground, "atoms"), ("class", self.klass, "m"),
                                ("class", self.klass, "H"), ("learner", self.learner, "k"),
                                ("learner", self.learner, "n"), ("learner", self.learner, "m")):
            if spec.get(key) is not None:
                spec[key] = _integer(spec[key], f"{part}.{key}")
        if self.checkpoints is not None:
            if not isinstance(self.checkpoints, list):
                raise ConfigError(f"checkpoints must be a list of rounds, "
                                  f"not {self.checkpoints!r}")
            self.checkpoints = [_integer(t, "checkpoints") for t in self.checkpoints]
            if any(t > self.T for t in self.checkpoints):
                raise ConfigError(f"checkpoints must be rounds in [1, {self.T}], "
                                  f"not {self.checkpoints}")
        if self.bandit is not None:
            for key, low in (("K", 1), ("class_seed", 0), ("f_star_index", 0)):
                self.bandit[key] = _integer(self.bandit[key], key, low)
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
        if self.bandit is not None:
            if self.bandit["f_star_index"] >= len(klass):
                raise ConfigError(f"f_star_index must index one of the class's {len(klass)} "
                                  f"hypotheses, not {self.bandit['f_star_index']}")
            gamma = self.bandit["gamma"]
            if gamma is not None and not 0.0 < gamma < math.inf:
                raise ConfigError(f"gamma must be positive and finite, not {gamma}")

    def to_dict(self) -> dict:
        return {
            "learner": self.learner, "adversary": self.adversary, "class": self.klass,
            "loss": self.loss, "T": self.T, "sigma": self.sigma, "seeds": self.seeds,
            "ground": self.ground, "output_dir": self.output_dir,
            "checkpoints": self.checkpoints,
        }


def read_config(path: str | Path) -> dict:
    """The JSON object in ``path``; an unreadable file or bad JSON is a config error."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _bandit_as_run(raw: dict) -> dict:
    """A bandit config's run part: a square-loss regressor and i.i.d. tilted contexts."""
    return {
        "learner": {"name": raw.get("regressor", "ftpl-dual"), "k": raw.get("k")},
        "adversary": {"kind": "iid", "p": "tilted"},
        "class": {"type": "random_product", "H": 4, **raw.get("class", {})},
        "loss": "square",
        "T": raw["T"], "sigma": raw["sigma"], "seeds": raw.get("seeds", [0]),
        "ground": {"type": "grid", "atoms": raw.get("ground", {}).get("atoms", 16)},
        "output_dir": raw.get("output_dir"),
    }


def _integer(value, name: str, low: int = 1) -> int:
    """value as an int >= low; a fraction, a string or a bool is a config error."""
    if isinstance(value, bool) or not (isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, not {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Component builders
# ---------------------------------------------------------------------------

def build_ground_and_mu(cfg: ExperimentConfig):
    kind = cfg.ground.get("type", "grid")
    if kind == "grid":
        ground = GroundSet.grid(int(cfg.ground.get("atoms", 64)))
        probs = cfg.ground.get("mu_probs")
        mu = (FiniteMeasure(ground, np.asarray(probs, dtype=float))
              if probs is not None else FiniteMeasure.uniform(ground))
        return ground, mu
    if kind == "interval":
        return None, UniformIntervalMeasure()
    raise ConfigError(f"unknown ground set type {kind!r}")


def build_class(cfg: ExperimentConfig, ground) -> HypothesisClass:
    kind = cfg.klass.get("type")
    if cfg.bandit is not None:  # f(x, a) in [0, 1] for the grid's atoms x and K actions a
        K = cfg.bandit["K"]
        if kind == "random_product":
            values = make_rng(cfg.bandit["class_seed"], 9).random((cfg.klass["H"], ground.size, K))
        elif kind == "table":
            values = np.asarray(cfg.klass["values"], dtype=float)
        else:
            raise ConfigError(f"unknown bandit class type {kind!r}; valid: random_product, table")
        if values.shape[1:] != (ground.size, K):
            raise ConfigError(f"class values must be (H, {ground.size}, {K}), got {values.shape}")
        return product_class(values)
    if kind == "thresholds":
        thresholds = ThresholdClass.grid(int(cfg.klass.get("m", 64)))
        if ground is not None and ground.coords is not None:
            # on a finite grid the class restricts to an explicit sign table,
            # which evaluates much faster at long horizons
            values = thresholds.evaluate_block(ContextBlock(coords=ground.coords))
            return TableClass(values, ground=ground, kind="binary")
        return thresholds
    if kind == "table":
        values = np.asarray(cfg.klass["values"], dtype=float)
        if ground is None:
            raise ConfigError("table classes need a finite ground set")
        return TableClass(values, ground=ground)
    raise ConfigError(f"unknown class type {kind!r}; valid: thresholds, table")


def build_label_rule(spec: dict) -> adv.LabelRule:
    rule = spec.get("rule", "rademacher")
    if rule == "noisy_comparator":
        theta, flip_prob = float(spec.get("threshold", 0.5)), float(spec.get("flip_prob", 0.1))
        if not (math.isfinite(theta) and 0.0 <= flip_prob <= 1.0):
            raise ConfigError(f"noisy_comparator needs a finite threshold and flip_prob in "
                              f"[0, 1], not {theta} and {flip_prob}")
        return adv.noisy_comparator_labels(adv.make_threshold_target(theta), flip_prob)
    if rule == "rademacher":
        return adv.rademacher_labels()
    if rule == "adversarial_flip":
        return adv.adversarial_flip_labels()
    raise ConfigError(f"unknown label rule {rule!r}")


def build_adversary(cfg: ExperimentConfig, mu, klass, rng: np.random.Generator):
    kind = cfg.adversary.get("kind")
    label_rule = build_label_rule(cfg.adversary.get("labels", {}))
    if kind == "iid":
        cert = SmoothnessCertificate(sigma=cfg.sigma, mu=mu)
        p_spec = cfg.adversary.get("p", "mu")
        if p_spec == "mu":
            p = None
        elif p_spec == "tilted":
            if not mu.finite:
                raise ConfigError("tilted p needs a finite ground set")
            p = adv.tilted_smooth_probs(mu.probs, cfg.sigma,
                                        beta=float(cfg.adversary.get("beta", 0.35)))
        elif isinstance(p_spec, list):
            p = np.asarray(p_spec, dtype=float)
        else:
            raise ConfigError(f"unknown iid p spec {p_spec!r}")
        return adv.IidAdversary(cert, label_rule, rng, p=p)
    if kind == "adaptive_mixture":
        cert = SmoothnessCertificate(sigma=cfg.sigma, mu=mu)
        return adv.AdaptiveMixtureAdversary(cert, label_rule, rng)
    if kind == "hidden_mu_threshold":
        return adv.HiddenMuThresholdAdversary(cfg.T, rng)
    if kind == "rademacher_gap":
        if mu is None or not mu.finite:
            raise ConfigError("rademacher_gap needs a finite ground set")
        return adv.build_rademacher_gap_adversary(
            cfg.sigma, _integer(cfg.adversary.get("m", 2), "adversary.m"), klass, mu.ground, rng,
            scale=float(cfg.adversary.get("scale", 1.0)), label_rule=label_rule)
    raise ConfigError(f"unknown adversary {kind!r}; valid: {', '.join(ADVERSARY_KINDS)}")


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
        sched = schedule(cfg.T, cfg.sigma, L=loss.lipschitz_L,
                         d_or_p=spec.get("p"), variant=variant,
                         zeta=float(spec.get("zeta", 0.0)))
    except ValueError as exc:  # a tiny sigma drives eta or the anchor count out of range
        raise ValueError(f"FTPL schedule for T = {cfg.T}, sigma = {cfg.sigma}: {exc}") from exc
    overrides = {k: spec[k] for k in ("eta", "n", "m", "epsilon") if k in spec}
    if "eta" in overrides:
        overrides["eta"] = float(overrides["eta"])
    elif variant == "single" and "n" in overrides:
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
    trajectory: Trajectory
    regret: np.ndarray  # cumulative regret after each round
    comparator_range: tuple[float, float]  # (best, worst) hypothesis cumulative loss


def run_seed(cfg: ExperimentConfig, seed: int) -> SeedOutcome:
    """One full trajectory; returns its record plus summary figures."""
    t0 = time.perf_counter()
    klass, loss, adversary, learner = build_pieces(cfg, make_rng(seed, _STREAM_ADVERSARY),
                                                   make_rng(seed, _STREAM_LEARNER))
    oracle = learner.oracle

    lo, hi = loss.output_range
    traj = Trajectory(cfg.T)
    last_prediction: Optional[float] = None
    for t in range(1, cfg.T + 1):
        if learner.proper:
            learner.select()
        context, label = adversary.next_round(last_prediction)
        yhat = learner.predict(context)
        if not (-1.0 - 1e-9 <= yhat <= 1.0 + 1e-9):
            raise InvariantViolation(f"prediction {yhat} outside [-1, 1] at round {t}")
        instant = loss.evaluate(yhat, label)
        if not (lo - 1e-9 <= instant <= hi + 1e-9):
            raise InvariantViolation(f"loss {instant} outside declared range at round {t}")
        learner.observe(context, label)
        traj.append(context, label, yhat, instant, oracle.calls)
        last_prediction = yhat

    regret, totals = regret_curve(traj, klass, loss)
    final_regret = float(regret[-1])
    if abs(finalize_regret(traj, klass, loss) - final_regret) > 1e-9:
        raise InvariantViolation("running regret disagrees with finalized regret")
    checkpoints = set(cfg.checkpoints or [max(1, cfg.T // 2), cfg.T])
    return SeedOutcome(
        seed=seed,
        final_regret=final_regret,
        checkpoint_regrets={t: float(regret[t - 1]) for t in range(1, cfg.T + 1)
                            if t in checkpoints},
        oracle_calls=oracle.calls,
        wall_time_s=time.perf_counter() - t0,
        trajectory=traj,
        regret=regret,
        comparator_range=(float(totals.min()), float(totals.max())),
    )


def rows_to_csv(outcome: SeedOutcome) -> str:
    """The per-round CSV trace; floats print as Python reprs, so reruns match byte for byte."""
    traj = outcome.trajectory
    rows = zip(range(1, len(traj) + 1), traj.ids.tolist(), traj.coords.tolist(),
               traj.labels.tolist(), traj.predictions.tolist(), traj.instant_loss.tolist(),
               outcome.regret.tolist(), traj.oracle_calls.tolist())
    lines = ["t,context,label,prediction,instant_loss,cumulative_regret,oracle_calls"]
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


def write_outputs(cfg: ExperimentConfig, name: str, summary: dict,
                  outcomes: list[SeedOutcome] = ()) -> None:
    """Write each outcome's trace CSV and the summary as ``name`` under output_dir, if set."""
    if cfg.output_dir:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for o in outcomes:
            (out / f"trace_seed{o.seed}.csv").write_text(rows_to_csv(o))
        (out / name).write_text(json.dumps(summary, indent=2) + "\n")


def run_experiment(cfg: ExperimentConfig) -> dict:
    """All seeds of one config; returns the summary and persists it with the traces."""
    outcomes = [run_seed(cfg, seed) for seed in cfg.seeds]
    summary = summarize(cfg, outcomes)
    write_outputs(cfg, "summary.json", summary, outcomes)
    return summary


def sweep(cfg: ExperimentConfig, param: str, values: list) -> list[dict]:
    """One run_experiment per parameter value, checked by the loader; a seeds value is one seed."""
    if param not in SWEEPABLE:
        raise ConfigError(f"cannot sweep {param!r}; valid: {', '.join(SWEEPABLE)}")
    summaries = []
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
        sub = ExperimentConfig.from_dict(raw)
        if cfg.output_dir:
            sub.output_dir = str(Path(cfg.output_dir) / f"{param}={value}")
        summaries.append(run_experiment(sub))
    return summaries


def sweep_to_long_csv(param: str, values: list, summaries: list[dict]) -> str:
    """Long-format rows suitable for regret-vs-parameter plots."""
    lines = [f"{param},seed,final_regret,oracle_calls"]
    for value, summary in zip(values, summaries):
        for row in summary["per_seed"]:
            lines.append(f"{value},{row['seed']},{row['final_regret']!r},{row['oracle_calls']}")
    return "\n".join(lines) + "\n"
