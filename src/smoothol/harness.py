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
from dataclasses import dataclass, field
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
    TableClass,
    ThresholdClass,
    Trajectory,
    UniformIntervalMeasure,
    finalize_regret,
    make_rng,
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
    "SummaryRecord",
    "run_seed",
    "run_experiment",
    "sweep",
    "LEARNER_NAMES",
    "ADVERSARY_KINDS",
]

LEARNER_NAMES = ("relax-linear", "relax-general", "ftpl-cls", "ftpl-dual", "ftpl-single")
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

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        try:
            cfg = ExperimentConfig(
                learner=dict(raw["learner"]),
                adversary=dict(raw["adversary"]),
                klass=dict(raw["class"]),
                loss=str(raw["loss"]),
                T=int(raw["T"]),
                sigma=float(raw["sigma"]),
                seeds=[int(s) for s in raw["seeds"]],
                ground=dict(raw.get("ground", {"type": "grid", "atoms": 64})),
                output_dir=raw.get("output_dir"),
                checkpoints=raw.get("checkpoints"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        cfg.validate()
        return cfg

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return ExperimentConfig.from_dict(raw)

    def validate(self) -> None:
        if self.T < 1:
            raise ConfigError("T must be at least 1")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if not (0.0 < self.sigma <= 1.0):
            raise ConfigError("sigma must lie in (0, 1]")
        name = self.learner.get("name")
        if name not in LEARNER_NAMES:
            raise ConfigError(f"unknown learner {name!r}; valid: {', '.join(LEARNER_NAMES)}")
        kind = self.adversary.get("kind")
        if kind not in ADVERSARY_KINDS:
            raise ConfigError(f"unknown adversary {kind!r}; valid: {', '.join(ADVERSARY_KINDS)}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}; valid: {', '.join(LOSSES)}")
        if name == "relax-linear" and self.loss != "linear":
            raise ConfigError(f"relax-linear needs the linear loss, not {self.loss!r}")
        # counts arrive as ints; integral floats are normalized in place
        for part, spec, key in (("ground", self.ground, "atoms"), ("class", self.klass, "m"),
                                ("learner", self.learner, "k"), ("learner", self.learner, "n"),
                                ("learner", self.learner, "m")):
            if spec.get(key) is not None:
                spec[key] = _positive_int(spec[key], f"{part}.{key}")
        loss = LOSSES[self.loss]()
        try:  # build what the run builds from plain numbers, so it fails here
            build_class(self, build_ground_and_mu(self)[0])
            if name in FTPL_VARIANTS:
                build_schedule(self, loss)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        lo, hi = loss.domain
        try:  # labels, and the values of threshold classes, are +/-1
            values = np.append(np.asarray(self.klass.get("values", []), dtype=float), [-1, 1])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad class values: {exc}") from exc
        if values.min() < lo or values.max() > hi:
            raise ConfigError(f"labels and class values must lie in the {self.loss} "
                              f"loss domain [{lo}, {hi}]")

    def to_dict(self) -> dict:
        return {
            "learner": self.learner, "adversary": self.adversary, "class": self.klass,
            "loss": self.loss, "T": self.T, "sigma": self.sigma, "seeds": self.seeds,
            "ground": self.ground, "output_dir": self.output_dir,
            "checkpoints": self.checkpoints,
        }


def _positive_int(value, name: str) -> int:
    """value as an int >= 1; a fraction, a string or a bool is a config error."""
    if isinstance(value, bool) or not (isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, not {value!r}")
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
        target = adv.make_threshold_target(float(spec.get("threshold", 0.5)))
        return adv.noisy_comparator_labels(target, float(spec.get("flip_prob", 0.1)))
    if rule == "rademacher":
        return adv.rademacher_labels()
    if rule == "adversarial_flip":
        return adv.adversarial_flip_labels()
    raise ConfigError(f"unknown label rule {rule!r}")


def build_adversary(cfg: ExperimentConfig, mu, klass, rng: np.random.Generator):
    kind = cfg.adversary["kind"]
    label_rule = build_label_rule(cfg.adversary.get("labels", {}))
    from .core import SmoothnessCertificate

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
            cfg.sigma, int(cfg.adversary.get("m", 2)), klass, mu.ground, rng,
            scale=float(cfg.adversary.get("scale", 1.0)), label_rule=label_rule)
    raise ConfigError(f"unknown adversary kind {kind!r}")


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
    sched = schedule(cfg.T, cfg.sigma, L=loss.lipschitz_L,
                     d_or_p=spec.get("p"), variant=variant,
                     zeta=float(spec.get("zeta", 0.0)))
    overrides = {k: spec[k] for k in ("eta", "n", "m", "epsilon") if k in spec}
    if overrides:
        merged = {
            "variant": sched.variant,
            "eta": float(overrides.get("eta", sched.eta)),
            "n": int(overrides.get("n", sched.n)),
            "m": overrides.get("m", sched.m),
            "epsilon": overrides.get("epsilon", sched.epsilon),
            "zeta": sched.zeta,
        }
        if variant == "single" and "n" in overrides and "eta" not in overrides:
            merged["eta"] = math.sqrt(merged["n"])
        sched = FtplSchedule(**merged)
    return sched


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
    ground, mu_default = build_ground_and_mu(cfg)
    klass = build_class(cfg, ground)
    loss = LOSSES[cfg.loss]()
    adversary = build_adversary(cfg, mu_default, klass,
                                make_rng(seed, _STREAM_ADVERSARY))
    # learners use the adversary's declared base measure when it is shared
    mu_learner = adversary.certificate.mu if adversary.certificate.mu is not None else mu_default
    oracle = ErmOracle(klass, loss)
    learner = build_learner(cfg, klass, loss, mu_learner, oracle,
                            make_rng(seed, _STREAM_LEARNER))

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


@dataclass
class SummaryRecord:
    per_seed: list[dict]
    aggregate: dict
    config: dict

    def to_dict(self) -> dict:
        return {"per_seed": self.per_seed, "aggregate": self.aggregate,
                "config": self.config}


def summarize(cfg: ExperimentConfig, outcomes: list[SeedOutcome]) -> SummaryRecord:
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
    return SummaryRecord(per_seed, aggregate, cfg.to_dict())


def run_experiment(cfg: ExperimentConfig) -> SummaryRecord:
    """All seeds of one config; persists traces and the summary when output_dir is set."""
    outcomes = [run_seed(cfg, seed) for seed in cfg.seeds]
    summary = summarize(cfg, outcomes)
    if cfg.output_dir:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for o in outcomes:
            (out / f"trace_seed{o.seed}.csv").write_text(rows_to_csv(o))
        (out / "summary.json").write_text(json.dumps(summary.to_dict(), indent=2) + "\n")
    return summary


def sweep(cfg: ExperimentConfig, param: str, values: list) -> list[SummaryRecord]:
    """One run_experiment per parameter value; emits summaries in value order."""
    if param not in SWEEPABLE:
        raise ConfigError(f"cannot sweep {param!r}; valid: {', '.join(SWEEPABLE)}")
    summaries = []
    for value in values:
        raw = cfg.to_dict()
        if param == "learner":
            raw["learner"] = {**raw["learner"], "name": value}
        elif param == "k":
            raw["learner"] = {**raw["learner"], "k": int(value)}
        elif param == "T":
            raw["T"] = int(value)
        elif param == "sigma":
            raw["sigma"] = float(value)
        elif param == "seeds":
            raw["seeds"] = list(value)
        sub = ExperimentConfig.from_dict(raw)
        if cfg.output_dir:
            sub.output_dir = str(Path(cfg.output_dir) / f"{param}={value}")
        summaries.append(run_experiment(sub))
    return summaries


def sweep_to_long_csv(param: str, values: list, summaries: list[SummaryRecord]) -> str:
    """Long-format rows suitable for regret-vs-parameter plots."""
    lines = [f"{param},seed,final_regret,oracle_calls"]
    for value, summary in zip(values, summaries):
        for row in summary.per_seed:
            lines.append(f"{value},{row['seed']},{row['final_regret']!r},{row['oracle_calls']}")
    return "\n".join(lines) + "\n"
