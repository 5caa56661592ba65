"""Command-line front end: run, sweep, couple-test, bandit.

Exit codes: 0 success, 2 configuration error, 3 invariant violation mid-run.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .adversaries import tilted_smooth_probs
from .bandit import run_bandit_experiment
from .core import FiniteMeasure, GroundSet, make_rng
from .coupling import CouplingConfig, concentrated_p, validate_coupling
from .harness import (
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    read_config,
    run_experiment,
    sweep,
    sweep_to_long_csv,
)


def _parse_values(text: str) -> list:
    """Comma-separated values, each a JSON number (or other JSON value) where it parses as one."""
    values = []
    for part in (p.strip() for p in text.split(",") if p.strip()):
        try:
            values.append(json.loads(part))
        except json.JSONDecodeError:
            values.append(part)
    return values


def cmd_run(args) -> int:
    cfg = ExperimentConfig.from_dict(read_config(args.config))
    summary = run_experiment(cfg)
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


def cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_dict(read_config(args.config))
    values = _parse_values(args.values)
    summaries = sweep(cfg, args.param, values)
    sys.stdout.write(sweep_to_long_csv(args.param, values, summaries))
    return 0


def cmd_couple_test(args) -> int:
    if not 0.0 < args.sigma <= 1.0:
        raise ConfigError(f"--sigma must lie in (0, 1], not {args.sigma}")
    if args.k < 0:
        raise ConfigError(f"--k must be at least 0, not {args.k}")
    try:  # the ground set rejects --atoms < 1, the validation too few --trials
        mu = FiniteMeasure.uniform(GroundSet(size=args.atoms))
        p = (concentrated_p(mu, args.sigma) if args.concentrated
             else tilted_smooth_probs(mu.probs, args.sigma))
        config = CouplingConfig(mu_probs=mu.probs, p_probs=p, sigma=args.sigma, k=args.k)
        report = validate_coupling(config, args.trials, make_rng(args.seed, 0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    json.dump(report.to_dict(), sys.stdout, indent=2)
    print()
    return 0


def cmd_bandit(args) -> int:
    summary = run_bandit_experiment(read_config(args.config))
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


@cache  # built once per process: a parse reads the parser and changes nothing in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smoothol",
                                     description="smoothed online learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a config across parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_couple = sub.add_parser("couple-test", help="validate the coupling construction")
    p_couple.add_argument("--sigma", type=float, required=True)
    p_couple.add_argument("--k", type=int, required=True)
    p_couple.add_argument("--trials", type=int, default=100_000)
    p_couple.add_argument("--atoms", type=int, default=10)
    p_couple.add_argument("--seed", type=int, default=0)
    p_couple.add_argument("--concentrated", action="store_true",
                          help="use the tight concentrated-p construction")
    p_couple.set_defaults(func=cmd_couple_test)

    p_bandit = sub.add_parser("bandit", help="run the SquareCB reduction")
    p_bandit.add_argument("--config", required=True)
    p_bandit.set_defaults(func=cmd_bandit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
