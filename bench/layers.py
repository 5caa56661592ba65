"""Which program attributes the traced run wraps, and the per-layer split built from them.

Layers are the package's modules.  Targets are found by name in the
imported modules (classes that define a method in their own body, module
functions under every name that binds them), so a class or builder added
later is traced without editing this file.  Each span name maps to exactly
one self-time metric, so the time metrics add up to the traced wall time
(``trace.coverage``).
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict

from tracing import Target, Tracer

# span name -> the per-layer metric its self time is booked under
SPAN_METRIC = {
    "cli.main": "cli.main_self_ms",
    "harness.run_experiment": "harness.io_ms",
    "harness.rows_to_csv": "harness.io_ms",
    "harness.run_seed": "harness.bookkeeping_ms",
    "harness.build": "harness.build_ms",
    "harness.finalize": "harness.finalize_ms",
    "bandit.run_bandit_experiment": "bandit.summary_ms",
    "bandit.build": "bandit.build_ms",
    "bandit.run_square_cb": "bandit.loop_self_ms",
    "bandit.igw": "bandit.igw_ms",
    "relaxation.playout": "relaxation.playout_ms",
    "relaxation.predict": "relaxation.predict_self_ms",
    "relaxation.observe": "relaxation.observe_ms",
    "ftpl.perturb": "ftpl.perturb_ms",
    "ftpl.select": "ftpl.select_self_ms",
    "ftpl.predict": "ftpl.predict_ms",
    "ftpl.observe": "ftpl.observe_ms",
    "oracle.query": "oracle.query_self_ms",
    "oracle.objective": "oracle.objective_ms",
    "oracle.prefix": "oracle.prefix_ms",
    "adversaries.next_round": "adversaries.next_round_ms",
    "core.sample": "core.sample_ms",
    "core.identity_dot": "core.identity_dot_ms",
    "core.evaluate_block": "core.evaluate_block_ms",
}

# time metrics paid once per entry-point call rather than per round
PER_CALL = {"harness.build_ms", "bandit.build_ms"}

# learner spans whose inclusive time is the bandit's regressor cost
_REGRESSOR_SPANS = {"ftpl.select", "ftpl.predict", "ftpl.observe",
                    "relaxation.predict", "relaxation.observe"}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("core.sample_ms", "ms", "lower"),
    ("core.sample_points", "count", "lower"),
    ("core.identity_dot_ms", "ms", "lower"),
    ("core.identity_rows", "count", "lower"),
    ("core.ns_per_identity_row", "ns", "lower"),
    ("core.evaluate_block_ms", "ms", "lower"),
    ("core.evaluate_cells", "count", "lower"),
    ("relaxation.playout_ms", "ms", "lower"),
    ("relaxation.playout_points_per_round", "count", "lower"),
    ("relaxation.playout_mb_per_round", "MB", "lower"),
    ("relaxation.predict_self_ms", "ms", "lower"),
    ("relaxation.observe_ms", "ms", "lower"),
    ("oracle.calls", "count", "lower"),
    ("oracle.objective_ms", "ms", "lower"),
    ("oracle.query_self_ms", "ms", "lower"),
    ("oracle.rows_per_call", "count", "lower"),
    ("oracle.identity_rows", "count", "lower"),
    ("oracle.main_rows", "count", "lower"),
    ("oracle.distinct_row_frac", "ratio", "higher"),
    ("oracle.prefix_ms", "ms", "lower"),
    ("oracle.prefix_rows", "count", "lower"),
    ("ftpl.perturb_ms", "ms", "lower"),
    ("ftpl.anchors_per_round", "count", "lower"),
    ("ftpl.select_self_ms", "ms", "lower"),
    ("ftpl.predict_ms", "ms", "lower"),
    ("ftpl.observe_ms", "ms", "lower"),
    ("adversaries.next_round_ms", "ms", "lower"),
    ("harness.build_ms", "ms", "lower"),
    ("harness.bookkeeping_ms", "ms", "lower"),
    ("harness.finalize_ms", "ms", "lower"),
    ("harness.io_ms", "ms", "lower"),
    ("harness.csv_mb", "MB", "lower"),
    ("bandit.build_ms", "ms", "lower"),
    ("bandit.loop_self_ms", "ms", "lower"),
    ("bandit.igw_ms", "ms", "lower"),
    ("bandit.regressor_ms", "ms", "lower"),
    ("bandit.summary_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("coupling.import_ms", "ms", "lower"),
    ("cli.main_self_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans_per_round", "count", "lower"),
]


# ---------------------------------------------------------------------------
# counters, taken at the same boundaries as the spans
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_sample(tr, args, kwargs):
    tr.add("core.sample_points", _arg(args, kwargs, 2, "size"))


def _count_identity(tr, args, kwargs):
    tr.add("core.identity_rows", len(_arg(args, kwargs, 2, "weights")))


def _count_evaluate(tr, args, kwargs):
    tr.add("core.evaluate_cells", len(args[0]) * len(_arg(args, kwargs, 1, "block")))


def _count_playout(tr, playout):
    tr.add("relaxation.playout_points", len(playout.contexts))
    ctx = playout.contexts
    nbytes = playout.signs.nbytes + sum(a.nbytes for a in (ctx.ids, ctx.coords) if a is not None)
    tr.add("relaxation.playout_bytes", nbytes)


def _count_perturb(tr, pert):
    tr.add("ftpl.anchors", pert.n)


def _count_query(tr, args, kwargs):
    tr.add("oracle.calls")
    tr.add("oracle.rows", _arg(args, kwargs, 1, "query").n_rows)


def _count_prefix(tr, args, kwargs):
    tr.add("oracle.prefix_rows")


def _count_csv(tr, text):
    tr.add("harness.csv_bytes", len(text))


class _DistinctRows:
    """Rows of row blocks seen for the first time in the current round.

    Blocks are keyed by the identity of their context and weight arrays; the
    blocks themselves are held until the round ends so an id is not reused.
    """

    def __init__(self):
        self.key = None
        self.seen: dict = {}

    def __call__(self, tr, args, kwargs):
        if self.key != (tr.seed, tr.round):
            self.key = (tr.seed, tr.round)
            self.seen = {}
        for block in _arg(args, kwargs, 1, "query").blocks:
            rows = len(block)
            kind = "oracle.identity_rows" if block.selector == "identity_loss" \
                else "oracle.main_rows"
            tr.add(kind, rows)
            tr.add("oracle.scanned_rows", rows)
            key = (id(block.contexts), id(block.weights))
            if key not in self.seen:
                self.seen[key] = block
                tr.add("oracle.distinct_rows", rows)


# ---------------------------------------------------------------------------
# target discovery
# ---------------------------------------------------------------------------

def _bindings(fn, attr):
    """Every loaded package module that binds ``fn`` under ``attr``."""
    return [m for name, m in sorted(sys.modules.items())
            if (name == "smoothol" or name.startswith("smoothol."))
            and m is not None and m.__dict__.get(attr) is fn]


def _function_targets(module, attr, span, **kw):
    fn = module.__dict__[attr]
    return [Target(m, attr, span, **kw) for m in _bindings(fn, attr)]


def _method_targets(module, attr, span, **kw):
    return [Target(cls, attr, span, **kw)
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and attr in cls.__dict__]


def targets() -> list[Target]:
    from smoothol import adversaries, bandit, cli, core, ftpl, harness, oracle, relaxation

    out: list[Target] = []
    out += _function_targets(cli, "main", "cli.main")
    out += _function_targets(harness, "run_experiment", "harness.run_experiment")
    out += _function_targets(harness, "run_seed", "harness.run_seed")
    out += _function_targets(harness, "finalize_regret", "harness.finalize")
    out += _function_targets(harness, "rows_to_csv", "harness.rows_to_csv",
                             count_result=_count_csv)
    for name, fn in inspect.getmembers(harness, inspect.isfunction):
        if name.startswith("build_") and fn.__module__ == harness.__name__:
            out += _function_targets(harness, name, "harness.build")
    out += _function_targets(bandit, "run_bandit_experiment", "bandit.run_bandit_experiment")
    out += _function_targets(bandit, "build_bandit_pieces", "bandit.build")
    out += _function_targets(bandit, "run_square_cb", "bandit.run_square_cb")
    out += _function_targets(bandit, "igw_distribution", "bandit.igw")
    out += _function_targets(relaxation, "draw_playout", "relaxation.playout",
                             count_result=_count_playout)
    out += _function_targets(ftpl, "draw_perturbation", "ftpl.perturb",
                             count_result=_count_perturb)
    for module, layer in ((relaxation, "relaxation"), (ftpl, "ftpl")):
        out += _method_targets(module, "select", f"{layer}.select", starts_round=True)
        out += _method_targets(module, "predict", f"{layer}.predict")
        out += _method_targets(module, "observe", f"{layer}.observe", ends_round=True)
    out += _method_targets(adversaries, "next_round", "adversaries.next_round",
                           starts_round=True)
    out += [Target(oracle.ErmOracle, "exact", "oracle.query", count=_count_query),
            Target(oracle.ErmOracle, "approximate", "oracle.query", count=_count_query),
            Target(oracle.ErmOracle, "objective_vector", "oracle.objective",
                   count=_DistinctRows()),
            Target(oracle.ErmOracle, "extend_prefix", "oracle.prefix", count=_count_prefix)]
    out += _method_targets(core, "sample_block", "core.sample", count=_count_sample)
    out += _method_targets(core, "identity_dot", "core.identity_dot", count=_count_identity)
    out += _method_targets(core, "evaluate_block", "core.evaluate_block",
                           count=_count_evaluate)
    return out


def round_start_targets() -> list[Target]:
    return [t for t in targets() if t.starts_round]


# ---------------------------------------------------------------------------
# the split
# ---------------------------------------------------------------------------

def split(tracer: Tracer, rounds: int, calls: int, wall_ns: int) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of ``calls`` traced calls.

    Times are self times in ms per round, except the PER_CALL ones (ms per
    call); counts are per round.  ``wall_ns`` is the calls' total wall time,
    measured outside the spans.
    """
    selfs = tracer.self_times()
    by_metric: dict[str, int] = defaultdict(int)
    for name, s in zip(tracer.names, selfs):
        by_metric[SPAN_METRIC[name]] += s
    regressor_ns = 0
    names, parents = tracer.names, tracer.parents
    for i, name in enumerate(names):
        p = parents[i]
        if name in _REGRESSOR_SPANS and p >= 0 and names[p] == "bandit.run_square_cb":
            regressor_ns += tracer.ends[i] - tracer.starts[i]

    c = defaultdict(float, tracer.counters)
    out: dict[str, float] = {}
    for metric in dict.fromkeys(SPAN_METRIC.values()):
        out[metric] = by_metric[metric] / 1e6 / (calls if metric in PER_CALL else rounds)
    out["bandit.regressor_ms"] = regressor_ns / 1e6 / rounds
    out["core.sample_points"] = c["core.sample_points"] / rounds
    out["core.identity_rows"] = c["core.identity_rows"] / rounds
    out["core.ns_per_identity_row"] = (by_metric["core.identity_dot_ms"]
                                       / c["core.identity_rows"]
                                       if c["core.identity_rows"] else 0.0)
    out["core.evaluate_cells"] = c["core.evaluate_cells"] / rounds
    out["relaxation.playout_points_per_round"] = c["relaxation.playout_points"] / rounds
    out["relaxation.playout_mb_per_round"] = c["relaxation.playout_bytes"] / 1e6 / rounds
    out["oracle.calls"] = c["oracle.calls"] / rounds
    out["oracle.rows_per_call"] = (c["oracle.rows"] / c["oracle.calls"]
                                   if c["oracle.calls"] else 0.0)
    out["oracle.identity_rows"] = c["oracle.identity_rows"] / rounds
    out["oracle.main_rows"] = c["oracle.main_rows"] / rounds
    out["oracle.distinct_row_frac"] = (c["oracle.distinct_rows"] / c["oracle.scanned_rows"]
                                       if c["oracle.scanned_rows"] else 0.0)
    out["oracle.prefix_rows"] = c["oracle.prefix_rows"] / rounds
    out["ftpl.anchors_per_round"] = c["ftpl.anchors"] / rounds
    out["harness.csv_mb"] = c["harness.csv_bytes"] / 1e6 / calls
    out["trace.coverage"] = sum(selfs) / wall_ns
    out["trace.spans_per_round"] = len(names) / rounds
    return out
