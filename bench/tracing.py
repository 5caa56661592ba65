"""Spans recorded from outside the program by wrapping its public functions.

A ``Tracer`` is built from a list of ``Target`` entries, each an attribute of
a module or class plus the span name to record under it.  ``install`` swaps
every attribute for a wrapper and ``uninstall`` puts the originals back;
``assert_pristine`` raises if any attribute is not its original, so timed
runs can prove they ran untraced.

Spans live in parallel lists in memory and are written once, at the end of
a run.  A span's self time is its duration minus the durations of its
direct children, so self times over a span tree add up to the root span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

Counter = Callable[["Tracer", tuple, dict], None]
ResultCounter = Callable[["Tracer", Any], None]


@dataclass(frozen=True)
class Target:
    owner: Any                 # module or class holding the attribute
    attr: str
    span: str
    count: Optional[Counter] = None            # called with the call's arguments
    count_result: Optional[ResultCounter] = None
    starts_round: bool = False                 # the first one after an ends_round call opens a round
    ends_round: bool = False


class TracingLeak(RuntimeError):
    """A timed run found a wrapped attribute in place of the original."""


class Tracer:
    def __init__(self, targets: list[Target], clock: Callable[[], int] = time.perf_counter_ns):
        self.targets = list(targets)
        self.originals = [t.owner.__dict__[t.attr] for t in self.targets]
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        self.seeds: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.round = 0
        self.seed = -1
        self._between_rounds = True

    # -- recording ------------------------------------------------------------
    def begin_call(self, seed: int) -> None:
        """Mark the start of one entry-point call: rounds count from 1 again."""
        self.seed = seed
        self.round = 0
        self._between_rounds = True

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, rounds, seeds, stack = self.parents, self.rounds, self.seeds, self._stack
        clock, span = self.clock, target.span

        def wrapper(*args, **kwargs):
            if target.starts_round and self._between_rounds:
                self.round += 1
                self._between_rounds = False
            if target.count is not None:
                target.count(self, args, kwargs)
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            rounds.append(self.round)
            seeds.append(self.seed)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if target.ends_round:
                    self._between_rounds = True
            if target.count_result is not None:
                target.count_result(self, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__qualname__ = getattr(fn, "__qualname__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installing -----------------------------------------------------------
    def install(self) -> None:
        self.assert_pristine()
        for target, fn in zip(self.targets, self.originals):
            setattr(target.owner, target.attr, self._wrap(fn, target))

    def uninstall(self) -> None:
        for target, fn in zip(self.targets, self.originals):
            setattr(target.owner, target.attr, fn)

    def assert_pristine(self) -> None:
        """Raise TracingLeak unless every target attribute is its original object."""
        for target, fn in zip(self.targets, self.originals):
            if target.owner.__dict__.get(target.attr) is not fn:
                raise TracingLeak(f"{getattr(target.owner, '__name__', target.owner)}."
                                  f"{target.attr} is not the original object")

    # -- analysis -------------------------------------------------------------
    def self_times(self) -> list[int]:
        """Per-span self time: duration minus the durations of direct children."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        selfs = list(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                selfs[parent] -= durations[i]
        return selfs

    def write_csv(self, path, workload: str) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,workload,seed,round\n")
            for i, (n, s, e, p, sd, r) in enumerate(zip(self.names, self.starts, self.ends,
                                                        self.parents, self.seeds,
                                                        self.rounds)):
                fh.write(f"{i},{n},{s},{e},{p},{workload},{sd},{r}\n")
