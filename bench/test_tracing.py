"""Tests of the bench's own tracing: self-time arithmetic and the untraced-run guard.

    python3 -m pytest bench/test_tracing.py -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Target, Tracer, TracingLeak  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def tick(self, ns: int) -> None:
        self.now += ns


def _toy(clock: FakeClock):
    toy = types.SimpleNamespace()

    def inner():
        clock.tick(10)
        return "leaf"

    def outer():
        clock.tick(5)
        toy.inner()
        clock.tick(7)
        toy.inner()
        clock.tick(1)
        return "root"

    toy.inner, toy.outer = inner, outer
    return toy


def _toy_tracer(clock: FakeClock):
    toy = _toy(clock)
    tracer = Tracer([Target(toy, "outer", "outer"), Target(toy, "inner", "inner")], clock=clock)
    return toy, tracer


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    toy, tracer = _toy_tracer(clock)
    tracer.install()
    assert toy.outer() == "root"
    tracer.uninstall()

    assert tracer.names == ["outer", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0]
    assert [e - s for s, e in zip(tracer.starts, tracer.ends)] == [33, 10, 10]
    assert tracer.self_times() == [13, 10, 10]
    # self times of a span tree add up to its root's duration
    assert sum(tracer.self_times()) == tracer.ends[0] - tracer.starts[0]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    toy = _toy(clock)

    def failing():
        clock.tick(4)
        raise KeyError("boom")

    toy.inner = failing
    tracer = Tracer([Target(toy, "outer", "outer"), Target(toy, "inner", "inner")], clock=clock)
    tracer.install()
    with pytest.raises(KeyError):
        toy.outer()
    tracer.uninstall()
    assert tracer.self_times() == [5, 4]
    assert tracer._stack == []


def test_rounds_open_at_round_start_and_close_after_round_end():
    clock = FakeClock()
    env = types.SimpleNamespace(select=lambda: None, next_round=lambda: None,
                                observe=lambda: None)
    tracer = Tracer([Target(env, "select", "select", starts_round=True),
                     Target(env, "next_round", "next", starts_round=True),
                     Target(env, "observe", "observe", ends_round=True)], clock=clock)
    tracer.install()
    tracer.begin_call(seed=3)
    for _ in range(2):
        env.select()
        env.next_round()
        env.observe()
    tracer.uninstall()
    assert tracer.rounds == [1, 1, 1, 2, 2, 2]
    assert tracer.seeds == [3] * 6


def test_counters_see_arguments_and_results():
    toy = types.SimpleNamespace(work=lambda n: [0] * n)
    tracer = Tracer([Target(toy, "work", "work",
                            count=lambda tr, args, kw: tr.add("asked", args[0]),
                            count_result=lambda tr, res: tr.add("got", len(res)))])
    tracer.install()
    toy.work(3)
    toy.work(4)
    tracer.uninstall()
    assert tracer.counters == {"asked": 7, "got": 7}


def test_guard_detects_installed_and_foreign_wrappers():
    clock = FakeClock()
    toy, tracer = _toy_tracer(clock)
    tracer.assert_pristine()
    tracer.install()
    with pytest.raises(TracingLeak):
        tracer.assert_pristine()
    tracer.uninstall()
    tracer.assert_pristine()
    original = toy.inner
    toy.inner = lambda: "patched elsewhere"
    with pytest.raises(TracingLeak):
        tracer.assert_pristine()
    toy.inner = original
    tracer.assert_pristine()


def test_package_targets_cover_every_span_metric():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import layers

    targets = layers.targets()
    spans = {t.span for t in targets}
    assert spans == set(layers.SPAN_METRIC)
    tracer = Tracer(targets)
    tracer.install()
    try:
        with pytest.raises(TracingLeak):
            tracer.assert_pristine()
    finally:
        tracer.uninstall()
    tracer.assert_pristine()
