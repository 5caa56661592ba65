"""tools/pairs.py's runner, driven with a fake in-process topic: the order of the sides,
the wins, the gain rule, the bound, and a failed run."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import pairs  # noqa: E402


def drive(tmp_path, monkeypatch, parent, change, fail=None, same=None):
    """``pairs.main`` on a fake topic whose figure ``ms`` reads parent[i] / change[i] on
    a side's i-th run, raising Failed on the run ``fail`` = (side, i) and reporting
    same[(side, i)] (else "1") as its repeated value; returns the exit code, the
    record and the sides in the order they ran."""
    for side in pairs.SIDES:
        for part in ("src", "bench", "tests"):
            (tmp_path / side / part).mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "ms", "better": "lower", "bound": 0.25}]}))
    (tmp_path / "parent" / "BENCHMARK.json").write_text("{}")
    order, values = [], {"parent": parent, "change": change}

    def fake(tree, args):
        side = tree.name
        i = order.count(side)
        order.append(side)
        if (side, i) == fail:
            raise pairs.Failed("boom")
        return {"figures": {"ms": values[side][i]},
                "same": {"regret": (same or {}).get((side, i), "1")}}

    monkeypatch.setitem(pairs.TOPICS, "fake", fake)
    out = tmp_path / "record.json"
    code = pairs.main(["fake", str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--out", str(out), "--pairs", str(len(parent))])
    return code, json.loads(out.read_text()), order


def row(record, figure="ms"):
    return next(r for r in record["table"] if r["figure"] == figure)


def test_odd_numbered_pairs_run_the_parent_first(tmp_path, monkeypatch):
    code, record, order = drive(tmp_path, monkeypatch, [1.0] * 4, [1.0] * 4)
    assert code == 0
    assert order == ["parent", "change", "change", "parent"] * 2
    assert [(r["pair"], r["side"]) for r in record["runs"]] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change"), (4, "change"), (4, "parent")]
    assert all({"wall_s", "cpu_s", "cpu_per_wall"} <= set(r["figures"])
               for r in record["runs"])


def test_ties_count_for_neither_side(tmp_path, monkeypatch):
    """8 wins and 2 ties: 8 of 10, so no gain, though the change never loses."""
    _, record, _ = drive(tmp_path, monkeypatch, [10.0] * 10, [9.0] * 8 + [10.0] * 2)
    assert row(record)["wins"] == 8
    assert not row(record)["gain_holds"]


@pytest.mark.parametrize("wins,holds", [(9, True), (8, False)])
def test_a_gain_needs_nine_wins_of_ten(tmp_path, monkeypatch, wins, holds):
    change = [9.0] * wins + [11.0] * (10 - wins)
    _, record, _ = drive(tmp_path, monkeypatch, [10.0] * 10, change)
    assert (row(record)["wins"], row(record)["gain_holds"]) == (wins, holds)
    assert row(record)["change"][1] == 9.0


@pytest.mark.parametrize("gap,holds", [(0.5, False), (5.0, True)])
def test_a_gain_needs_a_gap_beyond_the_parents_spread(tmp_path, monkeypatch, gap, holds):
    """Every pair won, by 0.5 inside the parent's interquartile distance of 2 or by 5."""
    parent = [10.0, 11.0, 12.0, 13.0, 14.0] * 2
    _, record, _ = drive(tmp_path, monkeypatch, parent, [p - gap for p in parent])
    assert row(record)["parent"] == [11.0, 12.0, 13.0]
    assert (row(record)["wins"], row(record)["gain_holds"]) == (10, holds)


@pytest.mark.parametrize("change,within", [(12.0, True), (13.0, False)])
def test_within_bound_reads_the_changes_benchmark(tmp_path, monkeypatch, change, within):
    """ms is 25% worse at most; a figure BENCHMARK.json does not name has no bound."""
    _, record, _ = drive(tmp_path, monkeypatch, [10.0] * 10, [change] * 10)
    assert row(record)["within_bound"] is within
    assert "within_bound" not in row(record, "wall_s")


def test_a_failed_run_exits_1_with_the_record_written(tmp_path, monkeypatch):
    code, record, order = drive(tmp_path, monkeypatch, [1.0] * 10, [1.0] * 10,
                                fail=("change", 1))
    assert code == 1
    assert record["runs"][-1] == {"pair": 2, "side": "change", "error": "boom"}
    assert order == ["parent", "change", "change"]
    assert row(record)["pairs"] == 1
    assert set(record["sides"]) == {"parent", "change"}
    assert "loadavg_after" in record["environment"]


def test_a_run_that_does_not_repeat_the_first_fails(tmp_path, monkeypatch):
    code, record, _ = drive(tmp_path, monkeypatch, [1.0] * 10, [1.0] * 10,
                            same={("parent", 1): "2"})
    assert code == 1
    assert record["runs"][-1]["error"] == "differs from the first run in regret"
    assert (record["runs"][-1]["pair"], record["runs"][-1]["side"]) == (2, "parent")
