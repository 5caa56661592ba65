"""Golden traces: every trace and summary of a fixed set of runs keeps its sha256.

The set (``tests/golden.py``) covers every learner on the grid and the interval, FTPL at
an exact and an approximate oracle, noisy-comparator and adversarial-flip labels at one
round and at two blocks and a bit, the adaptive mixture, hidden mu, the Rademacher gap,
omega' per (cell, label) pair (ftpl-dual at p = 2, ftpl-single on one threshold), ftpl-dual
with m = 3 omega anchors beside n = 17, the single variant's n override, the bandit with
both regressors at K = 1, 2, 3, and ``configs/*.json`` at reduced T.
"""

import json

import golden


def test_golden_traces_are_unchanged(tmp_path):
    table = json.loads(golden.TABLE.read_text())
    here = golden.environment()
    assert table["environment"] == here, (
        f"the golden table was made with {table['environment']}, and this environment is "
        f"{here}; BLAS rounding may differ between them, so the digests cannot be compared "
        f"here: regenerate the table with `PYTHONPATH=src python tests/golden.py` at the "
        f"parent commit in this environment")
    want, got = table["digests"], golden.digests(tmp_path)
    moved = sorted(name for name in want if got.get(name) != want[name])
    assert not moved, f"{len(moved)} of {len(want)} golden digests moved: {moved[:10]}"
    assert got.keys() == want.keys(), "the golden set's runs differ from the table's"
