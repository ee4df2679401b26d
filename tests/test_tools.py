"""Tests for the measurement scripts under tools/."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _compare(parent, change, better="lower"):
    """compare() of one end-to-end metric whose runs read ``parent`` and
    ``change`` in seed order."""
    def results(values):
        return [{"failed": 0, "attempted": 1, "metrics": {"setup_s": {"value": v, "unit": "s"}}}
                for v in values]

    usage = [{"minor_faults": 0, "system_s": 0.0}] * len(parent)
    bounds = {"setup_s": {"name": "setup_s", "better": better, "bound": 0.25}}
    return bench_pairs.compare(list(range(len(parent))),
                               {"parent": results(parent), "change": results(change)},
                               {"parent": usage, "change": usage}, bounds)["metrics"]["setup_s"]


def test_pair_ratio_does_not_move_with_drift_that_both_sides_share():
    """The host slows both sides from pair 6 on, and the change's run of
    pair 5 already runs slow: the medians fall in different speed modes
    (1.0 and 1.3) although nine pairs read equal, so the ratio of medians
    is over the bound and the per-pair ratio is not."""
    parent = [1.0] * 6 + [1.6] * 4
    change = [1.0] * 5 + [1.6] * 5
    m = _compare(parent, change)
    assert m["change_over_parent"] == pytest.approx(1.3)
    assert m["pair_ratio"] == 1.0
    assert m["over_bound"] and not m["over_bound_paired"]
    line = bench_pairs.workload_line("w", {"metrics": {"setup_s": m},
                                           "failed": {"parent": [0], "change": [0]}})
    assert "setup_s 1.300x, paired 1.000x (over_bound, unresolved)" in line


def test_pair_ratio_flags_a_change_slower_in_every_pair():
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 1.0, 0.95, 1.0, 1.1, 1.0]
    m = _compare(parent, [1.3 * v for v in parent])
    assert m["pair_ratio"] == pytest.approx(1.3)
    assert m["over_bound"] and m["over_bound_paired"]
    # For a metric where higher is better the same runs read as a gain.
    m = _compare(parent, [1.3 * v for v in parent], better="higher")
    assert not m["over_bound"] and not m["over_bound_paired"]
