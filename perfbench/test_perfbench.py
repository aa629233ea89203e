"""Determinism checks of the benchmark's workloads.

    python3 -m pytest perfbench -q      (from the checkout root; about half a minute)

Each test runs the real CLI in fresh processes at the benchmark's sizes and
compares records digests (SHA-256 of records.csv and records.jsonl).
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import Bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def _runs(name, *kinds):
    """One checked run per kind: an int is a worker count, "traced" the
    traced single-worker run."""
    b = Bench(WORKLOADS[name], SEED, ROOT)
    try:
        checks = [b.traced_cli()[2] if k == "traced" else b.cli(k)[2] for k in kinds]
    finally:
        b.close()
    for rc in checks:
        assert not rc.failed, rc.problems
    return [rc.digest for rc in checks]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_records(name):
    threads = WORKLOADS[name].threads
    first, second = _runs(name, threads, threads)
    assert first == second


def test_recurrence_records_independent_of_worker_count():
    one, two = _runs("recurrence-long", 1, 2)
    assert one == two


def test_traced_records_equal_untraced():
    plain, traced = _runs("walk-unfolded", 1, "traced")
    assert plain == traced
