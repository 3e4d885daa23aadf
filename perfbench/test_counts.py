"""The traced pass's counters repeat exactly from run to run.

    python3 -m pytest perfbench/test_counts.py

Runs each workload's traced pass twice in one process (about three minutes
in all) and compares every count and ratio metric.  Times are left out:
they are measurements, not counts.
"""

import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


@pytest.fixture(scope="module")
def mods():
    return tracing.load_ymalg(SRC)


def _counts(run) -> dict:
    return {
        name: value
        for name, (value, unit) in run["tracer"].metrics().items()
        if unit in ("count", "ratio")
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(mods, workload, tmp_path):
    commands = workloads.build(workload, 7, str(tmp_path))
    first = tracing.traced_run(mods, commands)
    second = tracing.traced_run(mods, commands)
    assert first["outputs"] == first["reference"]
    assert second["outputs"] == first["outputs"]
    assert _counts(first) == _counts(second)
    assert _counts(first)["cli.main.calls"] == len(commands)
