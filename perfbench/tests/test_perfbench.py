"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They check that every metric a run prints is declared in ``BENCHMARK.json``
with the same unit, that a solve forced to fail is counted as failed, and
that the seed changes the inputs but not the metric names.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import run as bench

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def test_declared_workloads_exist():
    bench._import_program()
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_printed_metrics_are_declared(workload, trace):
    record = bench.run(workload, seed=3, seconds=0.0, trace=trace)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("per_layer" if trace else "end_to_end")
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, float) and np.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    # The result line parses back to the same object.
    assert json.loads(json.dumps(result)) == result


def test_forced_solve_failure_counts_as_failed():
    # One CG iteration cannot reach the 1e-10 tolerance: every operation
    # that includes a distributed solve fails, the others pass.
    record = bench.run("comm_scaling", seed=3, seconds=0.0, trace=False, cg_maxiter=1)
    result = record["result"]
    with_solve = len(range(1, result["attempted"], 3))
    assert result["attempted"] >= bench.MIN_OPS
    assert result["failed"] == with_solve >= 1
    assert result["correct"] is False
    assert any(f"{result['failed']} failed" in line for line in record["lines"])


def test_seed_changes_inputs_not_metric_names():
    bench._import_program()
    from perfbench import inputs
    from perfbench.workloads import WORKLOADS

    x, y, z = np.meshgrid(*(np.linspace(0.0, 1.0, 7),) * 3, indexing="ij")
    t1 = inputs.rbc_initial_temperature(1)(x, y, z)
    t2 = inputs.rbc_initial_temperature(2)(x, y, z)
    assert not np.allclose(t1, t2)
    np.testing.assert_array_equal(t1, inputs.rbc_initial_temperature(1)(x, y, z))
    # The perturbation bound is the same for every seed.
    assert np.abs(t1 - (0.5 - z)).max() <= inputs.RBC_PERTURBATION + 1e-12

    comm1, comm2 = WORKLOADS["comm_scaling"](1), WORKLOADS["comm_scaling"](2)
    assert not np.allclose(comm1.rhs, comm2.rhs)

    snapshots = [WORKLOADS["insitu_compress"](seed).snapshots[0]["T"] for seed in (1, 2)]
    assert not np.allclose(*snapshots)

    results = [bench.run("insitu_compress", seed, 0.0, False)["result"] for seed in (1, 2)]
    assert results[0]["metrics"].keys() == results[1]["metrics"].keys()


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(100))
    value, pct = bench.tail(values)
    assert value == 89 and pct == 90.0
    assert sum(v > value for v in values) == 10
    assert bench.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)
