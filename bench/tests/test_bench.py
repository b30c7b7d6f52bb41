"""Tests of the benchmark itself: inputs, tracer hygiene and tiny runs.

Run with `python -m pytest bench/tests -q` from the repository root.
"""

import pytest

import run
import tracing
import workloads
from becosmo import scenarios
from becosmo.scenarios import config_from_dict


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)
    assert len(first) == workloads.POOL_SIZE[workload]


@pytest.mark.parametrize("seed", range(5))
def test_every_generated_config_is_valid(seed):
    configs = workloads.scenario_configs(seed)
    for data in configs:
        config = config_from_dict(data)
        assert config.expansion_mode == "free"
    assert any(workloads._is_preset_shaped(d) for d in configs)
    assert {d["condensate"]["dimension"] for d in configs} == {2, 3}
    for item in workloads.mode_inputs(seed):
        assert 1.0 <= item["kappa"] <= 100.0
        assert 180.0 <= item["depth"] <= 600.0
    for item in workloads.cli_inputs(seed):
        scenarios.validate_analysis(
            workloads.VERB_STAGES[item["verb"]] or ("derive",),
            workloads.BASES[item["preset"]]["condensate"]["dimension"])


def test_wrappers_are_removed_after_tracing(tmp_path):
    owners = [scenarios, scenarios.geometry, scenarios.threed,
              scenarios.threed.specfun, workloads.scaling.ScaleTrajectory,
              workloads.scaling.LinearExpansion]
    before = [dict(vars(owner)) for owner in owners]
    assert tracing.installed_wrappers() == []

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.installed_wrappers()
        result = workloads.scenario_op(workloads.scenario_configs(0)[0], tmp_path / "op")
    finally:
        tracer.uninstall()

    assert result.ok, result.error
    assert tracer.totals()["scenarios.run"]["calls"] == 1
    assert tracing.installed_wrappers() == []
    for owner, snapshot in zip(owners, before):
        assert all(vars(owner)[name] is obj for name, obj in snapshot.items())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_has_no_errors(workload, trace):
    record = run.run(workload, seed=3, seconds=0.0, trace=trace)
    assert record["attempted"] >= 1
    assert record["failed"] == 0, record["errors"]
    assert record["correct"]
    spec = run._spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"] for m in listed} <= set(record["metrics"])
