"""The benchmark's tracer wraps program functions by name, at every place
callers look them up, and its simulator workloads write scenario files by
key.  Deleting or renaming one of those names or keys breaks `bench/run.py`;
this catches it without running a workload."""

from pathlib import Path

import pytest

from backtrack.sim import parse_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    saved = tracing.wrapped_attributes()
    assert saved
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


@pytest.mark.parametrize("size", ["full", "tiny"])
@pytest.mark.parametrize("workload", ["dense-room", "sparse-field"])
def test_sim_workload_scenarios_parse(monkeypatch, workload, size):
    monkeypatch.syspath_prepend(str(BENCH))
    import wl_sim

    scenario = parse_scenario(wl_sim.scenario_text(workload, size, 0))
    assert scenario.n_agents == wl_sim.SCENARIOS[workload][size]["n_agents"]
