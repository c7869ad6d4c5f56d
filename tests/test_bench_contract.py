"""The benchmark's tracer wraps program functions by name, at every place
callers look them up, its observers read program attributes, its simulator
workloads write scenario files by key, its registry server names spans by a
request's first word, and its device-log workload builds and audits a
visitor log.  Changing one of those breaks `bench/run.py`; this catches it
with at most a fraction of a second of a tiny workload."""

import threading
from datetime import date
from pathlib import Path

import pytest

from backtrack.certificates import issue_certificate
from backtrack.identity import Pid
from backtrack.registry import (
    NotifiedPidRepository,
    RegistryService,
    client_ingest,
    is_notified_pid,
    load_repository,
    serve,
)
from backtrack.sim import World, parse_scenario

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


def test_traced_tiny_simulation(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import wl_sim

    tracer = tracing.Tracer()
    tracing.install_program_wrappers(tracer)
    try:
        World(parse_scenario(wl_sim.scenario_text("dense-room", "tiny", 0))).run()
    finally:
        tracer.uninstall()
    calls = tracing.CallTable(tracer.call_table())
    assert calls.calls("sim.run") == 1
    # the traced channel and ingest calls of this run, which sim.pairs_evaluated
    # and sim.pairs_in_range count: a tick that skips these names, or a set-up
    # inside the tick that calls them, changes what those metrics read
    assert calls.calls("encounter.distance_to_rssi", "sim.beacon") == 9030
    assert calls.calls("encounter.ingest_beacon", "sim.beacon") == 18060
    assert calls.calls("encounter.classify_contact") > 0
    assert tracer.counts["encounter.open_sessions_peak"] > 0
    # a session's samples are its one latest beacon: the tracer's sample
    # counts read one per session, neither none nor a history
    counts = tracer.counts
    assert counts["encounter.stored_samples_peak"] == counts["encounter.open_sessions_peak"]
    assert counts["encounter.samples_classified"] == calls.calls("encounter.classify_contact")


def test_ingest_reaches_handle_request_as_one_ingest_line(lab, directory, monkeypatch):
    seen = []
    handle_request = RegistryService.handle_request

    def spy(self, lines):
        seen.append(lines)
        return handle_request(self, lines)

    monkeypatch.setattr(RegistryService, "handle_request", spy)
    server = serve("127.0.0.1", 0, directory)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    try:
        cert = issue_certificate(lab, [Pid("P1")], date(2020, 4, 1), date(2020, 3, 25))
        assert client_ingest(*server.server_address, cert) == "OK"
    finally:
        server.shutdown()
        server.server_close()
    assert len(seen) == 1
    assert isinstance(seen[0], list) and seen[0][0].startswith("INGEST ")


def test_repository_as_the_workloads_use_it(lab, directory, tmp_path):
    # device-log builds a repository from a dict keyed by PID text;
    # registry-mix reads the served registry's state file back afterwards
    # and tests each ingested PID text with `in` on its entries
    repo = NotifiedPidRepository({"P0": ("lab-A", date(2020, 3, 1))})
    assert is_notified_pid(repo, Pid("P0")) and not is_notified_pid(repo, Pid("P1"))
    state = str(tmp_path / "state.txt")
    server = serve("127.0.0.1", 0, directory, state)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    try:
        cert = issue_certificate(lab, [Pid("P1"), Pid("P2")], date(2020, 4, 1), date(2020, 3, 25))
        assert client_ingest(*server.server_address, cert) == "OK"
    finally:
        server.shutdown()
        server.server_close()
    persisted = load_repository(state)
    assert all(p in persisted.entries for p in ("P1", "P2")) and "P0" not in persisted.entries


@pytest.mark.parametrize("traced", [False, True])
def test_device_log_workload_runs(monkeypatch, tmp_path, traced):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import wl_devicelog

    built = []

    class Recorded(wl_devicelog.DeviceLog):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(wl_devicelog, "DeviceLog", Recorded)
    out = wl_devicelog.run(0, 0.2, tracing.Tracer() if traced else None, "tiny", tmp_path)
    assert out.attempted > 0 and out.failed == 0
    # the set-up visits and every visit operation, all on the audited chain
    assert out.notes["chain_visits"] == len(built[0].visits) > wl_devicelog.SIZES["tiny"]["visits"]
