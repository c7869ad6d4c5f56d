"""The benchmark's metric tables: one source for BENCHMARK.json and the output.

Each per-layer metric names the end-to-end metric it should move and on which
workload, so a later performance change can cite its claim by name.  Every
run prints every metric of its table; a layer a workload never calls reads 0.
"""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median it may worsen by).
# Timings are corrected for host speed (common.HostSpeed) and still spread
# by up to about a tenth over ten seeds on a shared 2-vCPU host, hence the
# wide bounds.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_SIM = "dense-room, sparse-field"
_DENSE = "dense-room"
_SPARSE = "sparse-field"
_REG = "registry-mix"
_DEV = "device-log"

# name, unit, better, what it should move -> on which workload
PER_LAYER = [
    # sim: self time of each step phase (its wrapped children are listed below)
    ("sim.move_s", "s", "lower", f"run_s on {_SIM}"),
    ("sim.beacon_s", "s", "lower", f"run_s on {_SIM} (pair loop and channel draws)"),
    ("sim.expiry_s", "s", "lower", f"run_s on {_DENSE}"),
    ("sim.diagnose_s", "s", "lower", f"run_s on {_DENSE}"),
    ("sim.poll_verify_s", "s", "lower", f"run_s on {_DENSE}"),
    ("sim.phase_coverage", "ratio", "higher", "share of traced run_s inside phase spans"),
    ("sim.pairs_evaluated", "count", "lower", f"run_s on {_SPARSE} (culling)"),
    ("sim.pairs_in_range", "count", "lower", f"exact per seed on {_SIM}"),
    ("sim.in_range_ratio", "ratio", "higher", f"run_s on {_SPARSE} (culling)"),
    ("sim.true_exposures", "count", "higher", "exact per seed; a change is a behaviour change"),
    ("sim.notified_true", "count", "higher", "exact per seed; a change is a behaviour change"),
    ("sim.notified_false", "count", "lower", "exact per seed; a change is a behaviour change"),
    ("sim.missed", "count", "lower", "exact per seed; a change is a behaviour change"),
    ("sim.forgeries_rejected", "count", "higher", "exact per seed; a change is a behaviour change"),
    # encounter
    ("encounter.ingest_beacon.calls", "count", "lower", f"run_s on {_DENSE}"),
    ("encounter.ingest_beacon.s", "s", "lower", f"run_s on {_DENSE}"),
    ("encounter.classify_contact.calls", "count", "lower", f"run_s on {_DENSE}"),
    ("encounter.classify_contact.s", "s", "lower", f"run_s on {_DENSE}"),
    ("encounter.samples_classified", "count", "lower", f"run_s on {_DENSE}"),
    ("encounter.close_expired_sessions.calls", "count", "lower", f"run_s on {_DENSE}"),
    ("encounter.close_expired_sessions.s", "s", "lower", f"run_s on {_DENSE}"),
    ("encounter.sessions_scanned", "count", "lower", f"run_s on {_DENSE}"),
    ("encounter.open_sessions_peak", "count", "lower", f"peak_rss_mb on {_DENSE}"),
    ("encounter.stored_samples_peak", "count", "lower", f"peak_rss_mb on {_DENSE}"),
    ("encounter.distance_to_rssi.calls", "count", "lower", f"run_s on {_SPARSE}"),
    ("encounter.distance_to_rssi.s", "s", "lower", f"run_s on {_SPARSE}"),
    ("encounter.significant_ratio", "ratio", "higher", f"run_s on {_DENSE}"),
    # contactlog
    ("contactlog.find_matching_contact.calls", "count", "lower", f"latency_p50_ms on {_DEV}"),
    ("contactlog.find_matching_contact.s", "s", "lower", f"latency_p50_ms on {_DEV}"),
    ("contactlog.match_ratio", "ratio", "higher", f"latency_p50_ms on {_DEV}"),
    ("contactlog.append_entry.calls", "count", "higher", f"ops_per_s on {_DEV}"),
    ("contactlog.append_entry.s", "s", "lower", f"ops_per_s on {_DEV}"),
    ("contactlog.prune.calls", "count", "higher", f"ops_per_s on {_DEV}"),
    ("contactlog.prune.s", "s", "lower", f"ops_per_s on {_DEV}"),
    ("contactlog.load_log.s", "s", "lower", f"setup_s on {_DEV}"),
    # certificates
    ("certificates.verify_certificate.calls", "count", "lower", f"latency_p99_ms on {_REG}, {_DEV}"),
    ("certificates.verify_certificate.s", "s", "lower", f"latency_p99_ms on {_REG}, {_DEV}"),
    ("certificates.verified_ratio", "ratio", "higher", f"latency_p99_ms on {_REG}, {_DEV}"),
    ("certificates.issue_certificate.calls", "count", "lower", f"run_s on {_DENSE}"),
    ("certificates.issue_certificate.s", "s", "lower", f"run_s on {_DENSE}"),
    # notify
    ("notify.verify_notification.calls", "count", "higher", f"latency_p50_ms on {_DEV}"),
    ("notify.verify_notification.self_s", "s", "lower", f"latency_p50_ms on {_DEV}"),
    ("notify.verdict.ACCEPTED", "count", "higher", "fail_frac everywhere"),
    ("notify.verdict.ACCEPTED-UNCERTIFIED", "count", "lower", "fail_frac everywhere"),
    ("notify.verdict.REJECTED-NO-MATCHING-CONTACT", "count", "higher", "fail_frac everywhere"),
    ("notify.verdict.REJECTED-UNKNOWN-LAB", "count", "higher", "fail_frac everywhere"),
    ("notify.verdict.REJECTED-BAD-SIGNATURE", "count", "higher", "fail_frac everywhere"),
    ("notify.verdict.REJECTED-PID-NOT-IN-CERTIFICATE", "count", "higher", "fail_frac everywhere"),
    ("notify.build_notifications.calls", "count", "lower", f"run_s on {_DENSE}"),
    ("notify.build_notifications.s", "s", "lower", f"run_s on {_DENSE}"),
    ("notify.mailbox_poll.calls", "count", "lower", f"run_s on {_DENSE}"),
    ("notify.mailbox_poll.s", "s", "lower", f"run_s on {_DENSE}"),
    # registry (handle times are recorded inside the server process)
    ("registry.handle_s.QUERY", "s", "lower", f"latency_p50_ms on {_REG}"),
    ("registry.handle_s.CLAIM", "s", "lower", f"latency_p99_ms on {_REG}"),
    ("registry.handle_s.INGEST", "s", "lower", f"latency_p99_ms on {_REG}"),
    ("registry.ingest_certificate.s", "s", "lower", f"latency_p99_ms on {_REG}"),
    ("registry.wait_s", "s", "lower", f"latency_p50_ms, ops_per_s on {_REG}"),
    ("registry.connections", "count", "lower", f"latency_p50_ms, ops_per_s on {_REG}"),
    ("registry.requests_per_connection", "ratio", "higher", f"latency_p50_ms, ops_per_s on {_REG}"),
    ("registry.load_s", "s", "lower", f"setup_s on {_REG}"),
    # identity
    ("identity.prove_pid_ownership.calls", "count", "lower", f"CLAIM latency on {_REG}"),
    ("identity.prove_pid_ownership.s", "s", "lower", f"CLAIM latency on {_REG}"),
    # bizlog
    ("bizlog.verify_chain.calls", "count", "higher", f"ops_per_s on {_DEV}"),
    ("bizlog.verify_chain.s", "s", "lower", f"ops_per_s on {_DEV}"),
    ("bizlog.visits_hashed", "count", "lower", f"ops_per_s on {_DEV}"),
    ("bizlog.append_visit.calls", "count", "higher", f"ops_per_s on {_DEV}"),
    ("bizlog.append_visit.s", "s", "lower", f"ops_per_s on {_DEV}"),
    ("bizlog.evidence_query.calls", "count", "higher", f"ops_per_s on {_DEV}"),
    ("bizlog.evidence_query.s", "s", "lower", f"ops_per_s on {_DEV}"),
    # the tracing itself
    ("trace.overhead", "ratio", "lower", "traced / untraced time of the same work"),
    ("trace.spans", "count", "lower", "full spans written to .bench_traces/"),
]


def per_layer_values(t, counts, extra: dict) -> dict[str, float]:
    """Every PER_LAYER metric from a traced run's call table and counters.

    t is a tracing.CallTable; extra holds the values only the workload
    knows (simulation outcomes, tracing overhead, span count).
    """
    v = {name: 0.0 for name, *_ in PER_LAYER}

    for phase in ("move", "beacon", "expiry", "diagnose", "poll_verify"):
        v[f"sim.{phase}_s"] = t.own(f"sim.{phase}")
    v["sim.phase_coverage"] = _ratio(t.children_total("sim.run"), t.total("sim.run"))
    evaluated = t.calls("encounter.distance_to_rssi", "sim.beacon")
    in_range = t.calls("encounter.ingest_beacon", "sim.beacon") // 2
    v["sim.pairs_evaluated"] = evaluated
    v["sim.pairs_in_range"] = in_range
    v["sim.in_range_ratio"] = _ratio(in_range, evaluated)

    for fn in (
        "encounter.ingest_beacon",
        "encounter.classify_contact",
        "encounter.close_expired_sessions",
        "encounter.distance_to_rssi",
        "contactlog.find_matching_contact",
        "contactlog.append_entry",
        "contactlog.prune",
        "certificates.verify_certificate",
        "certificates.issue_certificate",
        "notify.build_notifications",
        "notify.mailbox_poll",
        "identity.prove_pid_ownership",
        "bizlog.verify_chain",
        "bizlog.append_visit",
        "bizlog.evidence_query",
    ):
        v[f"{fn}.calls"] = t.calls(fn)
        v[f"{fn}.s"] = t.total(fn)
    v["contactlog.load_log.s"] = t.total("contactlog.load_log")
    v["notify.verify_notification.calls"] = t.calls("notify.verify_notification")
    v["notify.verify_notification.self_s"] = t.own("notify.verify_notification")

    for key in (
        "encounter.samples_classified",
        "encounter.sessions_scanned",
        "encounter.open_sessions_peak",
        "encounter.stored_samples_peak",
        "bizlog.visits_hashed",
    ):
        v[key] = counts[key]
    v["encounter.significant_ratio"] = _ratio(
        counts["encounter.significant"], v["encounter.classify_contact.calls"]
    )
    v["contactlog.match_ratio"] = _ratio(
        counts["contactlog.matches"], v["contactlog.find_matching_contact.calls"]
    )
    v["certificates.verified_ratio"] = _ratio(
        counts["certificates.verified"], v["certificates.verify_certificate.calls"]
    )
    for key, n in counts.items():
        if key.startswith("notify.verdict."):
            v[key] = n

    handled = 0.0
    for kind in ("QUERY", "CLAIM", "INGEST"):
        v[f"registry.handle_s.{kind}"] = t.total(f"registry.handle.{kind}")
        handled += v[f"registry.handle_s.{kind}"]
    requested = sum(t.total(f"registry.request.{k}") for k in ("QUERY", "CLAIM", "INGEST"))
    v["registry.wait_s"] = requested - handled if requested else 0.0
    v["registry.ingest_certificate.s"] = t.total("registry.ingest_certificate")
    v["registry.connections"] = t.calls("registry.connection")
    v["registry.requests_per_connection"] = _ratio(
        sum(t.calls(f"registry.handle.{k}") for k in ("QUERY", "CLAIM", "INGEST")),
        v["registry.connections"],
    )
    v["registry.load_s"] = t.total("registry.load_repository")

    unknown = set(extra) - set(v)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    v.update(extra)
    return v


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
