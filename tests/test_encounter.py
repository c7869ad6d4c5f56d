from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from backtrack.encounter import (
    ChannelModel,
    InformationRecord,
    POLICY_V1,
    SignificancePolicy,
    SignificanceVerdict,
    classify_contact,
    close_expired_sessions,
    distance_to_rssi,
    ingest_beacon,
    rssi_to_distance,
    within_policy,
)
from backtrack.identity import Pad, Pid

MODEL = ChannelModel(ref_power_dbm=-59.0, path_loss_exponent=2.0)


def record(pid, t=0.0, loc="here"):
    return InformationRecord(pid=Pid(pid), pad=Pad(f"{pid}@box"), local_time=t, local_location=loc)


def ingest(table, at, rssi, policy=POLICY_V1, peer="peer1", gap_timeout_s=60.0):
    within = within_policy(rssi, policy, MODEL)
    return ingest_beacon(table, record("own1"), record(peer), at, within, gap_timeout_s)


def fed_session(samples, policy):
    """The open session after feeding every (time, RSSI) sample, in order, to
    a new table."""
    table = {}
    for at, rssi in samples:
        assert ingest(table, at, rssi, policy) is None
    return table["peer1"]


def session_at_distance(distance_m, duration_s, policy, interval_s=10.0):
    """Constant-distance session with noiseless samples every interval."""
    rssi = distance_to_rssi(distance_m, MODEL)
    times = [i * interval_s for i in range(int(duration_s // interval_s) + 1)]
    return fed_session([(t, rssi) for t in times], policy)


class TestPathLoss:
    def test_reference_distance_identity(self):
        assert rssi_to_distance(-59.0, MODEL) == pytest.approx(1.0)

    def test_closed_form_inversion_10m(self):
        assert rssi_to_distance(-79.0, MODEL) == pytest.approx(10.0)

    def test_closed_form_inversion_sqrt10(self):
        assert rssi_to_distance(-69.0, MODEL) == pytest.approx(10 ** 0.5)

    def test_forward_reference(self):
        assert distance_to_rssi(1.0, MODEL) == pytest.approx(-59.0)

    def test_forward_10m(self):
        assert distance_to_rssi(10.0, MODEL) == pytest.approx(-79.0)

    def test_body_blocking_overestimates_distance(self):
        model = ChannelModel(ref_power_dbm=-59.0, path_loss_exponent=2.0, body_shadow_db=15.0)
        clear = distance_to_rssi(2.0, model)
        blocked = distance_to_rssi(2.0, model, body_blocked=True)
        assert blocked == pytest.approx(clear - 15.0)
        assert rssi_to_distance(blocked, model) > rssi_to_distance(clear, model)

    def test_non_positive_distance(self):
        with pytest.raises(ValueError, match="distance must be > 0"):
            distance_to_rssi(0.0, MODEL)

    @pytest.mark.parametrize("n", [1.8, 2.0, 3.0])
    @pytest.mark.parametrize("d", [0.1, 0.5, 1.0, 2.25, 3.0, 10.0, 100.0])
    def test_round_trip(self, d, n):
        model = ChannelModel(ref_power_dbm=-59.0, path_loss_exponent=n)
        back = rssi_to_distance(distance_to_rssi(d, model), model)
        assert abs(back - d) / d < 1e-9

    @given(st.floats(min_value=-119.0, max_value=-1.0), st.floats(min_value=0.1, max_value=10.0))
    def test_strictly_decreasing_in_rssi(self, rssi, delta):
        assert rssi_to_distance(rssi, MODEL) < rssi_to_distance(rssi - delta, MODEL)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(path_loss_exponent=0.5)
        with pytest.raises(ValueError):
            ChannelModel(shadowing_sigma_db=-1.0)
        with pytest.raises(ValueError, match="body shadow"):
            ChannelModel(body_shadow_db=-1.0)
        with pytest.raises(ValueError, match="finite"):
            ChannelModel(ref_power_dbm=float("nan"))

    @pytest.mark.parametrize("make, message", [
        (lambda: InformationRecord(Pid("a"), Pad("a@b"), 0.0, "x|y"), "must not contain '|'"),
        (lambda: SignificancePolicy(0, 3.0, 600.0), "policy version must be positive"),
    ])
    def test_record_sample_and_policy_refusals(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_record_has_no_instance_dict(self):
        record = InformationRecord(Pid("a"), Pad("a@b"), 0.0, "x")
        assert not hasattr(record, "__dict__")
        assert replace(record, local_time=1.0).local_time == 1.0
        with pytest.raises(ValueError, match="must not contain '|'"):
            replace(record, local_location="x|y")


class TestIngestBeacon:
    def test_first_beacon_opens_session(self):
        table = {}
        closed = ingest(table, 0.0, -60.0)
        assert closed is None
        assert len(table) == 1
        assert len(table["peer1"].samples) == 1

    def test_close_beacons_share_session(self):
        table = {}
        ingest(table, 0.0, -60.0)
        opened = table["peer1"]
        closed = ingest(table, 5.0, -61.0)
        assert closed is None
        # the session opened at 0 s took the sample at 5 s
        assert list(table) == ["peer1"] and table["peer1"] is opened
        assert opened.last_seen == 5.0
        # the session stores no sample, however many arrived: its one-sample
        # view for the tracer is the latest beacon's time
        assert len(opened.samples) == 1

    def test_gap_closes_and_reopens(self):
        table = {}
        ingest(table, 0.0, -60.0, gap_timeout_s=60)
        opened = table["peer1"]
        closed = ingest(table, 120.0, -61.0, gap_timeout_s=60)
        assert closed is opened and closed.last_seen == 0.0
        # a new session, opened by the beacon after the gap, took its place
        assert list(table) == ["peer1"] and table["peer1"] is not opened
        assert table["peer1"].last_seen == 120.0
        assert len(table["peer1"].samples) == 1

    def test_table_keyed_by_peer_pid(self):
        table = {}
        ingest(table, 0.0, -60.0, peer="peer1")
        ingest(table, 0.0, -60.0, peer="peer2")
        assert all(type(k) is Pid for k in table)
        assert sorted(table) == [Pid("peer1"), Pid("peer2")]
        assert all(table[pid].peer_record.pid is pid for pid in table)

    def test_clock_regression_rejected(self):
        table = {}
        ingest(table, 50.0, -60.0)
        with pytest.raises(ValueError, match="precedes session last_seen"):
            ingest(table, 40.0, -60.0)

    def test_brute_force_segmentation(self):
        # oracle: split the sample trace wherever the inter-sample gap > timeout
        times = [0, 10, 20, 100, 105, 300, 310, 320, 330]
        timeout = 60
        expected_segments = []
        current = [times[0]]
        for t in times[1:]:
            if t - current[-1] > timeout:
                expected_segments.append(current)
                current = [t]
            else:
                current.append(t)
        expected_segments.append(current)

        table = {}
        opened, closed = [], []  # (time of its first sample, session), in order
        for t in times:
            ended = ingest(table, float(t), -60.0, gap_timeout_s=timeout)
            if ended is not None:
                closed.append(ended)
            if not opened or opened[-1][1] is not table["peer1"]:
                opened.append((float(t), table["peer1"]))
        assert list(map(id, closed)) == [id(session) for _, session in opened[:-1]]
        got_segments = [(first, session.last_seen) for first, session in opened]
        assert got_segments == [(float(seg[0]), float(seg[-1])) for seg in expected_segments]


class TestClassify:
    def test_interop_distance_significant_under_v1(self):
        # contact at 2.25 m: significant under the 3.0 m rule
        session = session_at_distance(2.25, 900.0, POLICY_V1)
        assert classify_contact(session, POLICY_V1).significant

    def test_interop_distance_ignored_under_v2(self):
        # the same contact is ignored under the newer 1.5 m rule
        v2 = SignificancePolicy(2, 1.5, 600.0)
        assert not classify_contact(session_at_distance(2.25, 900.0, v2), v2).significant

    def test_alternating_distance_never_accumulates(self):
        near = distance_to_rssi(1.0, MODEL)
        far = distance_to_rssi(10.0, MODEL)
        samples = [
            (30.0 * i, near if i % 2 == 0 else far) for i in range(40)
        ]
        policy = SignificancePolicy(1, 3.0, 600.0)
        verdict = classify_contact(fed_session(samples, policy), policy)
        assert not verdict.significant
        assert verdict.dwell_s == 0.0

    def test_dwell_is_max_contiguous_run(self):
        # oracle: brute-force dwell accumulation over the sample sequence
        near = distance_to_rssi(2.0, MODEL)
        far = distance_to_rssi(10.0, MODEL)
        pattern = [near, near, near, far, near, near, near, near, near, far, near]
        samples = [(10.0 * i, r) for i, r in enumerate(pattern)]
        policy = SignificancePolicy(1, 3.0, 30.0)
        verdict = classify_contact(fed_session(samples, policy), policy)
        # runs of in-threshold samples: 3, 5, 1 -> max contiguous dwell (5-1)*10
        assert verdict.dwell_s == 40.0
        assert verdict.significant

    def test_policy_monotonicity(self):
        # two receivers' tables fed the same samples under different policies
        loose = SignificancePolicy(1, 3.0, 600.0)
        tight = SignificancePolicy(2, 1.5, 600.0)
        if classify_contact(session_at_distance(2.25, 900.0, tight), tight).significant:
            assert classify_contact(session_at_distance(2.25, 900.0, loose), loose).significant

    @given(
        st.lists(st.floats(min_value=0.5, max_value=12.0), min_size=2, max_size=40),
        st.floats(min_value=1.0, max_value=6.0),
    )
    def test_version_interop_property(self, distances, tight_max):
        # if the newer (tighter) policy says Significant, the looser one must too
        samples = [(10.0 * i, distance_to_rssi(d, MODEL)) for i, d in enumerate(distances)]
        newer = SignificancePolicy(2, tight_max, 30.0)
        older = SignificancePolicy(1, tight_max * 2, 30.0)
        if classify_contact(fed_session(samples, newer), newer).significant:
            assert classify_contact(fed_session(samples, older), older).significant

    @given(
        st.floats(5e-324, 1e9),
        st.floats(-95.0, -30.0),
        st.floats(1.0, 6.0),
        st.floats(-1e-6, 1e-6) | st.floats(-100.0, 100.0),
    )
    def test_rssi_rule_is_the_distance_rule(self, max_distance_m, ref, n, offset_db):
        # away from the rounding of the distance estimate at the edge, the
        # RSSI threshold judges as "the estimate is within the maximum distance"
        model = ChannelModel(ref_power_dbm=ref, path_loss_exponent=n)
        policy = SignificancePolicy(1, max_distance_m, 0.0)
        rssi = distance_to_rssi(max_distance_m, model) + offset_db
        estimate = rssi_to_distance(rssi, model)
        if abs(estimate - max_distance_m) > 1e-9 * max_distance_m:
            assert within_policy(rssi, policy, model) is (estimate <= max_distance_m)


class TestCloseExpired:
    def test_empty_table(self):
        assert close_expired_sessions({}, now=100.0) == []

    def test_stale_session_returned_and_removed(self):
        table = {}
        ingest(table, 0.0, -60.0)
        closed = close_expired_sessions(table, now=120.0, gap_timeout_s=60.0)
        assert len(closed) == 1
        assert table == {}

    def test_only_stale_sessions_closed(self):
        table = {}
        ingest(table, 0.0, -60.0, peer="stale")
        ingest(table, 110.0, -60.0, peer="fresh")
        closed = close_expired_sessions(table, now=120.0, gap_timeout_s=60.0)
        assert [s.peer_record.pid.value for s in closed] == ["stale"]
        assert set(table) == {"fresh"}

    def test_expiry_agrees_with_the_split_rule(self):
        # 128 + gap rounds to 130.0, yet 2 s of silence exceed the gap
        gap = 1.9999999999999858
        split = {}
        ingest(split, 128.0, -60.0, gap_timeout_s=gap)
        assert ingest(split, 130.0, -60.0, gap_timeout_s=gap) is not None
        table = {}
        ingest(table, 128.0, -60.0, gap_timeout_s=gap)
        assert len(close_expired_sessions(table, now=130.0, gap_timeout_s=gap)) == 1


def batch_classify(samples, policy, model):
    """Oracle: the classifier that stored every (time, RSSI) sample and
    rescanned them."""
    within = [within_policy(rssi, policy, model) for _, rssi in samples]
    best = 0.0
    run = 0.0
    for i in range(1, len(samples)):
        if within[i - 1] and within[i]:
            run += samples[i][0] - samples[i - 1][0]
            best = max(best, run)
        else:
            run = 0.0
    return SignificanceVerdict(any(within) and best >= policy.min_duration_s, best)


def split_at_gaps(samples, gap_timeout_s):
    segments = [[samples[0]]]
    for sample in samples[1:]:
        if sample[0] - segments[-1][-1][0] > gap_timeout_s:
            segments.append([sample])
        else:
            segments[-1].append(sample)
    return segments


policies = st.builds(
    SignificancePolicy,
    version=st.integers(1, 3),
    max_distance_m=st.floats(0.1, 20.0),
    min_duration_s=st.floats(0.0, 300.0),
)
channels = st.builds(
    ChannelModel,
    ref_power_dbm=st.floats(-80.0, -40.0),
    path_loss_exponent=st.floats(1.0, 6.0),
)
gaps = st.floats(0.0, 100.0)
rssis = st.floats(-120.0, 0.0)


class TestStreamingEquivalence:
    @given(
        st.floats(0.0, 1e6), st.lists(st.tuples(gaps, rssis), min_size=1, max_size=60),
        policies, channels, st.floats(1.0, 90.0),
    )
    def test_fold_matches_batch_classifier(self, start, steps, policy, model, gap_timeout_s):
        samples = []
        at = start
        for gap, rssi in steps:
            at += gap
            samples.append((at, rssi))
        table = {}
        sessions = []
        for at, rssi in samples:
            within = within_policy(rssi, policy, model)
            closed = ingest_beacon(
                table, record("own1"), record("peer1"), at, within, gap_timeout_s
            )
            if closed is not None:
                sessions.append(closed)
        sessions.append(table.pop("peer1"))  # drained, as diagnosis and finalize do
        expected = [batch_classify(seg, policy, model) for seg in split_at_gaps(samples, gap_timeout_s)]
        assert [classify_contact(s, policy) for s in sessions] == expected

    @given(
        st.lists(
            st.tuples(
                gaps,
                st.sampled_from(["beacon", "expire", "flush"]),
                st.sampled_from(["p0", "p1", "p2", "p3", "p4"]),
            ),
            max_size=80,
        ),
        st.floats(1.0, 90.0),
    )
    def test_bounded_expiry_matches_full_scan(self, events, gap_timeout_s):
        table = {}
        now = 0.0
        for dt, kind, peer in events:
            now += dt
            if kind == "beacon":
                ingest(table, now, -60.0, peer=peer, gap_timeout_s=gap_timeout_s)
            elif kind == "flush":
                table.pop(peer, None)
            else:
                stale = sorted(k for k, s in table.items() if now - s.last_seen > gap_timeout_s)
                remaining = set(table) - set(stale)
                closed = close_expired_sessions(table, now, gap_timeout_s)
                assert [s.peer_record.pid.value for s in closed] == stale
                assert set(table) == remaining
