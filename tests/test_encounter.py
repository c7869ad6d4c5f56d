import pytest
from hypothesis import given, strategies as st

from backtrack.encounter import (
    ChannelModel,
    InformationRecord,
    POLICY_V1,
    POLICY_V2,
    RssiSample,
    SignificancePolicy,
    SignificanceVerdict,
    classify_contact,
    close_expired_sessions,
    distance_to_rssi,
    ingest_beacon,
    rssi_to_distance,
)
from backtrack.identity import Pad, Pid

MODEL = ChannelModel(ref_power_dbm=-59.0, path_loss_exponent=2.0)


def record(pid, t=0.0, loc="here"):
    return InformationRecord(pid=Pid(pid), pad=Pad(f"{pid}@box"), local_time=t, local_location=loc)


def ingest(table, sample, policy=POLICY_V1, peer="peer1", gap_timeout_s=60.0):
    return ingest_beacon(
        table, record("own1"), record(peer), sample, policy, MODEL, gap_timeout_s
    )


def fed_session(samples, policy):
    """The open session after feeding every sample, in order, to a new table."""
    table = {}
    for sample in samples:
        assert ingest(table, sample, policy) is None
    return table["peer1"]


def session_at_distance(distance_m, duration_s, policy, interval_s=10.0):
    """Constant-distance session with noiseless samples every interval."""
    rssi = distance_to_rssi(distance_m, MODEL)
    times = [i * interval_s for i in range(int(duration_s // interval_s) + 1)]
    return fed_session([RssiSample(at=t, rssi_dbm=rssi) for t in times], policy)


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


class TestIngestBeacon:
    def test_first_beacon_opens_session(self):
        table = {}
        closed = ingest(table, RssiSample(0.0, -60.0))
        assert closed is None
        assert len(table) == 1
        assert len(table["peer1"].samples) == 1

    def test_close_beacons_share_session(self):
        table = {}
        ingest(table, RssiSample(0.0, -60.0))
        opened = table["peer1"]
        closed = ingest(table, RssiSample(5.0, -61.0))
        assert closed is None
        # the session opened at 0 s took the sample at 5 s
        assert list(table) == ["peer1"] and table["peer1"] is opened
        assert opened.last_seen == 5.0
        # the session keeps only the latest sample, however many arrived
        assert opened.samples == [RssiSample(5.0, -61.0)]

    def test_gap_closes_and_reopens(self):
        table = {}
        ingest(table, RssiSample(0.0, -60.0), gap_timeout_s=60)
        opened = table["peer1"]
        closed = ingest(table, RssiSample(120.0, -61.0), gap_timeout_s=60)
        assert closed is opened and closed.last_seen == 0.0
        # a new session, holding only the sample after the gap, took its place
        assert list(table) == ["peer1"] and table["peer1"] is not opened
        assert table["peer1"].last_seen == 120.0
        assert table["peer1"].samples == [RssiSample(120.0, -61.0)]

    def test_table_keyed_by_peer_pid(self):
        table = {}
        ingest(table, RssiSample(0.0, -60.0), peer="peer1")
        ingest(table, RssiSample(0.0, -60.0), peer="peer2")
        assert all(type(k) is Pid for k in table)
        assert sorted(table) == [Pid("peer1"), Pid("peer2")]
        assert all(table[pid].peer_record.pid is pid for pid in table)

    def test_clock_regression_rejected(self):
        table = {}
        ingest(table, RssiSample(50.0, -60.0))
        with pytest.raises(ValueError, match="precedes session last_seen"):
            ingest(table, RssiSample(40.0, -60.0))

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
            ended = ingest(table, RssiSample(float(t), -60.0), gap_timeout_s=timeout)
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
        assert classify_contact(session).significant

    def test_interop_distance_ignored_under_v2(self):
        # the same contact is ignored under the newer 1.5 m rule
        session = session_at_distance(2.25, 900.0, POLICY_V2)
        assert not classify_contact(session).significant

    def test_alternating_distance_never_accumulates(self):
        near = distance_to_rssi(1.0, MODEL)
        far = distance_to_rssi(10.0, MODEL)
        samples = [
            RssiSample(at=30.0 * i, rssi_dbm=near if i % 2 == 0 else far)
            for i in range(40)
        ]
        verdict = classify_contact(fed_session(samples, SignificancePolicy(1, 3.0, 600.0)))
        assert not verdict.significant
        assert verdict.dwell_s == 0.0

    def test_dwell_is_max_contiguous_run(self):
        # oracle: brute-force dwell accumulation over the sample sequence
        near = distance_to_rssi(2.0, MODEL)
        far = distance_to_rssi(10.0, MODEL)
        pattern = [near, near, near, far, near, near, near, near, near, far, near]
        samples = [RssiSample(at=10.0 * i, rssi_dbm=r) for i, r in enumerate(pattern)]
        verdict = classify_contact(fed_session(samples, SignificancePolicy(1, 3.0, 30.0)))
        # runs of in-threshold samples: 3, 5, 1 -> max contiguous dwell (5-1)*10
        assert verdict.dwell_s == 40.0
        assert verdict.significant

    def test_policy_monotonicity(self):
        # two receivers' tables fed the same samples under different policies
        loose = SignificancePolicy(1, 3.0, 600.0)
        tight = SignificancePolicy(2, 1.5, 600.0)
        if classify_contact(session_at_distance(2.25, 900.0, tight)).significant:
            assert classify_contact(session_at_distance(2.25, 900.0, loose)).significant

    @given(
        st.lists(st.floats(min_value=0.5, max_value=12.0), min_size=2, max_size=40),
        st.floats(min_value=1.0, max_value=6.0),
    )
    def test_version_interop_property(self, distances, tight_max):
        # if the newer (tighter) policy says Significant, the looser one must too
        samples = [
            RssiSample(at=10.0 * i, rssi_dbm=distance_to_rssi(d, MODEL))
            for i, d in enumerate(distances)
        ]
        newer = SignificancePolicy(2, tight_max, 30.0)
        older = SignificancePolicy(1, tight_max * 2, 30.0)
        if classify_contact(fed_session(samples, newer)).significant:
            assert classify_contact(fed_session(samples, older)).significant


class TestCloseExpired:
    def test_empty_table(self):
        assert close_expired_sessions({}, now=100.0) == []

    def test_stale_session_returned_and_removed(self):
        table = {}
        ingest(table, RssiSample(0.0, -60.0))
        closed = close_expired_sessions(table, now=120.0, gap_timeout_s=60.0)
        assert len(closed) == 1
        assert table == {}

    def test_only_stale_sessions_closed(self):
        table = {}
        ingest(table, RssiSample(0.0, -60.0), peer="stale")
        ingest(table, RssiSample(110.0, -60.0), peer="fresh")
        closed = close_expired_sessions(table, now=120.0, gap_timeout_s=60.0)
        assert [s.peer_record.pid.value for s in closed] == ["stale"]
        assert set(table) == {"fresh"}

    def test_expiry_agrees_with_the_split_rule(self):
        # 128 + gap rounds to 130.0, yet 2 s of silence exceed the gap
        gap = 1.9999999999999858
        split = {}
        ingest(split, RssiSample(128.0, -60.0), gap_timeout_s=gap)
        assert ingest(split, RssiSample(130.0, -60.0), gap_timeout_s=gap) is not None
        table = {}
        ingest(table, RssiSample(128.0, -60.0), gap_timeout_s=gap)
        assert len(close_expired_sessions(table, now=130.0, gap_timeout_s=gap)) == 1


def batch_classify(samples, policy, model):
    """Oracle: the classifier that stored every sample and rescanned them."""
    within = [rssi_to_distance(s.rssi_dbm, model) <= policy.max_distance_m for s in samples]
    best = 0.0
    run = 0.0
    for i in range(1, len(samples)):
        if within[i - 1] and within[i]:
            run += samples[i].at - samples[i - 1].at
            best = max(best, run)
        else:
            run = 0.0
    return SignificanceVerdict(any(within) and best >= policy.min_duration_s, best)


def split_at_gaps(samples, gap_timeout_s):
    segments = [[samples[0]]]
    for sample in samples[1:]:
        if sample.at - segments[-1][-1].at > gap_timeout_s:
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
            samples.append(RssiSample(at=at, rssi_dbm=rssi))
        table = {}
        sessions = []
        for sample in samples:
            closed = ingest_beacon(
                table, record("own1"), record("peer1"), sample, policy, model, gap_timeout_s
            )
            if closed is not None:
                sessions.append(closed)
        sessions.append(table.pop("peer1"))  # drained, as diagnosis and finalize do
        expected = [batch_classify(seg, policy, model) for seg in split_at_gaps(samples, gap_timeout_s)]
        assert [classify_contact(s) for s in sessions] == expected

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
                ingest(table, RssiSample(now, -60.0), peer=peer, gap_timeout_s=gap_timeout_s)
            elif kind == "flush":
                table.pop(peer, None)
            else:
                stale = sorted(k for k, s in table.items() if now - s.last_seen > gap_timeout_s)
                remaining = set(table) - set(stale)
                closed = close_expired_sessions(table, now, gap_timeout_s)
                assert [s.peer_record.pid.value for s in closed] == stale
                assert set(table) == remaining
