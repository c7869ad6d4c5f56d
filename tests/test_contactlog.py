import math
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from backtrack.contactlog import (
    ContactLog,
    append_entry,
    entry_to_line,
    exposure_statistics,
    find_matching_contact,
    load_log,
    parse_entry_line,
    parse_log,
    prune,
    save_log,
    serialize_log,
)
from backtrack.identity import Pid

from conftest import make_entry, make_log

DAY = 86400.0


class TestAppend:
    def test_append_to_empty(self):
        log = make_log(make_entry())
        assert len(log.entries) == 1

    def test_order_preserved(self):
        e1 = make_entry(recorded_at=100.0)
        e2 = make_entry(recorded_at=200.0)
        log = make_log(e1, e2)
        assert [e.recorded_at for e in log.entries] == [100.0, 200.0]

    def test_out_of_order_rejected(self):
        log = make_log(make_entry(recorded_at=200.0))
        with pytest.raises(ValueError, match="entry at 100.0 older than last 200.0"):
            append_entry(log, make_entry(recorded_at=100.0))

    def test_same_pid_both_sides_rejected(self):
        with pytest.raises(ValueError):
            make_entry(own_pid="same", peer_pid="same")


class TestPrune:
    def test_stale_entry_removed(self):
        now = 30 * DAY
        log = make_log(make_entry(recorded_at=now - 22 * DAY))
        prune(log, now)
        assert log.entries == []

    def test_boundary_entry_retained(self):
        now = 30 * DAY
        log = make_log(make_entry(recorded_at=now - 21 * DAY))
        prune(log, now)
        assert len(log.entries) == 1

    def test_fresh_log_unchanged(self):
        now = 30 * DAY
        log = make_log(make_entry(recorded_at=now - DAY), make_entry(recorded_at=now))
        prune(log, now)
        assert len(log.entries) == 2

    @pytest.mark.parametrize(
        "now, days", [(30 * DAY, -1), (math.inf, 21), (-math.inf, 21), (math.nan, 21)]
    )
    def test_bad_parameters_refused(self, now, days):
        log = make_log(make_entry(recorded_at=DAY), make_entry(recorded_at=29 * DAY))
        before = list(log.entries)
        with pytest.raises(ValueError):
            prune(log, now, retention_days=days)
        assert log.entries == before

    def test_idempotent(self):
        now = 30 * DAY
        log = make_log(
            make_entry(recorded_at=now - 25 * DAY),
            make_entry(recorded_at=now - 5 * DAY),
        )
        prune(log, now)
        once = list(log.entries)
        prune(log, now)
        assert log.entries == once


class TestFindMatchingContact:
    def entry(self):
        return make_entry(own_pid="mine", peer_pid="claimed", t=5000.0, own_loc="on the walk")

    def test_exact_echo_matches(self):
        entry = self.entry()
        log = make_log(entry)
        found = find_matching_contact(log, Pid("claimed"), 5000.0, "on the walk", 300.0)
        assert found is entry

    def test_wrong_location_filtered(self):
        log = make_log(self.entry())
        assert find_matching_contact(log, Pid("claimed"), 5000.0, "at the gym", 300.0) is None

    def test_wrong_pid_filtered(self):
        log = make_log(self.entry())
        assert find_matching_contact(log, Pid("other"), 5000.0, "on the walk", 300.0) is None

    def test_time_tolerance_boundary_sweep(self):
        # offsets across the boundary: inside accepted, outside rejected
        log = make_log(self.entry())
        for offset in (0.0, 150.0, 300.0):
            assert find_matching_contact(log, Pid("claimed"), 5000.0 + offset, "on the walk", 300.0)
            assert find_matching_contact(log, Pid("claimed"), 5000.0 - offset, "on the walk", 300.0)
        for offset in (301.0, 600.0):
            assert find_matching_contact(log, Pid("claimed"), 5000.0 + offset, "on the walk", 300.0) is None
            assert find_matching_contact(log, Pid("claimed"), 5000.0 - offset, "on the walk", 300.0) is None

    def test_single_field_perturbation_always_misses(self):
        entry = self.entry()
        log = make_log(entry)
        base = (Pid("claimed"), 5000.0, "on the walk")
        assert find_matching_contact(log, *base, 300.0)
        assert find_matching_contact(log, Pid("claimee"), 5000.0, "on the walk", 300.0) is None
        assert find_matching_contact(log, Pid("claimed"), 5601.0, "on the walk", 300.0) is None
        assert find_matching_contact(log, Pid("claimed"), 5000.0, "on the walk ", 300.0) is None

    @pytest.mark.parametrize("tolerance", [-1.0, -0.5, math.nan, math.inf, -math.inf])
    def test_bad_tolerance_refused(self, tolerance):
        # refused before the lookup, whether or not the log holds a match
        for log in (make_log(self.entry()), ContactLog()):
            with pytest.raises(ValueError, match="tolerance"):
                find_matching_contact(log, Pid("claimed"), 5000.0, "on the walk", tolerance)

    def test_zero_tolerance_needs_exact_time(self):
        log = make_log(self.entry())
        assert find_matching_contact(log, Pid("claimed"), 5000.0, "on the walk", 0.0)
        assert find_matching_contact(log, Pid("claimed"), 5000.5, "on the walk", 0.0) is None


def scan_for_match(log, pid, echoed_time, echoed_location, tolerance):
    """The linear scan the peer index replaced: the oracle for lookups."""
    for entry in log.entries:
        if (
            entry.peer_record.pid == pid
            and entry.own_record.local_location == echoed_location
            and abs(entry.own_record.local_time - echoed_time) <= tolerance
        ):
            return entry
    return None


PEERS = ["p0", "p1", "p2", "p3"]
LOCATIONS = ["gym", "walk"]
ops = st.one_of(
    # append: recorded_at advances by 0-3 days, so equal timestamps occur
    st.tuples(
        st.just("append"), st.integers(0, 3), st.sampled_from(PEERS),
        st.sampled_from(LOCATIONS), st.integers(0, 4),
    ),
    # prune at a time up to 30 days past the last append
    st.tuples(st.just("prune"), st.integers(0, 30)),
    st.tuples(
        st.just("lookup"), st.sampled_from(PEERS + ["absent"]),
        st.sampled_from(LOCATIONS), st.integers(0, 4), st.sampled_from([0.0, 300.0, 1e9]),
    ),
)


class TestPeerIndex:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(ops, max_size=60))
    def test_index_matches_scan_after_every_step(self, steps):
        log = ContactLog()
        expected = []  # what the log must hold, kept by brute force
        clock = 0.0
        for op in steps:
            if op[0] == "append":
                _, days, peer, loc, slot = op
                clock += days * DAY
                entry = make_entry(
                    peer_pid=peer, own_loc=loc, t=slot * 200.0, recorded_at=clock
                )
                append_entry(log, entry)
                expected.append(entry)
            elif op[0] == "prune":
                now = clock + op[1] * DAY
                prune(log, now)
                expected = [e for e in expected if e.recorded_at >= now - 21 * DAY]
            else:
                _, peer, loc, slot, tolerance = op
                args = (Pid(peer), slot * 200.0 + 100.0, loc, tolerance)
                assert find_matching_contact(log, *args) is scan_for_match(log, *args)
            assert log.entries == expected
            assert log.by_peer == ContactLog(list(log.entries)).by_peer

    def test_first_match_in_log_order(self):
        first = make_entry(peer_pid="p", t=1000.0, recorded_at=1.0)
        second = make_entry(peer_pid="p", t=1000.0, recorded_at=2.0)
        log = make_log(first, make_entry(peer_pid="q", recorded_at=1.5), second)
        assert find_matching_contact(log, Pid("p"), 1000.0, "gym") is first
        prune(log, 2.0, retention_days=0)
        assert find_matching_contact(log, Pid("p"), 1000.0, "gym") is second
        assert list(log.by_peer) == [Pid("p")]

    def test_index_not_part_of_equality_or_repr(self):
        log = make_log(make_entry())
        assert log == ContactLog(list(log.entries))
        assert "by_peer" not in repr(log)

    def test_out_of_order_log_refused(self, tmp_path):
        newer, older = make_entry(recorded_at=2.0), make_entry(recorded_at=1.0)
        path = tmp_path / "log.txt"
        path.write_text(entry_to_line(newer) + "\n" + entry_to_line(older) + "\n")
        with pytest.raises(ValueError, match="entry at 1.0 older than 2.0"):
            parse_log(path.read_text())
        with pytest.raises(ValueError, match="entry at 1.0 older than 2.0"):
            load_log(str(path))
        with pytest.raises(ValueError, match="entry at 1.0 older than 2.0"):
            ContactLog([newer, older])

    def test_nan_recorded_at_refused(self):
        with pytest.raises(ValueError):
            make_entry(recorded_at=float("nan"))
        with pytest.raises(ValueError):
            parse_entry_line(entry_to_line(make_entry()).replace("entry|1000|", "entry|nan|"))


class TestStatistics:
    def test_empty(self):
        s = exposure_statistics(ContactLog())
        assert (s.entry_count, s.distinct_peer_pids, s.location_counts) == (0, 0, {})

    def test_hand_count(self):
        log = make_log(
            make_entry(peer_pid="p1", own_loc="gym", recorded_at=1.0),
            make_entry(peer_pid="p2", own_loc="gym", recorded_at=2.0),
            make_entry(peer_pid="p1", own_loc="walk", recorded_at=3.0),
        )
        s = exposure_statistics(log)
        assert s.entry_count == 3
        assert s.distinct_peer_pids == 2
        assert s.location_counts == {"gym": 2, "walk": 1}

    def test_recount_after_prune(self):
        now = 30 * DAY
        log = make_log(
            make_entry(peer_pid="p1", own_loc="gym", recorded_at=now - 25 * DAY),
            make_entry(peer_pid="p2", own_loc="gym", recorded_at=now - 1 * DAY),
            make_entry(peer_pid="p1", own_loc="walk", recorded_at=now),
        )
        prune(log, now)
        assert exposure_statistics(log).location_counts == {"gym": 1, "walk": 1}


class TestSerialization:
    def test_line_round_trip_bit_exact(self):
        entry = make_entry(own_loc="on the walk, weird % label", t=1234.5)
        line = entry_to_line(entry)
        assert "\n" not in line
        again = entry_to_line(parse_entry_line(line))
        assert line == again

    def test_log_round_trip(self):
        log = make_log(
            make_entry(recorded_at=100.0, own_loc="gym"),
            make_entry(recorded_at=200.5, peer_pid="cccc", own_loc="walk"),
        )
        text = serialize_log(log)
        parsed = parse_log(text)
        assert serialize_log(parsed) == text
        assert parsed.entries == log.entries

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_entry_line("entry|nope")

    def test_file_round_trip_identity_default(self, tmp_path):
        log = make_log(make_entry())
        path = str(tmp_path / "log.txt")
        save_log(log, path)
        assert load_log(path).entries == log.entries

    def test_failed_save_leaves_old_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "log.txt")
        save_log(make_log(make_entry()), path)
        before = Path(path).read_bytes()

        def crash(src, dst):
            raise OSError("crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            save_log(make_log(), path)
        assert Path(path).read_bytes() == before
        assert os.listdir(tmp_path) == ["log.txt"]
