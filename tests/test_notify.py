import os
import random
from datetime import date

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from backtrack import wire
from backtrack.certificates import issue_certificate
from backtrack.identity import Pad, Pid
from backtrack.notify import (
    DeploymentMode,
    FileMailboxStore,
    MailboxStore,
    Notification,
    VerdictStatus,
    build_notifications,
    notification_to_line,
    parse_mailbox,
    verify_notification,
)

from conftest import make_entry, make_log

TEST_DAY = date(1970, 1, 2)  # sim-style timestamps are small epoch offsets
FROM_DAY = date(1970, 1, 1)


def certified(lab, pids):
    return issue_certificate(lab, pids, TEST_DAY, FROM_DAY)


class FileBoxReader(FileMailboxStore):
    """A file mailbox with its recipient, who reads the file and removes it."""

    def poll(self, pad):
        path = os.path.join(self.root, wire.quote(pad))
        if not os.path.exists(path):
            return []
        (notifications, _), _ = wire.load_lines(path, parse_mailbox)
        os.remove(path)
        return notifications


class TestBuild:
    def test_one_notification_per_entry(self, lab):
        log = make_log(
            make_entry(own_pid="mine", peer_pid="p1", peer_pad="p1@box", recorded_at=1.0),
            make_entry(own_pid="mine", peer_pid="p2", peer_pad="p2@box", recorded_at=2.0),
            make_entry(own_pid="mine", peer_pid="p3", peer_pad="p3@box", recorded_at=3.0),
        )
        cert = certified(lab, [Pid("mine")])
        out = build_notifications(log, [Pid("mine")], cert)
        assert [pad for pad, _ in out] == ["p1@box", "p2@box", "p3@box"]
        assert all(n.sender_pid == Pid("mine") for _, n in out)
        assert all(n.certificate is cert for _, n in out)

    def test_echoes_peer_announced_time_and_location(self, lab):
        entry = make_entry(own_pid="mine", peer_pid="p1", t=5000.0, peer_loc="their-label")
        out = build_notifications(make_log(entry), [Pid("mine")])
        (_, n), = out
        assert n.echoed_time == entry.peer_record.local_time
        assert n.echoed_location == "their-label"

    def test_uncovered_pid(self, lab):
        log = make_log(make_entry(own_pid="mine", peer_pid="p1"))
        cert = certified(lab, [Pid("otherpid")])
        with pytest.raises(ValueError, match="not in certificate"):
            build_notifications(log, [Pid("mine")], cert)

    def test_empty_log(self):
        assert build_notifications(make_log(), [Pid("mine")]) == []

    def test_entries_under_undeclared_pid_skipped(self, lab):
        log = make_log(
            make_entry(own_pid="old", peer_pid="p1", recorded_at=1.0),
            make_entry(own_pid="mine", peer_pid="p2", recorded_at=2.0),
        )
        out = build_notifications(log, [Pid("mine")])
        assert len(out) == 1


class TestMailbox:
    @pytest.fixture(params=["memory", "file"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return MailboxStore()
        return FileBoxReader(str(tmp_path / "boxes"))

    def notification(self, t=1.0):
        return Notification(Pid("sender"), t, "loc")

    def test_deliver_then_poll(self, store):
        store.deliver(Pad("a@box"), self.notification())
        assert len(store.poll(Pad("a@box"))) == 1
        assert store.poll(Pad("a@box")) == []

    def test_order_preserved(self, store):
        store.deliver(Pad("a@box"), self.notification(1.0))
        store.deliver(Pad("a@box"), self.notification(2.0))
        got = store.poll(Pad("a@box"))
        assert [n.echoed_time for n in got] == [1.0, 2.0]

    def test_longest_pad(self, store):
        # each of its 85 bytes is written `%25` in the mailbox's file name
        pad = Pad("%" * 42 + "@" + "%" * 42)
        store.deliver(pad, self.notification())
        assert store.poll(pad) == [self.notification()]

    def test_poll_unknown_pad(self, store):
        assert store.poll(Pad("nobody@box")) == []

    def test_certificate_travels_with_notification(self, store, lab):
        cert = certified(lab, [Pid("sender")])
        store.deliver(Pad("a@box"), Notification(Pid("sender"), 1.0, "loc", cert))
        got = store.poll(Pad("a@box"))
        assert got[0].certificate == cert


class TestWireFormat:
    def test_round_trip_without_cert(self):
        n = Notification(Pid("abc"), 1234.5, "on the walk")
        assert parse_mailbox([notification_to_line(n)]) == ([n], 0)

    def test_round_trip_with_cert(self, lab):
        n = Notification(Pid("abc"), 1234.5, "on the walk", certified(lab, [Pid("abc")]))
        line = notification_to_line(n)
        assert "\n" not in line
        assert parse_mailbox([line]) == ([n], 0)

    def test_stream_of_mixed_messages(self, lab):
        n1 = Notification(Pid("a1"), 1.0, "x", certified(lab, [Pid("a1")]))
        n2 = Notification(Pid("a2"), 2.0, "y")
        lines = [notification_to_line(n1), notification_to_line(n2)]
        assert parse_mailbox(lines) == ([n1, n2], 0)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_mailbox(["notif|v2|x"])


class TestVerify:
    def valid_flow(self, lab):
        entry = make_entry(own_pid="victim", peer_pid="sick", t=5000.0,
                           own_loc="my-label", peer_loc="their-label")
        log = make_log(entry)
        cert = certified(lab, [Pid("sick")])
        n = Notification(
            sender_pid=Pid("sick"),
            echoed_time=entry.own_record.local_time,
            echoed_location=entry.own_record.local_location,
            certificate=cert,
        )
        return log, n, cert

    def test_genuine_flow_accepted(self, lab, directory):
        log, n, _ = self.valid_flow(lab)
        verdict = verify_notification(n, log, directory)
        assert verdict.status is VerdictStatus.ACCEPTED
        assert verdict.matched_entry is log.entries[0]

    def test_no_matching_contact(self, lab, directory):
        log, n, cert = self.valid_flow(lab)
        forged = Notification(Pid("someoneelse"), n.echoed_time, n.echoed_location, cert)
        verdict = verify_notification(forged, log, directory)
        assert verdict.status is VerdictStatus.REJECTED_NO_MATCHING_CONTACT
        assert verdict.matched_entry is None

    def test_unknown_lab(self, lab):
        from backtrack.certificates import LabDirectory

        log, n, _ = self.valid_flow(lab)
        verdict = verify_notification(n, log, LabDirectory())
        assert verdict.status is VerdictStatus.REJECTED_UNKNOWN_LAB

    def test_bad_signature(self, lab, directory):
        from dataclasses import replace

        log, n, cert = self.valid_flow(lab)
        tampered_cert = replace(cert, test_date=date(1970, 1, 3))
        verdict = verify_notification(replace(n, certificate=tampered_cert), log, directory)
        assert verdict.status is VerdictStatus.REJECTED_BAD_SIGNATURE

    def test_pid_swap_rejected_even_with_matching_contact(self, lab, directory):
        # attacker contacted the victim, copies a notification and swaps in
        # their own PID: the contact matches but the certificate does not cover it
        entry = make_entry(own_pid="victim", peer_pid="attacker", t=5000.0)
        log = make_log(entry)
        cert = certified(lab, [Pid("sick")])
        forged = Notification(
            Pid("attacker"), entry.own_record.local_time,
            entry.own_record.local_location, cert,
        )
        verdict = verify_notification(forged, log, directory)
        assert verdict.status is VerdictStatus.REJECTED_PID_NOT_IN_CERTIFICATE

    def test_contact_outside_infectious_window(self, lab, directory):
        entry = make_entry(own_pid="victim", peer_pid="sick", t=40 * 86400.0)
        log = make_log(entry)
        cert = certified(lab, [Pid("sick")])  # window is days 0-1 only
        n = Notification(Pid("sick"), entry.own_record.local_time,
                         entry.own_record.local_location, cert)
        verdict = verify_notification(n, log, directory)
        assert verdict.status is VerdictStatus.REJECTED_PID_NOT_IN_CERTIFICATE

    def test_certificate_optional_mode(self, lab, directory):
        log, n, _ = self.valid_flow(lab)
        bare = Notification(n.sender_pid, n.echoed_time, n.echoed_location)
        verdict = verify_notification(
            bare, log, directory, mode=DeploymentMode.CERTIFICATE_OPTIONAL
        )
        assert verdict.status is VerdictStatus.ACCEPTED_UNCERTIFIED
        assert verdict.matched_entry is not None

    def test_certificate_required_rejects_bare(self, lab, directory):
        log, n, _ = self.valid_flow(lab)
        bare = Notification(n.sender_pid, n.echoed_time, n.echoed_location)
        verdict = verify_notification(bare, log, directory)
        assert verdict.status is VerdictStatus.REJECTED_NO_CERTIFICATE
        assert not verdict.accepted

    def test_optional_mode_never_upgrades_failed_match(self, lab, directory):
        log, n, _ = self.valid_flow(lab)
        forged = Notification(Pid("stranger"), n.echoed_time, n.echoed_location)
        verdict = verify_notification(
            forged, log, directory, mode=DeploymentMode.CERTIFICATE_OPTIONAL
        )
        assert verdict.status is VerdictStatus.REJECTED_NO_MATCHING_CONTACT

    # the lab/directory fixtures are deterministic constants, safe to reuse
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        field=st.sampled_from(["pid", "time", "location"]),
        jitter=st.floats(min_value=301.0, max_value=5000.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_fake_claim_resistance(self, field, jitter, seed, lab, directory):
        log, n, cert = self.valid_flow(lab)
        rng = random.Random(seed)
        if field == "pid":
            perturbed = Notification(Pid(f"{rng.getrandbits(128):032x}"),
                                     n.echoed_time, n.echoed_location, cert)
        elif field == "time":
            sign = rng.choice((-1, 1))
            perturbed = Notification(n.sender_pid, n.echoed_time + sign * jitter,
                                     n.echoed_location, cert)
        else:
            perturbed = Notification(n.sender_pid, n.echoed_time,
                                     n.echoed_location + "x", cert)
        assert not verify_notification(perturbed, log, directory).accepted
