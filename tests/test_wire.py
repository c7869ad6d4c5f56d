"""Appended files: whole lines under a lock, a torn last line skipped on read
and cut by the next append, for the registry state file and the mailboxes."""

import fcntl
import os
import re
import threading
from datetime import date

import pytest

from backtrack import wire
from backtrack.certificates import certificate_to_line, issue_certificate
from backtrack.identity import Pad, Pid
from backtrack.notify import FileMailboxStore, Notification, notification_to_line, parse_mailbox
from backtrack.registry import RegistryService, load_repository

PAD = Pad("victim@boxes")


def certified(lab, pid):
    return issue_certificate(lab, [Pid(pid)], date(2020, 4, 1), date(2020, 3, 25))


@pytest.mark.parametrize("data, lines, torn", [
    (b"", [], False),
    (b"a\n", ["a"], False),
    (b"a\n\nb\n", ["a", "", "b"], False),
    (b"a\nb", ["a"], True),
    (b"b", [], True),
    # a torn line is left out before it is decoded: a cut can split a character
    (b"a\n\xc3", ["a"], True),
    (b"a\r\nb\r", ["a\r"], True),
])
def test_load_lines(tmp_path, data, lines, torn):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    assert wire.load_lines(str(path), list) == (lines, torn)


def test_load_lines_names_the_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\n\xc3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
        wire.load_lines(str(path), list)


class TestAppendLines:
    def test_creates_then_appends(self, tmp_path):
        path = tmp_path / "f.txt"
        wire.append_lines(str(path), "a\n")
        wire.append_lines(str(path), "b\nc\n")
        assert path.read_bytes() == b"a\nb\nc\n"

    @pytest.mark.parametrize("torn, kept", [(b"a\nb", b"a\n"), (b"ab", b"")])
    def test_cuts_a_torn_last_line_first(self, tmp_path, torn, kept):
        path = tmp_path / "f.txt"
        path.write_bytes(torn)
        wire.append_lines(str(path), "c\n")
        assert path.read_bytes() == kept + b"c\n"


def state_file(tmp_path, lab, directory):
    """The registry state file, appended by an INGEST to a service loaded from it."""
    path = str(tmp_path / "state.txt")

    def append(pid):
        service = RegistryService(load_repository(path), directory, path)
        request = f"INGEST {certificate_to_line(certified(lab, pid))}"
        assert service.handle_request([request]) == "OK"

    def read():
        return sorted(load_repository(path).entries)

    return path, append, read


def mailbox(tmp_path, lab, directory):
    """A mailbox file, appended by a delivery of a certified notification."""
    store = FileMailboxStore(str(tmp_path / "boxes"))
    path = os.path.join(store.root, wire.quote(PAD))

    def append(pid):
        store.deliver(PAD, Notification(Pid(pid), 1000.0, "gym", certified(lab, pid)))

    def read():
        (notifications, copies), _ = wire.load_lines(path, parse_mailbox)
        assert copies == 0
        return sorted(n.sender_pid for n in notifications)

    return path, append, read


@pytest.mark.parametrize("appended_file", [state_file, mailbox])
def test_every_cut_of_a_record_then_one_more_append(tmp_path, lab, directory, appended_file):
    path, append, read = appended_file(tmp_path, lab, directory)
    append("P1")
    with open(path, "rb") as f:
        before = f.read()
    append("P2")
    with open(path, "rb") as f:
        record = f.read()[len(before):]
    for cut in range(len(record)):
        with open(path, "wb") as f:
            f.write(before + record[:cut])
        append("P3")
        assert read() == ["P1", "P3"], cut


def test_delivery_waits_for_a_half_written_record(tmp_path):
    store = FileMailboxStore(str(tmp_path / "boxes"))
    path = os.path.join(store.root, wire.quote(PAD))
    first, second = (Notification(Pid(pid), 1000.0, "gym") for pid in ("P1", "P2"))
    line = (notification_to_line(first) + "\n").encode("utf-8")
    with open(path, "ab") as writer:
        fcntl.flock(writer, fcntl.LOCK_EX)
        writer.write(line[:10])
        writer.flush()
        delivery = threading.Thread(target=store.deliver, args=(PAD, second))
        delivery.start()
        delivery.join(timeout=0.2)
        assert delivery.is_alive()  # held by the lock, whether or not it has reached it
        writer.write(line[10:])
        writer.flush()
    # closing the writer released its lock
    delivery.join(timeout=30)
    assert not delivery.is_alive()
    assert wire.load_lines(path, parse_mailbox) == (([first, second], 0), False)


def test_load_translates_no_line_end(tmp_path):
    # a `\r` stays in the text, where the format's parser refuses it
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\r\nb\rc\n")
    assert wire.load(str(path), lambda text: text) == "a\r\nb\rc\n"


@pytest.mark.parametrize("label", ["", "cell-3-17", "the gym", "café|bar", "a%b", "~_.-", "\r"])
def test_unquote_written_reads_what_quote_writes(label):
    assert wire.unquote_written(wire.quote(label)) == label


@pytest.mark.parametrize(
    "encoded", ["walk\r", "the gym", "%41", "the%2fgym", "%FF", "%", "caf%C3"]
)
def test_unquote_written_refuses_every_other_spelling(encoded):
    with pytest.raises(ValueError, match="not spelled as quote writes it"):
        wire.unquote_written(encoded)
