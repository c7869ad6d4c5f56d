import os
import re
import socket
import struct
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from backtrack import registry, wire
from backtrack.certificates import (
    LabDirectory,
    LabIdentity,
    certificate_to_line,
    issue_certificate,
)
from backtrack.identity import Pid, generate_trusted_pid
from backtrack.registry import (
    MAX_REQUEST_BYTES,
    ClaimVerdict,
    NotifiedPidRepository,
    RegistryService,
    check_test_priority_claim,
    client_claim,
    client_ingest,
    client_query,
    ingest_certificate,
    is_notified_pid,
    load_repository,
    parse_repository,
    serve,
)


def cert_for(lab, pids, test_date=date(2020, 4, 1)):
    return issue_certificate(lab, pids, test_date, date(2020, 3, 25))


def ingest_line(lab, pids):
    return f"INGEST {certificate_to_line(cert_for(lab, pids))}"


def load_state(tmp_path, text):
    """Write text as a state file and load it."""
    path = tmp_path / "state.txt"
    path.write_bytes(text.encode("utf-8"))
    return load_repository(str(path))


@contextmanager
def running(directory, state, port=0):
    server = serve("127.0.0.1", port, directory, state)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()


class TestIngest:
    def test_verified_cert_pids_queryable(self, lab, directory):
        repo = NotifiedPidRepository()
        ingest_certificate(repo, cert_for(lab, [Pid("P1"), Pid("P2")]), directory)
        assert is_notified_pid(repo, Pid("P1"))
        assert is_notified_pid(repo, Pid("P2"))

    def test_tampered_cert_rejected_repo_unchanged(self, lab, directory):
        repo = NotifiedPidRepository()
        cert = cert_for(lab, [Pid("P1")])
        tampered = replace(cert, pids=(Pid("P9"),))
        with pytest.raises(ValueError, match="did not verify against the directory"):
            ingest_certificate(repo, tampered, directory)
        assert repo.entries == {}

    def test_earliest_test_date_wins_both_orders(self, lab, directory):
        early = cert_for(lab, [Pid("P1")], test_date=date(2020, 3, 30))
        late = cert_for(lab, [Pid("P1")], test_date=date(2020, 4, 5))
        for order in ((early, late), (late, early)):
            repo = NotifiedPidRepository()
            for c in order:
                ingest_certificate(repo, c, directory)
            assert repo.entries["P1"][1] == date(2020, 3, 30)

    def test_idempotent_per_certificate(self, lab, directory):
        cert = cert_for(lab, [Pid("P1"), Pid("P2")])
        repo = NotifiedPidRepository()
        ingest_certificate(repo, cert, directory)
        snapshot = dict(repo.entries)
        ingest_certificate(repo, cert, directory)
        assert repo.entries == snapshot


class TestMembership:
    def test_never_ingested_false(self):
        assert not is_notified_pid(NotifiedPidRepository(), Pid("nope"))

    def test_one_character_difference(self, lab, directory):
        repo = NotifiedPidRepository()
        ingest_certificate(repo, cert_for(lab, [Pid("abcd")]), directory)
        assert not is_notified_pid(repo, Pid("abce"))

    def test_fresh_pid_found_among_parsed_str_keys(self, tmp_path):
        repo = load_state(tmp_path, "notified|P1|lab-A|2020-04-05\n")
        assert all(type(k) is str for k in repo.entries)
        assert is_notified_pid(repo, Pid("P1"))
        assert not is_notified_pid(repo, Pid("P2"))


class TestClaims:
    def setup_repo(self, lab, directory):
        repo = NotifiedPidRepository()
        ingest_certificate(repo, cert_for(lab, [Pid("sickpid")]), directory)
        return repo

    def test_confirmed(self, lab, directory):
        repo = self.setup_repo(lab, directory)
        c = generate_trusted_pid("Ada Lovelace", "tea at noon")
        verdict = check_test_priority_claim(repo, Pid("sickpid"), c.personal_data, c.phrase, c.pid)
        assert verdict is ClaimVerdict.CONTACT_CONFIRMED

    def test_unknown_contact_pid(self, lab, directory):
        repo = self.setup_repo(lab, directory)
        c = generate_trusted_pid("Ada Lovelace", "tea at noon")
        verdict = check_test_priority_claim(repo, Pid("healthy"), c.personal_data, c.phrase, c.pid)
        assert verdict is ClaimVerdict.CONTACT_PID_UNKNOWN

    def test_wrong_phrase(self, lab, directory):
        repo = self.setup_repo(lab, directory)
        c = generate_trusted_pid("Ada Lovelace", "tea at noon")
        verdict = check_test_priority_claim(repo, Pid("sickpid"), c.personal_data, "wrong", c.pid)
        assert verdict is ClaimVerdict.OWNERSHIP_FAILED


class TestPersistence:
    def test_round_trip(self, lab, directory, tmp_path):
        path = str(tmp_path / "state.txt")
        svc = RegistryService(NotifiedPidRepository(), directory, path)
        assert svc.handle_request([ingest_line(lab, [Pid("P1"), Pid("P2")])]) == "OK"
        # a later and an earlier test date for PIDs already held
        for pids, day in (([Pid("P1")], date(2020, 4, 5)), ([Pid("P2")], date(2020, 3, 30))):
            cert = certificate_to_line(cert_for(lab, pids, test_date=day))
            assert svc.handle_request([f"INGEST {cert}"]) == "OK"
        assert load_repository(path).entries == svc.repo.entries

    def test_replay_keeps_earliest(self, tmp_path):
        text = (
            "notified|P1|lab-A|2020-04-05\n"
            "notified|P1|lab-B|2020-03-30\n"
        )
        repo = load_state(tmp_path, text)
        assert repo.entries["P1"][1] == date(2020, 3, 30)

    def test_torn_final_line_skipped(self, tmp_path):
        repo = load_state(tmp_path, "notified|a|lab|2020-03-01\nnotified|b|la")
        assert repo.entries == {"a": ("lab", date(2020, 3, 1))}

    def test_unterminated_whole_final_line_skipped(self, tmp_path):
        # OK is sent only after the append returns, so a line without its
        # newline was never acknowledged, even when it parses
        repo = load_state(tmp_path, "notified|a|lab|2020-03-01\nnotified|b|lab|2020-03-02")
        assert set(repo.entries) == {"a"}

    @pytest.mark.parametrize("text", [
        "notified|a|lab|2020-03-01\nnotified|b|la\n",  # complete, so not torn
        "notified|b|la\nnotified|a|lab|2020-03-01",  # not the final line
        "notified|a|lab|2020-03-01\nnotified|b|lab|2020-13-01\n",
        # a line ends at `\n` alone, as `wire.append_lines` cuts a torn one
        "notified|a|lab|2020-03-01\r\n",
        "notified|a|lab|2020-03-01\rnotified|b|lab|2020-03-01\n",
        # a line's shared `<lab>|<date>` is checked whole on a repeat too
        "notified|a|lab|2020-03-01\nnotified|b|c|lab|2020-03-01\n",
        "notified|a|lab|2020-03-01\nnotice|b|lab|2020-03-01\n",
        # a blank line is no record
        "notified|a|lab|2020-03-01\n\nnotified|b|lab|2020-03-01\n",
        "\n",
    ])
    def test_other_malformed_lines_raise(self, text, tmp_path):
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}"):
            load_state(tmp_path, text)

    @pytest.mark.parametrize(
        "day", ["20200301", "2020-W10-1", "2020W101", "2020-3-1", " 2020-03-01"]
    )
    def test_only_the_canonical_date_spelling_loads(self, day, tmp_path):
        # Python 3.11 and later read the first three as 2020-03-01 and 3.10
        # refuses them: a state line has one spelling on every version
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}"):
            load_state(tmp_path, f"notified|a|lab|{day}\n")

    @pytest.mark.parametrize("pid, lab_id", [
        ("", "lab"), ("a b", "lab"), ("a,b", "lab"), ("p" * 65, "lab"), ("p\x00", "lab"),
        ("a", ""), ("a", "x y"), ("a", "x,y"),
    ])
    def test_ids_follow_the_token_rule(self, pid, lab_id, tmp_path):
        # ids an ingest could never write: a PID after a line that already
        # holds its `<lab>|<date>` pair is checked too
        text = f"notified|ok|lab|2020-03-01\nnotified|{pid}|{lab_id}|2020-03-01\n"
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}"):
            load_state(tmp_path, text)

    def test_every_cut_of_the_last_two_lines(self, tmp_path):
        lines = [
            "notified|P1|lab-A|2020-03-01\n",
            "notified|pid-\u00e9\u20ac|lab-A|2020-03-12\n",  # a cut can split a character
            "notified|P3|lab-B|2020-03-01\n",
        ]
        data = "".join(lines).encode("utf-8")
        path = tmp_path / "state.txt"

        def prefix(n):
            return parse_repository(line[:-1] for line in lines[:n]).entries

        for cut in range(len(lines[0].encode("utf-8")), len(data) + 1):
            head = data[:cut]
            whole = head.count(b"\n")
            path.write_bytes(head)
            assert load_repository(str(path)).entries == prefix(whole), cut
            # the cut line given its newline is a complete line: a whole
            # record loads, anything shorter, a blank line included, is malformed
            torn = head[head.rfind(b"\n") + 1:]
            path.write_bytes(head + b"\n")
            if torn in data.splitlines():
                assert load_repository(str(path)).entries == prefix(whole + bool(torn)), cut
            else:
                with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                    load_repository(str(path))

    def test_missing_file_is_empty_repo(self, tmp_path):
        repo = load_repository(str(tmp_path / "absent.txt"))
        assert repo.entries == {}


LABS = [LabIdentity.from_seed(name, bytes([i]) * 32) for i, name in enumerate(("lab-A", "lab-B"))]
LAB_DIRECTORY = LabDirectory()
for _lab in LABS:
    LAB_DIRECTORY.add_lab(_lab)

# certificates as (lab index, test date, PIDs), with few labs, days and PIDs
# so that pairs and PIDs repeat
CERTIFICATES = st.lists(
    st.tuples(
        st.integers(0, len(LABS) - 1),
        st.dates(date(2020, 3, 1), date(2020, 3, 4)),
        st.lists(st.sampled_from([f"P{i}" for i in range(8)]), min_size=1, max_size=4, unique=True),
    ),
    max_size=8,
)


class TestSharedValues:
    """Every PID of one (lab, test date) points at one shared value, after a
    load, after ingests, and after ingests into a loaded repository."""

    @staticmethod
    def check(repo, certs):
        expected = {}
        for i, day, pids in certs:
            for pid in pids:
                if pid not in expected or day < expected[pid][1]:
                    expected[pid] = (LABS[i].lab_id, day)
        assert repo.entries == expected
        assert len({id(v) for v in repo.entries.values()}) == len(set(repo.entries.values()))

    @settings(max_examples=60, deadline=None)
    @given(loaded=CERTIFICATES, ingested=CERTIFICATES)
    def test_one_value_per_lab_and_date(self, loaded, ingested):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "state.txt")
            with open(path, "w") as f:
                f.writelines(
                    f"notified|{pid}|{LABS[i].lab_id}|{day.isoformat()}\n"
                    for i, day, pids in loaded
                    for pid in pids
                )
            repo = load_repository(path)
        self.check(repo, loaded)
        fresh = NotifiedPidRepository()
        for i, day, pids in ingested:
            cert = issue_certificate(LABS[i], [Pid(p) for p in pids], day, date(2020, 2, 25))
            ingest_certificate(fresh, cert, LAB_DIRECTORY)
            ingest_certificate(repo, cert, LAB_DIRECTORY)
        self.check(fresh, ingested)
        self.check(repo, loaded + ingested)


class TestWireProtocol:
    def service(self, lab, directory, persist=None):
        return RegistryService(NotifiedPidRepository(), directory, persist)

    def test_ingest_then_query(self, lab, directory):
        svc = self.service(lab, directory)
        assert svc.handle_request([ingest_line(lab, [Pid("P1")])]) == "OK"
        assert svc.handle_request(["QUERY P1"]) == "YES"
        assert svc.handle_request(["QUERY P2"]) == "NO"

    def test_ingest_garbage_rejected(self, lab, directory):
        svc = self.service(lab, directory)
        assert svc.handle_request(["INGEST not-a-cert"]) == "REJECTED"

    def test_claim_responses(self, lab, directory):
        svc = self.service(lab, directory)
        svc.handle_request([ingest_line(lab, [Pid("sickpid")])])
        c = generate_trusted_pid("Ada Lovelace", "tea at noon")
        name, phrase = wire.quote(c.personal_data), wire.quote(c.phrase)
        assert svc.handle_request([f"CLAIM sickpid {c.pid} {name} {phrase}"]) == "CONFIRMED"
        assert svc.handle_request([f"CLAIM healthy {c.pid} {name} {phrase}"]) == "UNKNOWN"
        assert svc.handle_request([f"CLAIM sickpid {c.pid} {name} wrong"]) == "OWNERSHIP-FAILED"

    def test_malformed_request(self, lab, directory):
        svc = self.service(lab, directory)
        for lines in (["HELLO"], [""], [], ["QUERY P1", "QUERY P1"], ["QUERY P1 P2"]):
            assert svc.handle_request(lines) == "ERROR malformed request", lines

    def test_persistence_appended_on_ingest(self, lab, directory, tmp_path):
        path = str(tmp_path / "state.txt")
        svc = self.service(lab, directory, persist=path)
        svc.handle_request([ingest_line(lab, [Pid("P1")])])
        replayed = load_repository(path)
        assert is_notified_pid(replayed, Pid("P1"))


class TestServer:
    def test_end_to_end_over_tcp(self, lab, directory, tmp_path):
        server = serve("127.0.0.1", 0, directory, str(tmp_path / "state.txt"))
        host, port = server.server_address
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            cert = cert_for(lab, [Pid("sickpid")])
            assert client_ingest(host, port, cert) == "OK"
            assert client_query(host, port, Pid("sickpid")) == "YES"
            assert client_query(host, port, Pid("other")) == "NO"
            c = generate_trusted_pid("Ada Lovelace", "tea at noon")
            assert client_claim(host, port, Pid("sickpid"), c.pid,
                                c.personal_data, c.phrase) == "CONFIRMED"
            assert client_claim(host, port, Pid("sickpid"), c.pid,
                                c.personal_data, "wrong") == "OWNERSHIP-FAILED"
        finally:
            server.shutdown()
            server.server_close()

    def test_restart_replays_state(self, lab, directory, tmp_path):
        state = str(tmp_path / "state.txt")
        server = serve("127.0.0.1", 0, directory, state)
        host, port = server.server_address
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client_ingest(host, port, cert_for(lab, [Pid("P1")]))
        server.shutdown()
        server.server_close()

        server2 = serve("127.0.0.1", 0, directory, state)
        host2, port2 = server2.server_address
        thread2 = threading.Thread(target=server2.serve_forever, daemon=True)
        thread2.start()
        try:
            assert client_query(host2, port2, Pid("P1")) == "YES"
        finally:
            server2.shutdown()
            server2.server_close()

    def test_restart_after_torn_append(self, lab, directory, tmp_path):
        state = tmp_path / "state.txt"
        state.write_text("notified|P1|lab-A|2020-04-01\nnotified|P2|la")
        with running(directory, str(state)) as (host, port):
            assert client_query(host, port, Pid("P1")) == "YES"
            assert client_ingest(host, port, cert_for(lab, [Pid("P3")])) == "OK"
        with running(directory, str(state)) as (host, port):
            assert client_query(host, port, Pid("P3")) == "YES"
            assert client_query(host, port, Pid("P2")) == "NO"

    def test_empty_state_file_serves_and_appends(self, lab, directory, tmp_path):
        state = tmp_path / "state.txt"
        state.write_text("")
        with running(directory, str(state)) as (host, port):
            assert state.read_text() == ""
            assert client_ingest(host, port, cert_for(lab, [Pid("P1")])) == "OK"
        assert state.read_text() == "notified|P1|lab-A|2020-04-01\n"

    def test_failed_append_answers_error_and_records_nothing(
        self, lab, directory, tmp_path, capsys
    ):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        with running(directory, str(state_dir / "state.txt")) as (host, port):
            state_dir.rmdir()
            with pytest.raises(OSError, match="ERROR state not saved"):
                client_ingest(host, port, cert_for(lab, [Pid("P1")]))
            assert client_query(host, port, Pid("P1")) == "NO"
            state_dir.mkdir()
            assert client_ingest(host, port, cert_for(lab, [Pid("P1")])) == "OK"
            assert client_query(host, port, Pid("P1")) == "YES"
        assert capsys.readouterr().err == ""

    def test_non_utf8_request_answered_and_connection_kept(self, lab, directory, tmp_path):
        with running(directory, str(tmp_path / "state.txt")) as address:
            with socket.create_connection(address, timeout=10) as sock:
                replies = sock.makefile("rb")
                sock.sendall(b"QUERY \xff\xfe\n")
                assert replies.readline() == b"ERROR malformed request\n"
                sock.sendall(b"QUERY P1\n")
                assert replies.readline() == b"NO\n"

    def test_pipelined_requests_answered_in_order(self, lab, directory, tmp_path):
        with running(directory, str(tmp_path / "state.txt")) as address:
            with socket.create_connection(address, timeout=10) as sock:
                replies = sock.makefile("rb")
                sock.sendall(f"{ingest_line(lab, [Pid('P1')])}\nQUERY P1\nQUERY P2\n".encode())
                assert [replies.readline() for _ in range(3)] == [b"OK\n", b"YES\n", b"NO\n"]

    def test_pipelined_bursts_are_answered_without_a_stall(self, directory, tmp_path):
        # each reply is its own small send: with Nagle's algorithm on, every
        # reply after a burst's first waits for the client's delayed ACK,
        # about 40 ms a burst, and 20 bursts take about 0.8 s
        with running(directory, str(tmp_path / "state.txt")) as address:
            with socket.create_connection(address, timeout=10) as sock:
                replies = sock.makefile("rb")
                start = time.perf_counter()
                for _ in range(20):
                    sock.sendall(b"QUERY P1\n" * 10)
                    assert [replies.readline() for _ in range(10)] == [b"NO\n"] * 10
                elapsed = time.perf_counter() - start
        assert elapsed < 0.2

    def test_request_sent_one_byte_at_a_time(self, directory, tmp_path):
        with running(directory, str(tmp_path / "state.txt")) as address:
            with socket.create_connection(address, timeout=10) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for byte in b"QUERY P1\n":
                    sock.send(bytes([byte]))
                assert sock.makefile("rb").readline() == b"NO\n"

    def test_unterminated_last_request_answered(self, directory, tmp_path):
        with running(directory, str(tmp_path / "state.txt")) as address:
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(b"QUERY P1\nQUERY P2")
                sock.shutdown(socket.SHUT_WR)
                assert sock.makefile("rb").read() == b"NO\nNO\n"

    def test_request_line_cap(self, directory, tmp_path):
        # a line of MAX_REQUEST_BYTES, newline included, is served; a line one
        # byte longer is refused and the connection closed
        with running(directory, str(tmp_path / "state.txt")) as address:
            with socket.create_connection(address, timeout=10) as sock:
                replies = sock.makefile("rb")
                sock.sendall(b"QUERY " + b"x" * (MAX_REQUEST_BYTES - 7) + b"\n")
                assert replies.readline() == b"NO\n"
                sock.sendall(b"y" * (MAX_REQUEST_BYTES + 1))
                assert replies.readline() == b"ERROR request too long\n"
                assert replies.readline() == b""

    def test_endless_line_does_not_stop_other_clients(self, directory, tmp_path):
        with running(directory, str(tmp_path / "state.txt")) as address:
            with socket.create_connection(address, timeout=10) as flooder:

                def flood():
                    try:
                        flooder.sendall(b"x" * 10_000_000)  # no newline
                    except OSError:
                        pass  # the server hung up mid-send

                sender = threading.Thread(target=flood, daemon=True)
                sender.start()
                assert client_query(*address, Pid("P1")) == "NO"
                sender.join(timeout=10)
                assert not sender.is_alive()
                try:
                    reply = flooder.makefile("rb").readline()
                except ConnectionResetError:
                    reply = b""  # the unread rest of the flood reset the connection
                assert reply in (b"ERROR request too long\n", b"")
            assert client_query(*address, Pid("P1")) == "NO"

    def test_silent_client_is_hung_up_on(self, directory, tmp_path, monkeypatch):
        monkeypatch.setattr(registry, "IDLE_TIMEOUT_S", 1.0)
        with running(directory, str(tmp_path / "state.txt")) as address:
            start = time.monotonic()
            with socket.create_connection(address, timeout=10) as silent:
                assert client_query(*address, Pid("P1")) == "NO"
                assert silent.makefile("rb").readline() == b""
                assert time.monotonic() - start >= 0.9

    def test_client_reset_is_not_a_server_error(self, directory, tmp_path, monkeypatch, capfd):
        # one worker, so the last query is served only once both resets are
        monkeypatch.setattr(registry, "POOL_SIZE", 1)
        with running(directory, str(tmp_path / "state.txt")) as address:
            for lines in (1, 20_000):  # a reset after one line, then among unread lines
                with socket.create_connection(address, timeout=10) as sock:
                    sock.sendall(b"QUERY P1\n" * lines)
                    # a zero linger makes close() reset the connection
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            assert client_query(*address, Pid("P1")) == "NO"
        assert capfd.readouterr().err == ""

    def test_other_failure_is_reported_and_the_worker_goes_on(
        self, directory, tmp_path, monkeypatch, capfd
    ):
        monkeypatch.setattr(registry, "POOL_SIZE", 1)
        handle_request = RegistryService.handle_request

        def failing(service, lines):
            if lines == ["QUERY boom"]:
                raise RuntimeError("boom")
            return handle_request(service, lines)

        monkeypatch.setattr(RegistryService, "handle_request", failing)
        with running(directory, str(tmp_path / "state.txt")) as address:
            with pytest.raises(OSError, match="closed before a complete reply"):
                client_query(*address, Pid("boom"))
            assert client_query(*address, Pid("P1")) == "NO"
        assert "RuntimeError: boom" in capfd.readouterr().err

    def test_host_name_reaches_the_server(self, directory, tmp_path):
        with running(directory, str(tmp_path / "state.txt")) as (host, port):
            assert host == "127.0.0.1"
            assert client_query("localhost", port, Pid("P1")) == "NO"

    def test_two_weeks_of_longest_pids_fit_one_request(self, lab, directory, tmp_path):
        pids = [Pid(f"{i:064d}") for i in range(2016)]
        assert len(ingest_line(lab, pids)) < MAX_REQUEST_BYTES
        with running(directory, str(tmp_path / "state.txt")) as (host, port):
            assert client_ingest(host, port, cert_for(lab, pids)) == "OK"
            assert client_query(host, port, pids[-1]) == "YES"


@contextmanager
def replying(*segments):
    """The port of a one-shot server that reads a request line, sends the
    reply segments with a pause between them and hangs up."""

    def answer(listener):
        conn, _ = listener.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.makefile("rb").readline()
            try:
                for i, segment in enumerate(segments):
                    if i:
                        time.sleep(0.1)
                    conn.sendall(segment)
            except OSError:  # a client that read its bounded reply may hang up first
                pass

    with socket.socket() as listener:
        listener.settimeout(30)  # so that a client that never connects ends the test
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        thread = threading.Thread(target=answer, args=(listener,))
        thread.start()
        try:
            yield listener.getsockname()[1]
        finally:
            thread.join()


class TestClientFailures:
    """Every failed exchange raises OSError naming the registry's address."""

    @pytest.mark.parametrize("reply", [b"ERROR malformed request\n", b"ERROR state not saved\n"])
    def test_error_reply(self, reply):
        with replying(reply) as port:
            message = f"registry at 127.0.0.1:{port}: {reply.decode().rstrip()}"
            with pytest.raises(OSError, match=f"^{re.escape(message)}$"):
                client_query("127.0.0.1", port, Pid("P1"))

    @pytest.mark.parametrize(
        "reply, reason",
        [(b"", "closed before"), (b"YE", "closed before"), (b"Y" * 100 + b"\n", "longer than")],
        ids=["empty", "cut", "too-long"],
    )
    def test_reply_cut_short_or_too_long(self, reply, reason):
        with replying(reply) as port:
            with pytest.raises(OSError, match=f"^registry at 127.0.0.1:{port}: .*{reason}"):
                client_query("127.0.0.1", port, Pid("P1"))

    def test_reply_in_two_segments(self):
        with replying(b"YE", b"S\n") as port:
            assert client_query("127.0.0.1", port, Pid("P1")) == "YES"

    def test_no_connection(self):
        with socket.socket() as bound:
            bound.bind(("127.0.0.1", 0))  # bound but not listening: refused
            port = bound.getsockname()[1]
            with pytest.raises(OSError, match=f"^registry at 127.0.0.1:{port}: "):
                client_query("127.0.0.1", port, Pid("P1"))

    # the client speaks IPv4 only; a resolver refuses a label over 63 bytes
    # without sending a query
    @pytest.mark.parametrize("host", ["::1", "x" * 64 + ".invalid"], ids=["ipv6", "unresolvable"])
    def test_address_not_reached_over_ipv4(self, host):
        with pytest.raises(OSError, match=f"^registry at {re.escape(host)}:1: "):
            client_query(host, 1, Pid("P1"))

    def test_serve_that_cannot_start(self, directory, tmp_path):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            with pytest.raises(OSError, match=f"^registry at 127.0.0.1:{port}: "):
                serve("127.0.0.1", port, directory)
        # a state path that is a directory cannot be read
        with pytest.raises(OSError, match="^registry at 127.0.0.1:0: .*Is a directory"):
            serve("127.0.0.1", 0, directory, str(tmp_path))


class TestWorkerPool:
    def test_busy_pool_leaves_new_connections_waiting(self, directory, tmp_path, monkeypatch):
        monkeypatch.setattr(registry, "POOL_SIZE", 2)
        monkeypatch.setattr(registry, "IDLE_TIMEOUT_S", 1.0)
        accepted = []  # the connections a worker has taken up
        handle = registry._Handler.handle

        def counted_handle(handler):
            accepted.append(handler.request)
            handle(handler)

        monkeypatch.setattr(registry._Handler, "handle", counted_handle)
        with running(directory, str(tmp_path / "state.txt")) as address:
            with socket.create_connection(address, timeout=10) as silent1, \
                    socket.create_connection(address, timeout=10) as silent2, \
                    socket.create_connection(address, timeout=0.5) as third:
                third.sendall(b"QUERY P1\n")
                with pytest.raises(TimeoutError):
                    third.recv(16)  # both workers are held
                assert len(accepted) == 2  # the third waits in the backlog
                assert silent1.recv(16) == b""  # hung up on when idle too long
                third.settimeout(10)
                assert third.makefile("rb").readline() == b"NO\n"
                assert silent2.recv(16) == b""

    def test_many_clients_ingest_and_query_at_once(self, lab, directory, tmp_path):
        clients, rounds = 3 * registry.POOL_SIZE, 4
        certs = {
            (c, r): cert_for(lab, [Pid(f"c{c}r{r}a"), Pid(f"c{c}r{r}b")])
            for c in range(clients) for r in range(rounds)
        }
        state = str(tmp_path / "state.txt")
        before = set(threading.enumerate())
        wrong: list[str] = []
        acknowledged: list[Pid] = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            server = serve("127.0.0.1", 0, directory, state)
            address = server.server_address
            loop = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
            loop.start()
            try:

                def client(c):
                    for r in range(rounds):
                        cert = certs[c, r]
                        answers = (
                            client_query(*address, cert.pids[0]),
                            client_ingest(*address, cert),
                            client_query(*address, cert.pids[1]),
                        )
                        if answers != ("NO", "OK", "YES"):
                            wrong.append(f"client {c} round {r}: {answers}")
                        if answers[1] == "OK":
                            acknowledged.extend(cert.pids)

                threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
            finally:
                server.shutdown()
                server.server_close()
                loop.join(timeout=10)
        finally:
            sys.setswitchinterval(switch)
        assert wrong == []
        assert len(acknowledged) == 2 * clients * rounds
        persisted = load_repository(state)
        assert all(is_notified_pid(persisted, p) for p in acknowledged)
        assert set(threading.enumerate()) <= before
        with running(directory, state, port=address[1]) as again:
            assert client_query(*again, acknowledged[0]) == "YES"

    def test_close_with_every_worker_busy(self, directory, tmp_path, monkeypatch):
        # with the default idle timeout, shutdown() and server_close() must
        # not wait for an idle client or a connection left in the backlog
        monkeypatch.setattr(registry, "POOL_SIZE", 1)
        before = set(threading.enumerate())
        server = serve("127.0.0.1", 0, directory, str(tmp_path / "state.txt"))
        loop = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
        loop.start()
        with socket.create_connection(server.server_address, timeout=10) as idle, \
                socket.create_connection(server.server_address, timeout=10) as waiting:
            idle.sendall(b"QUERY P1\n")
            assert idle.recv(16) == b"NO\n"  # the one worker now holds it
            waiting.sendall(b"QUERY P1\n")
            start = time.monotonic()
            server.shutdown()
            server.server_close()
            loop.join(timeout=10)
            assert time.monotonic() - start < 2
            assert idle.recv(16) == b""
            try:
                assert waiting.recv(16) == b""
            except ConnectionResetError:
                pass  # dropped from the backlog when the listening socket closed
        assert not loop.is_alive()
        assert set(threading.enumerate()) <= before

    def test_bind_failure_raises_and_stops_the_pool(self, directory):
        before = set(threading.enumerate())
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            with pytest.raises(OSError):
                serve("127.0.0.1", holder.getsockname()[1], directory)
        assert not any(
            t.name.startswith("registry-worker") for t in set(threading.enumerate()) - before
        )

    def test_out_of_range_port_refused(self, directory, tmp_path):
        # the resolver would wrap port + 65536 onto the listening port
        with running(directory, str(tmp_path / "state.txt")) as (host, port):
            for bad in (port + 65536, -1):
                with pytest.raises(ValueError, match="outside 0-65535"):
                    client_query(host, bad, Pid("P1"))
        with pytest.raises(ValueError, match="outside 0-65535"):
            serve("127.0.0.1", 65536, directory)
