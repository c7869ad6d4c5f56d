import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import date

import pytest

from backtrack import registry
from backtrack.certificates import certificate_to_line, issue_certificate
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
    repository_to_lines,
    serve,
)


def cert_for(lab, pids, test_date=date(2020, 4, 1)):
    return issue_certificate(lab, pids, test_date, date(2020, 3, 25))


def ingest_line(lab, pids):
    return f"INGEST {certificate_to_line(cert_for(lab, pids))}"


@contextmanager
def running(directory, state):
    server = serve("127.0.0.1", 0, directory, state)
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

    def test_fresh_pid_found_among_parsed_str_keys(self):
        repo = parse_repository("notified|P1|lab-A|2020-04-05\n")
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
    def test_round_trip(self, lab, directory):
        repo = NotifiedPidRepository()
        ingest_certificate(repo, cert_for(lab, [Pid("P1"), Pid("P2")]), directory)
        text = repository_to_lines(repo)
        assert parse_repository(text).entries == repo.entries

    def test_replay_keeps_earliest(self):
        text = (
            "notified|P1|lab-A|2020-04-05\n"
            "notified|P1|lab-B|2020-03-30\n"
        )
        repo = parse_repository(text)
        assert repo.entries["P1"][1] == date(2020, 3, 30)

    def test_torn_final_line_skipped(self):
        repo = parse_repository("notified|a|lab|2020-03-01\nnotified|b|la")
        assert repo.entries == {"a": ("lab", date(2020, 3, 1))}

    def test_unterminated_whole_final_line_kept(self):
        repo = parse_repository("notified|a|lab|2020-03-01\nnotified|b|lab|2020-03-02")
        assert set(repo.entries) == {"a", "b"}

    @pytest.mark.parametrize("text", [
        "notified|a|lab|2020-03-01\nnotified|b|la\n",  # complete, so not torn
        "notified|b|la\nnotified|a|lab|2020-03-01",  # not the final line
        "notified|a|lab|2020-03-01\nnotified|b|lab|2020-13-01\n",
    ])
    def test_other_malformed_lines_raise(self, text):
        with pytest.raises(ValueError):
            parse_repository(text)

    def test_missing_file_is_empty_repo(self, tmp_path):
        repo = load_repository(str(tmp_path / "absent.txt"))
        assert repo.entries == {}


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
        from backtrack import wire

        svc = self.service(lab, directory)
        svc.handle_request([ingest_line(lab, [Pid("sickpid")])])
        c = generate_trusted_pid("Ada Lovelace", "tea at noon")
        name, phrase = wire.quote(c.personal_data), wire.quote(c.phrase)
        assert svc.handle_request([f"CLAIM sickpid {c.pid.value} {name} {phrase}"]) == "CONFIRMED"
        assert svc.handle_request([f"CLAIM healthy {c.pid.value} {name} {phrase}"]) == "UNKNOWN"
        assert svc.handle_request([f"CLAIM sickpid {c.pid.value} {name} wrong"]) == "OWNERSHIP-FAILED"

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

    def test_non_utf8_request_answered_and_connection_kept(self, lab, directory, tmp_path):
        with running(directory, str(tmp_path / "state.txt")) as address:
            with socket.create_connection(address, timeout=10) as sock:
                replies = sock.makefile("rb")
                sock.sendall(b"QUERY \xff\xfe\n")
                assert replies.readline() == b"ERROR malformed request\n"
                sock.sendall(b"QUERY P1\n")
                assert replies.readline() == b"NO\n"

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

    def test_two_weeks_of_longest_pids_fit_one_request(self, lab, directory, tmp_path):
        pids = [Pid(f"{i:064d}") for i in range(2016)]
        assert len(ingest_line(lab, pids)) < MAX_REQUEST_BYTES
        with running(directory, str(tmp_path / "state.txt")) as (host, port):
            assert client_ingest(host, port, cert_for(lab, pids)) == "OK"
            assert client_query(host, port, pids[-1]) == "YES"
