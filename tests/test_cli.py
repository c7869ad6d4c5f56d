import errno
import os
import select
import signal
import socket
import stat
import subprocess
import sys
import threading
import time
from datetime import date
from pathlib import Path

import pytest

import backtrack
from backtrack import bizlog, contactlog, registry, wire
from backtrack.certificates import (
    LabDirectory,
    LabIdentity,
    certificate_to_line,
    issue_certificate,
)
from backtrack.cli import main
from backtrack.identity import Pid, generate_trusted_pid
from backtrack.registry import serve

from conftest import make_entry, make_log
from test_bizlog import out_of_order_chain

DAY = 86400.0


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out
    return _run


def write(path, text):
    path.write_text(text)
    return str(path)


class TestPid:
    def test_random_deterministic(self, run):
        code1, out1 = run("pid", "random", "--seed", "7")
        code2, out2 = run("pid", "random", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.strip()) == 32

    def test_trusted_matches_library(self, run, tmp_path):
        commitment_file = str(tmp_path / "commit.txt")
        code, out = run(
            "pid", "trusted", "--name", "Ada Lovelace", "--phrase", "tea at noon",
            "--commitment-file", commitment_file,
        )
        assert code == 0
        expected = generate_trusted_pid("Ada Lovelace", "tea at noon")
        assert out.strip() == expected.pid
        assert Path(commitment_file).read_text().startswith("trusted-pid|")

    def test_commitment_file_bytes(self, run, tmp_path):
        # identity owns this file's text; the CLI writes it unchanged
        commitment_file = tmp_path / "commit.txt"
        run("pid", "trusted", "--name", "Ada Lovelace", "--phrase", "tea at noon",
            "--commitment-file", str(commitment_file))
        assert commitment_file.read_bytes() == (
            b"trusted-pid|a0d504649ca515521dea2a88c422a834|Ada%20Lovelace|\n"
        )


class TestCertCommands:
    @pytest.fixture
    def lab_files(self, run, tmp_path):
        key = str(tmp_path / "lab.key")
        directory = str(tmp_path / "labs.txt")
        code, out = run("cert", "keygen", "--lab-id", "lab-A",
                        "--key-out", key, "--directory", directory)
        assert code == 0 and out.strip() == "lab-A"
        return key, directory

    def issue(self, run, tmp_path, key, pids="P1,P2"):
        cert = str(tmp_path / "cert.txt")
        code, _ = run("cert", "issue", "--key", key, "--pids", pids,
                      "--test-date", "2020-04-01",
                      "--infectious-from", "2020-03-25", "--out", cert)
        assert code == 0
        return cert

    def test_issue_then_verify(self, run, tmp_path, lab_files):
        key, directory = lab_files
        cert = self.issue(run, tmp_path, key)
        code, out = run("cert", "verify", "--cert", cert, "--directory", directory)
        assert code == 0
        assert out.strip() == "VERIFIED"

    def test_unknown_lab_exits_1(self, run, tmp_path, lab_files):
        key, _ = lab_files
        cert = self.issue(run, tmp_path, key)
        empty = write(tmp_path / "empty.txt", "")
        code, out = run("cert", "verify", "--cert", cert, "--directory", empty)
        assert code == 1
        assert out.strip() == "UNKNOWN-LAB"

    def test_tampered_cert_exits_1(self, run, tmp_path, lab_files):
        key, directory = lab_files
        cert = self.issue(run, tmp_path, key)
        text = Path(cert).read_text().replace("P1", "P9")
        tampered = write(tmp_path / "tampered.txt", text)
        code, out = run("cert", "verify", "--cert", tampered, "--directory", directory)
        assert code == 1
        assert out.strip() == "BAD-SIGNATURE"

    def test_bad_dates_exit_2(self, run, tmp_path, lab_files):
        key, _ = lab_files
        code, _ = run("cert", "issue", "--key", key, "--pids", "P1",
                      "--test-date", "2020-03-01",
                      "--infectious-from", "2020-03-25",
                      "--out", str(tmp_path / "x.txt"))
        assert code == 2

    @pytest.mark.parametrize("flag", ["--test-date", "--infectious-from"])
    @pytest.mark.parametrize("day", ["2020-W10-1", "20200301"])
    def test_dates_not_spelled_yyyy_mm_dd_exit_2(self, run, tmp_path, lab_files, flag, day):
        # Python 3.11's date.fromisoformat reads both, as 2020-03-02 and
        # 2020-03-01, which lie between the other flag's date and the test date
        key, _ = lab_files
        dates = {"--test-date": "2020-04-01", "--infectious-from": "2020-02-25", flag: day}
        cert = tmp_path / "cert.txt"
        code, out = run("cert", "issue", "--key", key, "--pids", "P1",
                        *(a for item in dates.items() for a in item), "--out", str(cert))
        assert (code, out) == (2, "")
        assert not cert.exists()

    def test_missing_key_file_exits_2(self, run, tmp_path):
        code, _ = run("cert", "issue", "--key", str(tmp_path / "absent.key"),
                      "--pids", "P1", "--test-date", "2020-04-01",
                      "--infectious-from", "2020-03-25",
                      "--out", str(tmp_path / "x.txt"))
        assert code == 2

    def test_keygen_duplicate_lab_exits_2_and_keeps_files(self, run, tmp_path, lab_files):
        key, directory = lab_files
        before = (Path(key).read_bytes(), Path(directory).read_bytes())
        code, _ = run("cert", "keygen", "--lab-id", "lab-A",
                      "--key-out", key, "--directory", directory)
        assert code == 2
        assert (Path(key).read_bytes(), Path(directory).read_bytes()) == before
        code, _ = run("cert", "keygen", "--lab-id", "lab-B",
                      "--key-out", str(tmp_path / "b.key"), "--directory", directory)
        assert code == 0
        labs = [line.split("|")[1] for line in Path(directory).read_text().splitlines()]
        assert labs == ["lab-A", "lab-B"]

    def test_keygen_refuses_existing_key_file(self, run, tmp_path, capsys, lab_files):
        # a second lab's key must not replace the first one's, which the
        # directory still lists
        key, directory = lab_files
        before = (Path(key).read_bytes(), Path(directory).read_bytes())
        assert main(["cert", "keygen", "--lab-id", "lab-B",
                     "--key-out", key, "--directory", directory]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err
        assert (Path(key).read_bytes(), Path(directory).read_bytes()) == before

    def test_keygen_retry_publishes_the_key_a_failed_run_left(self, run, tmp_path, monkeypatch):
        # the key is written before the directory, so a failed directory
        # write leaves the key
        key = str(tmp_path / "lab.key")
        directory = str(tmp_path / "labs.txt")
        argv = ("cert", "keygen", "--lab-id", "lab-A", "--key-out", key, "--directory", directory)
        write_atomic = wire.write_atomic

        def fail_on_directory(path, text):
            if path == directory:
                raise OSError("the directory write failed")
            write_atomic(path, text)

        monkeypatch.setattr(wire, "write_atomic", fail_on_directory)
        code, _ = run(*argv)
        monkeypatch.undo()
        assert code == 2 and os.path.exists(key) and not os.path.exists(directory)
        left = Path(key).read_bytes()
        code, out = run(*argv)
        assert (code, out.strip()) == (0, "lab-A")
        assert Path(key).read_bytes() == left
        cert = self.issue(run, tmp_path, key)
        code, out = run("cert", "verify", "--cert", cert, "--directory", directory)
        assert (code, out.strip()) == (0, "VERIFIED")

    @pytest.mark.parametrize("lab_id", ["x|y", "a b"])
    def test_keygen_bad_lab_id_exits_2_and_writes_nothing(self, run, tmp_path, lab_id):
        code, out = run("cert", "keygen", "--lab-id", lab_id,
                        "--key-out", str(tmp_path / "lab.key"),
                        "--directory", str(tmp_path / "labs.txt"))
        assert (code, out) == (2, "")
        assert os.listdir(tmp_path) == ["labs.txt.lock"]  # the empty lock it held
        assert Path(tmp_path / "labs.txt.lock").read_bytes() == b""

    @pytest.mark.parametrize("line", ["lab|lab-A|ed25519|AAAA", "lab|lab-A|rsa|{key}"])
    def test_bad_directory_line_exits_2_and_names_file(
        self, run, tmp_path, capsys, lab_files, line
    ):
        key, directory = lab_files
        cert = self.issue(run, tmp_path, key)
        published = Path(directory).read_text().split("|")[3].strip()
        bad = write(tmp_path / "bad-labs.txt", line.format(key=published) + "\n")
        assert main(["cert", "verify", "--cert", cert, "--directory", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert bad in captured.err

    def test_keygen_key_file_private(self, lab_files):
        key, _ = lab_files
        assert stat.S_IMODE(os.stat(key).st_mode) == 0o600


class TestNotifyCommands:
    def setup_files(self, run, tmp_path, test_date="1970-01-02"):
        key = str(tmp_path / "lab.key")
        directory = str(tmp_path / "labs.txt")
        run("cert", "keygen", "--lab-id", "lab-A", "--key-out", key,
            "--directory", directory)
        cert = str(tmp_path / "cert.txt")
        run("cert", "issue", "--key", key, "--pids", "sick",
            "--test-date", test_date, "--infectious-from", "1970-01-01",
            "--out", cert)
        # the infected party logged the victim; the victim logged them back
        sender_log = write(
            tmp_path / "sender.log",
            contactlog.serialize_log(make_log(
                make_entry(own_pid="sick", peer_pid="victim",
                           peer_pad="victim@boxes", t=5000.0,
                           own_loc="cafe", peer_loc="cafe"),
            )),
        )
        victim_log = write(
            tmp_path / "victim.log",
            contactlog.serialize_log(make_log(
                make_entry(own_pid="victim", peer_pid="sick",
                           peer_pad="sick@boxes", t=5000.0,
                           own_loc="cafe", peer_loc="cafe"),
            )),
        )
        return cert, directory, sender_log, victim_log

    def test_build_then_verify_accepts(self, run, tmp_path):
        from backtrack import wire

        cert, directory, sender_log, victim_log = self.setup_files(run, tmp_path)
        boxes = str(tmp_path / "boxes")
        code, out = run("notify", "build", "--log", sender_log,
                        "--own-pids", "sick", "--cert", cert,
                        "--mailbox-dir", boxes)
        assert code == 0
        assert out.strip() == "sent|victim@boxes"
        mailbox_file = str(tmp_path / "boxes" / wire.quote("victim@boxes"))
        code, out = run("notify", "verify", "--log", victim_log,
                        "--directory", directory,
                        "--notification", mailbox_file)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "ACCEPTED"
        assert lines[1].startswith("entry|")

    def test_verify_accepts_certificate_of_last_representable_day(self, run, tmp_path):
        # 9999-12-31 has no next date to end the certificate's window at
        cert, directory, sender_log, victim_log = self.setup_files(run, tmp_path, "9999-12-31")
        boxes = str(tmp_path / "boxes")
        run("notify", "build", "--log", sender_log, "--own-pids", "sick",
            "--cert", cert, "--mailbox-dir", boxes)
        mailbox_file = str(tmp_path / "boxes" / wire.quote("victim@boxes"))
        code, out = run("notify", "verify", "--log", victim_log,
                        "--directory", directory,
                        "--notification", mailbox_file)
        assert (code, out.splitlines()[0]) == (0, "ACCEPTED")

    def test_verify_rejects_stranger_log(self, run, tmp_path):
        from backtrack import wire

        cert, directory, sender_log, _ = self.setup_files(run, tmp_path)
        boxes = str(tmp_path / "boxes")
        run("notify", "build", "--log", sender_log, "--own-pids", "sick",
            "--cert", cert, "--mailbox-dir", boxes)
        mailbox_file = str(tmp_path / "boxes" / wire.quote("victim@boxes"))
        empty_log = write(tmp_path / "empty.log", "")
        code, out = run("notify", "verify", "--log", empty_log,
                        "--directory", directory,
                        "--notification", mailbox_file)
        assert code == 1
        assert out.strip() == "REJECTED-NO-MATCHING-CONTACT"

    def test_verify_checks_every_notification(self, run, tmp_path):
        from dataclasses import replace

        from backtrack import wire
        from backtrack.notify import notification_to_line, parse_mailbox

        cert, directory, sender_log, victim_log = self.setup_files(run, tmp_path)
        boxes = str(tmp_path / "boxes")
        run("notify", "build", "--log", sender_log, "--own-pids", "sick",
            "--cert", cert, "--mailbox-dir", boxes)
        mailbox = tmp_path / "boxes" / wire.quote("victim@boxes")
        ((genuine,), _), _ = wire.load_lines(str(mailbox), parse_mailbox)
        forged = replace(genuine, sender_pid=Pid("mallory"))
        mailbox.write_text("".join(notification_to_line(n) + "\n" for n in (genuine, forged)))
        code, out = run("notify", "verify", "--log", victim_log,
                        "--directory", directory,
                        "--notification", str(mailbox))
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == "ACCEPTED"
        assert lines[1].startswith("entry|")
        assert lines[2:] == ["REJECTED-NO-MATCHING-CONTACT"]

    def test_verify_drops_torn_last_record(self, tmp_path, capsys):
        from dataclasses import replace

        from backtrack import wire
        from backtrack.notify import notification_to_line, parse_mailbox

        def run(*argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        cert, directory, sender_log, victim_log = self.setup_files(run, tmp_path)
        boxes = str(tmp_path / "boxes")
        run("notify", "build", "--log", sender_log, "--own-pids", "sick",
            "--cert", cert, "--mailbox-dir", boxes)
        mailbox = tmp_path / "boxes" / wire.quote("victim@boxes")
        first = mailbox.read_bytes()
        ((genuine,), _), _ = wire.load_lines(str(mailbox), parse_mailbox)
        # the last record is certified, so a cut can fall in either part, and
        # its sender's PID is not ASCII, so a cut can split a character
        last = notification_to_line(replace(genuine, sender_pid=Pid("mallory-\u00e9\u20ac")))
        last = last.encode("utf-8")
        argv = ("notify", "verify", "--log", victim_log, "--directory", directory,
                "--notification", str(mailbox))
        mailbox.write_bytes(first)
        alone = run(*argv)
        assert alone[0] == 0 and alone[2] == ""
        mailbox.write_bytes(first + last + b"\n")
        assert run(*argv)[0] == 1
        # every cut inside the last record, up to its missing newline
        for cut in range(1, len(last) + 1):
            mailbox.write_bytes(first + last[:cut])
            assert run(*argv) == (0, alone[1], "torn|1\n"), cut

    def test_retried_build_is_verified_once(self, tmp_path, capsys):
        from backtrack import wire

        def run(*argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        cert, directory, _, victim_log = self.setup_files(run, tmp_path)
        sender_log = write(
            tmp_path / "two.log",
            contactlog.serialize_log(make_log(
                make_entry(own_pid="sick", peer_pid="victim", peer_pad="victim@boxes",
                           t=5000.0, own_loc="cafe", peer_loc="cafe"),
                make_entry(own_pid="sick", peer_pid="other", peer_pad="b@x",
                           t=6000.0, own_loc="cafe", peer_loc="cafe"),
            )),
        )
        boxes = tmp_path / "boxes"
        blocked = boxes / wire.quote("b@x")
        blocked.mkdir(parents=True)
        build = ("notify", "build", "--log", sender_log, "--own-pids", "sick",
                 "--cert", cert, "--mailbox-dir", str(boxes))
        # the second delivery fails after the first was made
        code, out, _ = run(*build)
        assert (code, out) == (2, "sent|victim@boxes\n")
        blocked.rmdir()
        assert run(*build)[:2] == (0, "sent|victim@boxes\nsent|b@x\n")
        mailbox = boxes / wire.quote("victim@boxes")
        assert len(mailbox.read_text().splitlines()) == 2
        code, out, err = run("notify", "verify", "--log", victim_log,
                             "--directory", directory, "--notification", str(mailbox))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ACCEPTED" and lines[1].startswith("entry|") and len(lines) == 2
        assert err == "dup|1\n"

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_verify_bad_tolerance_exits_2(self, run, tmp_path, tolerance):
        from backtrack import wire

        cert, directory, sender_log, victim_log = self.setup_files(run, tmp_path)
        boxes = str(tmp_path / "boxes")
        run("notify", "build", "--log", sender_log, "--own-pids", "sick",
            "--cert", cert, "--mailbox-dir", boxes)
        mailbox_file = str(tmp_path / "boxes" / wire.quote("victim@boxes"))
        code, out = run("notify", "verify", "--log", victim_log,
                        "--directory", directory, "--notification", mailbox_file,
                        "--tolerance", tolerance)
        assert (code, out) == (2, "")

    def test_build_uncovered_pid_exits_2(self, run, tmp_path):
        _, _, sender_log, _ = self.setup_files(run, tmp_path)
        # certificate covers a different PID than the one the log was kept under
        other_cert = str(tmp_path / "other.txt")
        run("cert", "issue", "--key", str(tmp_path / "lab.key"),
            "--pids", "someoneelse", "--test-date", "1970-01-02",
            "--infectious-from", "1970-01-01", "--out", other_cert)
        code, _ = run("notify", "build", "--log", sender_log,
                      "--own-pids", "sick", "--cert", other_cert,
                      "--mailbox-dir", str(tmp_path / "boxes"))
        assert code == 2


class TestSimCommand:
    SCENARIO = (
        "n_agents = 2\n"
        "duration_s = 1200\n"
        "initial_infectious = 1\n"
        "speed_min_mps = 0\n"
        "speed_max_mps = 0\n"
        "diagnosis_delay_s = 900\n"
        "position = 0:10:10\n"
        "position = 1:11:10\n"
    )

    def test_run_prints_metrics(self, run, tmp_path):
        scenario = write(tmp_path / "s.txt", self.SCENARIO)
        trace = str(tmp_path / "trace.txt")
        code, out = run("sim", "--scenario", scenario, "--trace", trace)
        assert code == 0
        assert "metric|true_exposures|1\n" in out
        assert "metric|missed|0\n" in out
        assert any(line.startswith("trace|") for line in Path(trace).read_text().splitlines())

    def test_trace_file_bytes(self, run, tmp_path):
        # sim owns this file's text; the CLI writes it unchanged
        scenario = write(tmp_path / "s.txt", self.SCENARIO)
        trace = tmp_path / "trace.txt"
        run("sim", "--scenario", scenario, "--trace", str(trace))
        assert trace.read_bytes() == (
            b"trace|600|exposure|0|1\n"
            b"trace|900|log-entry|0|peer=1c1c2a9cc5d37036b195f2d0e22c7fcb|dwell=900\n"
            b"trace|900|diagnose|0|notifications=1\n"
            b"trace|900|log-entry|1|peer=11e07c6292987b2cd55bfad3a2100881|dwell=900\n"
            b"trace|900|verdict|1|ACCEPTED|forged=0\n"
        )

    def test_deterministic_across_invocations(self, run, tmp_path):
        scenario = write(tmp_path / "s.txt", self.SCENARIO)
        t1, t2 = str(tmp_path / "t1.txt"), str(tmp_path / "t2.txt")
        _, out1 = run("sim", "--scenario", scenario, "--trace", t1)
        _, out2 = run("sim", "--scenario", scenario, "--trace", t2)
        assert out1 == out2
        assert Path(t1).read_text() == Path(t2).read_text()

    def test_bad_scenario_exits_2(self, run, tmp_path):
        scenario = write(tmp_path / "bad.txt", "n_agents = 0\nduration_s = 10\n")
        code, _ = run("sim", "--scenario", scenario)
        assert code == 2


class TestRegistryCommands:
    @pytest.fixture
    def server(self, run, tmp_path):
        key = str(tmp_path / "lab.key")
        dir_path = str(tmp_path / "labs.txt")
        run("cert", "keygen", "--lab-id", "lab-A", "--key-out", key,
            "--directory", dir_path)
        from backtrack.certificates import LabDirectory

        directory = LabDirectory.from_lines(Path(dir_path).read_text())
        srv = serve("127.0.0.1", 0, directory, str(tmp_path / "state.txt"))
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        yield key, srv.server_address[1]
        srv.shutdown()
        srv.server_close()

    def test_ingest_query_claim(self, run, tmp_path, server):
        key, port = server
        claimant = generate_trusted_pid("Ada Lovelace", "tea at noon")
        cert = str(tmp_path / "cert.txt")
        run("cert", "issue", "--key", key, "--pids", "sickpid",
            "--test-date", "2020-04-01", "--infectious-from", "2020-03-25",
            "--out", cert)

        code, out = run("registry", "ingest", "--port", str(port), "--cert", cert)
        assert (code, out.strip()) == (0, "OK")
        code, out = run("registry", "query", "--port", str(port), "--pid", "sickpid")
        assert (code, out.strip()) == (0, "YES")
        code, out = run("registry", "query", "--port", str(port), "--pid", "other")
        assert (code, out.strip()) == (1, "NO")
        code, out = run("registry", "claim", "--port", str(port),
                        "--contact-pid", "sickpid",
                        "--claimant-pid", claimant.pid,
                        "--name", "Ada Lovelace", "--phrase", "tea at noon")
        assert (code, out.strip()) == (0, "CONFIRMED")
        code, out = run("registry", "claim", "--port", str(port),
                        "--contact-pid", "sickpid",
                        "--claimant-pid", claimant.pid,
                        "--name", "Ada Lovelace", "--phrase", "wrong")
        assert (code, out.strip()) == (1, "OWNERSHIP-FAILED")

    def test_unsaved_ingest_exits_2(self, run, tmp_path, capsys):
        key, directory = str(tmp_path / "lab.key"), str(tmp_path / "labs.txt")
        run("cert", "keygen", "--lab-id", "lab-A", "--key-out", key, "--directory", directory)
        cert = str(tmp_path / "cert.txt")
        run("cert", "issue", "--key", key, "--pids", "sickpid", "--test-date", "2020-04-01",
            "--infectious-from", "2020-03-25", "--out", cert)
        from backtrack.certificates import LabDirectory

        state_dir = tmp_path / "state"
        state_dir.mkdir()
        srv = serve("127.0.0.1", 0, LabDirectory.from_lines(Path(directory).read_text()),
                    str(state_dir / "state.txt"))
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        try:
            state_dir.rmdir()  # the server can no longer save its state
            port = srv.server_address[1]
            assert main(["registry", "ingest", "--port", str(port), "--cert", cert]) == 2
        finally:
            srv.shutdown()
            srv.server_close()
        assert capsys.readouterr() == (
            "", f"error: registry at 127.0.0.1:{port}: ERROR state not saved\n"
        )

    def test_serve_until_interrupted(self, run, tmp_path):
        key, directory = str(tmp_path / "lab.key"), str(tmp_path / "labs.txt")
        run("cert", "keygen", "--lab-id", "lab-A", "--key-out", key, "--directory", directory)
        cert = str(tmp_path / "cert.txt")
        run("cert", "issue", "--key", key, "--pids", "sickpid", "--test-date", "2020-04-01",
            "--infectious-from", "2020-03-25", "--out", cert)
        state = tmp_path / "state.txt"
        src = str(Path(backtrack.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        server = subprocess.Popen(
            [sys.executable, "-m", "backtrack.cli", "registry", "serve", "--port", "0",
             "--directory", directory, "--state", str(state)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            # the line comes once the port is bound; end of file if serve failed
            ready, _, _ = select.select([server.stdout], [], [], 30)
            line = server.stdout.readline() if ready else "nothing in 30 s"
            assert line.startswith("listening|127.0.0.1|"), line
            port = line.rstrip("\n").rpartition("|")[2]
            assert run("registry", "ingest", "--port", port, "--cert", cert) == (0, "OK\n")
            assert run("registry", "query", "--port", port, "--pid", "sickpid") == (0, "YES\n")
            server.send_signal(signal.SIGINT)
            server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0
        assert state.read_text() == "notified|sickpid|lab-A|2020-04-01\n"

    def test_interrupt_closes_the_server(self, run, tmp_path, monkeypatch):
        directory = str(tmp_path / "labs.txt")
        run("cert", "keygen", "--lab-id", "lab-A", "--key-out", str(tmp_path / "lab.key"),
            "--directory", directory)
        closed, clients, accepted = [], [], []
        close = registry.RegistryServer.server_close
        serve_forever = registry.RegistryServer.serve_forever
        handle = registry._Handler.handle

        def with_a_client(self, poll_interval=0.5):
            # the client waits in the listen backlog until the loop takes it up
            clients.append(socket.create_connection(self.server_address, timeout=10))
            serve_forever(self, poll_interval)

        def interrupted(handler):
            handle(handler)
            accepted.append(handler.request)
            raise KeyboardInterrupt

        def recorded_close(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(registry.RegistryServer, "serve_forever", with_a_client)
        monkeypatch.setattr(registry._Handler, "handle", interrupted)
        monkeypatch.setattr(registry.RegistryServer, "server_close", recorded_close)
        before = set(threading.enumerate())
        code, out = run("registry", "serve", "--port", "0", "--directory", directory)
        [server], [client], [connection] = closed, clients, accepted
        with client:
            assert (code, out) == (0, f"listening|127.0.0.1|{server.server_address[1]}\n")
            assert server.socket.fileno() == -1
            assert connection.fileno() == -1
            assert client.recv(16) == b""
        assert set(threading.enumerate()) == before

    def test_unreachable_server_exits_2(self, run):
        code, _ = run("registry", "query", "--port", "1", "--pid", "x")
        assert code == 2

    @pytest.mark.parametrize(
        "reply", [b"", b"YE", pytest.param(b"Y" * (1 << 20) + b"\n", id="1MiB-line")]
    )
    def test_server_that_hangs_up_exits_2(self, capsys, reply):
        def hang_up(listener):
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()  # the whole request
                try:
                    conn.sendall(reply)
                except OSError:  # a client that read its bounded reply may hang up first
                    pass

        with socket.socket() as listener:
            listener.settimeout(30)  # so that a client that never connects ends the test
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            port = listener.getsockname()[1]
            server = threading.Thread(target=hang_up, args=(listener,))
            server.start()
            code = main(["registry", "query", "--port", str(port), "--pid", "sickpid"])
            server.join()
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: registry at 127.0.0.1:{port}: ")


class TestBizlogCommands:
    def append(self, run, tmp_path, pid, at):
        chain = str(tmp_path / "chain.txt")
        head = str(tmp_path / "head.txt")
        code, out = run("bizlog", "append", "--chain", chain, "--head", head,
                        "--pid", pid, "--at", str(at))
        assert code == 0
        return chain, head, out

    def test_append_and_verify(self, run, tmp_path):
        self.append(run, tmp_path, "visitor1", 100.0)
        chain, head, out = self.append(run, tmp_path, "visitor2", 200.0)
        assert out.strip() == "appended|2"
        code, out = run("bizlog", "verify", "--chain", chain, "--head", head)
        assert (code, out.strip()) == (0, "INTACT")

    def test_tamper_detected(self, run, tmp_path):
        self.append(run, tmp_path, "visitor1", 100.0)
        chain, head, _ = self.append(run, tmp_path, "visitor2", 200.0)
        text = Path(chain).read_text().replace("visitor1", "intruder")
        Path(chain).write_text(text)
        code, out = run("bizlog", "verify", "--chain", chain, "--head", head)
        assert (code, out.strip()) == (1, "TAMPERED-AT 1")

    @pytest.mark.parametrize("tamper, seq", [
        (lambda text: "".join(text.splitlines(keepends=True)[:3]), 4),  # cut to 3 visits
        (lambda text: text.replace("|v1|", "|intruder|"), 2),
    ])
    def test_append_to_a_tampered_chain_exits_1_and_writes_nothing(
        self, run, tmp_path, tamper, seq
    ):
        for i in range(5):
            chain, head, _ = self.append(run, tmp_path, f"v{i}", 100.0 * i)
        Path(chain).write_text(tamper(Path(chain).read_text()))
        before = Path(chain).read_bytes(), Path(head).read_bytes()
        verify = ("bizlog", "verify", "--chain", chain, "--head", head)
        assert run(*verify) == (1, f"TAMPERED-AT {seq}\n")
        argv = ("bizlog", "append", "--chain", chain, "--head", head, "--pid", "v9", "--at", "900")
        assert run(*argv) == (1, f"TAMPERED-AT {seq}\n")
        assert (Path(chain).read_bytes(), Path(head).read_bytes()) == before
        assert run(*verify) == (1, f"TAMPERED-AT {seq}\n")

    def test_append_to_malformed_chain_exits_2(self, run, tmp_path):
        for i in range(3):
            chain, head, _ = self.append(run, tmp_path, f"visitor{i}", 100.0 * i)
        with open(chain, "a") as f:
            f.write("visit|garbage\n")
        before = Path(chain).read_bytes(), Path(head).read_bytes()
        code, out = run("bizlog", "append", "--chain", chain, "--head", head,
                        "--pid", "visitor9", "--at", "900")
        assert (code, out) == (2, "")
        assert (Path(chain).read_bytes(), Path(head).read_bytes()) == before

    @pytest.mark.parametrize("at", ["nan", "inf", "-inf"])
    def test_append_non_finite_time_exits_2(self, run, tmp_path, at):
        chain, head = str(tmp_path / "chain.txt"), str(tmp_path / "head.txt")
        argv = ("bizlog", "append", "--chain", chain, "--head", head,
                "--pid", "v2", f"--at={at}")
        assert run(*argv) == (2, "")
        assert os.listdir(tmp_path) == ["chain.txt.lock"]  # the empty lock it held
        self.append(run, tmp_path, "v1", 100.0)
        before = Path(chain).read_bytes(), Path(head).read_bytes()
        assert run(*argv) == (2, "")
        assert (Path(chain).read_bytes(), Path(head).read_bytes()) == before

    def test_append_interrupted_before_the_head_commits_nothing(
        self, run, tmp_path, monkeypatch
    ):
        self.append(run, tmp_path, "v1", 100.0)
        chain, head, _ = self.append(run, tmp_path, "v2", 200.0)
        write_atomic = wire.write_atomic

        def crash_on_head(path, text):
            if path == head:
                raise OSError("crash before the head is replaced")
            write_atomic(path, text)

        argv = ("bizlog", "append", "--chain", chain, "--head", head, "--pid", "v3", "--at", "300")
        monkeypatch.setattr(wire, "write_atomic", crash_on_head)
        assert run(*argv) == (2, "")
        monkeypatch.undo()
        verify = ("bizlog", "verify", "--chain", chain, "--head", head)
        assert run(*verify) == (0, "INTACT\n")
        assert run(*argv) == (0, "appended|3\n")
        assert run(*verify) == (0, "INTACT\n")
        assert Path(chain).read_text().count("|v3|") == 1

    def test_first_append_interrupted_before_the_head_commits_nothing(
        self, run, tmp_path, monkeypatch
    ):
        chain, head = str(tmp_path / "chain.txt"), str(tmp_path / "head.txt")
        repo = write(tmp_path / "repo.txt", "notified|v1|lab-A|2020-04-01\n")
        write_atomic = wire.write_atomic

        def crash_on_head(path, text):
            if path == head:
                raise OSError("crash before the head is replaced")
            write_atomic(path, text)

        argv = ("bizlog", "append", "--chain", chain, "--head", head, "--pid", "v1", "--at", "100")
        monkeypatch.setattr(wire, "write_atomic", crash_on_head)
        assert run(*argv) == (2, "")
        monkeypatch.undo()
        # a chain, no head
        assert sorted(os.listdir(tmp_path)) == ["chain.txt", "chain.txt.lock", "repo.txt"]
        verify = ("bizlog", "verify", "--chain", chain, "--head", head)
        evidence = ("bizlog", "evidence", "--chain", chain, "--head", head, "--pid", "v1",
                    "--from", "0", "--to", "500", "--repo", repo)
        assert run(*verify) == (2, "")
        assert run(*evidence) == (2, "")
        assert run(*argv) == (0, "appended|1\n")
        assert run(*verify) == (0, "INTACT\n")
        assert run(*evidence) == (0, "VISIT-AND-CERTIFIED\n")
        assert Path(chain).read_text().count("|v1|") == 1

    def test_append_to_a_chain_that_lost_its_head_exits_2(self, run, tmp_path):
        self.append(run, tmp_path, "v1", 100.0)
        chain, head, _ = self.append(run, tmp_path, "v2", 200.0)
        committed = Path(chain).read_text()
        os.remove(head)
        argv = ("bizlog", "append", "--chain", chain, "--head", head, "--pid", "v3", "--at", "300")
        assert run(*argv) == (2, "")
        assert Path(chain).read_text() == committed
        assert not os.path.exists(head)

    def test_verify_non_canonical_visit_line_exits_2(self, run, tmp_path):
        self.append(run, tmp_path, "v1", 100.0)
        chain, head, _ = self.append(run, tmp_path, "v2", 200.0)
        text = Path(chain).read_text()
        assert text.startswith("visit|1|100|v1|")
        Path(chain).write_text(text.replace("visit|1|100|", "visit|01|1e2|", 1))
        code, out = run("bizlog", "verify", "--chain", chain, "--head", head)
        assert (code, out) == (2, "")

    def test_evidence(self, run, tmp_path):
        self.append(run, tmp_path, "visitor1", 100.0)
        chain, head, _ = self.append(run, tmp_path, "visitor2", 200.0)
        repo = write(tmp_path / "repo.txt", "notified|visitor1|lab-A|2020-04-01\n")
        code, out = run("bizlog", "evidence", "--chain", chain, "--head", head,
                        "--pid", "visitor1",
                        "--from", "0", "--to", "500", "--repo", repo)
        assert (code, out.strip()) == (0, "VISIT-AND-CERTIFIED")
        code, out = run("bizlog", "evidence", "--chain", chain, "--head", head,
                        "--pid", "visitor2",
                        "--from", "0", "--to", "500", "--repo", repo)
        assert (code, out.strip()) == (1, "NOT-CERTIFIED-SICK")

    def test_evidence_says_it_left_out_a_torn_state_line(self, run, tmp_path, capsys):
        chain, head, _ = self.append(run, tmp_path, "v1", 100.0)
        # the visitor's PID is only on an INGEST's unterminated, so never
        # acknowledged, last line
        repo = write(tmp_path / "repo.txt", "notified|v0|lab-A|2020-04-01\nnotified|v1|lab-A|2020-04-01")
        argv = ["bizlog", "evidence", "--chain", chain, "--head", head, "--pid", "v1",
                "--from", "0", "--to", "500", "--repo", repo]
        assert main(argv) == 1
        assert capsys.readouterr() == ("NOT-CERTIFIED-SICK\n", "torn|1\n")
        Path(repo).write_text("notified|v1|lab-A|2020-04-01\n")
        assert main(argv) == 0
        assert capsys.readouterr() == ("VISIT-AND-CERTIFIED\n", "")

    def test_evidence_on_a_tampered_chain_exits_1_and_answers_nothing(
        self, run, tmp_path, capsys
    ):
        self.append(run, tmp_path, "alice", 100.0)
        chain, head, _ = self.append(run, tmp_path, "bob", 200.0)
        # the edit credits bob's visit to a PID that is certified sick
        Path(chain).write_text(Path(chain).read_text().replace("|bob|", "|mallory|"))
        repo = write(tmp_path / "repo.txt", "notified|mallory|lab-A|2020-04-01\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        argv = ["bizlog", "evidence", "--chain", chain, "--head", head, "--pid", "mallory",
                "--from", "0", "--to", "1000", "--repo", repo]
        assert main(argv) == 1
        assert capsys.readouterr() == ("TAMPERED-AT 2\n", "")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestLogCommands:
    def log_file(self, tmp_path):
        day = 86400.0
        log = make_log(
            make_entry(peer_pid="p1", own_loc="gym", recorded_at=5 * day),
            make_entry(peer_pid="p2", own_loc="gym", recorded_at=28 * day),
            make_entry(peer_pid="p1", own_loc="walk", recorded_at=29 * day),
        )
        return write(tmp_path / "contacts.log", contactlog.serialize_log(log))

    def test_show_round_trips(self, run, tmp_path):
        path = self.log_file(tmp_path)
        code, out = run("log", "show", "--log", path)
        assert code == 0
        assert out == Path(path).read_text()

    def test_stats(self, run, tmp_path):
        code, out = run("log", "stats", "--log", self.log_file(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert "count|3" in lines
        assert "peers|2" in lines
        assert "location|gym|2" in lines

    def test_prune_rewrites_file(self, run, tmp_path):
        path = self.log_file(tmp_path)
        code, out = run("log", "prune", "--log", path, "--now", str(30 * 86400.0))
        assert code == 0
        assert out.strip() == "pruned|1"
        assert len(Path(path).read_text().splitlines()) == 2

    def test_prune_retention_days(self, run, tmp_path):
        path = self.log_file(tmp_path)
        code, out = run("log", "prune", "--log", path, "--now", "2592000",
                        "--retention-days", "1")
        assert (code, out.strip()) == (0, "pruned|2")
        assert len(Path(path).read_text().splitlines()) == 1

    @pytest.mark.parametrize("bad", [
        ["--now", "2592000", "--retention-days", "-1"],
        ["--now", "inf"], ["--now=-inf"], ["--now", "nan"],
    ])
    def test_prune_bad_parameters_exit_2_and_keep_file(self, run, tmp_path, bad):
        path = self.log_file(tmp_path)
        before = Path(path).read_bytes()
        code, out = run("log", "prune", "--log", path, *bad)
        assert (code, out) == (2, "")
        assert Path(path).read_bytes() == before

    def test_malformed_log_exits_2(self, run, tmp_path):
        path = write(tmp_path / "bad.log", "entry|nonsense\n")
        code, _ = run("log", "show", "--log", path)
        assert code == 2


class TestLogStats:
    """`log stats`: the entry count, the distinct peer PIDs and the entries
    at each own location."""

    def stats(self, run, tmp_path, *entries, prune_at=None):
        path = write(tmp_path / "contacts.log", contactlog.serialize_log(make_log(*entries)))
        if prune_at is not None:
            assert run("log", "prune", "--log", path, "--now", str(prune_at))[0] == 0
        code, out = run("log", "stats", "--log", path)
        assert code == 0
        count, peers, *locations = [line.split("|") for line in out.splitlines()]
        assert count[0] == "count" and peers[0] == "peers"
        assert all(kind == "location" for kind, _, _ in locations)
        return (
            int(count[1]),
            int(peers[1]),
            {wire.unquote(label): int(n) for _, label, n in locations},
        )

    def test_empty(self, run, tmp_path):
        assert self.stats(run, tmp_path) == (0, 0, {})

    def test_hand_count(self, run, tmp_path):
        entry_count, distinct_peer_pids, location_counts = self.stats(
            run, tmp_path,
            make_entry(peer_pid="p1", own_loc="gym", recorded_at=1.0),
            make_entry(peer_pid="p2", own_loc="gym", recorded_at=2.0),
            make_entry(peer_pid="p1", own_loc="walk", recorded_at=3.0),
        )
        assert entry_count == 3
        assert distinct_peer_pids == 2
        assert location_counts == {"gym": 2, "walk": 1}

    def test_recount_after_prune(self, run, tmp_path):
        now = 30 * DAY
        _, _, location_counts = self.stats(
            run, tmp_path,
            make_entry(peer_pid="p1", own_loc="gym", recorded_at=now - 25 * DAY),
            make_entry(peer_pid="p2", own_loc="gym", recorded_at=now - 1 * DAY),
            make_entry(peer_pid="p1", own_loc="walk", recorded_at=now),
            prune_at=now,
        )
        assert location_counts == {"gym": 1, "walk": 1}


def tree(root):
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*"))


@pytest.mark.parametrize("argv", [
    ["registry", "query", "--port", "1", "--pid", "a|b"],
    ["registry", "claim", "--port", "1", "--contact-pid", "a b",
     "--claimant-pid", "c", "--name", "n", "--phrase", "p"],
    ["pid", "trusted", "--name", "", "--phrase", "x",
     "--commitment-file", "{d}/commitment.txt"],
    ["bizlog", "evidence", "--chain", "{d}/chain.txt", "--head", "{d}/head.txt",
     "--pid", "v", "--from", "0", "--to", "1", "--repo", "{d}/garbage.txt"],
    ["notify", "build", "--log", "{d}/empty.log", "--own-pids", "p",
     "--mailbox-dir", "{d}/plain.txt/boxes"],
    ["notify", "verify", "--log", "{d}/empty.log", "--directory", "{d}/empty.log",
     "--notification", "{d}/latin1.txt"],
    ["registry", "serve", "--port", "65536", "--directory", "{d}/empty.log"],
    ["registry", "query", "--port=-1", "--pid", "p"],
    ["registry", "claim", "--port", "65537", "--contact-pid", "a",
     "--claimant-pid", "c", "--name", "n", "--phrase", "p"],
    ["registry", "ingest", "--port", "99999999", "--cert", "{d}/cert.txt"],
    ["log", "prune", "--log", "{d}/empty.log", "--now", "0", "--retention-days", "1" + "0" * 400],
    ["bizlog", "evidence", "--chain", "{d}/chain.txt", "--head", "{d}/head.txt",
     "--pid", "v", "--from", "nan", "--to", "1", "--repo", "{d}/empty.log"],
    ["notify", "build", "--log", "{d}/empty.log", "--own-pids", "",
     "--mailbox-dir", "{d}/boxes"],
])
def test_bad_input_exits_2_and_writes_nothing(run, tmp_path, argv):
    lab = LabIdentity.from_seed("lab-A", bytes(32))
    cert = issue_certificate(lab, [Pid("p")], date(2020, 4, 1), date(2020, 3, 25))
    write(tmp_path / "cert.txt", certificate_to_line(cert) + "\n")
    write(tmp_path / "empty.log", "")
    write(tmp_path / "chain.txt", "")
    write(tmp_path / "head.txt", "head|" + "0" * 64 + "\n")
    write(tmp_path / "garbage.txt", "garbage\n")
    write(tmp_path / "plain.txt", "")
    (tmp_path / "latin1.txt").write_bytes("notif|v1|p|1|caf\xe9\n".encode("latin-1"))
    before = tree(tmp_path)
    code, out = run(*(a.format(d=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    # a command that replaces a file made from its old text leaves its empty lock
    lock = ["empty.log.lock"] if argv[:2] == ["log", "prune"] else []
    assert tree(tmp_path) == sorted(before + lock)


@pytest.mark.parametrize("argv, message", [
    (["cert", "issue", "--key", "{d}/garbage.txt", "--pids", "p", "--test-date", "2020-04-01",
      "--infectious-from", "2020-03-25", "--out", "{d}/cert.txt"],
     "error: {d}/garbage.txt: malformed lab key line"),
    (["notify", "verify", "--log", "{d}/empty.log", "--directory", "{d}/empty.log",
      "--notification", "{d}/torn.txt"],
     "torn|1\nerror: {d}/torn.txt: no complete notification"),
])
def test_refusal_message(tmp_path, capsys, argv, message):
    write(tmp_path / "garbage.txt", "garbage\n")
    write(tmp_path / "empty.log", "")
    write(tmp_path / "torn.txt", "notif|v1|p|1|cafe")
    before = tree(tmp_path)
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", message.format(d=tmp_path) + "\n")
    assert tree(tmp_path) == before


def test_error_names_file_and_registry(tmp_path, capsys):
    bad = write(tmp_path / "bad.log", "entry|nonsense\n")
    assert main(["log", "show", "--log", bad]) == 2
    assert bad in capsys.readouterr().err
    chain = write(tmp_path / "chain.txt", "")
    head = write(tmp_path / "head.txt", "garbage\n")
    assert main(["bizlog", "verify", "--chain", chain, "--head", head]) == 2
    err = capsys.readouterr().err
    assert head in err and chain not in err
    state = write(tmp_path / "state.txt", "garbage\n")
    assert main(["registry", "serve", "--port", "0", "--directory", chain,
                 "--state", state]) == 2
    assert state in capsys.readouterr().err
    assert main(["registry", "query", "--port", "1", "--pid", "x"]) == 2
    assert "127.0.0.1:1" in capsys.readouterr().err


def test_append_to_a_chain_out_of_time_order_exits_1_and_writes_nothing(run, tmp_path):
    chain, head = str(tmp_path / "chain.txt"), str(tmp_path / "head.txt")
    bizlog.save_chain(out_of_order_chain(), chain, head)
    before = Path(chain).read_bytes(), Path(head).read_bytes()
    argv = ("bizlog", "append", "--chain", chain, "--head", head, "--pid", "v3", "--at", "300")
    assert run(*argv) == (1, "TAMPERED-AT 2\n")
    assert (Path(chain).read_bytes(), Path(head).read_bytes()) == before
    assert run("bizlog", "verify", "--chain", chain, "--head", head) == (1, "TAMPERED-AT 2\n")


def test_serve_on_a_busy_port_exits_2(tmp_path, capsys):
    directory = write(tmp_path / "labs.txt", "")
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        port = holder.getsockname()[1]
        assert main(["registry", "serve", "--port", str(port), "--directory", directory]) == 2
    in_use = f"[Errno {errno.EADDRINUSE}] {os.strerror(errno.EADDRINUSE)}"
    assert capsys.readouterr() == ("", f"error: registry at 127.0.0.1:{port}: {in_use}\n")


def test_serve_on_a_host_name_it_cannot_encode_exits_2(tmp_path, capsys):
    # the IDNA codec refuses a label over 63 characters
    directory, host = write(tmp_path / "labs.txt", ""), "\u00fc" * 64
    assert main(["registry", "serve", "--host", host, "--port", "0", "--directory", directory]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: registry at {host}:0: ")


# Each process imports the CLI, says it is ready, then waits for the gate file
# before it runs its command, so that the commands start together rather than
# an interpreter start-up apart.
GATED_MAIN = """
import os, sys, time
from backtrack.cli import main
gate = sys.argv[1]
open(f"{gate}.{os.getpid()}", "w").close()
while not os.path.exists(gate):
    time.sleep(0.001)
sys.exit(main(sys.argv[2:]))
"""


def run_together(gate_dir, argvs, timeout=60.0):
    """Run one CLI process per argv, all commands started together; each
    one's exit code and stdout, in argv order."""
    gate_dir.mkdir()
    gate = str(gate_dir / "go")
    src = str(Path(backtrack.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    procs = [
        subprocess.Popen([sys.executable, "-c", GATED_MAIN, gate, *argv],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
        for argv in argvs
    ]
    try:
        deadline = time.monotonic() + timeout
        while len(os.listdir(gate_dir)) < len(procs):
            assert time.monotonic() < deadline, "the processes never got ready"
            time.sleep(0.01)
        Path(gate).touch()
        outs = [p.communicate(timeout=timeout)[0] for p in procs]
        return [(p.returncode, out) for p, out in zip(procs, outs)]
    finally:
        for p in procs:
            if p.returncode is None:
                p.kill()
                p.communicate()


class TestConcurrentWriters:
    """Eight runs of one read-modify-write command on one file at once: each
    write acknowledged by exit 0 is in the final file."""

    def test_bizlog_appends(self, tmp_path):
        chain, head = str(tmp_path / "chain.txt"), str(tmp_path / "head.txt")
        bizlog.save_chain(bizlog.append_visit(bizlog.VisitorLog(), Pid("v0"), 100.0), chain, head)
        pids = [f"v{i}" for i in range(1, 9)]
        results = run_together(tmp_path / "gate", [
            ["bizlog", "append", "--chain", chain, "--head", head, "--pid", pid, "--at", "200"]
            for pid in pids
        ])
        log = bizlog.load_chain(chain, head)
        assert bizlog.verify_chain(log).intact
        seq = {v.pid: v.seq for v in log.chain}
        for pid, (code, out) in zip(pids, results):
            assert (code, out) == (0, f"appended|{seq.get(pid)}\n"), pid
        assert len(log.chain) == 9

    def test_cert_keygens(self, tmp_path):
        directory = str(tmp_path / "labs.txt")
        labs = [f"lab-{i}" for i in range(8)]
        results = run_together(tmp_path / "gate", [
            ["cert", "keygen", "--lab-id", lab, "--key-out", str(tmp_path / f"{lab}.key"),
             "--directory", directory]
            for lab in labs
        ])
        published = wire.load(directory, LabDirectory.from_lines)
        for lab, (code, out) in zip(labs, results):
            assert (code, out) == (0, f"{lab}\n"), lab
            key = wire.load(str(tmp_path / f"{lab}.key"), LabIdentity.from_lines).public_bytes()
            lookup = published.lookup(lab)
            assert lookup is not None and lookup.public_bytes_raw() == key, lab

    def test_log_prunes(self, tmp_path):
        # 400 entries, one every 2.4 h over 40 days; prune i keeps 21 days
        # before day 21 + 2i, so its cutoff is day 2i
        entries = [make_entry(peer_pid=f"p{k}", recorded_at=k * DAY / 10) for k in range(400)]
        path = str(tmp_path / "contact.log")
        contactlog.save_log(make_log(*entries), path)
        cutoffs = [2 * i * DAY for i in range(8)]
        results = run_together(tmp_path / "gate", [
            ["log", "prune", "--log", path, "--now", str(cutoff + 21 * DAY)] for cutoff in cutoffs
        ])
        assert [code for code, _ in results] == [0] * 8
        kept = contactlog.load_log(path).entries
        latest = max(cutoffs)
        expected = [e.recorded_at for e in entries if e.recorded_at >= latest]
        assert [e.recorded_at for e in kept] == expected
        assert sum(int(out.split("|")[1]) for _, out in results) == len(entries) - len(kept)
