import hashlib
import os
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from backtrack.bizlog import (
    GENESIS_HASH,
    ChainedVisit,
    EvidenceVerdict,
    VisitorLog,
    append_visit,
    chain_to_lines,
    evidence_query,
    parse_chain,
    parse_head,
    save_chain,
    verify_chain,
    visit_payload,
)
from backtrack.identity import Pid


def chain_of(n, business="cafe"):
    log = VisitorLog(business_id=business)
    for i in range(n):
        append_visit(log, Pid(f"pid{i:04d}"), 100.0 * (i + 1))
    return log


def linked_hash(prev_hash, visit):
    payload = visit_payload(visit.seq, visit.visited_at, visit.pid)
    return hashlib.sha256(bytes.fromhex(prev_hash) + payload.encode("utf-8")).hexdigest()


def load(chain_path, head_path):
    with open(chain_path) as chain, open(head_path) as head:
        return parse_chain(chain.read(), parse_head(head.read()))


class TestAppend:
    def test_genesis(self):
        log = chain_of(1)
        assert log.chain[0].seq == 1
        assert log.chain[0].entry_hash == linked_hash(GENESIS_HASH, log.chain[0])

    def test_link(self):
        log = chain_of(2)
        assert log.chain[1].entry_hash == linked_hash(log.chain[0].entry_hash, log.chain[1])
        assert log.head == log.chain[1].entry_hash

    def test_out_of_order(self):
        log = chain_of(2)
        with pytest.raises(ValueError, match="precedes head visit"):
            append_visit(log, Pid("late"), 50.0)

    @pytest.mark.parametrize("at", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_refused(self, at):
        log = chain_of(2)
        with pytest.raises(ValueError, match="is not finite"):
            append_visit(log, Pid("late"), at)
        assert log == chain_of(2)
        with pytest.raises(ValueError, match="is not finite"):
            append_visit(VisitorLog(), Pid("first"), at)

    def test_equal_timestamp_allowed(self):
        log = chain_of(1)
        append_visit(log, Pid("same"), 100.0)
        assert len(log.chain) == 2


class TestVerify:
    def test_intact_100_entries(self):
        assert verify_chain(chain_of(100)).intact

    def test_mutated_pid_localized(self):
        log = chain_of(100)
        log.chain[36] = replace(log.chain[36], pid=Pid("evil"))
        check = verify_chain(log)
        assert not check.intact
        assert check.tampered_at == 37

    def test_mutated_timestamp_localized(self):
        log = chain_of(50)
        log.chain[10] = replace(log.chain[10], visited_at=999999.0)
        assert verify_chain(log).tampered_at == 11

    def test_truncation_with_stale_head(self):
        log = chain_of(10)
        log.chain.pop()
        check = verify_chain(log)
        assert not check.intact
        assert check.tampered_at == 10

    def test_empty_chain_intact(self):
        assert verify_chain(VisitorLog(business_id="cafe")).intact

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31))
    def test_append_then_verify_always_intact(self, n, seed):
        rng = random.Random(seed)
        log = VisitorLog(business_id="b")
        t = 0.0
        for _ in range(n):
            t += rng.uniform(0, 100)
            append_visit(log, Pid(f"{rng.getrandbits(64):016x}"), t)
        assert verify_chain(log).intact

    def test_random_single_field_mutations_detected_exactly(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randrange(2, 120)
            log = chain_of(n)
            victim = rng.randrange(n)
            field = rng.choice(["pid", "visited_at", "entry_hash"])
            if field == "pid":
                mutated = replace(log.chain[victim], pid=Pid("tampered"))
            elif field == "visited_at":
                mutated = replace(log.chain[victim], visited_at=log.chain[victim].visited_at + 1)
            else:
                mutated = replace(log.chain[victim], entry_hash="f" * 64)
            log.chain[victim] = mutated
            check = verify_chain(log)
            assert not check.intact
            assert check.tampered_at == victim + 1


class TestEvidence:
    def repo_with(self, *pids):
        member = set(pids)
        return lambda pid: pid.value in member

    def test_visit_and_certified(self):
        log = chain_of(5)
        verdict = evidence_query(log, Pid("pid0002"), 0.0, 1000.0, self.repo_with("pid0002"))
        assert verdict is EvidenceVerdict.VISIT_AND_CERTIFIED

    def test_no_visit_recorded(self):
        log = chain_of(5)
        verdict = evidence_query(log, Pid("stranger"), 0.0, 1000.0, self.repo_with("stranger"))
        assert verdict is EvidenceVerdict.NO_VISIT_RECORDED

    def test_visit_outside_window(self):
        log = chain_of(5)
        verdict = evidence_query(log, Pid("pid0004"), 0.0, 400.0, self.repo_with("pid0004"))
        assert verdict is EvidenceVerdict.NO_VISIT_RECORDED

    def test_not_certified_sick(self):
        log = chain_of(5)
        verdict = evidence_query(log, Pid("pid0002"), 0.0, 1000.0, self.repo_with())
        assert verdict is EvidenceVerdict.NOT_CERTIFIED_SICK

    def test_invalid_window(self):
        with pytest.raises(ValueError, match="from 10.0 > to 5.0"):
            evidence_query(chain_of(1), Pid("x"), 10.0, 5.0, self.repo_with())

    def test_pure_given_fixed_repo(self):
        log = chain_of(5)
        args = (Pid("pid0002"), 0.0, 1000.0, self.repo_with("pid0002"))
        assert evidence_query(log, *args) == evidence_query(log, *args)


class TestFiles:
    def test_round_trip(self, tmp_path):
        log = chain_of(7)
        chain_path, head_path = str(tmp_path / "chain.txt"), str(tmp_path / "head.txt")
        save_chain(log, chain_path, head_path)
        loaded = load(chain_path, head_path)
        assert loaded.chain == log.chain
        assert loaded.head == log.head
        assert verify_chain(loaded).intact

    def test_edited_file_detected(self, tmp_path):
        log = chain_of(5)
        chain_path, head_path = str(tmp_path / "chain.txt"), str(tmp_path / "head.txt")
        save_chain(log, chain_path, head_path)
        text = Path(chain_path).read_text().replace("pid0001", "pid9999")
        Path(chain_path).write_text(text)
        loaded = load(chain_path, head_path)
        assert verify_chain(loaded).tampered_at == 2

    def test_failed_save_leaves_old_files(self, tmp_path, monkeypatch):
        chain_path, head_path = str(tmp_path / "chain.txt"), str(tmp_path / "head.txt")
        save_chain(chain_of(3), chain_path, head_path)
        before = Path(chain_path).read_bytes(), Path(head_path).read_bytes()

        def crash(src, dst):
            raise OSError("crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            save_chain(chain_of(5), chain_path, head_path)
        assert (Path(chain_path).read_bytes(), Path(head_path).read_bytes()) == before
        assert sorted(os.listdir(tmp_path)) == ["chain.txt", "head.txt"]

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_chain("visit|1|1|x\n", GENESIS_HASH)

    @pytest.mark.parametrize(
        "edit", [("visit|1|100|", "visit|01|1e2|"), ("|100|", "|100.0|"), ("visit|1|", "visit|+1|")]
    )
    def test_non_canonical_visit_line_refused(self, edit):
        # each spelling reads back as the same visit, so its hash still checks
        text = chain_to_lines(chain_of(2)).replace(*edit, 1)
        assert text != chain_to_lines(chain_of(2))
        with pytest.raises(ValueError):
            parse_chain(text, chain_of(2).head)

    @pytest.mark.parametrize("at", ["nan", "inf", "-inf"])
    def test_non_finite_time_refused(self, at):
        # a correctly hashed line, so only its time can refuse it
        visit = ChainedVisit(1, float(at), Pid("v"), "")
        visit = replace(visit, entry_hash=linked_hash(GENESIS_HASH, visit))
        log = VisitorLog(chain=[visit], head=visit.entry_hash)
        assert verify_chain(log).intact
        with pytest.raises(ValueError, match="not finite"):
            parse_chain(chain_to_lines(log), log.head)

    def test_one_line_per_visit_and_hashes_unchanged(self, tmp_path):
        # the hashes the two-line format (`visit|...` then `hash|...`) stored
        chain_path, head_path = str(tmp_path / "chain.txt"), str(tmp_path / "head.txt")
        save_chain(chain_of(3), chain_path, head_path)
        assert Path(chain_path).read_text() == (
            "visit|1|100|pid0000|f5b2ea143e0d6900eef920096e122b30fb55c1b832ca1a16c283d20eccdf3ea8\n"
            "visit|2|200|pid0001|fd93b8e1786b3bc453605135846cd6fad7a68b387ca095d9c5baef8bcac245da\n"
            "visit|3|300|pid0002|129821fd3afd022cd58ce6221dca794f334ca7e27e1ad207e647a7fab98705bd\n"
        )
        assert verify_chain(load(chain_path, head_path)).intact
