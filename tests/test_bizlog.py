import hashlib
import math
import os
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from backtrack import bizlog, wire
from backtrack.bizlog import (
    GENESIS_HASH,
    ChainCheck,
    ChainedVisit,
    EvidenceVerdict,
    VisitorLog,
    append_visit,
    chain_to_lines,
    evidence_query,
    head_to_line,
    parse_chain,
    parse_head,
    save_chain,
    verify_chain,
    visit_payload,
)
from backtrack.identity import Pid


def chain_of(n):
    log = VisitorLog()
    for i in range(n):
        append_visit(log, Pid(f"pid{i:04d}"), 100.0 * (i + 1))
    return log


def linked_hash(prev_hash, visit):
    payload = visit_payload(visit.seq, visit.visited_at, visit.pid)
    return hashlib.sha256(bytes.fromhex(prev_hash) + payload.encode("utf-8")).hexdigest()


def load(chain_path, head_path):
    with open(chain_path) as chain, open(head_path) as head:
        return parse_chain(chain.read(), parse_head(head.read()))


# Tampering is an edit of the chain text, the threat the CLI faces between
# two commands: a log changes only through append_visit once it is built.


def chain_lines(log):
    return chain_to_lines(log).splitlines()


def reparse(lines, head):
    """The log parse_chain reads from these visit lines under head."""
    return parse_chain("".join(line + "\n" for line in lines), head)


def edited(log, index, **fields):
    """log read back, under its head, from its chain text with the given
    fields of the visit line at index rewritten."""
    lines = chain_lines(log)
    names = ("tag", "seq", "visited_at", "pid", "entry_hash")
    line = dict(zip(names, lines[index].split("|")), **fields)
    lines[index] = "|".join(line[name] for name in names)
    return reparse(lines, log.head)


def tamper(log, index, field):
    """log read back with one field of the visit at index changed in its
    text: the PID, the time (one second later) or the hash."""
    change = {
        "pid": "evil",
        "visited_at": wire.fmt_num(log.chain[index].visited_at + 1),
        "entry_hash": "f" * 64,
    }
    return edited(log, index, **{field: change[field]})


def full_rehash(log):
    """The audit of log's text parsed afresh, which has no checkpoint."""
    return verify_chain(parse_chain(chain_to_lines(log), log.head))


def hashes_seen(monkeypatch):
    """The seq of every visit hashed from now on, in order."""
    hashed = []
    hash_entry = bizlog._hash_entry
    monkeypatch.setattr(bizlog, "_hash_entry", lambda *a: hashed.append(a[1]) or hash_entry(*a))
    return hashed


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
        assert (log.chain, log.head) == (chain_of(2).chain, chain_of(2).head)
        with pytest.raises(ValueError, match="is not finite"):
            append_visit(VisitorLog(), Pid("first"), at)

    def test_no_instance_dict(self):
        assert not hasattr(chain_of(1).chain[0], "__dict__")

    def test_equal_timestamp_allowed(self):
        log = chain_of(1)
        append_visit(log, Pid("same"), 100.0)
        assert len(log.chain) == 2


class TestReadOnly:
    """Only append_visit changes a log once it is built."""

    @pytest.mark.parametrize("change", [
        "log.chain[0] = log.chain[1]",
        "log.chain[0:1] = []",
        "del log.chain[0]",
        "log.chain.append(log.chain[0])",
        "log.chain.pop()",
        "log.chain.insert(0, log.chain[0])",
        "log.chain.extend(log.chain)",
        "log.chain.remove(log.chain[0])",
        "log.chain.clear()",
        "log.chain.sort(key=id)",
        "log.chain.reverse()",
        "log.chain += [log.chain[0]]",
        "log.chain = []",
        "del log.chain",
        "log.head = GENESIS_HASH",
        "del log.head",
    ])
    def test_each_change_raises(self, change):
        log = chain_of(3)
        with pytest.raises((TypeError, AttributeError)):
            exec(change, {"log": log, "GENESIS_HASH": GENESIS_HASH})
        assert (log.chain, log.head) == (chain_of(3).chain, chain_of(3).head)
        assert verify_chain(log).intact

    def test_a_slice_and_the_constructor_take_copies(self):
        log = chain_of(3)
        visits = log.chain[:]
        visits.pop()
        built = VisitorLog(chain=visits, head=visits[-1].entry_hash)
        visits.clear()
        assert (len(log.chain), len(built.chain)) == (3, 2)
        assert verify_chain(built).intact


class TestVerify:
    def test_intact_100_entries(self):
        assert verify_chain(chain_of(100)).intact

    def test_mutated_pid_localized(self):
        check = verify_chain(edited(chain_of(100), 36, pid="evil"))
        assert not check.intact
        assert check.tampered_at == 37

    def test_mutated_timestamp_localized(self):
        assert verify_chain(edited(chain_of(50), 10, visited_at="999999")).tampered_at == 11

    def test_truncation_with_stale_head(self):
        log = chain_of(10)
        check = verify_chain(reparse(chain_lines(log)[:-1], log.head))
        assert not check.intact
        assert check.tampered_at == 10

    def test_empty_chain_intact(self):
        assert verify_chain(VisitorLog()).intact

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31))
    def test_append_then_verify_always_intact(self, n, seed):
        rng = random.Random(seed)
        log = VisitorLog()
        t = 0.0
        for _ in range(n):
            t += rng.uniform(0, 100)
            append_visit(log, Pid(f"{rng.getrandbits(64):016x}"), t)
        assert verify_chain(log).intact

    def test_random_single_field_mutations_detected_exactly(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randrange(2, 120)
            victim = rng.randrange(n)
            field = rng.choice(["pid", "visited_at", "entry_hash"])
            check = verify_chain(tamper(chain_of(n), victim, field))
            assert not check.intact
            assert check.tampered_at == victim + 1


def append_unchecked(log, pid, visited_at):
    """log read back from its chain text with a correctly hashed and linked
    visit appended under a head that commits it, skipping append_visit's
    time check."""
    visit = ChainedVisit(len(log.chain) + 1, visited_at, pid, "")
    prev_hash = log.chain[-1].entry_hash if log.chain else GENESIS_HASH
    visit = replace(visit, entry_hash=linked_hash(prev_hash, visit))
    line = f"{visit_payload(visit.seq, visit.visited_at, visit.pid)}|{visit.entry_hash}"
    return reparse([*chain_lines(log), line], visit.entry_hash)


def out_of_order_chain():
    """Visits at 500 s then 100 s."""
    log = append_unchecked(VisitorLog(), Pid("v1"), 500.0)
    return append_unchecked(log, Pid("v2"), 100.0)


def audited_chain(n):
    log = chain_of(n)
    assert verify_chain(log).intact
    return log


def mutated(log, kind, at):
    """log read back from its chain text or head line changed one way, and
    the seq its audit must report; None if log is too short for the change."""
    lines, n = chain_lines(log), len(log.chain)
    i = at % n
    if kind in ("pid", "visited_at", "entry_hash"):
        return tamper(log, i, kind), i + 1
    if kind == "forge-last":
        return edited(log, n - 1, pid="evil"), n
    if kind == "head":
        return reparse(lines, "f" * 64), n + 1
    if kind == "pop":
        return reparse(lines[:-1], log.head), n
    if kind == "delete":
        del lines[i]
        return reparse(lines, log.head), i + 1
    if n < 2:
        return None
    i = at % (n - 1)  # swap a visit with the next one
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return reparse(lines, log.head), i + 1


class TestAfterAudit:
    """An audited log's chain text, edited and read back. A log read afresh
    has no checkpoint, so its audit localizes each edit as a full rehash
    does; only visits appended to the same log skip the rehash."""

    def test_checkpoint_is_state_not_an_option(self, monkeypatch):
        with pytest.raises(TypeError):
            VisitorLog(audited=3)
        log = audited_chain(3)
        hashed = hashes_seen(monkeypatch)
        assert verify_chain(VisitorLog(chain=log.chain, head=log.head)).intact
        assert hashed == [1, 2, 3]

    def test_rehashes_only_the_visits_after_the_checkpoint(self, monkeypatch):
        log = audited_chain(100)
        for i in range(5):
            append_visit(log, Pid(f"new{i}"), 20000.0 + i)
        hashed = hashes_seen(monkeypatch)
        assert verify_chain(log).intact
        assert hashed == [101, 102, 103, 104, 105]
        hashed.clear()
        assert verify_chain(log).intact
        assert hashed == []
        assert verify_chain(edited(log, 3, pid="evil")) == ChainCheck(intact=False, tampered_at=4)
        assert hashed == [1, 2, 3, 4]

    @pytest.mark.parametrize("appended", [0, 3])
    @pytest.mark.parametrize("victim", [0, 17, 39])
    @pytest.mark.parametrize("field", ["pid", "visited_at", "entry_hash"])
    def test_replaced_audited_visit_localized(self, field, victim, appended):
        log = audited_chain(40)
        for i in range(appended):
            append_visit(log, Pid(f"new{i}"), 9000.0 + i)
        assert verify_chain(log).intact
        check = verify_chain(tamper(log, victim, field))
        assert check == ChainCheck(intact=False, tampered_at=victim + 1)

    def test_pop_last_audited_visit(self):
        log = audited_chain(10)
        check = verify_chain(reparse(chain_lines(log)[:-1], log.head))
        assert check == ChainCheck(intact=False, tampered_at=10)

    def test_pop_last_audited_visit_and_put_back_a_forgery(self):
        log = audited_chain(10)
        assert verify_chain(edited(log, 9, pid="evil")) == ChainCheck(intact=False, tampered_at=10)

    def test_pop_last_audited_visit_and_append_another(self):
        # the last line cut and the head rewritten to match read as the
        # shorter chain, which an append extends as it extends any chain
        log = audited_chain(10)
        cut = reparse(chain_lines(log)[:-1], log.chain[-2].entry_hash)
        append_visit(cut, Pid("other"), 1000.0)
        assert verify_chain(cut) == full_rehash(cut) == ChainCheck(intact=True)

    def test_reordered_audited_visits_localized(self):
        log = audited_chain(10)
        lines = chain_lines(log)
        lines[4], lines[5] = lines[5], lines[4]
        assert verify_chain(reparse(lines, log.head)) == ChainCheck(intact=False, tampered_at=5)

    @pytest.mark.parametrize("head", ["f" * 64, "earlier", GENESIS_HASH])
    def test_rewritten_head(self, head):
        log = audited_chain(10)
        line = f"head|{log.chain[-2].entry_hash if head == 'earlier' else head}\n"
        read = parse_chain(chain_to_lines(log), parse_head(line))
        if head == "earlier":
            # the commit rule: the visit after the head is not committed
            assert (read.chain, verify_chain(read)) == (chain_of(9).chain, ChainCheck(intact=True))
        else:
            assert verify_chain(read) == ChainCheck(intact=False, tampered_at=11)

    def test_tampered_result_keeps_the_checkpoint(self, monkeypatch):
        log = audited_chain(10)
        append_visit(log, Pid("new"), 5000.0)
        assert verify_chain(reparse(chain_lines(log), "f" * 64)) == ChainCheck(
            intact=False, tampered_at=12
        )
        read = edited(log, 3, pid="evil")
        hashed = hashes_seen(monkeypatch)
        assert verify_chain(read) == ChainCheck(intact=False, tampered_at=4)
        # an append after a tampered audit does not hide the edit from the next
        append_visit(read, Pid("later"), 6000.0)
        assert verify_chain(read) == ChainCheck(intact=False, tampered_at=4)
        assert hashed == [1, 2, 3, 4, 12, 1, 2, 3, 4]

    @given(
        st.lists(st.sampled_from(["append", "audit"]), max_size=40),
        st.sampled_from(["pid", "visited_at", "entry_hash", "pop", "forge-last", "delete",
                         "swap", "head"]),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_a_full_rehash(self, ops, kind, at):
        log = VisitorLog()
        t = 0.0
        for step, op in enumerate(ops):
            if op == "append":
                t += 10.0  # later than any mutated time
                append_visit(log, Pid(f"v{step}"), t)
                continue
            assert verify_chain(log) == full_rehash(log) == ChainCheck(intact=True)
            change = mutated(log, kind, at) if log.chain else None
            if change is not None:
                read, seq = change
                assert verify_chain(read) == ChainCheck(intact=False, tampered_at=seq)


class TestTimeOrder:
    def test_visit_earlier_than_its_predecessor_localized(self):
        assert verify_chain(out_of_order_chain()) == ChainCheck(intact=False, tampered_at=2)

    def test_earlier_visit_after_the_checkpoint_localized(self):
        log = append_unchecked(audited_chain(3), Pid("late"), 250.0)
        assert verify_chain(log) == full_rehash(log) == ChainCheck(intact=False, tampered_at=4)


def test_load_chain_reads_the_committed_prefix(tmp_path):
    chain_path, head_path = str(tmp_path / "chain.txt"), str(tmp_path / "head.txt")
    save_chain(chain_of(3), chain_path, head_path)
    loaded = bizlog.load_chain(chain_path, head_path)
    assert (loaded.chain, loaded.head) == (chain_of(3).chain, chain_of(3).head)
    # visits past the head were written by an append cut before its head write
    Path(chain_path).write_text(chain_to_lines(chain_of(5)))
    loaded = bizlog.load_chain(chain_path, head_path)
    assert (loaded.chain, loaded.head) == (chain_of(3).chain, chain_of(3).head)
    assert verify_chain(loaded).intact


@pytest.mark.parametrize("chain, head, committed", [
    (None, None, True),  # no files
    (1, None, True),  # the orphan seq-1 visit of a first append cut before its head
    (1, 1, False),
    (0, 0, False),
    (2, None, False),  # committed visits that lost their head
])
def test_nothing_committed(tmp_path, chain, head, committed):
    chain_path, head_path = str(tmp_path / "chain.txt"), str(tmp_path / "head.txt")
    if chain is not None:
        Path(chain_path).write_text(chain_to_lines(chain_of(chain)))
    if head is not None:
        Path(head_path).write_text(head_to_line(chain_of(head)))
    assert bizlog.nothing_committed(chain_path, head_path) is committed


def test_longer_chain_without_its_head_refused(tmp_path):
    chain_path, head_path = str(tmp_path / "chain.txt"), str(tmp_path / "head.txt")
    Path(chain_path).write_text(chain_to_lines(chain_of(2)))
    assert not bizlog.nothing_committed(chain_path, head_path)
    with pytest.raises(FileNotFoundError, match=re.escape(head_path)):
        bizlog.load_chain(chain_path, head_path)


class TestEvidence:
    def repo_with(self, *pids):
        member = set(pids)
        return lambda pid: pid in member

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


VISITORS = [Pid("v1"), Pid("v2"), Pid("v3")]
# few distinct times, so that visits share a time and bounds fall on visits
VISIT_TIMES = st.integers(0, 10).map(float)


@st.composite
def visitor_logs(draw):
    """A log built by append_visit, or parsed from a chain file in drawn or
    falling time order and cut at any visit's head; then extended by
    append_visit."""
    visits = draw(st.lists(st.tuples(st.sampled_from(VISITORS), VISIT_TIMES), max_size=20))
    how = draw(st.sampled_from(["appended", "parsed", "parsed-falling"]))
    if how == "appended":
        log = VisitorLog()
        for pid, at in sorted(visits, key=lambda visit: visit[1]):
            append_visit(log, pid, at)
    else:
        if how == "parsed-falling":
            visits.sort(key=lambda visit: -visit[1])
        source = VisitorLog()
        for pid, at in visits:
            source = append_unchecked(source, pid, at)
        heads = [v.entry_hash for v in source.chain] or [GENESIS_HASH]
        log = parse_chain(chain_to_lines(source), draw(st.sampled_from(heads)))
    at = max((v.visited_at for v in log.chain[-1:]), default=0.0)
    steps = st.integers(0, 3).map(float)
    for pid, step in draw(st.lists(st.tuples(st.sampled_from(VISITORS), steps), max_size=5)):
        at += step
        append_visit(log, pid, at)
    return log


def scanned_verdict(log, pid, window_from, window_to, certified):
    """The verdict of a scan over the whole chain, as evidence_query answered
    before it kept an index."""
    if not any(v.pid == pid and window_from <= v.visited_at <= window_to for v in log.chain):
        return EvidenceVerdict.NO_VISIT_RECORDED
    if not certified:
        return EvidenceVerdict.NOT_CERTIFIED_SICK
    return EvidenceVerdict.VISIT_AND_CERTIFIED


class TestEvidenceIndex:
    @settings(max_examples=300)
    @given(visitor_logs(), st.data())
    def test_answers_as_the_scan(self, log, data):
        # bounds at ±inf, on the log's visit times, anywhere, and equal
        bound = st.sampled_from([-math.inf, math.inf, *(v.visited_at for v in log.chain)])
        bound |= st.floats(allow_nan=False)
        window_from, window_to = sorted(
            data.draw(st.tuples(bound, bound) | bound.map(lambda b: (b, b)))
        )
        pid = data.draw(st.sampled_from([*VISITORS, Pid("absent")]))
        certified = data.draw(st.booleans())
        verdict = evidence_query(log, pid, window_from, window_to, lambda _: certified)
        assert verdict is scanned_verdict(log, pid, window_from, window_to, certified)

    @given(visitor_logs())
    def test_index_equals_a_rebuild_from_the_chain(self, log):
        # each visit is found at its own time, and only its own PID's are
        visited = {(v.pid, v.visited_at) for v in log.chain}
        for pid in {*VISITORS, Pid("absent")}:
            for at in {v.visited_at for v in log.chain}:
                verdict = evidence_query(log, pid, at, at, lambda _: True)
                assert (verdict is EvidenceVerdict.VISIT_AND_CERTIFIED) == ((pid, at) in visited)


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

    def test_append_interrupted_before_the_head_is_not_committed(self, tmp_path, monkeypatch):
        chain_path, head_path = str(tmp_path / "chain.txt"), str(tmp_path / "head.txt")
        log = chain_of(2)
        save_chain(log, chain_path, head_path)
        write_atomic = wire.write_atomic

        def crash_on_head(path, text):
            if path == head_path:
                raise OSError("crash before the head is replaced")
            write_atomic(path, text)

        monkeypatch.setattr(wire, "write_atomic", crash_on_head)
        with pytest.raises(OSError):
            save_chain(append_visit(log, Pid("pid0002"), 300.0), chain_path, head_path)
        monkeypatch.undo()
        assert Path(chain_path).read_text().count("\n") == 3  # written, not committed
        loaded = load(chain_path, head_path)
        assert loaded.chain == chain_of(2).chain
        assert verify_chain(loaded).intact
        # the retried append commits the visit once, under the next seq
        save_chain(append_visit(loaded, Pid("pid0002"), 300.0), chain_path, head_path)
        assert load(chain_path, head_path).chain == chain_of(3).chain

    def test_head_naming_an_earlier_visit_reads_as_that_chain(self):
        text = chain_to_lines(chain_of(5))
        assert parse_chain(text, chain_of(3).head).chain == chain_of(3).chain

    def test_head_naming_no_visit_keeps_every_visit(self):
        log = parse_chain(chain_to_lines(chain_of(3)), "f" * 64)
        assert log.chain == chain_of(3).chain
        assert verify_chain(log).tampered_at == 4

    def test_malformed_line_after_the_head_still_refused(self):
        text = chain_to_lines(chain_of(3)) + "visit|garbage\n"
        with pytest.raises(ValueError, match="malformed visit line"):
            parse_chain(text, chain_of(3).head)

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
