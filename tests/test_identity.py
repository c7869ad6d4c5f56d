import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from backtrack import wire
from backtrack.identity import (
    Pad,
    Pid,
    active_pids_in_window,
    commitment_to_line,
    generate_random_pid,
    generate_trusted_pid,
    prove_pid_ownership,
)


class TestPid:
    def test_rejects_separator(self):
        with pytest.raises(ValueError):
            Pid("abc|def")

    def test_rejects_comma(self):
        with pytest.raises(ValueError):
            Pid("abc,def")

    def test_rejects_whitespace_and_empty(self):
        with pytest.raises(ValueError):
            Pid("ab cd")
        with pytest.raises(ValueError):
            Pid("")
        with pytest.raises(ValueError):
            Pid("x" * 65)

    def test_exact_equality(self):
        assert Pid("abc") == Pid("abc")
        assert Pid("abc") != Pid("abC")

    def test_is_the_text_itself(self):
        # a Pid keys a table exactly as its text does
        assert Pid("ab") == "ab"
        assert hash(Pid("ab")) == hash("ab")
        assert {"ab": 1}[Pid("ab")] == 1

    @pytest.mark.parametrize("make", [lambda: Pid("ab"), lambda: Pad("a@b")])
    def test_no_instance_dict(self, make):
        assert not hasattr(make(), "__dict__")

    def test_value_is_a_plain_str(self):
        value = Pid("ab").value
        assert type(value) is str and value == "ab"

    @given(st.text(min_size=1, max_size=64))
    def test_constructed_pids_never_contain_separator(self, s):
        try:
            pid = Pid(s)
        except ValueError:
            return
        assert "|" not in pid.value and "," not in pid.value


class TestPad:
    def test_valid(self):
        assert Pad("me@example.org") == "me@example.org"

    @pytest.mark.parametrize(
        "bad", ["nodomain@", "@nolocal", "noat", "a|b@c", "a@b@c", "evil\nentry@box", "a@x\x00"]
    )
    def test_malformed(self, bad):
        with pytest.raises(ValueError, match="PAD must be"):
            Pad(bad)


class TestRandomPid:
    def test_deterministic_for_fixed_seed(self):
        assert generate_random_pid(42) == generate_random_pid(42)

    def test_distinct_seeds_distinct_pids(self):
        assert generate_random_pid(42) != generate_random_pid(43)

    def test_format(self):
        pid = generate_random_pid(7)
        assert len(pid.value) == 32
        int(pid.value, 16)

    def test_ten_thousand_distinct(self):
        # 10k draws from a 128-bit space: collision probability < 1e-29
        rng = random.Random(1)
        pids = {generate_random_pid(rng).value for _ in range(10_000)}
        assert len(pids) == 10_000


class TestTrustedPid:
    def test_matches_independent_hash_oracle(self):
        # oracle: sha256 over name + 0x1f + phrase, first 32 hex chars
        expected = hashlib.sha256(b"Ada Lovelace\x1ftea at noon").hexdigest()[:32]
        c = generate_trusted_pid("Ada Lovelace", "tea at noon")
        assert c.pid.value == expected

    def test_deterministic(self):
        a = generate_trusted_pid("Ada Lovelace", "tea at noon")
        b = generate_trusted_pid("Ada Lovelace", "tea at noon")
        assert a.pid == b.pid

    def test_avalanche_on_distinct_inputs(self):
        a = generate_trusted_pid("Ada Lovelace", "tea at noon")
        b = generate_trusted_pid("Ada Lovelace", "tea at one")
        assert a.pid != b.pid

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="must be non-empty"):
            generate_trusted_pid("", "phrase")
        with pytest.raises(ValueError, match="must be non-empty"):
            generate_trusted_pid("name", "")

    def test_concatenation_ambiguity_resolved(self):
        a = generate_trusted_pid("ab", "c")
        b = generate_trusted_pid("a", "bc")
        assert a.pid != b.pid


class TestOwnership:
    def test_round_trip(self):
        c = generate_trusted_pid("Ada Lovelace", "tea at noon")
        assert prove_pid_ownership("Ada Lovelace", "tea at noon", c.pid)

    def test_correct_phrase_wrong_personal_data(self):
        # sharing the phrase alone must not let someone else claim the PID
        c = generate_trusted_pid("Ada Lovelace", "tea at noon")
        assert not prove_pid_ownership("Charles Babbage", "tea at noon", c.pid)

    def test_random_pid_not_owned(self):
        assert not prove_pid_ownership("Ada Lovelace", "tea at noon", generate_random_pid(5))

    @given(
        st.text(min_size=1, max_size=30),
        st.text(min_size=1, max_size=30),
    )
    def test_commitment_binding(self, data, phrase):
        pid = generate_trusted_pid(data, phrase).pid
        assert prove_pid_ownership(data, phrase, pid)
        assert not prove_pid_ownership(data + "x", phrase, pid)
        assert not prove_pid_ownership(data, phrase + "x", pid)


class TestActivePids:
    def period(self):
        return [(0.0, Pid("A")), (10 * 86400.0, Pid("B"))]

    def test_single_pid_whole_period(self):
        assert active_pids_in_window([(0.0, Pid("A"))], 0, 10**9) == [Pid("A")]

    def test_overlap_returns_both(self):
        p = self.period()
        assert active_pids_in_window(p, 5 * 86400.0, 15 * 86400.0) == [Pid("A"), Pid("B")]

    def test_window_before_first_activation(self):
        assert active_pids_in_window([(100.0, Pid("A"))], 0, 50) == []

    def test_invalid_window(self):
        with pytest.raises(ValueError, match="from 10 > to 5"):
            active_pids_in_window(self.period(), 10, 5)

    def test_brute_force_intersection(self):
        # oracle: per-day membership against explicit activation intervals
        p = self.period()
        for day in range(0, 25):
            lo, hi = day * 86400.0, (day + 1) * 86400.0 - 1
            expected = []
            if lo < 10 * 86400.0:
                expected.append(Pid("A"))
            if hi >= 10 * 86400.0:
                expected.append(Pid("B"))
            assert active_pids_in_window(p, lo, hi) == expected


class TestCommitmentFile:
    def test_round_trip_never_persists_phrase(self):
        c = generate_trusted_pid("Ada Lovelace", "tea at noon")
        line = commitment_to_line(c)
        assert "tea" not in line
        assert line == f"trusted-pid|{c.pid.value}|Ada%20Lovelace|"

    def test_personal_data_with_separator_chars(self):
        c = generate_trusted_pid("we|weird%name", "s3cret")
        tag, pid, personal, phrase = commitment_to_line(c).split("|")
        assert wire.unquote(personal) == "we|weird%name"
        assert (tag, pid, phrase) == ("trusted-pid", c.pid.value, "")
