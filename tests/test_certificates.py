import base64
import random
from datetime import date, datetime, timezone

import pytest
from hypothesis import given, strategies as st

from backtrack.certificates import (
    CertificateOfInfection,
    LabDirectory,
    LabIdentity,
    VerificationStatus,
    canonical_certificate_payload,
    certificate_to_line,
    covers_contact,
    issue_certificate,
    parse_certificate_line,
    verify_certificate,
)
from backtrack.identity import Pid


PARENT_CERT_PAYLOAD = "cert|v1|lab-A|2020-04-01|2020-03-25|P1,P2"
PARENT_CERT_SIG = (
    "dBQwbvQbBB1gkiBDBaWCbBWOSOh+CJMnqjMrPh0tngvXYuWGA1ti8J15/Bat13RHQ6+BYgR1ViUwLwMaDB+HCA=="
)


def ts(y, m, d, hh=0):
    return datetime(y, m, d, hh, tzinfo=timezone.utc).timestamp()


class TestCanonicalPayload:
    def test_single_pid(self):
        payload = canonical_certificate_payload(
            "labA", date(2020, 4, 1), date(2020, 3, 25), (Pid("P1"),)
        )
        assert payload == b"cert|v1|labA|2020-04-01|2020-03-25|P1"

    def test_multiple_pids_comma_joined_in_order(self):
        payload = canonical_certificate_payload(
            "labA", date(2020, 4, 1), date(2020, 3, 25), (Pid("P1"), Pid("P2"))
        )
        assert payload.endswith(b"|P1,P2")

    def test_deterministic(self):
        args = ("labA", date(2020, 4, 1), date(2020, 3, 25), (Pid("P1"),))
        assert canonical_certificate_payload(*args) == canonical_certificate_payload(*args)

    def test_injective_over_field_tuples(self):
        a = canonical_certificate_payload("lab", date(2020, 4, 1), date(2020, 3, 25), (Pid("P1"), Pid("P2")))
        b = canonical_certificate_payload("lab", date(2020, 4, 1), date(2020, 3, 25), (Pid("P1P2"),))
        assert a != b


class TestIssueVerify:
    def test_round_trip(self, lab, directory):
        cert = issue_certificate(lab, [Pid("P1")], date(2020, 4, 1), date(2020, 3, 25))
        assert verify_certificate(cert, directory) is VerificationStatus.VERIFIED

    def test_empty_pid_list(self, lab):
        with pytest.raises(ValueError, match="at least one PID"):
            issue_certificate(lab, [], date(2020, 4, 1), date(2020, 3, 25))

    def test_invalid_dates(self, lab):
        with pytest.raises(ValueError, match="after test_date"):
            issue_certificate(lab, [Pid("P1")], date(2020, 4, 1), date(2020, 4, 2))

    def test_duplicate_pids_rejected(self, lab):
        with pytest.raises(ValueError):
            issue_certificate(lab, [Pid("P1"), Pid("P1")], date(2020, 4, 1), date(2020, 3, 25))

    def test_mutated_pid_breaks_signature(self, lab, directory):
        cert = issue_certificate(lab, [Pid("P1")], date(2020, 4, 1), date(2020, 3, 25))
        tampered = CertificateOfInfection(
            lab_id=cert.lab_id,
            test_date=cert.test_date,
            infectious_from=cert.infectious_from,
            pids=(Pid("P2"),),
            signature=cert.signature,
        )
        assert verify_certificate(tampered, directory) is VerificationStatus.BAD_SIGNATURE

    def test_unknown_lab(self, lab):
        cert = issue_certificate(lab, [Pid("P1")], date(2020, 4, 1), date(2020, 3, 25))
        assert verify_certificate(cert, LabDirectory()) is VerificationStatus.UNKNOWN_LAB

    @given(
        st.dates(min_value=date(2019, 1, 1), max_value=date(2030, 1, 1)),
        st.integers(min_value=0, max_value=30),
        st.lists(
            st.text(alphabet="0123456789abcdef", min_size=4, max_size=32),
            min_size=1, max_size=5, unique=True,
        ),
    )
    def test_sign_verify_property(self, test_date, back_days, pid_values):
        from datetime import timedelta

        lab = LabIdentity.from_seed("lab-P", bytes(range(32)))
        directory = LabDirectory()
        directory.add_lab(lab)
        cert = issue_certificate(
            lab,
            [Pid(v) for v in pid_values],
            test_date,
            test_date - timedelta(days=back_days),
        )
        assert verify_certificate(cert, directory) is VerificationStatus.VERIFIED


class TestCoveringWindow:
    def cert(self, lab):
        return issue_certificate(lab, [Pid("P1"), Pid("P2")], date(2020, 4, 1), date(2020, 3, 25))

    def test_contact_inside_window(self, lab):
        cert = self.cert(lab)
        assert covers_contact(cert, ts(2020, 3, 28, 12))

    def test_contact_far_before(self, lab):
        assert not covers_contact(self.cert(lab), ts(2020, 2, 23))

    def test_boundary_start_of_infectious_day(self, lab):
        # closed at the window start: 00:00 on infectious_from is covered
        cert = self.cert(lab)
        assert covers_contact(cert, ts(2020, 3, 25, 0))
        assert not covers_contact(cert, ts(2020, 3, 25, 0) - 1)

    def test_end_of_test_day_covered(self, lab):
        cert = self.cert(lab)
        assert covers_contact(cert, ts(2020, 4, 2, 0) - 1)
        assert not covers_contact(cert, ts(2020, 4, 2, 0))

    def test_end_of_last_representable_day_covered(self, lab):
        # 9999-12-31 has no next date, so its end is counted in seconds
        cert = issue_certificate(lab, [Pid("P1")], date(9999, 12, 31), date(1970, 1, 1))
        end = ts(9999, 12, 31) + 86400
        assert covers_contact(cert, end - 1)
        assert not covers_contact(cert, end)


class TestFileFormats:
    def test_directory_round_trip(self, lab):
        d = LabDirectory()
        d.add_lab(lab)
        d.add("lab-B", b"\x01" * 32)
        text = d.to_lines()
        again = LabDirectory.from_lines(text)
        assert again.to_lines() == text
        assert again.lookup("lab-A") == d.lookup("lab-A")

    @pytest.mark.parametrize(
        "line",
        [
            "lab|lab-A|ed25519|AAAA",  # 3 bytes, not a 32-byte key
            "lab|lab-A|ed25519|" + base64.b64encode(bytes(33)).decode("ascii"),
            "lab|lab-A|rsa|" + base64.b64encode(bytes(32)).decode("ascii"),
            "lab|lab-A||" + base64.b64encode(bytes(32)).decode("ascii"),
        ],
    )
    def test_directory_refuses_bad_scheme_or_key(self, line):
        with pytest.raises(ValueError, match="directory line"):
            LabDirectory.from_lines(line + "\n")

    def test_directory_refuses_short_key_on_add(self):
        with pytest.raises(ValueError):
            LabDirectory().add("lab-A", bytes(31))

    def test_duplicate_lab_rejected(self, lab):
        d = LabDirectory()
        d.add_lab(lab)
        with pytest.raises(ValueError):
            d.add_lab(lab)

    @pytest.mark.parametrize("seed", [bytes(31), bytes(33)])
    def test_seed_must_be_32_bytes(self, seed):
        with pytest.raises(ValueError, match="seed must be exactly 32 bytes"):
            LabIdentity.from_seed("lab-A", seed)

    @pytest.mark.parametrize("lab_id", ["x|y", "a b", "a,b", "", "x" * 65])
    def test_lab_id_follows_pid_rule(self, lab_id):
        with pytest.raises(ValueError):
            LabIdentity.from_seed(lab_id, bytes(32))
        with pytest.raises(ValueError):
            LabDirectory().add(lab_id, bytes(32))

    def test_certificate_file_round_trip(self, lab, directory):
        cert = issue_certificate(lab, [Pid("P1"), Pid("P2")], date(2020, 4, 1), date(2020, 3, 25))
        text = certificate_to_line(cert)
        assert "\n" not in text
        again = parse_certificate_line(text)
        assert again == cert
        assert verify_certificate(again, directory) is VerificationStatus.VERIFIED

    def test_certificate_from_two_line_format_verifies_on_one_line(self, lab, directory):
        # issued by the two-line format (payload line, then `sig|<base64>`);
        # the one-line format keeps the signed payload byte for byte
        line = PARENT_CERT_PAYLOAD + "|" + PARENT_CERT_SIG
        cert = parse_certificate_line(line)
        assert verify_certificate(cert, directory) is VerificationStatus.VERIFIED
        assert cert == issue_certificate(lab, [Pid("P1"), Pid("P2")], date(2020, 4, 1), date(2020, 3, 25))
        assert certificate_to_line(cert) == line

    def test_signature_tail_mutations_never_verify(self, lab, directory):
        # base64 leaves spare bits in the last characters of a 64-byte
        # signature; a lax decoder maps several spellings to one signature
        text = certificate_to_line(
            issue_certificate(lab, [Pid("P1")], date(2020, 4, 1), date(2020, 3, 25))
        )
        for pos in range(len(text) - 4, len(text)):
            for repl in map(chr, range(32, 127)):
                if repl == text[pos]:
                    continue
                try:
                    tampered = parse_certificate_line(text[:pos] + repl + text[pos + 1:])
                except ValueError:
                    continue
                assert verify_certificate(tampered, directory) is not VerificationStatus.VERIFIED

    @pytest.mark.parametrize("text", [
        "cert|v1|lab-A|20200401|2020-03-25|P1|AAAA",
        "cert|v1|lab-A|2020-04-01|2020-03-25|P1\nsig|AAAA",
        "cert|v1|lab A|2020-04-01|2020-03-25|P1|AAAA",
        "cert|v1|lab-A|2020-04-01|2020-03-25|P1|AA AA",
        "cert|v1|lab-A|2020-04-01|2020-03-25||AAAA",
    ])
    def test_malformed_certificate_line(self, text):
        with pytest.raises(ValueError):
            parse_certificate_line(text)

    def test_single_byte_mutations_never_verify(self, lab, directory):
        cert = issue_certificate(lab, [Pid("P1")], date(2020, 4, 1), date(2020, 3, 25))
        text = certificate_to_line(cert)
        rng = random.Random(9)
        flipped = 0
        for _ in range(200):
            pos = rng.randrange(len(text))
            repl = chr(rng.randrange(33, 127))
            if text[pos] == repl:
                continue
            mutated = text[:pos] + repl + text[pos + 1:]
            try:
                tampered = parse_certificate_line(mutated)
            except ValueError:
                continue  # unparsable mutants count as rejected
            assert verify_certificate(tampered, directory) in (
                VerificationStatus.BAD_SIGNATURE,
                VerificationStatus.UNKNOWN_LAB,
            )
            flipped += 1
        assert flipped > 50
