"""Certificates of infection.

A lab signs a canonical payload binding one or more PIDs to a positive test
date and an infectious-from date. Verification resolves the lab's public key
through a flat-file directory.
"""

from __future__ import annotations

import base64
import enum
from dataclasses import dataclass
from datetime import date, datetime, timezone

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import wire
from .identity import Pid, check_token

SCHEME_ED25519 = "ed25519"


class VerificationStatus(enum.Enum):
    VERIFIED = "VERIFIED"
    UNKNOWN_LAB = "UNKNOWN-LAB"
    BAD_SIGNATURE = "BAD-SIGNATURE"


@dataclass(frozen=True)
class LabIdentity:
    lab_id: str
    private_key: Ed25519PrivateKey

    def __post_init__(self) -> None:
        check_token(self.lab_id, "lab id")

    @classmethod
    def generate(cls, lab_id: str) -> "LabIdentity":
        return cls(lab_id=lab_id, private_key=Ed25519PrivateKey.generate())

    @classmethod
    def from_seed(cls, lab_id: str, seed: bytes) -> "LabIdentity":
        """Deterministic keypair from 32 seed bytes (simulator reproducibility)."""
        if len(seed) != 32:
            raise ValueError("seed must be exactly 32 bytes")
        return cls(lab_id=lab_id, private_key=Ed25519PrivateKey.from_private_bytes(seed))

    def public_bytes(self) -> bytes:
        return self.private_key.public_key().public_bytes_raw()

    def to_lines(self) -> str:
        """The lab-key file: `labkey|<lab>|ed25519|<base64 32-byte seed>`."""
        return _key_line("labkey", self.lab_id, self.private_key.private_bytes_raw()) + "\n"

    @classmethod
    def from_lines(cls, text: str) -> "LabIdentity":
        return cls.from_seed(*_parse_key_line("labkey", wire.only_line(text)))


def _key_line(tag: str, lab_id: str, key: bytes) -> str:
    return f"{tag}|{lab_id}|{SCHEME_ED25519}|{base64.b64encode(key).decode('ascii')}"


def _parse_key_line(tag: str, line: str) -> tuple[str, bytes]:
    """The lab id and key bytes of a line `_key_line` writes back byte for
    byte; a message never quotes the line, which may hold a private key."""
    parts = line.split("|")
    if len(parts) != 4 or parts[0] != tag or parts[2] != SCHEME_ED25519:
        raise ValueError("malformed lab key line")
    lab_id, key = parts[1], base64.b64decode(parts[3], validate=True)
    if _key_line(tag, lab_id, key) != line:
        raise ValueError("non-canonical lab key line")
    return lab_id, key


class LabDirectory:
    """Published lab_id -> Ed25519 public key map; immutable after load."""

    def __init__(self) -> None:
        self._keys: dict[str, Ed25519PublicKey] = {}

    def add(self, lab_id: str, public_key: bytes) -> None:
        """Raises ValueError for a bad lab id, a duplicate, or a key that is
        not 32 bytes."""
        check_token(lab_id, "lab id")
        if lab_id in self._keys:
            raise ValueError(f"duplicate lab_id {lab_id!r}")
        self._keys[lab_id] = Ed25519PublicKey.from_public_bytes(public_key)

    def add_lab(self, lab: LabIdentity) -> None:
        self.add(lab.lab_id, lab.public_bytes())

    def lookup(self, lab_id: str) -> Ed25519PublicKey | None:
        return self._keys.get(lab_id)

    def to_lines(self) -> str:
        """One `lab|<lab>|ed25519|<base64 32-byte public key>` line per lab."""
        return "".join(
            _key_line("lab", lab_id, key.public_bytes_raw()) + "\n"
            for lab_id, key in sorted(self._keys.items())
        )

    @classmethod
    def from_lines(cls, text: str) -> "LabDirectory":
        directory = cls()
        for line in wire.replaced_lines(text):
            try:
                directory.add(*_parse_key_line("lab", line))
            except ValueError as exc:
                raise ValueError(f"bad directory line {line!r}: {exc}") from exc
        return directory


@dataclass(frozen=True)
class CertificateOfInfection:
    lab_id: str
    test_date: date
    infectious_from: date
    pids: tuple[Pid, ...]
    signature: bytes


def canonical_certificate_payload(
    lab_id: str,
    test_date: date,
    infectious_from: date,
    pids: tuple[Pid, ...],
) -> bytes:
    """Deterministic signing payload; injective because PIDs exclude `|` and `,`."""
    joined = ",".join(pids)
    return (
        f"cert|v1|{lab_id}|{test_date.isoformat()}|{infectious_from.isoformat()}|{joined}"
    ).encode("utf-8")


def issue_certificate(
    lab: LabIdentity,
    pids: list[Pid] | tuple[Pid, ...],
    test_date: date,
    infectious_from: date,
) -> CertificateOfInfection:
    if not pids:
        raise ValueError("certificate needs at least one PID")
    if len(set(pids)) != len(pids):
        raise ValueError("duplicate PIDs in certificate")
    if infectious_from > test_date:
        raise ValueError(f"infectious_from {infectious_from} after test_date {test_date}")
    pids = tuple(pids)
    payload = canonical_certificate_payload(lab.lab_id, test_date, infectious_from, pids)
    return CertificateOfInfection(
        lab_id=lab.lab_id,
        test_date=test_date,
        infectious_from=infectious_from,
        pids=pids,
        signature=lab.private_key.sign(payload),
    )


def verify_certificate(
    cert: CertificateOfInfection, directory: LabDirectory
) -> VerificationStatus:
    key = directory.lookup(cert.lab_id)
    if key is None:
        return VerificationStatus.UNKNOWN_LAB
    payload = canonical_certificate_payload(
        cert.lab_id, cert.test_date, cert.infectious_from, cert.pids
    )
    try:
        key.verify(cert.signature, payload)
    except InvalidSignature:
        return VerificationStatus.BAD_SIGNATURE
    return VerificationStatus.VERIFIED


def _day_start(d: date) -> float:
    return datetime(d.year, d.month, d.day, tzinfo=timezone.utc).timestamp()


def covers_contact(cert: CertificateOfInfection, contact_time: float) -> bool:
    """Whether the contact falls inside the infectious window
    [infectious_from 00:00, end of test_date) in UTC."""
    window_end = _day_start(cert.test_date) + 86400.0
    return _day_start(cert.infectious_from) <= contact_time < window_end


def certificate_to_line(cert: CertificateOfInfection) -> str:
    """One record: the signed payload, byte for byte, then `|` and the
    base64 signature."""
    payload = canonical_certificate_payload(
        cert.lab_id, cert.test_date, cert.infectious_from, cert.pids
    )
    return payload.decode("utf-8") + "|" + base64.b64encode(cert.signature).decode("ascii")


def parse_certificate_line(line: str) -> CertificateOfInfection:
    """Parse `cert|v1|<lab>|<test_date>|<infectious_from>|<pids>|<sig>`.

    Raises ValueError unless the line is exactly what certificate_to_line
    writes for the certificate it holds, so that no second spelling of a
    signed certificate is accepted.
    """
    parts = line.split("|")
    if len(parts) != 7 or parts[0] != "cert" or parts[1] != "v1":
        raise ValueError(f"malformed certificate line: {line!r}")
    check_token(parts[2], "lab id")
    cert = CertificateOfInfection(
        lab_id=parts[2],
        test_date=wire.parse_day(parts[3]),
        infectious_from=wire.parse_day(parts[4]),
        pids=tuple(Pid(v) for v in parts[5].split(",")),
        signature=base64.b64decode(parts[6], validate=True),
    )
    if certificate_to_line(cert) != line:
        raise ValueError(f"non-canonical certificate line: {line!r}")
    return cert


def certificate_to_file(cert: CertificateOfInfection) -> str:
    return certificate_to_line(cert) + "\n"


def parse_certificate_file(text: str) -> CertificateOfInfection:
    return parse_certificate_line(wire.only_line(text))
