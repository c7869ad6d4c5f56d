"""Contact identification.

Beacon exchange of information records, log-distance RSSI <-> distance
conversion, per-peer contact sessions folded into a running dwell summary
as beacons arrive, and the versioned significant-contact decision rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .identity import Pad, Pid


@dataclass(frozen=True)
class InformationRecord:
    """The four-field beacon payload: PID, PAD, local time, local location label."""

    pid: Pid
    pad: Pad
    local_time: float
    local_location: str

    def __post_init__(self) -> None:
        if "|" in self.local_location:
            raise ValueError("location label must not contain '|'")


@dataclass(frozen=True)
class RssiSample:
    at: float
    rssi_dbm: float

    def __post_init__(self) -> None:
        if not -120.0 <= self.rssi_dbm <= 0.0:
            raise ValueError(f"RSSI {self.rssi_dbm} outside [-120, 0] dBm")


@dataclass(frozen=True)
class SignificancePolicy:
    """Versioned (max distance, min contiguous dwell) contact rule."""

    version: int
    max_distance_m: float
    min_duration_s: float

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ValueError("policy version must be positive")
        if not (0 < self.max_distance_m < math.inf and 0 <= self.min_duration_s < math.inf):
            raise ValueError("policy thresholds out of range")


# default policy generations: pessimistic 3.0 m first, tightened to 1.5 m later
POLICY_V1 = SignificancePolicy(version=1, max_distance_m=3.0, min_duration_s=600.0)
POLICY_V2 = SignificancePolicy(version=2, max_distance_m=1.5, min_duration_s=600.0)

DEFAULT_GAP_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ChannelModel:
    """Log-distance path-loss channel with lognormal shadowing."""

    ref_power_dbm: float = -59.0
    path_loss_exponent: float = 2.0
    shadowing_sigma_db: float = 0.0
    body_shadow_db: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError("channel parameters must be finite")
        if not 1.0 <= self.path_loss_exponent <= 6.0:
            raise ValueError("path loss exponent must be in [1, 6]")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma must be >= 0")
        if self.body_shadow_db < 0:
            raise ValueError("body shadow must be >= 0: blocking only weakens a signal")


@dataclass(slots=True)
class ContactSession:
    """An open run of beacons with one peer, summarised as samples arrive.

    Records are fixed at the first beacon.  Each sample is judged against the
    receiver's policy and channel on arrival and folded into the dwell fields,
    so the session stays the same size however long the contact lasts.
    """

    own_record: InformationRecord
    peer_record: InformationRecord
    policy: SignificancePolicy
    # only the latest sample: the next dwell increment is measured from it
    samples: list[RssiSample]
    last_seen: float
    last_within: bool  # the latest sample is within the policy distance
    any_within: bool  # some sample was within the policy distance
    run_s: float = 0.0  # contiguous in-threshold dwell ending at the latest sample
    best_s: float = 0.0  # longest contiguous in-threshold dwell so far


@dataclass(frozen=True)
class SignificanceVerdict:
    significant: bool
    dwell_s: float


def rssi_to_distance(rssi_dbm: float, model: ChannelModel) -> float:
    """Invert the log-distance model: d = 10^((ref - rssi) / (10 n))."""
    exponent = (model.ref_power_dbm - rssi_dbm) / (10.0 * model.path_loss_exponent)
    try:
        return 10.0 ** exponent
    except OverflowError:  # farther than the largest float
        return math.inf


def distance_to_rssi(
    true_distance_m: float,
    model: ChannelModel,
    noise_draw: float = 0.0,
    body_blocked: bool = False,
) -> float:
    """Forward channel for the simulator; exact inverse of rssi_to_distance
    when noise_draw is 0 and the path is unblocked."""
    if true_distance_m <= 0:
        raise ValueError(f"distance must be > 0, got {true_distance_m}")
    rssi = model.ref_power_dbm - 10.0 * model.path_loss_exponent * math.log10(true_distance_m)
    rssi += noise_draw * model.shadowing_sigma_db
    if body_blocked:
        rssi -= model.body_shadow_db
    return rssi


def ingest_beacon(
    session_table: dict[Pid, ContactSession],
    own: InformationRecord,
    peer: InformationRecord,
    sample: RssiSample,
    policy: SignificancePolicy,
    model: ChannelModel,
    gap_timeout_s: float = DEFAULT_GAP_TIMEOUT_S,
) -> ContactSession | None:
    """Feed one received beacon into the session table.

    Folds the sample into the open session for the peer PID, or closes it
    (returning it for classification) and opens a fresh one when the gap
    since the last sample exceeds gap_timeout_s.  Dwell between consecutive
    samples counts only when both per-sample distance estimates are within
    the receiver's policy threshold.
    """
    key = peer.pid
    open_session = session_table.get(key)
    closed: ContactSession | None = None
    if open_session is not None:
        if sample.at < open_session.last_seen:
            raise ValueError(
                f"sample at {sample.at} precedes session last_seen {open_session.last_seen}"
            )
        if sample.at - open_session.last_seen > gap_timeout_s:
            closed = session_table.pop(key)
            open_session = None
    within = rssi_to_distance(sample.rssi_dbm, model) <= policy.max_distance_m
    if open_session is None:
        session_table[key] = ContactSession(
            own_record=own,
            peer_record=peer,
            policy=policy,
            samples=[sample],
            last_seen=sample.at,
            last_within=within,
            any_within=within,
        )
    else:
        if within and open_session.last_within:
            open_session.run_s += sample.at - open_session.last_seen
            if open_session.run_s > open_session.best_s:
                open_session.best_s = open_session.run_s
        else:
            open_session.run_s = 0.0
        open_session.any_within = open_session.any_within or within
        open_session.last_within = within
        open_session.samples[0] = sample
        open_session.last_seen = sample.at
    return closed


def classify_contact(session: ContactSession) -> SignificanceVerdict:
    """Decide significance from the longest contiguous in-threshold dwell,
    under the policy the session's samples were judged by."""
    significant = session.any_within and session.best_s >= session.policy.min_duration_s
    return SignificanceVerdict(significant=significant, dwell_s=session.best_s)


def close_expired_sessions(
    session_table: dict[Pid, ContactSession],
    now: float,
    gap_timeout_s: float = DEFAULT_GAP_TIMEOUT_S,
) -> list[ContactSession]:
    """Remove and return, in key order, every session idle for longer than
    gap_timeout_s, by the idle-time test `ingest_beacon` splits sessions with."""
    stale_keys = sorted(
        k for k, s in session_table.items() if now - s.last_seen > gap_timeout_s
    )
    return [session_table.pop(k) for k in stale_keys]
