"""Contact identification.

Beacon exchange of information records, log-distance RSSI <-> distance
conversion, per-peer contact sessions folded into a running dwell summary
as beacons arrive, and the versioned significant-contact decision rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .identity import Pad, Pid


@dataclass(frozen=True, slots=True)
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


# the default policy generation: a pessimistic 3.0 m for 10 minutes
POLICY_V1 = SignificancePolicy(version=1, max_distance_m=3.0, min_duration_s=600.0)

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
    """An open run of beacons with one peer, summarised as beacons arrive.

    Records are fixed at the first beacon.  Each beacon's time and its
    caller's judgement against the receiver's policy are folded into the
    dwell fields; no sample is stored, so the session stays the same size
    however long the contact lasts.
    """

    own_record: InformationRecord
    peer_record: InformationRecord
    last_seen: float  # the latest beacon: the next dwell increment is measured from it
    last_within: bool  # the latest beacon is within the policy distance
    any_within: bool  # some beacon was within the policy distance
    run_s: float = 0.0  # contiguous in-threshold dwell ending at the latest beacon
    best_s: float = 0.0  # longest contiguous in-threshold dwell so far

    @property
    def samples(self) -> tuple[float]:
        """The latest beacon's time, as a one-sample history.  Kept only for
        the benchmark tracer, which counts `len(samples)`; it goes with the
        benchmark revision (ROADMAP item 1)."""
        return (self.last_seen,)


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


def within_policy(rssi_dbm: float, policy: SignificancePolicy, model: ChannelModel) -> bool:
    """The significance rule for one sample: it is at least as strong as the
    channel model's RSSI at the policy's maximum distance.  The model falls
    strictly with distance, so this is "the sample's distance estimate is
    within the maximum distance", without rounding a distance on the way."""
    return rssi_dbm >= distance_to_rssi(policy.max_distance_m, model)


def ingest_beacon(
    session_table: dict[Pid, ContactSession],
    own: InformationRecord,
    peer: InformationRecord,
    at: float,
    within: bool,
    gap_timeout_s: float = DEFAULT_GAP_TIMEOUT_S,
) -> ContactSession | None:
    """Feed one beacon received at time `at`, judged `within` the receiver's
    policy by the caller (by `within_policy`'s RSSI threshold), into the
    session table.  Only the time and the judgement are folded in; no sample
    is stored.

    Folds the beacon into the open session for the peer PID, or closes it
    (returning it for classification) and opens a fresh one when the gap
    since the last beacon exceeds gap_timeout_s.  Dwell between consecutive
    beacons counts only when both are within the policy.
    """
    key = peer.pid
    session = session_table.get(key)
    if session is not None:
        last = session.last_seen
        if at < last:
            raise ValueError(f"sample at {at} precedes session last_seen {last}")
        if at - last <= gap_timeout_s:
            if within and session.last_within:
                run_s = session.run_s + (at - last)
                session.run_s = run_s
                if run_s > session.best_s:
                    session.best_s = run_s
            else:
                session.run_s = 0.0
            if within:
                session.any_within = True
            session.last_within = within
            session.last_seen = at
            return None
        del session_table[key]  # closed, and returned below
    session_table[key] = ContactSession(
        own_record=own,
        peer_record=peer,
        last_seen=at,
        last_within=within,
        any_within=within,
    )
    return session


def classify_contact(session: ContactSession, policy: SignificancePolicy) -> SignificanceVerdict:
    """Decide significance from the longest contiguous in-threshold dwell,
    under the receiver's policy, the one its beacons were judged by."""
    significant = session.any_within and session.best_s >= policy.min_duration_s
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
