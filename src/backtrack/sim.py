"""Deterministic agent-based simulator driving the full protocol.

Random-waypoint mobility, log-distance RF channel, beacon exchange feeding
each device's session table, a transparent ground-truth exposure rule for
infection dynamics and metrics, diagnosis events that issue certificates and
post notifications, verification of each step's notifications in that step,
and forgery injection. A fixed seed reproduces metrics and trace bit-for-bit.
"""

from __future__ import annotations

import enum
import heapq
import math
import random
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import date, datetime, timezone

from . import wire
from .certificates import LabDirectory, LabIdentity, issue_certificate
from .contactlog import DEFAULT_TIME_TOLERANCE_S, ContactLog, LogEntry, append_entry
from .encounter import (
    DEFAULT_GAP_TIMEOUT_S,
    POLICY_V1,
    ChannelModel,
    ContactSession,
    InformationRecord,
    SignificancePolicy,
    channel_draws,
    classify_contact,
    close_expired_sessions,
    distance_to_rssi,
    ingest_beacon,
    rssi_to_distance,
)
from .identity import Pad, Pid, active_pids_in_window, generate_random_pid
from .notify import (
    DeploymentMode,
    Notification,
    build_notifications,
    verify_notification,
)
from .registry import NotifiedPidRepository, ingest_certificate

RADIO_CUTOFF_DBM = -100.0
LOCATION_BUCKET_S = 600.0
# Relative widening of a beacon tick's reach, far above the rounding error of
# the log-distance arithmetic, so that no pair the exact per-pair check would
# hear, and no pair within true_radius_m, is left outside it.
REACH_MARGIN = 1e-6


class Health(enum.Enum):
    SUSCEPTIBLE = "S"
    INFECTIOUS = "I"
    DIAGNOSED = "D"


class ForgeryKind(enum.Enum):
    """Declared in the order a scenario's forgeries are injected."""

    FAKE_CONTACT_CLAIM = "FakeContactClaim"
    PID_SWAP = "PidSwap"
    BOGUS_CERTIFICATE = "BogusCertificate"


@dataclass
class Scenario:
    n_agents: int
    duration_s: float
    world_width_m: float = 100.0
    world_height_m: float = 100.0
    initial_infectious: int = 1
    speed_min_mps: float = 0.5
    speed_max_mps: float = 1.5
    pause_min_s: float = 0.0
    pause_max_s: float = 30.0
    beacon_interval_s: int = 10
    channel: ChannelModel = field(default_factory=ChannelModel)
    body_block_prob: float = 0.0
    true_radius_m: float = 3.0
    exposure_seconds: float = 600.0
    transmission_prob: float = 0.0
    diagnosis_delay_s: float = 1200.0
    rng_seed: int = 0
    mode: DeploymentMode = DeploymentMode.CERTIFICATE_REQUIRED
    policies: dict[int, SignificancePolicy] = field(default_factory=dict)
    default_policy_version: int | None = None
    agent_policy: dict[int, int] = field(default_factory=dict)
    positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    pid_rotation_at_s: float | None = None
    gap_timeout_s: float = DEFAULT_GAP_TIMEOUT_S
    time_tolerance_s: float = DEFAULT_TIME_TOLERANCE_S
    forge_fake_claims: int = 0
    forge_pid_swap: int = 0
    forge_bogus_cert: int = 0

    def __post_init__(self) -> None:
        if not self.policies:
            self.policies = {POLICY_V1.version: POLICY_V1}
        if self.default_policy_version is None:
            self.default_policy_version = min(self.policies)
        w, h = self.world_width_m, self.world_height_m
        if not (0 < w < math.inf and 0 < h < math.inf):
            raise ValueError("world size must be finite and positive")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("float", "float | None") and not math.isfinite(value or 0.0):
                raise ValueError(f"{f.name} must be finite")
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if not 0 <= self.initial_infectious <= self.n_agents:
            raise ValueError("initial_infectious out of range")
        for name in ("gap_timeout_s", "time_tolerance_s", "exposure_seconds", "diagnosis_delay_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if self.true_radius_m <= 0:
            raise ValueError("true_radius_m must be > 0")
        if self.beacon_interval_s < 1:
            raise ValueError("beacon_interval_s must be >= 1 second")
        if self.speed_min_mps < 0 or self.speed_max_mps < self.speed_min_mps:
            raise ValueError("bad speed range")
        if self.pause_min_s < 0 or self.pause_max_s < self.pause_min_s:
            raise ValueError("bad pause range")
        if not 0.0 <= self.transmission_prob <= 1.0:
            raise ValueError("transmission_prob must be in [0, 1]")
        if not 0.0 <= self.body_block_prob <= 1.0:
            raise ValueError("body_block_prob must be in [0, 1]")
        for version, policy in self.policies.items():
            if version != policy.version:
                raise ValueError(f"policy key {version} differs from its version {policy.version}")
        if self.default_policy_version not in self.policies:
            raise ValueError("default policy version not declared")
        for agent_id, version in self.agent_policy.items():
            if not (0 <= agent_id < self.n_agents):
                raise ValueError(f"policy for unknown agent {agent_id}")
            if version not in self.policies:
                raise ValueError(f"agent {agent_id} assigned undeclared policy {version}")
        for agent_id, (x, y) in self.positions.items():
            if not (0 <= agent_id < self.n_agents):
                raise ValueError(f"position for unknown agent {agent_id}")
            if not (0 <= x <= w and 0 <= y <= h):
                raise ValueError(f"agent {agent_id} position outside world")


# Keys that set one field from one value: every field of Scenario and
# ChannelModel, converted by its annotation, except those built by hand below
# from the repeatable policy, agent_policy and position.
_CONVERTERS = {
    "int": int,
    "int | None": int,
    "float": float,
    "float | None": float,
    "DeploymentMode": DeploymentMode,
}
_BY_HAND = ("channel", "policies", "agent_policy", "positions")
_CHANNEL_KEYS = {f.name: _CONVERTERS[f.type] for f in fields(ChannelModel)}
_SCALAR_KEYS = {
    **{f.name: _CONVERTERS[f.type] for f in fields(Scenario) if f.name not in _BY_HAND},
    **_CHANNEL_KEYS,
}
# the fields without a default, which a scenario file must set
_REQUIRED_KEYS = [f.name for f in fields(Scenario) if f.default is f.default_factory is MISSING]


def parse_scenario(text: str) -> Scenario:
    """Parse the flat `key = value` scenario format; an absent key keeps its
    field's default, and a key set twice (a policy version or an agent, for
    the repeatable keys) is refused."""
    values: dict[str, object] = {}
    policies: dict[int, SignificancePolicy] = {}
    agent_policy: dict[int, int] = {}
    positions: dict[int, tuple[float, float]] = {}
    unknown: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key == "policy":
                version_s, max_s, min_s = value.split(":")
                table, at = policies, int(version_s)
                item = SignificancePolicy(at, float(max_s), float(min_s))
            elif key == "agent_policy":
                agent_s, version_s = value.split(":")
                table, at, item = agent_policy, int(agent_s), int(version_s)
            elif key == "position":
                agent_s, x_s, y_s = value.split(":")
                table, at, item = positions, int(agent_s), (float(x_s), float(y_s))
            elif key in _SCALAR_KEYS:
                table, at, item = values, key, _SCALAR_KEYS[key](value)
            else:
                unknown.append(key)
                continue
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad value for {key}: {value!r}") from exc
        if at in table:
            which = key if table is values else f"{key} {at}"
            raise ValueError(f"repeated scenario key: {which}")
        table[at] = item
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ValueError(f"missing scenario key: {key}")

    channel = {key: values.pop(key) for key in _CHANNEL_KEYS if key in values}
    return Scenario(
        channel=ChannelModel(**channel),
        policies=policies,
        agent_policy=agent_policy,
        positions=positions,
        **values,
    )


@dataclass
class SimMetrics:
    true_exposures: int = 0
    notified_true: int = 0
    notified_false: int = 0
    missed: int = 0
    rejected_forgeries: int = 0
    forgeries_accepted: int = 0
    forgeries_injected: int = 0
    notifications_built: int = 0
    pending_at_end: int = 0
    infections: int = 0
    diagnoses: int = 0
    verdict_counts: dict[str, int] = field(default_factory=dict)


def metrics_to_lines(m: SimMetrics) -> str:
    lines = [
        f"metric|{f.name}|{getattr(m, f.name)}"
        for f in fields(m)
        if f.name != "verdict_counts"
    ]
    for status in sorted(m.verdict_counts):
        lines.append(f"metric|verdict_{status}|{m.verdict_counts[status]}")
    return "".join(line + "\n" for line in lines)


@dataclass
class Agent:
    agent_id: int
    pad: Pad
    pid: Pid
    pids_used: list[tuple[float, Pid]]
    policy: SignificancePolicy
    position: tuple[float, float]
    health: Health = Health.SUSCEPTIBLE
    infected_at: float | None = None
    waypoint: tuple[float, float] | None = None
    speed: float = 0.0
    pause_until: float = 0.0
    sessions: dict[Pid, ContactSession] = field(default_factory=dict)
    log: ContactLog = field(default_factory=ContactLog)


class World:
    """Mutable simulation state; step() advances time by 1 s."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.now = 0.0
        self.metrics = SimMetrics()
        self.trace: list[str] = []
        master = random.Random(scenario.rng_seed)
        self._mobility_rng = random.Random(master.getrandbits(64))
        self._channel_rng = random.Random(master.getrandbits(64))
        self._infect_rng = random.Random(master.getrandbits(64))
        self._forgery_rng = random.Random(master.getrandbits(64))
        pid_rng = random.Random(master.getrandbits(64))

        self.lab = LabIdentity.from_seed(
            "sim-lab", random.Random(master.getrandbits(64)).randbytes(32)
        )
        self.directory = LabDirectory()
        self.directory.add_lab(self.lab)
        self.repo = NotifiedPidRepository()

        self.agents: list[Agent] = []
        for i in range(scenario.n_agents):
            pid = generate_random_pid(pid_rng)
            position = scenario.positions.get(i)
            if position is None:
                position = (
                    self._mobility_rng.uniform(0, scenario.world_width_m),
                    self._mobility_rng.uniform(0, scenario.world_height_m),
                )
            version = scenario.agent_policy.get(i, scenario.default_policy_version)
            agent = Agent(
                agent_id=i,
                pad=Pad(f"agent-{i}@sim"),
                pid=pid,
                pids_used=[(0.0, pid)],
                policy=scenario.policies[version],
                position=position,
            )
            if i < scenario.initial_infectious:
                agent.health = Health.INFECTIOUS
                agent.infected_at = 0.0
            self.agents.append(agent)
        self._by_pad = {a.pad: a for a in self.agents}
        # (diagnosis deadline, agent id) of every infectious agent: a min-heap
        # that _infect pushes onto and _diagnose_due pops
        delay = scenario.diagnosis_delay_s
        self._diagnosis_due = [(delay, i) for i in range(scenario.initial_infectious)]
        # the weakest RSSI within each policy an agent can hold, under the
        # scenario's channel: within_policy's threshold, computed once
        self._min_rssi = {
            p: distance_to_rssi(p.max_distance_m, scenario.channel)
            for p in scenario.policies.values()
        }

        # in-radius dwell of each pair of agents within true_radius_m at the
        # latest beacon tick; every other pair is apart
        self._pair_state: dict[tuple[int, int], float] = {}
        self._true_pairs: set[tuple[int, int]] = set()
        self._accepted_pairs: set[tuple[int, int]] = set()
        # the scenario's forgeries, injected in the step of the first diagnosis
        counts = (scenario.forge_fake_claims, scenario.forge_pid_swap, scenario.forge_bogus_cert)
        self._forgeries = [(kind, n) for kind, n in zip(ForgeryKind, counts) if n > 0]
        # this step's mail: (recipient, notification, source agent id or None
        # for a forgery), in delivery order; verified and emptied each step
        self._inbox: list[tuple[Agent, Notification, int | None]] = []
        self._rotate_at = scenario.pid_rotation_at_s  # None once rotated

    # -- helpers -----------------------------------------------------------

    def _emit(self, event: str) -> None:
        self.trace.append(f"trace|{wire.fmt_num(self.now)}|{event}")

    def _own_record(self, agent: Agent) -> InformationRecord:
        return InformationRecord(
            pid=agent.pid,
            pad=agent.pad,
            local_time=self.now,
            local_location=f"loc-{agent.agent_id}-{int(self.now // LOCATION_BUCKET_S)}",
        )

    def _classify_and_log(self, agent: Agent, session: ContactSession) -> None:
        verdict = classify_contact(session, agent.policy)
        if not verdict.significant:
            return  # non-significant data are discarded
        entry = LogEntry(
            own_record=session.own_record,
            peer_record=session.peer_record,
            recorded_at=self.now,
            dwell_s=verdict.dwell_s,
            policy_version=agent.policy.version,
        )
        append_entry(agent.log, entry)
        self._emit(
            f"log-entry|{agent.agent_id}|peer={session.peer_record.pid}"
            f"|dwell={wire.fmt_num(verdict.dwell_s)}"
        )

    def _close_sessions(self, agent: Agent, peer_pids: list[Pid]) -> None:
        """Close and classify the agent's open sessions with these peer PIDs,
        in the order given; a PID with no open session is skipped."""
        for key in peer_pids:
            session = agent.sessions.pop(key, None)
            if session is not None:
                self._classify_and_log(agent, session)

    # -- per-step phases ---------------------------------------------------

    def _move(self) -> None:
        s = self.scenario
        if s.speed_max_mps == 0:
            return
        for agent in self.agents:
            if self.now < agent.pause_until:
                continue
            if agent.waypoint is None:
                agent.waypoint = (
                    self._mobility_rng.uniform(0, s.world_width_m),
                    self._mobility_rng.uniform(0, s.world_height_m),
                )
                agent.speed = self._mobility_rng.uniform(s.speed_min_mps, s.speed_max_mps)
            dx = agent.waypoint[0] - agent.position[0]
            dy = agent.waypoint[1] - agent.position[1]
            dist = math.hypot(dx, dy)
            if dist <= agent.speed or agent.speed == 0:
                agent.position = agent.waypoint
                agent.waypoint = None
                agent.pause_until = self.now + self._mobility_rng.uniform(
                    s.pause_min_s, s.pause_max_s
                )
            else:
                agent.position = (
                    agent.position[0] + dx / dist * agent.speed,
                    agent.position[1] + dy / dist * agent.speed,
                )

    def _beacon_tick(self) -> None:
        """Exchange beacons between every pair of active agents that can hear
        each other.  Every pair's channel draws are made, in pair order; only
        pairs whose squared distance is within the tick's reach squared are
        evaluated.  Each receiver judges a sample as `within_policy` does, by
        one compare with its policy's RSSI threshold, and its session folds in
        only the beacon's time and that judgement: no sample is stored."""
        s = self.scenario
        # read here, not at import, so that wrappers put on these names are called
        to_rssi, ingest, hypot = distance_to_rssi, ingest_beacon, math.hypot
        channel, gap, now, true_radius = s.channel, s.gap_timeout_s, self.now, s.true_radius_m
        active = [a for a in self.agents if a.health is not Health.DIAGNOSED]
        m, rng = len(active), self._channel_rng
        noise, blocked = channel_draws(rng, m * (m - 1) // 2, channel, s.body_block_prob)
        reach = _reach(s, max(noise, default=0.0))
        # multiplied, not `**`, so that a square past the float range is inf
        reach_sq = reach * reach
        positions = [a.position for a in active]
        records = [self._own_record(a) for a in active]
        min_rssi = [self._min_rssi[a.policy] for a in active]
        dwell_before, self._pair_state = self._pair_state, {}
        for i, a in enumerate(active):
            ax, ay = positions[i]
            a_record, a_min = records[i], min_rssi[i]
            row = i * (2 * m - i - 1) // 2 - i - 1  # pair (i, j) draws at row + j
            for j in range(i + 1, m):
                bx, by = positions[j]
                dx, dy = ax - bx, ay - by
                if dx * dx + dy * dy > reach_sq:
                    continue
                d = hypot(dx, dy)
                b = active[j]
                true_d = d if d > 0.01 else 0.01
                rssi = to_rssi(true_d, channel, noise[row + j], blocked[row + j])
                if rssi >= RADIO_CUTOFF_DBM:
                    rssi = 0.0 if rssi > 0.0 else rssi
                    b_record = records[j]
                    a_within, b_within = rssi >= a_min, rssi >= min_rssi[j]
                    closed = ingest(a.sessions, a_record, b_record, now, a_within, gap)
                    if closed is not None:
                        self._classify_and_log(a, closed)
                    closed = ingest(b.sessions, b_record, a_record, now, b_within, gap)
                    if closed is not None:
                        self._classify_and_log(b, closed)
                if true_d <= true_radius:
                    key = (a.agent_id, b.agent_id)
                    self._pair_state[key] = self._ground_truth_update(
                        a, b, dwell_before.get(key)
                    )

    def _ground_truth_update(self, a: Agent, b: Agent, before: float | None) -> float:
        """Advance the dwell of a pair within true_radius_m, from its dwell at
        the previous beacon tick (None if it was apart then), and expose it
        the tick its dwell reaches exposure_seconds.  Returns the new dwell."""
        s = self.scenario
        dwell = 0.0 if before is None else before + s.beacon_interval_s
        if dwell >= s.exposure_seconds and (before is None or before < s.exposure_seconds):
            for src, dst in ((a, b), (b, a)):
                if src.health is Health.INFECTIOUS:
                    if (src.agent_id, dst.agent_id) not in self._true_pairs:
                        self._true_pairs.add((src.agent_id, dst.agent_id))
                        self._emit(f"exposure|{src.agent_id}|{dst.agent_id}")
                    if (
                        dst.health is Health.SUSCEPTIBLE
                        and self._infect_rng.random() < s.transmission_prob
                    ):
                        self._infect(dst)
        return dwell

    def _infect(self, agent: Agent) -> None:
        """Turn a susceptible agent infectious now, due for diagnosis after
        the scenario's delay."""
        agent.health = Health.INFECTIOUS
        agent.infected_at = self.now
        deadline = self.now + self.scenario.diagnosis_delay_s
        heapq.heappush(self._diagnosis_due, (deadline, agent.agent_id))
        self.metrics.infections += 1
        self._emit(f"infect|{agent.agent_id}")

    def _rotate_pids(self) -> None:
        pid_rng = random.Random(self.scenario.rng_seed ^ 0x9E3779B9)
        for agent in self.agents:
            if agent.health is Health.DIAGNOSED:
                continue
            new_pid = generate_random_pid(pid_rng)
            agent.pid = new_pid
            agent.pids_used.append((self.now, new_pid))
            self._emit(f"pid-rotation|{agent.agent_id}")

    def _diagnose_due(self) -> None:
        heap, due = self._diagnosis_due, []
        while heap and heap[0][0] <= self.now:
            due.append(heapq.heappop(heap)[1])
        # in agent id order: rounding can give agents infected a second
        # apart two deadlines that fall due in the same step
        for agent_id in sorted(due):
            self._diagnose(self.agents[agent_id])

    def _diagnose(self, agent: Agent) -> None:
        self._close_sessions(agent, sorted(agent.sessions))
        # disclose only the PIDs used while infectious
        own_pids = active_pids_in_window(agent.pids_used, agent.infected_at, self.now)
        cert = None
        if self.scenario.mode is DeploymentMode.CERTIFICATE_REQUIRED:
            cert = issue_certificate(
                self.lab,
                own_pids,
                test_date=_utc_date(self.now),
                infectious_from=_utc_date(agent.infected_at),
            )
            ingest_certificate(self.repo, cert, self.directory)
        notifications = build_notifications(agent.log, own_pids, cert)
        for pad, n in notifications:
            self._inbox.append((self._by_pad[pad], n, agent.agent_id))
        self.metrics.notifications_built += len(notifications)
        agent.health = Health.DIAGNOSED
        self.metrics.diagnoses += 1
        self._emit(f"diagnose|{agent.agent_id}|notifications={len(notifications)}")

    def _poll_and_verify(self) -> None:
        inbox, self._inbox = self._inbox, []
        # by recipient, each recipient's mail in delivery order
        for agent, n, source_id in sorted(inbox, key=lambda mail: mail[0].agent_id):
            # the contact the notification names may still be open
            self._close_sessions(agent, [n.sender_pid])
            verdict = verify_notification(
                n,
                agent.log,
                self.directory,
                mode=self.scenario.mode,
                time_tolerance_s=self.scenario.time_tolerance_s,
            )
            counts = self.metrics.verdict_counts
            counts[verdict.status.value] = counts.get(verdict.status.value, 0) + 1
            forged = source_id is None
            if forged:
                if verdict.accepted:
                    self.metrics.forgeries_accepted += 1
                else:
                    self.metrics.rejected_forgeries += 1
            elif verdict.accepted:
                self._accepted_pairs.add((source_id, agent.agent_id))
            self._emit(f"verdict|{agent.agent_id}|{verdict.status.value}|forged={int(forged)}")

    # -- forgery injection ---------------------------------------------------

    def inject_forgeries(self, kind: ForgeryKind, count: int) -> int:
        """Craft and deliver `count` attack notifications; returns how many
        were actually injected (PidSwap copies this step's genuine mail)."""
        rng = self._forgery_rng
        genuine = [mail for mail in self._inbox if mail[2] is not None]
        injected = 0
        for _ in range(count):
            if kind is ForgeryKind.FAKE_CONTACT_CLAIM:
                victim = rng.choice(self.agents)
                n = Notification(
                    sender_pid=generate_random_pid(rng),
                    echoed_time=rng.uniform(0, self.scenario.duration_s),
                    echoed_location=f"loc-{rng.randrange(self.scenario.n_agents)}"
                    f"-{rng.randrange(12)}",
                    certificate=None,
                )
            elif kind is ForgeryKind.PID_SWAP:
                if not genuine:
                    break
                victim, original, source_id = rng.choice(genuine)
                attacker = rng.choice(
                    [a for a in self.agents if a.agent_id != source_id]
                )
                n = replace(original, sender_pid=attacker.pid)
            else:  # BogusCertificate
                attacker = rng.choice(self.agents)
                fake_lab = LabIdentity.from_seed("fake-lab", rng.randbytes(32))
                fake_cert = issue_certificate(
                    fake_lab,
                    [pid for _, pid in attacker.pids_used],
                    test_date=_utc_date(self.now),
                    infectious_from=_utc_date(0.0),
                )
                if attacker.log.entries:
                    entry = rng.choice(attacker.log.entries)
                    n = Notification(
                        sender_pid=entry.own_record.pid,
                        echoed_time=entry.peer_record.local_time,
                        echoed_location=entry.peer_record.local_location,
                        certificate=fake_cert,
                    )
                    victim = self._by_pad[entry.peer_record.pad]
                else:
                    victim = rng.choice(self.agents)
                    n = Notification(
                        sender_pid=attacker.pid,
                        echoed_time=rng.uniform(0, self.scenario.duration_s),
                        echoed_location=f"loc-{victim.agent_id}-0",
                        certificate=fake_cert,
                    )
            self._inbox.append((victim, n, None))
            injected += 1
            self._emit(f"forgery|{kind.value}|target={victim.agent_id}")
        self.metrics.forgeries_injected += injected
        return injected

    def _inject_scheduled_forgeries(self) -> None:
        for kind, count in self._forgeries:
            self.inject_forgeries(kind, count)
        self._forgeries = []

    # -- driving -------------------------------------------------------------

    def step(self) -> None:
        s = self.scenario
        self._move()
        if self._rotate_at is not None and self.now >= self._rotate_at:
            self._rotate_pids()
            self._rotate_at = None
        if int(self.now) % s.beacon_interval_s == 0:
            self._beacon_tick()
        # sessions change only at ticks, so they expire floor(gap_timeout_s) + 1 s after one
        if (int(self.now) - math.floor(s.gap_timeout_s) - 1) % s.beacon_interval_s == 0:
            for agent in self.agents:
                for closed in close_expired_sessions(agent.sessions, self.now, s.gap_timeout_s):
                    self._classify_and_log(agent, closed)
        self._diagnose_due()
        if self._forgeries and self.metrics.diagnoses > 0:
            self._inject_scheduled_forgeries()
        self._poll_and_verify()
        self.now += 1.0

    def finalize(self) -> SimMetrics:
        """Close remaining sessions, settle metrics against ground truth."""
        for agent in self.agents:
            self._close_sessions(agent, sorted(agent.sessions))
        m = self.metrics
        m.true_exposures = len(self._true_pairs)
        m.notified_true = len(self._true_pairs & self._accepted_pairs)
        m.notified_false = len(self._accepted_pairs - self._true_pairs)
        m.missed = len(self._true_pairs - self._accepted_pairs)
        m.pending_at_end = len(self._inbox)
        return m

    def run(self) -> SimMetrics:
        while self.now < self.scenario.duration_s:
            self.step()
        return self.finalize()


def _utc_date(timestamp: float) -> date:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).date()


def _reach(scenario: Scenario, max_noise: float) -> float:
    """Farthest distance at which a pair matters in a beacon tick whose
    largest shadowing draw is max_noise: no pair farther apart reaches
    RADIO_CUTOFF_DBM (body blocking only weakens a signal) or is within
    true_radius_m.  The radio part is the channel model's distance for the
    cutoff less that draw's shadowing."""
    c = scenario.channel
    radio_m = rssi_to_distance(RADIO_CUTOFF_DBM - max_noise * c.shadowing_sigma_db, c)
    return max(radio_m, scenario.true_radius_m) * (1.0 + REACH_MARGIN)


def run_scenario(scenario: Scenario) -> tuple[SimMetrics, list[str]]:
    """Run a scenario to completion; returns (metrics, trace lines)."""
    world = World(scenario)
    metrics = world.run()
    return metrics, world.trace


def trace_to_lines(trace: list[str]) -> str:
    """The trace file: one line per trace line."""
    return "".join(line + "\n" for line in trace)
