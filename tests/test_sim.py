import math
from dataclasses import dataclass, replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from backtrack import sim
from backtrack.encounter import (
    POLICY_V1,
    ChannelModel,
    SignificancePolicy,
    close_expired_sessions,
    distance_to_rssi,
    ingest_beacon,
    within_policy,
)
from backtrack.notify import DeploymentMode, VerdictStatus
from backtrack.sim import (
    RADIO_CUTOFF_DBM,
    ForgeryKind,
    Health,
    Scenario,
    World,
    metrics_to_lines,
    parse_scenario,
    run_scenario,
)

from test_golden import SMALL_SCENARIO


def verdicts(trace, agent_id):
    """The verdict statuses an agent reached, in order, read from the trace."""
    return [
        fields[4]
        for fields in (line.split("|") for line in trace)
        if fields[2] == "verdict" and fields[3] == str(agent_id)
    ]


def static_pair(distance_m, duration_s=1200.0, diagnosis_delay_s=900.0, **kw):
    """Two motionless agents a fixed distance apart, agent 0 infectious."""
    return Scenario(
        n_agents=2,
        duration_s=duration_s,
        initial_infectious=1,
        speed_min_mps=0.0,
        speed_max_mps=0.0,
        diagnosis_delay_s=diagnosis_delay_s,
        positions={0: (10.0, 10.0), 1: (10.0 + distance_m, 10.0)},
        **kw,
    )


class TestStaticPairs:
    def test_close_pair_logged_and_notified(self):
        world = World(static_pair(1.0))
        metrics = world.run()
        assert len(world.agents[0].log.entries) == 1
        assert len(world.agents[1].log.entries) == 1
        assert metrics.true_exposures == 1
        assert metrics.notified_true == 1
        assert metrics.missed == 0
        assert metrics.notified_false == 0
        assert verdicts(world.trace, 1) == [VerdictStatus.ACCEPTED.value]

    @pytest.mark.parametrize("distance_m", [1.5, 2.0, 3.0, 7.5])
    def test_pair_at_exactly_the_policy_distance_logged(self, distance_m):
        # a noiseless sample from exactly max_distance_m is within the policy
        world = World(
            static_pair(
                distance_m,
                policies={1: SignificancePolicy(1, distance_m, 600.0)},
                true_radius_m=distance_m,
            )
        )
        metrics = world.run()
        assert len(world.agents[0].log.entries) == 1
        assert len(world.agents[1].log.entries) == 1
        assert metrics.true_exposures == 1
        assert metrics.missed == 0

    def test_far_pair_nothing_logged(self):
        world = World(static_pair(50.0))
        metrics = world.run()
        assert world.agents[0].log.entries == []
        assert world.agents[1].log.entries == []
        assert metrics.true_exposures == 0
        assert metrics.notifications_built == 0

    def test_short_dwell_not_significant(self):
        # contact lasts 300 s, policy requires 600 s
        world = World(static_pair(1.0, duration_s=300.0, diagnosis_delay_s=200.0))
        metrics = world.run()
        assert metrics.true_exposures == 0
        assert metrics.notifications_built == 0

    def test_diagnosed_agent_stops_beaconing(self):
        world = World(static_pair(1.0, duration_s=1000.0, diagnosis_delay_s=700.0))
        world.run()
        assert world.agents[0].health is Health.DIAGNOSED
        # no new sessions appear at the peer after the sender goes silent
        assert world.agents[1].sessions == {}

    def test_policy_interop_asymmetry(self):
        # 2.25 m apart: within the 3.0 m threshold but not the 1.5 m one, so
        # only the lenient side records the contact, and its notification to
        # the strict side fails the log-match check
        scenario = Scenario(
            n_agents=2,
            duration_s=1000.0,
            initial_infectious=2,
            speed_min_mps=0.0,
            speed_max_mps=0.0,
            diagnosis_delay_s=900.0,
            positions={0: (10.0, 10.0), 1: (12.25, 10.0)},
            policies={
                1: SignificancePolicy(1, 3.0, 600.0),
                2: SignificancePolicy(2, 1.5, 600.0),
            },
            agent_policy={0: 1, 1: 2},
        )
        world = World(scenario)
        metrics = world.run()
        assert len(world.agents[0].log.entries) == 1
        assert len(world.agents[1].log.entries) == 0
        assert metrics.notifications_built == 1
        assert verdicts(world.trace, 1) == [VerdictStatus.REJECTED_NO_MATCHING_CONTACT.value]
        assert verdicts(world.trace, 0) == []

    def test_pid_rotation_still_notifiable(self):
        scenario = static_pair(
            1.0, duration_s=1500.0, diagnosis_delay_s=1000.0, pid_rotation_at_s=300.0
        )
        world = World(scenario)
        metrics = world.run()
        assert len(world.agents[0].pids_used) == 2
        assert metrics.missed == 0
        assert metrics.notified_true == 1
        # infectious from the start, so both PIDs are certified
        assert set(world.repo.entries) == {pid for _, pid in world.agents[0].pids_used}

    def test_infected_after_rotation_discloses_only_later_pids(self):
        # agent 1 logs agent 0 under its first PID (0-290 s), gets the new PID
        # at 300 s and is infected at 600 s; its certificate and notifications
        # must leave out the PID it used before it was infectious
        scenario = static_pair(
            1.0, duration_s=1500.0, diagnosis_delay_s=700.0, pid_rotation_at_s=300.0,
            transmission_prob=1.0, policies={1: SignificancePolicy(1, 3.0, 120.0)},
        )
        world = World(scenario)
        world.run()
        (first0, second0), (first1, second1) = (
            [pid for _, pid in a.pids_used] for a in world.agents
        )
        assert world.agents[1].infected_at == 600.0
        assert set(world.repo.entries) == {first0, second0, second1}
        assert [e.own_record.pid for e in world.agents[1].log.entries] == [first1, second1]
        assert "trace|1300|diagnose|1|notifications=1" in world.trace


class TestForgeries:
    def test_fake_contact_claims_all_rejected(self):
        metrics, _ = run_scenario(static_pair(1.0, forge_fake_claims=8))
        assert metrics.forgeries_injected == 8
        assert metrics.rejected_forgeries == 8
        assert metrics.forgeries_accepted == 0

    def test_pid_swap_rejected(self):
        metrics, _ = run_scenario(static_pair(1.0, forge_pid_swap=5))
        assert metrics.forgeries_injected == 5
        assert metrics.forgeries_accepted == 0

    def test_bogus_certificate_rejected(self):
        metrics, trace = run_scenario(static_pair(1.0, forge_bogus_cert=5))
        assert metrics.forgeries_injected == 5
        assert metrics.forgeries_accepted == 0
        assert any("REJECTED-UNKNOWN-LAB" in line for line in trace)

    def test_pid_swap_needs_genuine_material(self):
        # nothing has been built yet, so there is nothing to copy
        world = World(static_pair(1.0))
        assert world.inject_forgeries(ForgeryKind.PID_SWAP, 3) == 0

    def test_genuine_traffic_unaffected(self):
        metrics, _ = run_scenario(static_pair(1.0, forge_fake_claims=10))
        assert metrics.notified_true == 1
        assert metrics.missed == 0


class TestDeterminism:
    def test_same_seed_identical_metrics_and_trace(self):
        scenario = Scenario(
            n_agents=15,
            duration_s=1500.0,
            world_width_m=20.0, world_height_m=20.0,
            initial_infectious=3,
            transmission_prob=0.3,
            forge_fake_claims=4,
            rng_seed=11,
        )
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_different_seed_diverges(self):
        base = dict(
            n_agents=10, duration_s=1500.0, world_width_m=10.0, world_height_m=10.0,
            initial_infectious=2, pause_min_s=200.0, pause_max_s=600.0,
        )
        _, t1 = run_scenario(Scenario(rng_seed=1, **base))
        _, t2 = run_scenario(Scenario(rng_seed=2, **base))
        assert t1 != t2


class TestConservation:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_every_message_accounted_for(self, seed):
        scenario = Scenario(
            n_agents=20,
            duration_s=1500.0,
            world_width_m=15.0, world_height_m=15.0,
            initial_infectious=3,
            transmission_prob=0.2,
            forge_fake_claims=6,
            forge_pid_swap=3,
            forge_bogus_cert=3,
            rng_seed=seed,
        )
        m, _ = run_scenario(scenario)
        assert (
            m.notifications_built + m.forgeries_injected
            == sum(m.verdict_counts.values()) + m.pending_at_end
        )

    def test_noisy_channel_still_conserves(self):
        from backtrack.encounter import ChannelModel

        scenario = Scenario(
            n_agents=15,
            duration_s=1200.0,
            world_width_m=15.0, world_height_m=15.0,
            initial_infectious=3,
            channel=ChannelModel(shadowing_sigma_db=4.0),
            body_block_prob=0.2,
            rng_seed=5,
        )
        m, _ = run_scenario(scenario)
        assert (
            m.notifications_built + m.forgeries_injected
            == sum(m.verdict_counts.values()) + m.pending_at_end
        )


    def test_mail_never_outlives_a_step(self):
        # each notification is verified in the step it is posted in: this is
        # why pending_at_end is 0, and why PidSwap needs only that step's mail
        world = World(parse_scenario(SMALL_SCENARIO))
        while world.now < world.scenario.duration_s:
            world.step()
            assert world._inbox == [], world.now
        assert sum(world.metrics.verdict_counts.values()) > 0


def minimal_scenario(line):
    """`n_agents = 2` and `duration_s = 10`, with `line` added, or in place of
    the one of them whose key it sets."""
    lines = {"n_agents": "n_agents = 2", "duration_s": "duration_s = 10"}
    lines[line.partition("=")[0].strip()] = line
    return "\n".join(lines.values()) + "\n"


class TestScenarioParsing:
    def test_full_round_trip(self):
        text = """
        # comment line
        n_agents = 4
        duration_s = 500
        world_width_m = 30
        world_height_m = 40
        initial_infectious = 2
        mode = optional
        policy = 1:3.0:600
        policy = 2:1.5:600
        agent_policy = 1:2
        position = 0:5:5
        shadowing_sigma_db = 2.5
        rng_seed = 9          # trailing comment
        """
        s = parse_scenario(text)
        assert s.n_agents == 4
        assert s.duration_s == 500.0
        assert (s.world_width_m, s.world_height_m) == (30.0, 40.0)
        assert s.initial_infectious == 2
        assert s.mode is DeploymentMode.CERTIFICATE_OPTIONAL
        assert set(s.policies) == {1, 2}
        assert s.agent_policy == {1: 2}
        assert s.positions == {0: (5.0, 5.0)}
        assert s.channel.shadowing_sigma_db == 2.5
        assert s.rng_seed == 9

    def test_every_key_reaches_its_field(self):
        text = """
        n_agents = 6
        duration_s = 700.5
        world_width_m = 30
        world_height_m = 40
        initial_infectious = 2
        speed_min_mps = 0.25
        speed_max_mps = 2
        pause_min_s = 5
        pause_max_s = 50
        beacon_interval_s = 5
        ref_power_dbm = -65
        path_loss_exponent = 2.5
        shadowing_sigma_db = 1.5
        body_shadow_db = 3
        body_block_prob = 0.1
        true_radius_m = 2.5
        exposure_seconds = 300
        transmission_prob = 0.5
        diagnosis_delay_s = 600
        rng_seed = 9
        mode = optional
        policy = 1:3.0:600
        policy = 2:1.5:300
        default_policy_version = 2
        agent_policy = 1:1
        position = 0:5:7
        pid_rotation_at_s = 250
        gap_timeout_s = 45
        time_tolerance_s = 120
        forge_fake_claims = 1
        forge_pid_swap = 2
        forge_bogus_cert = 3
        """
        expected = Scenario(
            n_agents=6,
            duration_s=700.5,
            world_width_m=30.0, world_height_m=40.0,
            initial_infectious=2,
            speed_min_mps=0.25,
            speed_max_mps=2.0,
            pause_min_s=5.0,
            pause_max_s=50.0,
            beacon_interval_s=5,
            channel=ChannelModel(
                ref_power_dbm=-65.0,
                path_loss_exponent=2.5,
                shadowing_sigma_db=1.5,
                body_shadow_db=3.0,
            ),
            body_block_prob=0.1,
            true_radius_m=2.5,
            exposure_seconds=300.0,
            transmission_prob=0.5,
            diagnosis_delay_s=600.0,
            rng_seed=9,
            mode=DeploymentMode.CERTIFICATE_OPTIONAL,
            policies={1: SignificancePolicy(1, 3.0, 600.0), 2: SignificancePolicy(2, 1.5, 300.0)},
            default_policy_version=2,
            agent_policy={1: 1},
            positions={0: (5.0, 7.0)},
            pid_rotation_at_s=250.0,
            gap_timeout_s=45.0,
            time_tolerance_s=120.0,
            forge_fake_claims=1,
            forge_pid_swap=2,
            forge_bogus_cert=3,
        )
        assert parse_scenario(text) == expected

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            parse_scenario("n_agents = 2\nduration_s = 10\nbogus_key = 1\n")

    def test_retention_days_is_not_a_scenario_key(self):
        # the simulator never prunes a log, so there is no retention to set
        with pytest.raises(ValueError, match="unknown scenario key"):
            parse_scenario("n_agents = 2\nduration_s = 10\nretention_days = 5\n")

    def test_missing_n_agents(self):
        with pytest.raises(ValueError, match="missing scenario key: n_agents"):
            parse_scenario("duration_s = 10\n")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="bad value for n_agents"):
            parse_scenario("n_agents = two\nduration_s = 10\n")

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="bad value for mode"):
            parse_scenario("n_agents = 2\nduration_s = 10\nmode = strict\n")

    # each after `n_agents = 2` and `duration_s = 10`
    REPEATED = {
        "n_agents = 7": "repeated scenario key: n_agents",
        "policy = 1:3:600\npolicy = 1:1.5:600": "repeated scenario key: policy 1",
        "agent_policy = 1:1\nagent_policy = 1:1": "repeated scenario key: agent_policy 1",
        "position = 0:5:5\nposition = 0:6:6": "repeated scenario key: position 0",
    }

    @pytest.mark.parametrize("text", list(REPEATED))
    def test_repeated_key(self, text):
        with pytest.raises(ValueError, match=self.REPEATED[text]):
            parse_scenario(f"n_agents = 2\nduration_s = 10\n{text}\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="expected key = value"):
            parse_scenario("n_agents 2\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        [
            "duration_s", "world_width_m", "world_height_m", "speed_min_mps",
            "speed_max_mps", "pause_min_s", "pause_max_s", "ref_power_dbm",
            "path_loss_exponent", "shadowing_sigma_db", "body_shadow_db",
            "body_block_prob", "true_radius_m", "exposure_seconds", "transmission_prob",
            "diagnosis_delay_s", "pid_rotation_at_s", "gap_timeout_s", "time_tolerance_s",
        ],
    )
    def test_non_finite_number(self, key, value):
        with pytest.raises(ValueError, match="must be finite"):
            parse_scenario(minimal_scenario(f"{key} = {value}"))

    OUT_OF_RANGE = {
        "body_shadow_db = -1": "body shadow must be >= 0",
        "body_block_prob = 1.5": "body_block_prob must be in",
        "policy = 1:nan:600": "bad value for policy",
        "policy = 1:inf:600": "bad value for policy",
        "policy = 1:3:nan": "bad value for policy",
        "position = 0:nan:5": "agent 0 position outside world",
        "duration_s = 0": "duration_s must be > 0",
        "true_radius_m = 0": "true_radius_m must be > 0",
        "beacon_interval_s = 0": "beacon_interval_s must be >= 1 second",
        "speed_max_mps = 0.1": "bad speed range",
        "pause_min_s = -1": "bad pause range",
        "default_policy_version = 2": "default policy version not declared",
        "world_width_m = 0": "world size must be finite and positive",
        "world_height_m = inf": "world size must be finite and positive",
        "position = 2:1:1": "position for unknown agent 2",
        "agent_policy = 99:1": "policy for unknown agent 99",
        "agent_policy = -1:1": "policy for unknown agent -1",
    }

    @pytest.mark.parametrize("text", list(OUT_OF_RANGE))
    def test_out_of_range_value(self, text):
        with pytest.raises(ValueError, match=self.OUT_OF_RANGE[text]):
            parse_scenario(minimal_scenario(text))

    def test_huge_reference_power_runs(self):
        # every pair is in range; at 1e6 dBm the reach's power of ten would
        # overflow, at 3900 dBm the reach is finite but its square is not
        for ref_power_dbm in ("1e6", "3900"):
            world = World(parse_scenario(
                f"n_agents = 4\nduration_s = 30\nref_power_dbm = {ref_power_dbm}\n"
                "shadowing_sigma_db = 2\n"
            ))
            while world.now < 30:
                world.step()
            assert all(len(a.sessions) == 3 for a in world.agents), ref_power_dbm
            world.finalize()


class TestScenarioValidation:
    def test_no_agents(self):
        with pytest.raises(ValueError, match="n_agents must be >= 1"):
            Scenario(n_agents=0, duration_s=10.0)

    def test_too_many_infectious(self):
        with pytest.raises(ValueError, match="initial_infectious out of range"):
            Scenario(n_agents=2, duration_s=10.0, initial_infectious=3)

    def test_position_outside_world(self):
        with pytest.raises(ValueError, match="agent 0 position outside world"):
            Scenario(
                n_agents=1, duration_s=10.0,
                world_width_m=10.0, world_height_m=10.0, positions={0: (11.0, 5.0)},
            )

    def test_undeclared_agent_policy(self):
        with pytest.raises(ValueError, match="undeclared policy"):
            Scenario(n_agents=2, duration_s=10.0, agent_policy={0: 99})

    def test_policy_key_differs_from_its_version(self):
        policies = {1: SignificancePolicy(2, 3.0, 600.0)}
        with pytest.raises(ValueError, match="policy key 1 differs from its version 2"):
            Scenario(n_agents=2, duration_s=10.0, policies=policies)

    def test_bad_transmission_prob(self):
        with pytest.raises(ValueError, match="transmission_prob must be in"):
            Scenario(n_agents=2, duration_s=10.0, transmission_prob=1.5)

    @pytest.mark.parametrize(
        "key", ["gap_timeout_s", "time_tolerance_s", "exposure_seconds", "diagnosis_delay_s"]
    )
    def test_negative_duration(self, key):
        with pytest.raises(ValueError, match=f"{key} must be >= 0"):
            Scenario(n_agents=2, duration_s=10.0, **{key: -5.0})
        with pytest.raises(ValueError, match=f"{key} must be >= 0"):
            parse_scenario(f"n_agents = 2\nduration_s = 10\n{key} = -5\n")
        # zero stays valid
        assert getattr(parse_scenario(f"n_agents = 2\nduration_s = 10\n{key} = 0\n"), key) == 0


class TestMetricsFormat:
    def test_lines_shape(self):
        m, _ = run_scenario(static_pair(1.0))
        text = metrics_to_lines(m)
        lines = text.splitlines()
        assert all(line.startswith("metric|") for line in lines)
        assert "metric|true_exposures|1" in lines
        assert "metric|missed|0" in lines
        assert any(line.startswith("metric|verdict_ACCEPTED|") for line in lines)


@dataclass
class _PairState:
    prev_in_radius: bool = False
    dwell: float = 0.0
    qualified: bool = False


class FullPairLoopWorld(World):
    """Reference for the culled beacon tick: the tick as it was before
    culling, which evaluates every pair of active agents and keeps a state for
    every pair it ever evaluated."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self._every_pair = {}

    def _beacon_tick(self):
        s = self.scenario
        active = [a for a in self.agents if a.health is not Health.DIAGNOSED]
        records = {a.agent_id: self._own_record(a) for a in active}
        for idx, a in enumerate(active):
            for b in active[idx + 1 :]:
                true_d = max(
                    0.01,
                    math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1]),
                )
                noise = (
                    self._channel_rng.gauss(0.0, 1.0)
                    if s.channel.shadowing_sigma_db > 0
                    else 0.0
                )
                blocked = (
                    s.body_block_prob > 0 and self._channel_rng.random() < s.body_block_prob
                )
                rssi = distance_to_rssi(true_d, s.channel, noise, blocked)
                if rssi >= RADIO_CUTOFF_DBM:
                    rssi = min(rssi, 0.0)
                    for receiver, sender in ((a, b), (b, a)):
                        closed = ingest_beacon(
                            receiver.sessions,
                            own=records[receiver.agent_id],
                            peer=records[sender.agent_id],
                            at=self.now,
                            within=within_policy(rssi, receiver.policy, s.channel),
                            gap_timeout_s=s.gap_timeout_s,
                        )
                        if closed is not None:
                            self._classify_and_log(receiver, closed)
                self._full_ground_truth_update(a, b, true_d)

    def _full_ground_truth_update(self, a, b, true_d):
        s = self.scenario
        state = self._every_pair.setdefault((a.agent_id, b.agent_id), _PairState())
        in_radius = true_d <= s.true_radius_m
        if in_radius and state.prev_in_radius:
            state.dwell += s.beacon_interval_s
        elif in_radius:
            state.dwell = 0.0
        else:
            state.dwell = 0.0
            state.qualified = False
        state.prev_in_radius = in_radius
        if in_radius and not state.qualified and state.dwell >= s.exposure_seconds:
            state.qualified = True
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


class NearPairsCheckedWorld(World):
    """The program's World, checking after every beacon tick that pair state
    is held for exactly the active pairs within true_radius_m."""

    def _beacon_tick(self):
        super()._beacon_tick()
        active = [a for a in self.agents if a.health is not Health.DIAGNOSED]
        near = {
            (a.agent_id, b.agent_id)
            for i, a in enumerate(active)
            for b in active[i + 1 :]
            if max(0.01, math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1]))
            <= self.scenario.true_radius_m
        }
        assert set(self._pair_state) == near


@st.composite
def culling_scenarios(draw):
    """Small worlds, from narrower than the noiseless reach to many reaches
    across, with agents placed anywhere, at whole multiples of that reach
    (so pairs sit exactly on it), or from the world's edge at a few ulps
    either side of the noiseless radio reach, one shadowing sigma beyond it,
    or at either policy's maximum distance (so noiseless samples land on its
    RSSI threshold).  Each agent holds one of two policies."""
    n = draw(st.integers(2, 30))
    w, h = draw(st.floats(2.0, 2000.0)), draw(st.floats(2.0, 2000.0))
    channel = ChannelModel(
        ref_power_dbm=draw(st.floats(-95.0, -30.0)),
        path_loss_exponent=draw(st.floats(1.0, 6.0)),
        shadowing_sigma_db=draw(st.sampled_from([0.0, 0.0, 2.0]) | st.floats(0.0, 8.0)),
        body_shadow_db=draw(st.floats(0.0, 20.0)),
    )
    speed = draw(st.sampled_from([0.0, 1.5]))
    scenario = Scenario(
        n_agents=n,
        duration_s=draw(st.integers(10, 200)),
        world_width_m=w, world_height_m=h,
        initial_infectious=draw(st.integers(0, n)),
        speed_min_mps=speed / 3,
        speed_max_mps=speed,
        pause_max_s=20.0,
        channel=channel,
        body_block_prob=draw(st.sampled_from([0.0, 0.3])),
        true_radius_m=draw(st.floats(0.5, 60.0)),
        exposure_seconds=draw(st.sampled_from([0.0, 20.0, 60.0])),
        transmission_prob=draw(st.floats(0.0, 1.0)),
        diagnosis_delay_s=draw(st.integers(20, 300)),
        # a policy that logs any contact heard at all makes a pair at the
        # edge of radio reach show in the trace
        policies={
            1: draw(st.sampled_from([POLICY_V1, SignificancePolicy(1, 1e9, 0.0)])),
            2: SignificancePolicy(
                2, draw(st.floats(0.5, 30.0)), draw(st.sampled_from([0.0, 20.0]))
            ),
        },
        agent_policy={i: draw(st.sampled_from([1, 2])) for i in range(n)},
        gap_timeout_s=draw(st.sampled_from([15.0, 60.0])),
        rng_seed=draw(st.integers(0, 2**32)),
    )
    reach = sim._reach(scenario, 0.0)
    radio_m = 10.0 ** (
        (channel.ref_power_dbm - RADIO_CUTOFF_DBM) / (10.0 * channel.path_loss_exponent)
    )
    around = [radio_m]
    for _ in range(3):
        around = [math.nextafter(around[0], 0.0), *around, math.nextafter(around[-1], math.inf)]
    one_sigma = 10.0 ** (channel.shadowing_sigma_db / (10.0 * channel.path_loss_exponent))
    around.append(radio_m * one_sigma)
    around += [p.max_distance_m for p in scenario.policies.values()]

    reach_multiples = st.tuples(
        *(
            st.sampled_from([k * reach for k in range(min(int(side // reach), 5) + 1)])
            for side in (w, h)
        )
    )
    reach_edge = st.tuples(st.sampled_from([0.0, *[d for d in around if d <= w]]), st.just(0.0))
    anywhere = st.tuples(st.floats(0.0, w), st.floats(0.0, h))
    positions = {i: draw(anywhere | reach_multiples | reach_edge) for i in range(n)}
    return replace(scenario, positions=positions)


def nudged(x, ulps):
    """x moved by a whole number of ulps, up if positive."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


@st.composite
def reach_edge_worlds(draw):
    """Noiseless worlds of motionless agents, one of them infectious, whose
    policy logs every contact heard at all and whose exposure needs no dwell,
    so that a pair at the edge of reach shows in the trace: one agent at the
    origin and, along each of a few rays from it, on an axis or a diagonal,
    one agent at each whole multiple of the farthest distance at which a pair
    matters, moved a few ulps either way, so that neighbours on a ray sit
    about that distance apart.  That distance is either an ordinary one or a
    true_radius_m far beyond the radio's reach, so small that its square is a
    subnormal float of a few digits."""
    rays = draw(st.integers(1, 4))
    if draw(st.booleans()):
        channel = ChannelModel(
            ref_power_dbm=draw(st.floats(-95.0, -30.0)),
            path_loss_exponent=draw(st.floats(1.0, 6.0)),
        )
        true_radius = draw(st.floats(0.5, 60.0))
    else:
        channel = ChannelModel(ref_power_dbm=-3000.0, path_loss_exponent=1.0)
        true_radius = draw(st.floats(5e-162, 2e-160))
    scenario = Scenario(
        n_agents=1 + 3 * rays,
        duration_s=30,
        speed_min_mps=0.0,
        speed_max_mps=0.0,
        channel=channel,
        true_radius_m=true_radius,
        exposure_seconds=0.0,
        policies={1: SignificancePolicy(1, 1e9, 0.0)},
    )
    edge = sim._reach(scenario, 0.0) / (1.0 + sim.REACH_MARGIN)
    side = 4.0 * edge
    angles = st.sampled_from([0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2])
    points = [(0.0, 0.0)]
    for _ in range(rays):
        angle = draw(angles | st.floats(0.0, math.pi / 2))
        for k in (1, 2, 3):
            points.append(tuple(
                min(side, max(0.0, nudged(k * edge * trig(angle), draw(st.integers(-3, 3)))))
                for trig in (math.cos, math.sin)
            ))
    positions = dict(enumerate(points))
    return replace(scenario, world_width_m=side, world_height_m=side, positions=positions)


class TestCulledBeaconTick:
    @settings(max_examples=150, deadline=None)
    @given(culling_scenarios() | reach_edge_worlds())
    def test_matches_full_pair_loop(self, scenario):
        culled, full = NearPairsCheckedWorld(scenario), FullPairLoopWorld(scenario)
        culled_metrics, full_metrics = culled.run(), full.run()
        assert culled.trace == full.trace
        assert metrics_to_lines(culled_metrics) == metrics_to_lines(full_metrics)
        assert culled._channel_rng.getstate() == full._channel_rng.getstate()
        assert culled._infect_rng.getstate() == full._infect_rng.getstate()


@st.composite
def edge_cases(draw):
    """A channel, two policies and an RSSI within 4 ulps of one of the
    policies' RSSI at its maximum distance, or anywhere in [-120, 0]."""
    channel = ChannelModel(
        ref_power_dbm=draw(st.floats(-95.0, -30.0)),
        path_loss_exponent=draw(st.floats(1.0, 6.0)),
    )
    policies = [SignificancePolicy(v, draw(st.floats(0.01, 1e9)), 0.0) for v in (1, 2)]
    policy = draw(st.sampled_from(policies))
    edge = distance_to_rssi(policy.max_distance_m, channel)
    near = nudged(edge, draw(st.integers(-4, 4)))
    rssi = draw(st.just(near) | st.floats(-120.0, 0.0))
    return channel, policies, rssi


class TestTickJudgement:
    """A receiver's judgement of a sample in the beacon tick, by its policy's
    RSSI threshold, against the rule itself."""

    @settings(max_examples=300, deadline=None)
    @given(edge_cases())
    def test_tick_judges_as_the_exact_rule(self, case):
        channel, policies, rssi = case
        # agents 0 and 1 share a policy, agent 2 holds the other
        world = World(
            Scenario(
                n_agents=3,
                duration_s=10,
                channel=channel,
                policies={p.version: p for p in policies},
                agent_policy={2: 2},
                positions={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0)},
            )
        )
        # every pair's sample arrives at this RSSI
        with mock.patch.object(sim, "distance_to_rssi", lambda *args: rssi):
            world._beacon_tick()
        heard = min(rssi, 0.0)
        for agent in world.agents:
            if heard < RADIO_CUTOFF_DBM:
                assert agent.sessions == {}
                continue
            assert len(agent.sessions) == 2
            for session in agent.sessions.values():
                assert session.last_within is within_policy(heard, agent.policy, channel)


class EverySecondExpiryWorld(World):
    """Reference for the expiry schedule: the step as it was before expiry
    followed the beacon schedule, scanning every agent's sessions every second."""

    def step(self):
        s = self.scenario
        self._move()
        if self._rotate_at is not None and self.now >= self._rotate_at:
            self._rotate_pids()
            self._rotate_at = None
        if int(self.now) % s.beacon_interval_s == 0:
            self._beacon_tick()
        for agent in self.agents:
            for closed in close_expired_sessions(agent.sessions, self.now, s.gap_timeout_s):
                self._classify_and_log(agent, closed)
        self._diagnose_due()
        if self._forgeries and self.metrics.diagnoses > 0:
            self._inject_scheduled_forgeries()
        self._poll_and_verify()
        self.now += 1.0


@st.composite
def expiry_scenarios(draw):
    """Small crowded worlds with a short radio reach, so contacts come and go
    as agents move, PIDs rotate, agents are diagnosed and the channel fades."""
    n = draw(st.integers(2, 16))
    side = draw(st.floats(3.0, 40.0))
    interval = draw(st.integers(1, 15))
    gap = draw(
        st.sampled_from([0.0, 0.5, 59.5, float(interval), interval - 0.25, interval * 2 + 0.5])
        | st.floats(0.0, interval)
        | st.floats(0.0, 100.0)
    )
    speed = draw(st.sampled_from([0.5, 1.5, 3.0]))
    return Scenario(
        n_agents=n,
        duration_s=draw(st.integers(20, 300)),
        world_width_m=side, world_height_m=side,
        initial_infectious=draw(st.integers(0, n)),
        speed_min_mps=speed / 3,
        speed_max_mps=speed,
        pause_max_s=draw(st.sampled_from([0.0, 20.0])),
        beacon_interval_s=interval,
        channel=ChannelModel(
            ref_power_dbm=draw(st.floats(-95.0, -80.0)),
            path_loss_exponent=draw(st.floats(2.0, 4.0)),
            shadowing_sigma_db=draw(st.sampled_from([0.0, 4.0])),
            body_shadow_db=10.0,
        ),
        body_block_prob=draw(st.sampled_from([0.0, 0.3])),
        exposure_seconds=draw(st.sampled_from([0.0, 30.0])),
        transmission_prob=draw(st.sampled_from([0.0, 0.5])),
        diagnosis_delay_s=draw(st.integers(0, 200)),
        policies={1: draw(st.sampled_from([POLICY_V1, SignificancePolicy(1, 1e9, 0.0)]))},
        pid_rotation_at_s=draw(st.none() | st.floats(0.0, 300.0)),
        gap_timeout_s=gap,
        rng_seed=draw(st.integers(0, 2**32)),
    )


class TestExpirySchedule:
    @settings(max_examples=150, deadline=None)
    @given(expiry_scenarios())
    def test_matches_every_second_expiry(self, scenario):
        gated, every_second = World(scenario), EverySecondExpiryWorld(scenario)
        gated_metrics, every_second_metrics = gated.run(), every_second.run()
        assert gated.trace == every_second.trace
        assert metrics_to_lines(gated_metrics) == metrics_to_lines(every_second_metrics)
        assert gated._channel_rng.getstate() == every_second._channel_rng.getstate()
        assert gated._infect_rng.getstate() == every_second._infect_rng.getstate()


class WalkDiagnosisWorld(World):
    """Reference for the diagnosis heap: the step as it was before diagnosis
    deadlines were kept in a heap, walking every agent every second."""

    def _diagnose_due(self):
        delay = self.scenario.diagnosis_delay_s
        for agent in self.agents:
            if agent.health is Health.INFECTIOUS and agent.infected_at + delay <= self.now:
                self._diagnose(agent)


@st.composite
def diagnosis_scenarios(draw):
    """expiry_scenarios with transmission on, and a diagnosis delay of zero,
    a fraction of a second or whole seconds."""
    return replace(
        draw(expiry_scenarios()),
        transmission_prob=draw(st.sampled_from([0.5, 1.0])),
        diagnosis_delay_s=draw(
            st.just(0.0)
            | st.floats(0.0, 200.0).filter(lambda d: d != int(d))
            | st.integers(1, 200).map(float)
        ),
    )


class TestDiagnosisHeap:
    @settings(max_examples=150, deadline=None)
    @given(diagnosis_scenarios())
    def test_matches_the_walk_over_every_agent(self, scenario):
        heap, walk = World(scenario), WalkDiagnosisWorld(scenario)
        heap_metrics, walk_metrics = heap.run(), walk.run()
        assert heap.trace == walk.trace
        assert metrics_to_lines(heap_metrics) == metrics_to_lines(walk_metrics)
        assert heap._channel_rng.getstate() == walk._channel_rng.getstate()
        assert heap._infect_rng.getstate() == walk._infect_rng.getstate()

    def test_deadlines_rounded_apart_fall_due_in_agent_id_order(self):
        # 1018 + delay is 1023.0000000000001 but 1019 + delay rounds to 1024.0,
        # so agents infected a second apart both fall due at 1024 s
        delay = 5 + 2**-43
        worlds = [
            cls(Scenario(n_agents=3, duration_s=2000, initial_infectious=0, diagnosis_delay_s=delay))
            for cls in (World, WalkDiagnosisWorld)
        ]
        for world in worlds:
            for now, agent_id in ((1018.0, 2), (1019.0, 1)):
                world.now = now
                world._infect(world.agents[agent_id])
            for now in (1023.0, 1024.0):
                world.now = now
                world._diagnose_due()
        assert worlds[0].trace == worlds[1].trace
        assert [line.split("|")[2:4] for line in worlds[0].trace[2:]] == [
            ["diagnose", "1"], ["diagnose", "2"]
        ]
