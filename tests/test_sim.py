import pytest

from backtrack.encounter import ChannelModel, SignificancePolicy
from backtrack.notify import DeploymentMode, VerdictStatus
from backtrack.sim import (
    ForgeryKind,
    Health,
    InvalidScenario,
    Scenario,
    World,
    metrics_to_lines,
    parse_scenario,
    run_scenario,
)


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
        statuses = [v.status for v in world.agents[1].verdicts]
        assert statuses == [VerdictStatus.ACCEPTED]

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
        assert [v.status for v in world.agents[1].verdicts] == [
            VerdictStatus.REJECTED_NO_MATCHING_CONTACT
        ]
        assert world.agents[0].verdicts == []

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
        assert set(world.repo.entries) == {pid.value for _, pid in world.agents[0].pids_used}

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
            [pid.value for _, pid in a.pids_used] for a in world.agents
        )
        assert world.agents[1].infected_at == 600.0
        assert set(world.repo.entries) == {first0, second0, second1}
        assert [e.own_record.pid.value for e in world.agents[1].log.entries] == [first1, second1]
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
            world_size_m=(20.0, 20.0),
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
            n_agents=10, duration_s=1500.0, world_size_m=(10.0, 10.0),
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
            world_size_m=(15.0, 15.0),
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
            world_size_m=(15.0, 15.0),
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
        assert s.world_size_m == (30.0, 40.0)
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
            world_size_m=(30.0, 40.0),
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
        with pytest.raises(InvalidScenario):
            parse_scenario("n_agents = 2\nduration_s = 10\nbogus_key = 1\n")

    def test_retention_days_is_not_a_scenario_key(self):
        # the simulator never prunes a log, so there is no retention to set
        with pytest.raises(InvalidScenario, match="unknown scenario key"):
            parse_scenario("n_agents = 2\nduration_s = 10\nretention_days = 5\n")

    def test_missing_n_agents(self):
        with pytest.raises(InvalidScenario):
            parse_scenario("duration_s = 10\n")

    def test_bad_value(self):
        with pytest.raises(InvalidScenario):
            parse_scenario("n_agents = two\nduration_s = 10\n")

    def test_bad_mode(self):
        with pytest.raises(InvalidScenario):
            parse_scenario("n_agents = 2\nduration_s = 10\nmode = strict\n")

    def test_missing_equals(self):
        with pytest.raises(InvalidScenario):
            parse_scenario("n_agents 2\n")


class TestScenarioValidation:
    def test_no_agents(self):
        with pytest.raises(InvalidScenario):
            Scenario(n_agents=0, duration_s=10.0)

    def test_too_many_infectious(self):
        with pytest.raises(InvalidScenario):
            Scenario(n_agents=2, duration_s=10.0, initial_infectious=3)

    def test_position_outside_world(self):
        with pytest.raises(InvalidScenario):
            Scenario(
                n_agents=1, duration_s=10.0,
                world_size_m=(10.0, 10.0), positions={0: (11.0, 5.0)},
            )

    def test_undeclared_agent_policy(self):
        with pytest.raises(InvalidScenario):
            Scenario(n_agents=2, duration_s=10.0, agent_policy={0: 99})

    def test_bad_transmission_prob(self):
        with pytest.raises(InvalidScenario):
            Scenario(n_agents=2, duration_s=10.0, transmission_prob=1.5)


class TestMetricsFormat:
    def test_lines_shape(self):
        m, _ = run_scenario(static_pair(1.0))
        text = metrics_to_lines(m)
        lines = text.splitlines()
        assert all(line.startswith("metric|") for line in lines)
        assert "metric|true_exposures|1" in lines
        assert "metric|missed|0" in lines
        assert any(line.startswith("metric|verdict_ACCEPTED|") for line in lines)
