"""End-to-end acceptance checks for the whole toolkit.

Each test exercises one release gate and prints a single PASS line so the
-s / verbose output doubles as a checklist. The simulation-backed checks use
small worlds chosen so every run finishes in seconds.
"""

import functools
import random
import subprocess
import sys
from dataclasses import replace
from datetime import date

from backtrack.certificates import (
    LabDirectory,
    LabIdentity,
    VerificationStatus,
    certificate_to_line,
    issue_certificate,
    parse_certificate_line,
    verify_certificate,
)
from backtrack.contactlog import prune
from backtrack.encounter import (
    ChannelModel,
    SignificancePolicy,
    distance_to_rssi,
    rssi_to_distance,
)
from backtrack.identity import Pid, generate_trusted_pid, prove_pid_ownership
from backtrack.notify import Notification, VerdictStatus, verify_notification
from backtrack.sim import Scenario, World, run_scenario

from conftest import make_entry, make_log

LAB = LabIdentity.from_seed("lab-A", bytes(range(32)))
DIRECTORY = LabDirectory()
DIRECTORY.add_lab(LAB)


def dense_world(seed, **overrides):
    """Crowded room where agents linger long enough to produce exposures."""
    base = dict(
        n_agents=50,
        duration_s=2400.0,
        world_width_m=12.0, world_height_m=12.0,
        initial_infectious=5,
        speed_min_mps=0.3,
        speed_max_mps=1.0,
        pause_min_s=600.0,
        pause_max_s=1200.0,
        diagnosis_delay_s=1200.0,
        transmission_prob=0.0,
        rng_seed=seed,
    )
    base.update(overrides)
    return Scenario(**base)


@functools.cache
def run_dense_world(seed):
    """One run per criterion-2 seed, shared with the digests in test_golden."""
    return run_scenario(dense_world(seed))


def test_criterion_01_policy_interop_asymmetry():
    # two agents at a constant 2.25 m: inside the lenient 3.0 m threshold,
    # outside the strict 1.5 m one, so only one side records the contact
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
    world.run()
    lenient, strict = world.agents
    assert len(lenient.log.entries) == 1
    assert len(strict.log.entries) == 0
    verdicts = [line.split("|")[3:5] for line in world.trace if line.split("|")[2] == "verdict"]
    # only the strict side (agent 1) is sent anything, and it refuses it
    assert verdicts == [["1", VerdictStatus.REJECTED_NO_MATCHING_CONTACT.value]]
    print("criterion 1 PASS: asymmetric policies, strict side prevails")


def test_criterion_02_noiseless_end_to_end_soundness():
    # device thresholds match the ground-truth rule and the channel is exact,
    # so every true exposure must be notified and nothing else accepted
    total = 0
    for seed in range(5):
        metrics, _ = run_dense_world(seed)
        assert metrics.missed == 0, f"seed {seed}: missed {metrics.missed}"
        assert metrics.notified_false == 0, f"seed {seed}"
        total += metrics.true_exposures
    assert total > 50  # the check must not pass vacuously
    print(f"criterion 2 PASS: 5 seeds, {total} exposures, 0 missed, 0 false")


def test_criterion_03_fake_claim_filter():
    entry = make_entry(own_pid="victim", peer_pid="sick", t=5000.0)
    log = make_log(entry)
    cert = issue_certificate(LAB, [Pid("sick")], date(1970, 1, 2), date(1970, 1, 1))
    genuine = Notification(
        Pid("sick"),
        entry.own_record.local_time,
        entry.own_record.local_location,
        cert,
    )
    rng = random.Random(3)
    for _ in range(1000):
        assert verify_notification(genuine, log, DIRECTORY).accepted
    for _ in range(1000):
        field = rng.choice(["pid", "time", "location"])
        if field == "pid":
            fake = replace(genuine, sender_pid=Pid(f"{rng.getrandbits(128):032x}"))
        elif field == "time":
            jitter = rng.choice((-1, 1)) * rng.uniform(301.0, 90000.0)
            fake = replace(genuine, echoed_time=genuine.echoed_time + jitter)
        else:
            fake = replace(genuine, echoed_location=f"loc-{rng.getrandbits(32):08x}")
        assert not verify_notification(fake, log, DIRECTORY).accepted
    print("criterion 3 PASS: 1000/1000 genuine accepted, 1000/1000 fakes rejected")


def test_criterion_04_certificate_integrity():
    rng = random.Random(8)
    rejected = 0
    while rejected < 1000:
        pids = [Pid(f"{rng.getrandbits(64):016x}") for _ in range(rng.randrange(1, 4))]
        cert = issue_certificate(LAB, pids, date(2020, 4, 1), date(2020, 3, 25))
        text = certificate_to_line(cert)
        pos = rng.randrange(len(text))
        repl = chr(rng.randrange(33, 127))
        if text[pos] == repl:
            continue
        mutated = text[:pos] + repl + text[pos + 1 :]
        try:
            tampered = parse_certificate_line(mutated)
        except ValueError:
            rejected += 1  # refused before signature checking even starts
            continue
        status = verify_certificate(tampered, DIRECTORY)
        assert status is not VerificationStatus.VERIFIED
        assert status in (VerificationStatus.BAD_SIGNATURE, VerificationStatus.UNKNOWN_LAB)
        rejected += 1
    print("criterion 4 PASS: 1000/1000 single-byte mutations rejected")


def test_criterion_05_pid_swap_forgeries_rejected():
    # in-simulation: copied notifications with a swapped sender PID
    metrics, trace = run_scenario(dense_world(1, forge_pid_swap=50))
    assert metrics.forgeries_injected == 50
    assert metrics.forgeries_accepted == 0
    assert metrics.rejected_forgeries == 50
    forged_verdicts = [
        line.split("|")[4] for line in trace
        if line.split("|")[2] == "verdict" and line.endswith("forged=1")
    ]
    assert len(forged_verdicts) == 50
    assert all(v.startswith("REJECTED-") for v in forged_verdicts)

    # hand-built worst case: the attacker really did meet the victim, so the
    # log-match succeeds and only the certificate coverage check stands
    entry = make_entry(own_pid="victim", peer_pid="attacker", t=5000.0)
    log = make_log(entry)
    cert = issue_certificate(LAB, [Pid("sick")], date(1970, 1, 2), date(1970, 1, 1))
    swapped = Notification(
        Pid("attacker"),
        entry.own_record.local_time,
        entry.own_record.local_location,
        cert,
    )
    verdict = verify_notification(swapped, log, DIRECTORY)
    assert verdict.status is VerdictStatus.REJECTED_PID_NOT_IN_CERTIFICATE
    print("criterion 5 PASS: 50/50 swapped-PID forgeries rejected")


def test_criterion_06_trusted_pid_ownership():
    rng = random.Random(12)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    for _ in range(1000):
        name = "".join(rng.choice(alphabet) for _ in range(rng.randrange(4, 20)))
        phrase = "".join(rng.choice(alphabet) for _ in range(rng.randrange(4, 20)))
        commitment = generate_trusted_pid(name, phrase)
        assert prove_pid_ownership(name, phrase, commitment.pid)
        victim, other = (name, phrase) if rng.random() < 0.5 else (phrase, name)
        pos = rng.randrange(len(victim))
        change = rng.choice([c for c in alphabet if c != victim[pos]])
        mutated = victim[:pos] + change + victim[pos + 1 :]
        if victim is name:
            assert not prove_pid_ownership(mutated, phrase, commitment.pid)
        else:
            assert not prove_pid_ownership(name, mutated, commitment.pid)
    print("criterion 6 PASS: 1000 ownership round-trips, all mutations refused")


def test_criterion_07_hash_chain_tamper_localization():
    from backtrack.bizlog import VisitorLog, append_visit, chain_to_lines, parse_chain, verify_chain

    rng = random.Random(21)
    for _ in range(100):
        n = rng.randrange(1, 501)
        log = VisitorLog()
        for i in range(n):
            append_visit(log, Pid(f"v{i}"), float(i))
        victim = rng.randrange(n)
        mutation = rng.choice(["pid", "time", "hash"])
        # the edit is made in the chain file's text: visit|<seq>|<time>|<pid>|<hash>
        lines = chain_to_lines(log).split("\n")
        fields = lines[victim].split("|")
        if mutation == "pid":
            fields[3] = "x"
        elif mutation == "time":
            fields[2] = repr(log.chain[victim].visited_at + 0.5)
        else:
            fields[4] = "e" * 64
        lines[victim] = "|".join(fields)
        check = verify_chain(parse_chain("\n".join(lines), log.head))
        assert not check.intact
        assert check.tampered_at == victim + 1
    print("criterion 7 PASS: 100 chains, tamper localized to the exact seq")


def test_criterion_08_retention_prune():
    day = 86400.0
    now = 100 * day
    stale = [make_entry(peer_pid=f"s{i}", recorded_at=now - (22 + i) * day)
             for i in reversed(range(5))]
    fresh = [make_entry(peer_pid=f"f{i}", recorded_at=now - (20 - i) * day)
             for i in range(5)]
    boundary = make_entry(peer_pid="edge", recorded_at=now - 21 * day)
    log = make_log(*stale, boundary, *fresh)
    prune(log, now)
    kept = [e.peer_record.pid for e in log.entries]
    assert kept == ["edge", "f0", "f1", "f2", "f3", "f4"]
    prune(log, now)
    assert [e.peer_record.pid for e in log.entries] == kept
    print("criterion 8 PASS: prune removes exactly the stale set, idempotent")


CRITERION_09_SCENARIO = (
    "n_agents = 30\n"
    "duration_s = 1800\n"
    "world_width_m = 12\n"
    "world_height_m = 12\n"
    "initial_infectious = 4\n"
    "pause_min_s = 400\n"
    "pause_max_s = 900\n"
    "speed_min_mps = 0.3\n"
    "speed_max_mps = 1.0\n"
    "transmission_prob = 0.2\n"
    "forge_fake_claims = 5\n"
    "forge_pid_swap = 5\n"
    "rng_seed = 17\n"
)


def test_criterion_09_cross_process_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(CRITERION_09_SCENARIO)
    outputs = []
    for run_id in (1, 2):
        trace_path = tmp_path / f"trace{run_id}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "backtrack.cli", "sim",
             "--scenario", str(scenario_path), "--trace", str(trace_path)],
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, trace_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert b"metric|true_exposures|" in outputs[0][0]
    assert outputs[0][1]  # the trace must not be empty
    print("criterion 9 PASS: two processes, byte-identical metrics and trace")


def test_criterion_10_path_loss_round_trip():
    for n in (1.8, 2.0, 3.0):
        model = ChannelModel(path_loss_exponent=n)
        for d in (0.1, 0.5, 1.0, 2.25, 3.0, 10.0, 100.0):
            back = rssi_to_distance(distance_to_rssi(d, model), model)
            assert abs(back - d) / d < 1e-9
    print("criterion 10 PASS: forward/inverse path loss within 1e-9 relative")
