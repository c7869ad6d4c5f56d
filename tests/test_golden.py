"""Golden digests of simulator output.

Each digest is the SHA-256 of metrics_to_lines followed by every trace line,
the same digest bench/wl_sim.py records.  A change that should not alter
behaviour must leave every digest here unchanged; a change that alters the
random stream or a rule on purpose updates them in a separate, explained step.
"""

import hashlib

import pytest

from backtrack.sim import metrics_to_lines, parse_scenario, run_scenario

from test_acceptance import CRITERION_09_SCENARIO, run_dense_world

# Shadowing and body blocking on a steep (n = 4) channel, so pairs drift in
# and out of radio range.  A 19.5 s gap timeout with 10 s beacons splits a
# session inside ingest_beacon after one missed beacon and in the expiry scan
# after two.  Two policy versions, a PID rotation, transmission, diagnoses
# that flush open sessions, notifications that flush the session with their
# sender before verification, and all three forgery kinds.
SMALL_SCENARIO = """\
n_agents = 12
duration_s = 1500
world_width_m = 12
world_height_m = 12
initial_infectious = 3
speed_min_mps = 0.2
speed_max_mps = 1.0
pause_min_s = 60
pause_max_s = 600
path_loss_exponent = 4
shadowing_sigma_db = 4
body_shadow_db = 8
body_block_prob = 0.2
policy = 1:3:120
policy = 2:1.5:60
agent_policy = 5:2
agent_policy = 6:2
gap_timeout_s = 19.5
transmission_prob = 0.3
exposure_seconds = 240
diagnosis_delay_s = 500
pid_rotation_at_s = 700
forge_fake_claims = 3
forge_pid_swap = 3
forge_bogus_cert = 3
rng_seed = 5
"""

GOLDEN = {
    "criterion-02-seed0": "77dd6dd413673e1cf3b77f510a64ba1afe1d1bea4438d17a16636e92bf56651f",
    "criterion-02-seed1": "2b6ad6187444b06f975a060aa097b0af6776068edc936c5d48f267aeb472acaa",
    "criterion-02-seed2": "b8c347f788e9d6fcbb8607edadaa88fa492fcc15a45846f57e5fb262a0f28bdd",
    "criterion-02-seed3": "ce001b2ff0b1b49566a0d1db027d841be32d168b783fd31f668cc14364181367",
    "criterion-02-seed4": "6dc0dc997294b2bcd9e615d2cca098425a5ceb621e14852edd85ef7394cc64f8",
    "criterion-09": "6ee1c73443b34accc93c179a948ae4be9a1ceb0ef5d138be9a1ba9e07c55286a",
    "small-shadowed": "8bf7ec87fc23457803228b16d0eaff66bd483177e6b357ec202084a1dbd64643",
    "small-optional": "80d4c7f65d9c3fbd45b4ebb82260c90666325f1a68d3e5dcd4b4055872bbe06c",
}


def output_digest(metrics, trace) -> str:
    h = hashlib.sha256(metrics_to_lines(metrics).encode("utf-8"))
    for line in trace:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("seed", range(5))
def test_criterion_02_digest(seed):
    assert output_digest(*run_dense_world(seed)) == GOLDEN[f"criterion-02-seed{seed}"]


# The same scenario in optional mode takes the uncertified path through
# diagnosis and verification (ACCEPTED-UNCERTIFIED verdicts).
SCENARIOS = {
    "criterion-09": CRITERION_09_SCENARIO,
    "small-shadowed": SMALL_SCENARIO,
    "small-optional": SMALL_SCENARIO + "mode = optional\n",
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_digest(name):
    assert output_digest(*run_scenario(parse_scenario(SCENARIOS[name]))) == GOLDEN[name]
