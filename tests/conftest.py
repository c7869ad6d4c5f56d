import random

import pytest

from backtrack.certificates import LabDirectory, LabIdentity
from backtrack.contactlog import ContactLog, LogEntry, append_entry
from backtrack.encounter import InformationRecord
from backtrack.identity import Pad, Pid, generate_random_pid


@pytest.fixture
def lab():
    return LabIdentity.from_seed("lab-A", bytes(range(32)))


@pytest.fixture
def directory(lab):
    d = LabDirectory()
    d.add_lab(lab)
    return d


def make_record(pid="a1b2", pad="me@box", t=1000.0, loc="gym"):
    return InformationRecord(pid=Pid(pid), pad=Pad(pad), local_time=t, local_location=loc)


def make_entry(own_pid="aaaa", peer_pid="bbbb", peer_pad="peer@box", t=1000.0,
               own_loc="gym", peer_loc="walk", recorded_at=None, dwell=700.0,
               policy_version=1):
    own = make_record(pid=own_pid, pad="me@box", t=t, loc=own_loc)
    peer = make_record(pid=peer_pid, pad=peer_pad, t=t, loc=peer_loc)
    return LogEntry(
        own_record=own,
        peer_record=peer,
        recorded_at=recorded_at if recorded_at is not None else t,
        dwell_s=dwell,
        policy_version=policy_version,
    )


def make_log(*entries):
    log = ContactLog()
    for e in entries:
        append_entry(log, e)
    return log


def random_pid(rng: random.Random) -> Pid:
    return generate_random_pid(rng)
