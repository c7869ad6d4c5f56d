"""Every file-format and wire parser, fed arbitrary text or a valid record
with one character replaced, either parses or raises ValueError; the
registry answers every request line with one of its documented responses."""

import base64
import os
import tempfile
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from backtrack import bizlog, cli, wire
from backtrack.certificates import (
    LabDirectory,
    LabIdentity,
    certificate_to_line,
    issue_certificate,
    parse_certificate_line,
)
from backtrack.contactlog import parse_log, serialize_log
from backtrack.identity import Pid, generate_trusted_pid
from backtrack.notify import (
    Notification,
    notification_to_line,
    parse_mailbox,
    parse_notifications,
)
from backtrack.registry import (
    NotifiedPidRepository,
    RegistryService,
    load_repository,
    parse_repository,
)
from backtrack.sim import parse_scenario

from conftest import make_entry, make_log

LAB = LabIdentity.from_seed("lab-A", bytes(range(32)))
DIRECTORY = LabDirectory()
DIRECTORY.add_lab(LAB)
CERT_LINE = certificate_to_line(
    issue_certificate(LAB, [Pid("P1"), Pid("P2")], date(2020, 4, 1), date(2020, 3, 25))
)
CHAIN = bizlog.VisitorLog()
for _i in range(3):
    bizlog.append_visit(CHAIN, Pid(f"pid{_i}"), 100.0 * _i)
CHAIN_TEXT = bizlog.chain_to_lines(CHAIN)
HEAD_TEXT = bizlog.head_to_line(CHAIN)
CLAIMANT = generate_trusted_pid("Ada Lovelace", "tea at noon")
# every kind of scenario line: a comment, scalar, channel, enum, policy,
# agent_policy and position key
SCENARIO_TEXT = """\
# three agents, one pinned
n_agents = 3
duration_s = 600
world_width_m = 10
world_height_m = 8
mode = optional
shadowing_sigma_db = 2
policy = 1:3:120
policy = 2:1.5:60
agent_policy = 1:2
position = 0:2.5:4
pid_rotation_at_s = 300
"""

REGISTRY_RESPONSES = {
    "YES", "NO", "CONFIRMED", "UNKNOWN", "OWNERSHIP-FAILED", "OK", "REJECTED",
    "ERROR malformed request",
}


def parse_and_load_repository(text: str) -> None:
    """Parse text split on `\\n`, and load it written to a state file: the
    two agree, raising ValueError (the load's naming the file) or giving the
    same entries."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "state.txt")
        with open(path, "wb") as f:
            f.write(text.encode("utf-8"))
        try:
            loaded = load_repository(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
            with pytest.raises(ValueError):
                parse_repository(wire.complete_lines(text)[0])
            raise
    assert parse_repository(wire.complete_lines(text)[0]).entries == loaded.entries


def registry_request(line: str) -> None:
    service = RegistryService(NotifiedPidRepository(), DIRECTORY)
    service.handle_request([f"INGEST {CERT_LINE}"])
    assert service.handle_request([line]) in REGISTRY_RESPONSES


NOTIFICATIONS_TEXT = (
    notification_to_line(Notification(Pid("P1"), 5000.5, "the gym"))
    + "\n"
    + notification_to_line(Notification(Pid("P2"), 7.0, "walk", parse_certificate_line(CERT_LINE)))
    + "\n"
)

# name -> (parser, a valid input for it)
PARSERS = {
    "certificate": (parse_certificate_line, CERT_LINE),
    "notifications": (parse_notifications, NOTIFICATIONS_TEXT),
    "mailbox": (parse_mailbox, NOTIFICATIONS_TEXT),
    "lab-key": (
        cli._parse_lab_key,
        f"labkey|lab-A|ed25519|{base64.b64encode(LAB.private_bytes()).decode('ascii')}\n",
    ),
    "log": (parse_log, serialize_log(make_log(make_entry(), make_entry(t=2000.0)))),
    "directory": (LabDirectory.from_lines, DIRECTORY.to_lines()),
    "repository": (
        parse_and_load_repository,
        "notified|P1|lab-A|2020-04-01\nnotified|P2|lab-A|2020-04-02\n",
    ),
    "chain": (lambda text: bizlog.parse_chain(text, CHAIN.head), CHAIN_TEXT),
    "head": (bizlog.parse_head, HEAD_TEXT),
    "scenario": (parse_scenario, SCENARIO_TEXT),
    "registry-ingest": (registry_request, f"INGEST {CERT_LINE}"),
    "registry-query": (registry_request, "QUERY P1"),
    "registry-claim": (
        registry_request,
        f"CLAIM P1 {CLAIMANT.pid} {wire.quote(CLAIMANT.personal_data)} "
        f"{wire.quote(CLAIMANT.phrase)}",
    ),
}


# what a file or request line decoded from UTF-8 can hold: no lone surrogates
UTF8_CHARS = st.characters(exclude_categories=("Cs",))


@settings(max_examples=500, deadline=None)
@given(
    name=st.sampled_from(sorted(PARSERS)),
    text=st.one_of(st.text(UTF8_CHARS), st.tuples(st.integers(min_value=0), UTF8_CHARS)),
)
def test_every_parser_parses_or_raises_value_error(name, text):
    parse, valid = PARSERS[name]
    if isinstance(text, tuple):
        pos, char = text
        pos %= len(valid)
        text = valid[:pos] + char + valid[pos + 1:]
    try:
        parse(text)
    except ValueError:
        assert not name.startswith("registry"), f"request {text!r} raised, not answered"


def test_valid_inputs_parse():
    for parse, valid in PARSERS.values():
        parse(valid)
