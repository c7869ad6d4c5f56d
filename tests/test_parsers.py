"""Every file-format and wire parser, fed arbitrary text or a valid record
with one character replaced, either parses or raises ValueError; the
registry answers every request line with one of its documented responses.
Where a hash or signature rests on a record, what parses is what its writer
writes; a replaced file's unterminated last line is refused, an appended
file's skipped."""

import os
import tempfile
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from backtrack import bizlog, wire
from backtrack.certificates import (
    LabDirectory,
    LabIdentity,
    certificate_to_file,
    certificate_to_line,
    issue_certificate,
    parse_certificate_file,
    parse_certificate_line,
)
from backtrack.contactlog import parse_log, serialize_log
from backtrack.identity import Pid, generate_trusted_pid
from backtrack.notify import Notification, notification_to_line, parse_mailbox
from backtrack.registry import NotifiedPidRepository, RegistryService, parse_repository
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


def load_appended(parse):
    """A function that writes an appended file's data, bytes or text as
    UTF-8, to a file and returns what `wire.load_lines` reads from it with
    parse, the torn flag included.  A ValueError names the file."""

    def load(data: str | bytes):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "appended.txt")
            with open(path, "wb") as f:
                f.write(data.encode("utf-8") if isinstance(data, str) else data)
            try:
                return wire.load_lines(path, parse)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")
                raise

    return load


def registry_request(line: str) -> None:
    service = RegistryService(NotifiedPidRepository(), DIRECTORY)
    service.handle_request([f"INGEST {CERT_LINE}"])
    assert service.handle_request([line]) in REGISTRY_RESPONSES


# the last line of each appended file holds non-ASCII, so a cut can split a character
NOTIFICATIONS_TEXT = (
    notification_to_line(Notification(Pid("P2"), 7.0, "walk", parse_certificate_line(CERT_LINE)))
    + "\n"
    + notification_to_line(Notification(Pid("P1-\u00e9\u20ac"), 5000.5, "the gym"))
    + "\n"
)

# name -> (parser, a valid input for it)
PARSERS = {
    "certificate": (parse_certificate_line, CERT_LINE),
    "certificate-file": (parse_certificate_file, CERT_LINE + "\n"),
    "mailbox": (load_appended(parse_mailbox), NOTIFICATIONS_TEXT),
    "lab-key": (LabIdentity.from_lines, LAB.to_lines()),
    "log": (parse_log, serialize_log(make_log(make_entry(), make_entry(t=2000.0)))),
    "directory": (LabDirectory.from_lines, DIRECTORY.to_lines()),
    "repository": (
        load_appended(parse_repository),
        "notified|P1|lab-A|2020-04-01\nnotified|P2-\u00e9\u20ac|lab-A|2020-04-02\n",
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


# name -> the writer of what PARSERS[name] parses, where a hash or signature
# rests on the record: the chain and its head, a certificate, a lab's key, and
# a notification, which carries a certificate and whose retried delivery is
# told by its identical line
WRITERS = {
    "certificate": certificate_to_line,
    "certificate-file": certificate_to_file,
    "chain": bizlog.chain_to_lines,
    "head": lambda head: bizlog.head_to_line(bizlog.VisitorLog(head=head)),
    "directory": LabDirectory.to_lines,
    "lab-key": LabIdentity.to_lines,
    "mailbox": lambda read: "".join(notification_to_line(n) + "\n" for n in read[0][0]),
}
# files compared line by line: the directory is written in lab order, and a
# mailbox reads a repeated line once and skips a torn last one
PER_LINE = {"directory", "mailbox"}


@pytest.mark.parametrize("name", sorted(WRITERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_what_parses_is_what_its_writer_writes(name, data):
    parse, valid = PARSERS[name]
    # a character put in or replaced anywhere, or at the edge of a line or a
    # field, where a blank line, a space or a digit separator would be read
    # as another spelling of the same record
    edges = [0, len(valid), *(i + 1 for i, c in enumerate(valid) if c in "|\n")]
    pos = data.draw(st.sampled_from(edges) | st.integers(0, len(valid)))
    char = data.draw(st.sampled_from("\n\r _0+.") | UTF8_CHARS)
    insert = pos == len(valid) or data.draw(st.booleans())
    text = valid[:pos] + char + valid[pos + (not insert):]
    try:
        written = WRITERS[name](parse(text))
    except ValueError:
        return
    if name in PER_LINE:
        lines = load_appended(set)
        assert lines(written)[0] == lines(text)[0]
    else:
        assert written == text


REPLACED_FILES = ["certificate-file", "chain", "directory", "head", "lab-key", "log"]
APPENDED_FILES = ["mailbox", "repository"]


@pytest.mark.parametrize("name", [*REPLACED_FILES, *APPENDED_FILES])
def test_a_last_line_without_its_newline(name):
    # a replaced file is written whole, so an unterminated last line is
    # damage; an appended file's is an append a crash cut short, skipped
    parse, valid = PARSERS[name]
    kept = valid[: valid.rindex("\n", 0, -1) + 1] if valid.count("\n") > 1 else ""
    if name in REPLACED_FILES:
        with pytest.raises(ValueError, match="last line has no newline"):
            parse(valid[:-1])
    else:
        assert parse(valid[:-1]) == (parse(kept)[0], True)


@pytest.mark.parametrize("name", APPENDED_FILES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_an_appended_file_cut_at_any_byte(name, data):
    # a crash can cut an append at any byte, inside a character too, and
    # leave any bytes in its place: the complete lines load as they are, and
    # the torn tail, invalid UTF-8 or not, is left out undecoded
    parse, valid = PARSERS[name]
    raw = valid.encode("utf-8")
    cut = data.draw(st.integers(0, len(raw)))
    junk = data.draw(st.binary()).replace(b"\n", b"")
    complete = raw[: raw.rfind(b"\n", 0, cut) + 1]
    torn = raw[len(complete):cut] + junk
    assert parse(complete + torn) == (parse(complete)[0], bool(torn))


@pytest.mark.parametrize("name", [*REPLACED_FILES, *APPENDED_FILES])
def test_crlf_line_ends_are_refused(name):
    # every record file is written with `\n` line ends; one rewritten with
    # `\r\n` must not load with a `\r` glued to each line's last field
    parse, valid = PARSERS[name]
    with pytest.raises(ValueError):
        parse(valid.replace("\n", "\r\n"))


@pytest.mark.parametrize("name", ["certificate", "certificate-file", "mailbox"])
@pytest.mark.parametrize("day, other", [
    ("2020-04-01", "20200401"), ("2020-04-01", "2020-W14-3"),
    ("2020-03-25", "20200325"), ("2020-03-25", "2020-W13-3"),
])
def test_a_certificate_date_in_another_spelling_is_refused(name, day, other):
    # from Python 3.11 on, date.fromisoformat reads each other spelling as
    # the same day; a signed date has one spelling on every version
    parse, valid = PARSERS[name]
    assert f"|{day}|" in valid
    with pytest.raises(ValueError):
        parse(valid.replace(f"|{day}|", f"|{other}|"))
