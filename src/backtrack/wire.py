"""Shared helpers for the line-oriented `|`-separated file and wire formats.
Every record file is split on newline only; its parser refuses a blank line.
A file replaced whole (`write_atomic`, under `locked` when the new text is
made from the old) is read by `replaced_lines` or `only_line`, which refuse
an unterminated last line.  A file appended whole lines (`append_lines`) is
read by `load_lines`, which leaves one out undecoded: a torn append."""

from __future__ import annotations

import contextlib
import fcntl
import os
import string
import tempfile
import urllib.parse
from datetime import date
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")


def quote(label: str) -> str:
    """Percent-encode an opaque label so it is safe inside a `|` record."""
    return urllib.parse.quote(label, safe="")


def unquote(encoded: str) -> str:
    return urllib.parse.unquote(encoded)


# the characters `quote` writes as they are
_UNQUOTED = string.ascii_letters + string.digits + "_.-~"


def unquote_written(encoded: str) -> str:
    """The label that `quote` wrote as encoded; raises ValueError for any
    other spelling, such as a raw `\\r` or space, `%41` for `A` or `%2f`."""
    if not encoded.strip(_UNQUOTED):  # nothing escaped: the label itself
        return encoded
    label = unquote(encoded)
    if quote(label) != encoded:
        raise ValueError(f"label {encoded!r} is not spelled as quote writes it")
    return label


def parse_day(text: str) -> date:
    """The date text spells as `YYYY-MM-DD`; any other text raises ValueError,
    also `20200301` and `2020-W10-1`, which Python 3.11 on reads as ISO dates."""
    with contextlib.suppress(ValueError):
        day = date.fromisoformat(text)
        if day.isoformat() == text:
            return day
    raise ValueError(f"{text!r} is not a date spelled YYYY-MM-DD")


def fmt_num(x: float) -> str:
    """Render a timestamp/number compactly but bit-exactly round-trippable."""
    if isinstance(x, float):
        if x.is_integer():
            return str(int(x))
        return repr(x)
    return str(x)


def write_atomic(path: str, text: str) -> None:
    """Write text to a temporary file beside path, flush it to disk and rename
    it over path, so a crash leaves either the old file or the new one."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(text.encode("utf-8"))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextlib.contextmanager
def locked(path: str) -> Iterator[None]:
    """Hold an exclusive flock on `<path>.lock` for the block, which loads
    path, changes it and replaces it with `write_atomic`; so writers that
    each do that take turns, and none replaces path with text made before
    another's write.  The lock is on a file beside path, created if missing
    and never removed, because `write_atomic` replaces path itself and a
    lock on the replaced file would not exclude a process that opens the
    new one.  Readers take no lock: they see the old file or the new one."""
    with open(path + ".lock", "ab") as f:
        fcntl.flock(f, fcntl.LOCK_EX)  # released when f is closed
        yield


def append_lines(path: str, text: str) -> None:
    """Append text, whole newline-terminated lines, to the file at path,
    creating it if missing. Under an exclusive flock it first cuts a last
    line that has no newline, a record an append cut short by a crash left,
    so the new lines start on a line of their own."""
    with open(path, "a+b") as f:
        fcntl.flock(f, fcntl.LOCK_EX)  # released when f is closed
        end = f.seek(0, os.SEEK_END)
        if end:
            f.seek(end - 1)
            if f.read(1) != b"\n":
                f.seek(0)
                f.truncate(f.read().rfind(b"\n") + 1)
        f.write(text.encode("utf-8"))


def replaced_lines(text: str) -> list[str]:
    """The lines of a replaced file's text, without their newlines; raises
    ValueError if the last line has no newline."""
    if text and not text.endswith("\n"):
        raise ValueError("last line has no newline")
    return text.split("\n")[:-1]


def only_line(text: str) -> str:
    """The line of a replaced file that holds one record."""
    lines = replaced_lines(text)
    if len(lines) != 1:
        raise ValueError(f"expected one line, got {len(lines)}")
    return lines[0]


def load(path: str, parse: Callable[[str], T]) -> T:
    """Parse the UTF-8 text of the file at path, no `\\r` translated; a
    ValueError, a decode error included, is raised again prefixed with path."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return parse(f.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_lines(path: str, parse: Callable[[Iterator[str]], T]) -> tuple[T, bool]:
    """What parse makes of the file at path, read one line at a time, holding
    neither its whole text nor a list of its lines, and whether an
    unterminated last line, torn by a crash mid-append, was left out
    undecoded.  parse gets, and must read, each newline-terminated line, split
    on `\\n` only and decoded from UTF-8, without its newline.  A ValueError
    is raised again prefixed with the path, as `load` does."""
    torn = False

    def complete(f) -> Iterator[str]:
        nonlocal torn
        for raw in f:
            if raw.endswith(b"\n"):
                yield raw[:-1].decode("utf-8")
            else:
                torn = True

    try:
        with open(path, "rb") as f:
            return parse(complete(f)), torn
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
