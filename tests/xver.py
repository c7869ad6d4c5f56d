"""The rules whose results could differ between Python versions, checked
with the standard library alone, so that any installed interpreter can run
them without pytest or cryptography:

- `encounter.channel_draws` repeats `random.gauss`'s Box–Muller arithmetic
  inline: it must give the values and the generator state of one
  `gauss(0.0, 1.0)` call per pair, each followed by the pair's blocking
  `random()`;
- `identity.check_token` accepts through `str.isprintable`, which reads the
  version's Unicode tables: it must agree with the per-character rule on
  every code point;
- `wire.parse_day` must read `YYYY-MM-DD` and nothing else, though
  `date.fromisoformat` reads more spellings from 3.11 on.

Run from the repository root with the interpreter to check:

    python tests/xver.py

It prints one line per rule and exits 1 if any rule fails.
"""

import os
import random
import sys
from datetime import date

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from backtrack.encounter import ChannelModel, channel_draws  # noqa: E402
from backtrack.identity import check_token  # noqa: E402
from backtrack.wire import parse_day  # noqa: E402

# in sequence, so odd sizes leave a draw in gauss_next for the next call
SIZES = [*range(10), 4005, 19_900, 1, 19_900, *range(9, -1, -1)]


def channel_draw_mismatches() -> list[str]:
    """Every (sigma, block, carried, size) whose draws or generator state
    differ from the per-pair calls."""
    bad = []
    for sigma in (0.0, 2.0):
        for block in (0.0, 0.3):
            for carried in (False, True):
                rng = random.Random(7)
                if carried:
                    rng.gauss(0.0, 1.0)  # leaves a draw in gauss_next
                twin = random.Random()
                twin.setstate(rng.getstate())
                model = ChannelModel(shadowing_sigma_db=sigma)
                for n in SIZES:
                    noise, blocked = channel_draws(rng, n, model, block)
                    want_noise = []
                    want_blocked = []
                    for _ in range(n):
                        want_noise.append(twin.gauss(0.0, 1.0) if sigma > 0 else 0.0)
                        want_blocked.append(block > 0 and twin.random() < block)
                    if (
                        [x.hex() for x in noise] != [x.hex() for x in want_noise]
                        or blocked != want_blocked
                        or rng.getstate() != twin.getstate()
                    ):
                        bad.append(f"sigma={sigma} block={block} carried={carried} n={n}")
    return bad


def token_mismatches() -> list[str]:
    """Every code point that check_token judges other than the per-character
    rule, or refuses with another message."""
    bad = []
    for code in range(sys.maxunicode + 1):
        c = chr(code)
        allowed = not (c in "|," or c.isspace() or not c.isprintable())
        try:
            check_token(c, "PID")
        except ValueError as exc:
            if allowed or str(exc) != f"PID contains forbidden character {c!r}":
                bad.append(hex(code))
        else:
            if not allowed:
                bad.append(hex(code))
    return bad


def day_mismatches() -> list[str]:
    """Every spelling that parse_day reads other than as `YYYY-MM-DD`."""
    bad = []
    if parse_day("2020-03-01") != date(2020, 3, 1):
        bad.append("2020-03-01")
    for text in ["20200301", "2020-W10-1", "2020W101", "2020-3-1", " 2020-03-01"]:
        try:
            parse_day(text)
        except ValueError as exc:
            if repr(text) not in str(exc):
                bad.append(f"{text!r}: message {exc}")
        else:
            bad.append(f"{text!r}: read")
    return bad


def main() -> int:
    checks = [
        ("channel_draws against per-pair random.gauss", channel_draw_mismatches),
        ("check_token on every code point", token_mismatches),
        ("parse_day reads YYYY-MM-DD only", day_mismatches),
    ]
    failed = 0
    for name, check in checks:
        bad = check()
        failed += bool(bad)
        print(f"{'ok' if not bad else 'FAIL'}: {name}" + "".join(f"\n  {b}" for b in bad[:20]))
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"python {version}: {len(checks) - failed} of {len(checks)} rules hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
