"""The benchmark's tracer wraps program functions by name, at every place
callers look them up.  Deleting or renaming one of those names breaks
`bench/run.py --trace 1`; this catches it without running a workload."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    saved = tracing.wrapped_attributes()
    assert saved
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
