"""Self-test of the benchmark at a tiny size (about a minute).

    python3 bench/selftest.py

For every workload it runs bench/run.py untraced and traced and checks that
the last line names every metric of bench/metrics.py with its unit and that
no operation failed.  It then runs each workload traced inside this process
and checks that every wrapped attribute is the original again, so untraced
runs measure untraced code.  Last, it checks that BENCHMARK.json matches
the metric tables and that the benchmark fails, printing no result, when the
program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import ROOT, WORK, use_checkout_program
from metrics import END_TO_END, PER_LAYER
from run import WORKLOADS, measure

SEED = 7


def run_cli(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_cli(workload: str, trace: int, table) -> None:
    proc = run_cli(workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    expected = {name: unit for name, unit, *_ in table}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, f"{workload} trace={trace}: {printed} != {expected}"
    assert result["failed"] == 0 and result["correct"], f"{workload}: {result['failed']} failed"
    assert result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
    print(f"ok  {workload} trace={trace}: {len(printed)} metrics, "
          f"{result['attempted']} operations, none failed")


def check_restored(workload: str) -> None:
    from tracing import wrapped_attributes

    originals = wrapped_attributes()
    out, layers = measure(workload, SEED, 1, True, "tiny")
    assert out.failed == 0
    changed = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in originals
               if o.__dict__[a] is not orig]
    assert not changed, f"{workload}: still wrapped after the traced run: {changed}"
    print(f"ok  {workload}: {len(originals)} wrapped attributes restored")


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
    ]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER]
    print("ok  BENCHMARK.json matches bench/metrics.py")


def check_fails_without_program() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_cli("device-log", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    assert proc.returncode != 0, "ran without the program"
    assert '"metrics"' not in proc.stdout, "printed a result without the program"
    print(f"ok  without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> None:
    check_manifest()
    for workload in WORKLOADS:
        check_cli(workload, 0, END_TO_END)
        check_cli(workload, 1, PER_LAYER)
    use_checkout_program()
    for workload in WORKLOADS:
        check_restored(workload)
    check_fails_without_program()
    print("selftest passed")


if __name__ == "__main__":
    main()
