"""`tests/xver.py`, which checks the rules that could differ between Python
versions with the standard library alone, passes under this interpreter."""

import os
import subprocess
import sys


def test_version_sensitive_rules_hold():
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "xver.py")
    done = subprocess.run([sys.executable, script], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("3 of 3 rules hold\n")
