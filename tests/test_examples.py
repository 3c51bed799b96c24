"""The examples that run an encrypted network must keep running.

Each script asserts its decrypted result against the plaintext
reference, so exit 0 means the encrypted pass still agrees with it
under the current ``repro.ckks`` network API.
"""

import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["encrypted_inference.py",
                                    "client_server_workflow.py"])
def test_example_exits_cleanly(script):
    proc = subprocess.run(
        [sys.executable, os.path.join("examples", script)],
        cwd=_ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
