"""Every script under ``examples/`` must keep running.

The scripts that run an encrypted network assert their decrypted result
against the plaintext reference, so exit 0 means the encrypted pass
still agrees with it; the others drive the public planning API
(``HydraSystem``, ``repro.runtime``, ``CnnBuilder``), so exit 0 means
that API still takes what the examples pass it.
"""

import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_EXAMPLES = sorted(
    name for name in os.listdir(os.path.join(_ROOT, "examples"))
    if name.endswith(".py")
)


@pytest.mark.parametrize("script", _EXAMPLES)
def test_example_exits_cleanly(script):
    proc = subprocess.run(
        [sys.executable, os.path.join("examples", script)],
        cwd=_ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
