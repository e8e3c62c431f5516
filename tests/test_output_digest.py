"""Byte-drift check: a two-round run of the default config, under every
method, still prints the digest lines committed in ``configs/short.digest``.

A change that moves an output number on purpose commits the new lines,
printed with ``scripts/output_digest.py`` and one BLAS thread.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_short_default_run_matches_committed_digest(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    command = [
        sys.executable,
        str(ROOT / "scripts" / "output_digest.py"),
        "--config", str(ROOT / "configs" / "default.txt"),
        "--set", "rounds=2",
        "--out", str(tmp_path),
        "--expect", str(ROOT / "configs" / "short.digest"),
    ]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(done.stdout.splitlines()) == 3  # apromfl, fediot, local
