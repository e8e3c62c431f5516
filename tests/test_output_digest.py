"""Byte-drift check: two-round runs of the default config, under every
method, still print the digest lines committed under ``configs/``.

``configs/short.digest`` pins the default config, serial and with two
client processes (so pool pickling cannot move a number), and
``configs/identity-short.digest`` pins identity encoders with one-layer
mapping modules (a multimodal client's towers as two one-tower stacks).
``configs/k80-short.digest`` pins K = 80 global prototypes, where k-means
draws far more centroids than its k-means++ candidate count.
A change that moves an output number on purpose commits the new lines,
printed with ``scripts/output_digest.py`` and one BLAS thread.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def check_digest(tmp_path, digest: str, *sets: str) -> None:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    command = [
        sys.executable,
        str(ROOT / "scripts" / "output_digest.py"),
        "--config", str(ROOT / "configs" / "default.txt"),
        "--set", "rounds=2",
        *(arg for key_value in sets for arg in ("--set", key_value)),
        "--out", str(tmp_path),
        "--expect", str(ROOT / "configs" / digest),
    ]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(done.stdout.splitlines()) == 3  # apromfl, fediot, local


def test_short_default_run_matches_committed_digest(tmp_path):
    check_digest(tmp_path, "short.digest")


def test_short_default_run_on_two_workers_matches_committed_digest(tmp_path):
    check_digest(tmp_path, "short.digest", "workers=2")


def test_short_identity_run_matches_committed_digest(tmp_path):
    check_digest(tmp_path, "identity-short.digest", "encoder_kind=identity", "mapping_layers=1")


def test_short_k80_run_matches_committed_digest(tmp_path):
    check_digest(tmp_path, "k80-short.digest", "num_global_prototypes=80")


def test_check_digests_covers_every_committed_digest():
    spec = importlib.util.spec_from_file_location("check_digests", ROOT / "scripts" / "check_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    checked = {digest for _, digest, *_ in script.CHECKS}
    assert checked == {path.name for path in (ROOT / "configs").glob("*.digest")}
