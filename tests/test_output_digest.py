"""Byte-drift check: two-round runs of the default config, under every
method, still print the digest lines committed under ``configs/``.

Each test runs one check of ``scripts/check_digests.py``, by the command
line that script builds from its table. ``configs/short.digest`` pins the
default config, serial and with two client processes (so pool pickling
cannot move a number), and ``configs/identity-short.digest`` pins identity
encoders with one-layer mapping modules (a multimodal client's towers, of
different input widths, each trained alone). ``configs/k80-short.digest``
pins K = 80 global prototypes, where k-means draws far more centroids than
its k-means++ candidate count. A change that moves an output number on
purpose commits the new lines, printed with ``scripts/output_digest.py`` and
one BLAS thread.
"""

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("check_digests", ROOT / "scripts" / "check_digests.py")
check_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_digests)


def check_digest(tmp_path, name: str) -> None:
    command = check_digests.command(name, tmp_path)
    env = check_digests.environment()
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(done.stdout.splitlines()) == 3  # apromfl, fediot, local


def test_short_default_run_matches_committed_digest(tmp_path):
    check_digest(tmp_path, "short")


def test_short_default_run_on_two_workers_matches_committed_digest(tmp_path):
    check_digest(tmp_path, "short-workers-2")


def test_short_identity_run_matches_committed_digest(tmp_path):
    check_digest(tmp_path, "identity-short")


def test_short_k80_run_matches_committed_digest(tmp_path):
    check_digest(tmp_path, "k80-short")


def test_check_digests_covers_every_committed_digest():
    checked = {digest for _, digest, *_ in check_digests.CHECKS}
    assert checked == {path.name for path in (ROOT / "configs").glob("*.digest")}
