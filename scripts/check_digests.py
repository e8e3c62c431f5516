#!/usr/bin/env python3
"""Check every committed output digest under ``configs/`` with one command.

    python3 scripts/check_digests.py [NAME ...]

Runs ``scripts/output_digest.py --expect`` for each check of ``CHECKS`` (or
only the named ones) with one BLAS thread, the setting every digest was
printed with, and exits 1 at the first mismatch, naming the check. A change
that must not move any output number passes every check; the full set takes
about a minute on two CPUs. A new digest file gets its row here.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT = "configs/default.txt"
BENCH = "perfbench/base_config.txt"
ALL = "apromfl,fediot,local"
IDENTITY = ("encoder_kind=identity", "mapping_layers=1")

#: (name, digest file, config, methods, ``--set`` overrides)
CHECKS = (
    ("default", "default.digest", DEFAULT, ALL, ()),
    ("identity", "identity.digest", DEFAULT, ALL, IDENTITY),
    ("k80", "k80.digest", BENCH, "apromfl", ("num_global_prototypes=80", "synthetic.seed=7")),
    ("fediot-unimodal", "fediot-unimodal.digest", BENCH, "fediot", (
        "clients_multimodal=0", "clients_image=6", "clients_text=6", "rounds=60", "synthetic.seed=7",
    )),
    ("short", "short.digest", DEFAULT, ALL, ("rounds=2",)),
    ("short-workers-2", "short.digest", DEFAULT, ALL, ("rounds=2", "workers=2")),
    ("identity-short", "identity-short.digest", DEFAULT, ALL, ("rounds=2", *IDENTITY)),
    ("k80-short", "k80-short.digest", DEFAULT, ALL, ("rounds=2", "num_global_prototypes=80")),
)


def command(name: str, out) -> list[str]:
    """The ``output_digest.py`` command line of check ``name``, writing its
    runs under ``out``."""
    _, digest, config, methods, sets = next(check for check in CHECKS if check[0] == name)
    return [
        sys.executable, str(ROOT / "scripts" / "output_digest.py"),
        "--config", str(ROOT / config), "--methods", methods,
        *(arg for key_value in sets for arg in ("--set", key_value)),
        "--out", str(out), "--expect", str(ROOT / "configs" / digest),
    ]


def environment() -> dict[str, str]:
    """The process environment every check runs in: one BLAS thread, and
    this checkout's ``src`` first on the import path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}


def main(names: list[str]) -> int:
    unknown = set(names) - {check[0] for check in CHECKS}
    if unknown:
        print(f"unknown checks: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    for name, digest, *_ in CHECKS:
        if names and name not in names:
            continue
        with tempfile.TemporaryDirectory() as out:
            done = subprocess.run(command(name, out), env=environment(), stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            print(f"{name}: differs from configs/{digest}", file=sys.stderr)
            return 1
        print(f"{name}: matches configs/{digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
