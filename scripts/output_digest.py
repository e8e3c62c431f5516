#!/usr/bin/env python3
"""Fingerprint the outputs of one config under several methods.

    python3 scripts/output_digest.py --config FILE [--set KEY=VALUE ...]
        [--methods apromfl,fediot,local] [--out DIR]

Runs each method on the config with every ``--set`` applied on top of the
file (leaving one run directory per method under --out), and prints one line
per method with the SHA-256 of ``summary.csv``, of ``final_reports.json``,
and of ``rounds.jsonl`` with every record's ``wall_time`` dropped. Two
commits produce the same outputs exactly when they print the same lines, so
a refactor that must not change any number is checked by running this on
both and comparing.
"""

import argparse
import hashlib
import json
from pathlib import Path

from apromfl.config import METHODS, load_config, parse_config_text
from apromfl.harness import run


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rounds_without_wall_time(path: Path) -> bytes:
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record.pop("wall_time")
        lines.append(json.dumps(record))
    return "\n".join(lines).encode()


def digest(run_dir: Path) -> dict[str, str]:
    return {
        "summary": sha256((run_dir / "summary.csv").read_bytes()),
        "final_reports": sha256((run_dir / "final_reports.json").read_bytes()),
        "rounds": sha256(rounds_without_wall_time(run_dir / "rounds.jsonl")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="path to a flat key=value config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key, in config-file syntax (repeatable)",
    )
    parser.add_argument("--methods", default="apromfl,fediot,local")
    parser.add_argument("--out", default="runs/digest", help="parent of the run directories")
    args = parser.parse_args()
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if method not in METHODS:
            parser.error(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    try:
        overrides = parse_config_text("\n".join(args.set))
    except ValueError as err:
        parser.error(f"--set: {err}")

    for method in methods:
        config = load_config(args.config, {**overrides, "method": method})
        run_dir = run(config, Path(args.out) / method)
        fields = " ".join(f"{name}={value}" for name, value in digest(run_dir).items())
        print(f"{method} {fields}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
