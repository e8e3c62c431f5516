#!/usr/bin/env python3
"""Fingerprint the outputs of one config under several methods.

    python3 scripts/output_digest.py --config FILE [--set KEY=VALUE ...]
        [--methods apromfl,fediot,local] [--out DIR] [--expect DIGEST]

Runs each method on the config with every ``--set`` applied on top of the
file (leaving one run directory per method under --out), and prints one line
per method with the SHA-256 of ``summary.csv``, of ``final_reports.json``,
and of ``rounds.jsonl`` with every record's ``wall_time`` dropped. Two
commits produce the same outputs exactly when they print the same lines, so
a refactor that must not change any number is checked by running this on
both and comparing. ``--expect`` does the comparison: DIGEST holds the lines
printed at the other commit, and the script exits 1 at the first method and
file whose digest differs from its line there.
"""

import argparse
import hashlib
import json
import sys
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


def read_digest(path: Path) -> dict[str, dict[str, str]]:
    """{method: {file: sha256}} from lines printed by this script."""
    expected = {}
    for line in path.read_text().splitlines():
        if line.strip():
            method, *fields = line.split()
            expected[method] = dict(field.split("=", 1) for field in fields)
    return expected


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
    parser.add_argument(
        "--expect", type=Path, metavar="DIGEST", help="saved lines to compare against"
    )
    args = parser.parse_args()
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if method not in METHODS:
            parser.error(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    try:
        overrides = parse_config_text("\n".join(args.set))
    except ValueError as err:
        parser.error(f"--set: {err}")

    try:
        expected = read_digest(args.expect) if args.expect else None
    except (OSError, ValueError) as err:
        parser.error(f"--expect: {err}")

    for method in methods:
        config = load_config(args.config, {**overrides, "method": method})
        run_dir = run(config, Path(args.out) / method)
        got = digest(run_dir)
        print(f"{method} " + " ".join(f"{name}={value}" for name, value in got.items()), flush=True)
        if expected is None:
            continue
        if method not in expected:
            print(f"differs: {args.expect} has no line for {method}", file=sys.stderr)
            return 1
        for name, value in got.items():
            want = expected[method].get(name)
            if want != value:
                print(f"differs: {method} {name}: expected {want}, got {value}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
