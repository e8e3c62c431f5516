"""Command line entry points.

    apromfl run --config cfg.txt [--seed N] [--method apromfl|local|fediot] [--out DIR]
    apromfl sweep --config cfg.txt --axis K --values 10,20,40 [--out DIR]

Exit status 0 on success, 1 on any error (config or training failure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import METHODS, load_config
from .harness import SWEEP_AXES, run, sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apromfl",
        description="Deterministic simulator of mixed-modality federated learning "
        "with adaptive prototypes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one training run")
    p_run.add_argument("--config", required=True, help="path to a flat key=value config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--method", choices=METHODS, default=None, help="override the method")
    p_run.add_argument("--out", default="runs/latest", help="output directory")

    p_sweep = sub.add_parser("sweep", help="run once per value of one experimental axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--out", default="runs/sweep", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if getattr(args, "seed", None) is not None:
            overrides["seed"] = args.seed
        if getattr(args, "method", None) is not None:
            overrides["method"] = args.method
        config = load_config(args.config, overrides=overrides)
        if args.command == "run":
            out = run(config, args.out)
            print(f"run complete: {out}")
            print((Path(out) / "summary.csv").read_text(), end="")
        else:
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            if not values:
                raise ValueError("--values must list at least one value")
            out = sweep(config, args.axis, values, args.out)
            print(f"sweep complete: {out}")
            print((Path(out) / "sweep.csv").read_text(), end="")
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
