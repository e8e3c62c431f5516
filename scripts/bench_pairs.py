#!/usr/bin/env python3
"""Benchmark a change against its parent as alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --label NAME \\
        --workload apromfl-k80-w2 [--workload ...] --seeds 911-920 \\
        [--what TEXT] [--out FILE] [--command TEMPLATE]

Each DIR is the root of a source checkout, one of the parent commit and one
of the change. For every workload, pair i runs the benchmark once in each
checkout at the i-th seed of ``--seeds`` (``911-920`` or ``3,5,8``): the
parent first in even pairs, the change first in odd ones, one process at a
time. The command is ``perfbench/run.py`` with tracing off, for the
``run_seconds`` of the change's ``BENCHMARK.json``, unless ``--command``
gives another template; ``{workload}``, ``{seed}`` and ``{seconds}`` are
filled in, and the last line it prints must be the benchmark's JSON result.

The output, ``BENCH_<label>.json`` unless ``--out`` names it, holds every
run and, per workload and end-to-end metric of the change's
``BENCHMARK.json``, each side's quartiles over the pairs and how many pairs
the change won (by the metric's ``better`` direction), tied or ran. It is
rewritten after every pair, so an interrupted script keeps the pairs it ran.
"""

import argparse
import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

DEFAULT_COMMAND = (
    "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace 0"
)
PROTOCOL = (
    "alternating pairs (pair 0 runs the parent first, pair 1 the change first, ...), "
    "one seed per pair, the two checkouts in separate directories, "
    "one benchmark process at a time"
)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, command: list[str]) -> tuple[dict, dict | None]:
    """The benchmark's JSON result and the environment it printed, if any."""
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{shlex.join(command)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return json.loads(lines[-1]), env


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's quartiles and the pairs the change won."""
    sides: dict = {}
    for run in runs:
        metrics = run["result"].get("metrics", {})
        for name in better:
            if name in metrics:
                by_pair = sides.setdefault(run["workload"], {}).setdefault(name, {})
                by_pair.setdefault(run["pair"], {})[run["side"]] = metrics[name]["value"]
    summary: dict = {}
    for workload, by_metric in sides.items():
        for name, by_pair in by_metric.items():
            pairs = [p for p in by_pair.values() if len(p) == 2]
            if not pairs:
                continue
            parent = [p["parent"] for p in pairs]
            change = [p["change"] for p in pairs]
            sign = -1.0 if better[name] == "lower" else 1.0
            summary.setdefault(workload, {})[name] = {
                "parent_q1_median_q3": np.percentile(parent, [25, 50, 75]).tolist(),
                "change_q1_median_q3": np.percentile(change, [25, 50, 75]).tolist(),
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "pairs": len(pairs),
                "ties": sum(c == p for p, c in zip(parent, change)),
            }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True, help="repeatable")
    parser.add_argument("--seeds", required=True, help="one per pair: 911-920 or 3,5,8")
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--out", type=Path, help="default: BENCH_<label>.json")
    parser.add_argument("--command", default=DEFAULT_COMMAND, help="benchmark command template")
    args = parser.parse_args(argv)
    if args.parent.resolve() == args.change.resolve():
        parser.error("--parent and --change must be separate checkouts")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    out = args.out or Path(f"BENCH_{args.label}.json")
    bench = {
        "label": args.label,
        "what": args.what,
        "command": args.command,
        "protocol": PROTOCOL,
        "machine": None,
        "runs": [],
        "summary": {},
    }
    checkouts = {"parent": args.parent, "change": args.change}
    for workload in args.workload:
        for pair, seed in enumerate(parse_seeds(args.seeds)):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                command = shlex.split(
                    args.command.format(workload=workload, seed=seed, seconds=seconds)
                )
                result, env = run_once(checkouts[side], command)
                bench["machine"] = bench["machine"] or env
                bench["runs"].append(
                    {"workload": workload, "pair": pair, "seed": seed, "side": side, "result": result}
                )
                value = result.get("metrics", {}).get("run_s", {}).get("value")
                print(f"{workload} pair {pair} seed {seed} {side}: run_s {value}", flush=True)
            bench["summary"] = summarize(bench["runs"], better)
            out.write_text(json.dumps(bench, indent=1) + "\n")
    print(json.dumps(bench["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
