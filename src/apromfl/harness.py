"""Run and sweep drivers: execute the federated loop for a config, persist a
reproducible run directory, and compare runs along one experimental axis.

A run directory contains:

* ``config.txt``      - canonical config snapshot (replays the run exactly)
* ``rounds.jsonl``    - one schema-tagged record per round
* ``final_reports.json`` - last-round per-client metric reports
* ``summary.csv``     - one-row aggregate table (byte-stable across reruns;
  wall times are deliberately excluded)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, finalize_config, serialize_config
from .federation import evaluate_client, run_training
from .metrics import EvalReport

SUMMARY_COLUMNS = (
    "method",
    "seed",
    "rounds",
    "alpha",
    "clients_multimodal",
    "clients_image",
    "clients_text",
    "num_global_prototypes",
    "completion_top_o",
    "mapping_layers",
    "acc1_mean",
    "acc5_mean",
    "r1_i2t_mean",
    "r5_i2t_mean",
    "r1_t2i_mean",
    "r5_t2i_mean",
    "r1_sum",
    "r5_sum",
)


@dataclass(frozen=True)
class Summary:
    """Final-round aggregates mirroring the comparison tables: mean accuracy
    over unimodal clients, mean recalls over multimodal clients."""

    acc1_mean: float | None
    acc5_mean: float | None
    r1_i2t_mean: float | None
    r5_i2t_mean: float | None
    r1_t2i_mean: float | None
    r5_t2i_mean: float | None

    @property
    def r1_sum(self) -> float | None:
        if self.r1_i2t_mean is None:
            return None
        return self.r1_i2t_mean + self.r1_t2i_mean

    @property
    def r5_sum(self) -> float | None:
        if self.r5_i2t_mean is None:
            return None
        return self.r5_i2t_mean + self.r5_t2i_mean


def summarize_reports(reports: dict[int, EvalReport]) -> Summary:
    accs1 = [r.acc_at[1] for r in reports.values() if r.acc_at]
    accs5 = [r.acc_at[5] for r in reports.values() if r.acc_at]
    r1_i2t = [r.recall_i2t_at[1] for r in reports.values() if r.recall_i2t_at]
    r5_i2t = [r.recall_i2t_at[5] for r in reports.values() if r.recall_i2t_at]
    r1_t2i = [r.recall_t2i_at[1] for r in reports.values() if r.recall_t2i_at]
    r5_t2i = [r.recall_t2i_at[5] for r in reports.values() if r.recall_t2i_at]

    def mean(xs):
        return float(np.mean(xs)) if xs else None

    return Summary(
        acc1_mean=mean(accs1),
        acc5_mean=mean(accs5),
        r1_i2t_mean=mean(r1_i2t),
        r5_i2t_mean=mean(r5_i2t),
        r1_t2i_mean=mean(r1_t2i),
        r5_t2i_mean=mean(r5_t2i),
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_csv(config: ExperimentConfig, summary: Summary) -> str:
    row = {
        "method": config.method,
        "seed": config.seed,
        "rounds": config.rounds,
        "alpha": config.alpha,
        "clients_multimodal": config.clients_multimodal,
        "clients_image": config.clients_image,
        "clients_text": config.clients_text,
        "num_global_prototypes": config.num_global_prototypes,
        "completion_top_o": config.completion_top_o,
        "mapping_layers": config.mapping_layers,
        "acc1_mean": summary.acc1_mean,
        "acc5_mean": summary.acc5_mean,
        "r1_i2t_mean": summary.r1_i2t_mean,
        "r5_i2t_mean": summary.r5_i2t_mean,
        "r1_t2i_mean": summary.r1_t2i_mean,
        "r5_t2i_mean": summary.r5_t2i_mean,
        "r1_sum": summary.r1_sum,
        "r5_sum": summary.r5_sum,
    }
    header = ",".join(SUMMARY_COLUMNS)
    values = ",".join(_fmt(row[c]) for c in SUMMARY_COLUMNS)
    return f"{header}\n{values}\n"


def run(config: ExperimentConfig, out_dir) -> Path:
    """Execute one configured run and persist its directory. Returns the
    directory path; metrics live in summary.csv / rounds.jsonl."""
    config = finalize_config(config)  # revalidates configs edited via replace()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(serialize_config(config))
    result = run_training(config)
    with (out / "rounds.jsonl").open("w") as fh:
        for record in result.records:
            fh.write(json.dumps(record.to_dict()) + "\n")
    if result.records:
        final_reports = result.records[-1].reports
    else:
        # a zero-round run still reports the untrained models
        final_reports = {
            c.client_id: evaluate_client(c, result.experiment.test)
            for c in result.experiment.clients
        }
    (out / "final_reports.json").write_text(
        json.dumps({str(cid): r.to_dict() for cid, r in final_reports.items()})
    )
    summary = summarize_reports(final_reports)
    (out / "summary.csv").write_text(summary_csv(config, summary))
    return out


def load_summary(out_dir) -> dict[str, str]:
    text = (Path(out_dir) / "summary.csv").read_text().splitlines()
    header, values = text[0].split(","), text[1].split(",")
    return dict(zip(header, values))


#: Sweep axis -> the config fields it sets and the type of its values.
SWEEP_AXES = {
    "K": (("num_global_prototypes",), int),
    "O": (("completion_top_o",), int),
    "alpha": (("alpha",), float),
    "clients": (("clients_multimodal", "clients_image", "clients_text"), int),
    "mapping_layers": (("mapping_layers",), int),
}


def apply_axis(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    names, cast = SWEEP_AXES[axis]
    return replace(config, **dict.fromkeys(names, cast(value)))


def sweep(config: ExperimentConfig, axis: str, values, out_dir) -> Path:
    """One run per axis value (seeds held fixed); failures are recorded as
    error rows and do not stop the remaining runs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        run_dir = out / f"{axis}_{value}"
        try:
            cfg = apply_axis(config, axis, value)
            run(cfg, run_dir)
            summary = load_summary(run_dir)
            rows.append((value, "ok", summary))
        except Exception as err:  # noqa: BLE001 - per-run isolation is the contract
            rows.append((value, f"error: {err}", None))
    header = f"{axis},status," + ",".join(SUMMARY_COLUMNS)
    lines = [header]
    for value, status, summary in rows:
        cells = [str(value), status.split(",")[0]]
        if summary is None:
            cells.extend("" for _ in SUMMARY_COLUMNS)
        else:
            cells.extend(summary[c] for c in SUMMARY_COLUMNS)
        lines.append(",".join(cells))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return out
