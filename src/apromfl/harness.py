"""Run and sweep drivers: execute the federated loop for a config, persist a
reproducible run directory, and compare runs along one experimental axis.

A run directory contains:

* ``config.txt``      - canonical config snapshot (replays the run exactly)
* ``rounds.jsonl``    - one schema-tagged record per finished round
* ``failure.json``    - only when set-up or a round failed: its round (0 for
  set-up), phase, client and message; the CLI then exits 1
* ``final_reports.json`` - last-round per-client metric reports
* ``summary.csv``     - one-row aggregate table (byte-stable across reruns;
  wall times are deliberately excluded)
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, finalize_config, serialize_config
from .federation import RoundFailure, evaluate_client, run_training
from .metrics import EvalReport

#: summary.csv columns read from the config, then from :func:`summarize_reports`.
CONFIG_COLUMNS = (
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
)
#: Metric column -> (the EvalReport fields it adds up, k). Each field's term
#: is its mean over the clients that report it; the sums are bidirectional.
METRIC_COLUMNS = {
    "acc1_mean": (("acc_at",), 1),
    "acc5_mean": (("acc_at",), 5),
    "r1_i2t_mean": (("recall_i2t_at",), 1),
    "r5_i2t_mean": (("recall_i2t_at",), 5),
    "r1_t2i_mean": (("recall_t2i_at",), 1),
    "r5_t2i_mean": (("recall_t2i_at",), 5),
    "r1_sum": (("recall_i2t_at", "recall_t2i_at"), 1),
    "r5_sum": (("recall_i2t_at", "recall_t2i_at"), 5),
}
SUMMARY_COLUMNS = CONFIG_COLUMNS + tuple(METRIC_COLUMNS)


def summarize_reports(reports: dict[int, EvalReport]) -> dict[str, float | None]:
    """Final-round metric columns mirroring the comparison tables: mean
    accuracy over unimodal clients, mean recalls over multimodal clients.
    A column no client reports is None."""

    def mean(name, k):
        values = [getattr(r, name)[k] for r in reports.values() if getattr(r, name)]
        return float(np.mean(values)) if values else None

    row = {}
    for column, (names, k) in METRIC_COLUMNS.items():
        terms = [mean(name, k) for name in names]
        row[column] = None if None in terms else sum(terms)
    return row


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_csv(config: ExperimentConfig, summary: dict[str, float | None]) -> str:
    values = [getattr(config, c) for c in CONFIG_COLUMNS] + [summary[c] for c in METRIC_COLUMNS]
    return ",".join(SUMMARY_COLUMNS) + "\n" + ",".join(map(_fmt, values)) + "\n"


def run(config: ExperimentConfig, out_dir) -> Path:
    """Execute one configured run and persist its directory. Returns the
    directory path; metrics live in summary.csv / rounds.jsonl.

    If set-up or a round fails, the rounds finished before it still go to
    rounds.jsonl, the failure goes to failure.json, and the
    :class:`RoundFailure` is re-raised. No file of an earlier run in the
    directory survives, except the config snapshot it overwrites."""
    config = finalize_config(config)  # revalidates configs edited via replace()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(serialize_config(config))
    for name in ("failure.json", "rounds.jsonl", "summary.csv", "final_reports.json"):
        (out / name).unlink(missing_ok=True)  # left by an earlier run
    try:
        result = run_training(config)
    except RoundFailure as failure:
        _write_rounds(out, failure.records)
        (out / "failure.json").write_text(json.dumps(failure.to_dict()))
        raise
    _write_rounds(out, result.records)
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


def _write_rounds(out: Path, records) -> None:
    with (out / "rounds.jsonl").open("w") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict()) + "\n")


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
        cells = [str(value), status.split(",")[0].splitlines()[0]]  # one CSV cell
        if summary is None:
            cells.extend("" for _ in SUMMARY_COLUMNS)
        else:
            cells.extend(summary[c] for c in SUMMARY_COLUMNS)
        lines.append(",".join(cells))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return out
