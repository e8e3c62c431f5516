"""Workloads, timed runs, output checks and metrics of the apromfl benchmark.

A run is what a user does: load a config and call ``harness.run``, which
trains and writes the run directory. ``run_s`` spans exactly that. The
benchmark's own clock (see :mod:`tracing`) splits it into setup and rounds.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from apromfl import federation, harness
from apromfl.config import ExperimentConfig, load_config
from tracing import CLIENT_SPANS, SERVER_SPANS, Patcher, Probe, Tracer, clock, wrapper_cost

BASE_CONFIG = Path(__file__).resolve().parent / "base_config.txt"

#: Extra set-ups before each run of an untraced invocation: setup_s is the
#: fastest of them all, spread over the whole measurement.
SETUP_REPEATS = 10

#: round_s_tail is the highest percentile with this many rounds beyond it.
TAIL_ROUNDS = 10


#: Each workload's overrides of the base config; README.md says why each
#: was chosen. fediot-unimodal runs 60 rounds: 30 take only ~2.5 s, and
#: short runs let an invocation repeat it often (see best_of).
WORKLOADS: dict[str, dict] = {
    "apromfl-default": {"workers": 1},
    "apromfl-k80-w2": {"num_global_prototypes": 80, "workers": 2},
    "fediot-unimodal": {
        "method": "fediot",
        "clients_multimodal": 0,
        "clients_image": 6,
        "clients_text": 6,
        "rounds": 60,
    },
}


def workload_config(workload: dict, seed: int, **extra) -> ExperimentConfig:
    """The base config with the workload's overrides; ``seed`` draws the
    synthetic data only, so every seed trains the same amount of work."""
    return load_config(BASE_CONFIG, {**workload, "synthetic.seed": seed, **extra})


def samples_per_round(config: ExperimentConfig, experiment) -> int:
    """Training samples processed per round, from the partition: multimodal
    clients run two phases (clustering refresh, task training), unimodal one."""
    total = 0
    for state in experiment.clients:
        if isinstance(state, federation.MultimodalClientState):
            total += 2 * len(state.image_features)
        else:
            total += len(state.labels)
    return total * config.local_epochs


# -- output check ----------------------------------------------------------------


class OutputError(Exception):
    """A run directory that does not hold the expected outputs."""


SUMMARY_HEADER = (
    "method,seed,rounds,alpha,clients_multimodal,clients_image,clients_text,"
    "num_global_prototypes,completion_top_o,mapping_layers,acc1_mean,acc5_mean,"
    "r1_i2t_mean,r5_i2t_mean,r1_t2i_mean,r5_t2i_mean,r1_sum,r5_sum"
)
CONFIG_COLUMNS = {
    "method": str,
    "seed": int,
    "rounds": int,
    "alpha": float,
    "clients_multimodal": int,
    "clients_image": int,
    "clients_text": int,
    "num_global_prototypes": int,
    "completion_top_o": int,
    "mapping_layers": int,
}
#: summary column -> (final_reports.json field, k); each is a mean over clients.
MEAN_COLUMNS = {
    "acc1_mean": ("acc_at", "1"),
    "acc5_mean": ("acc_at", "5"),
    "r1_i2t_mean": ("recall_i2t_at", "1"),
    "r5_i2t_mean": ("recall_i2t_at", "5"),
    "r1_t2i_mean": ("recall_t2i_at", "1"),
    "r5_t2i_mean": ("recall_t2i_at", "5"),
}
SUM_COLUMNS = {"r1_sum": ("r1_i2t_mean", "r1_t2i_mean"), "r5_sum": ("r5_i2t_mean", "r5_t2i_mean")}


def summary_row(raw: bytes) -> dict[str, str]:
    lines = raw.decode("ascii").split("\n")
    if len(lines) != 3 or lines[2] != "" or lines[0] != SUMMARY_HEADER:
        raise OutputError("summary.csv does not have the expected header and one row")
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def _cell(row: dict[str, str], column: str, cast=float):
    try:
        return cast(row[column])
    except ValueError:
        raise OutputError(f"summary.csv {column}={row[column]!r} is not a {cast.__name__}") from None


def check_run_dir(out_dir: Path, config: ExperimentConfig) -> bytes:
    """Check a finished run directory and return the bytes of summary.csv.

    summary.csv must have the expected columns, echo the config, and hold
    finite metrics in range (means in [0, 1], bidirectional sums in [0, 2]),
    each equal to the mean over final_reports.json; a metric is present
    exactly when the run has clients of its kind. rounds.jsonl must hold
    one record per round.
    """
    raw = (out_dir / "summary.csv").read_bytes()
    row = summary_row(raw)
    for column, cast in CONFIG_COLUMNS.items():
        if _cell(row, column, cast) != getattr(config, column):
            raise OutputError(f"summary.csv {column}={row[column]} does not match the config")

    reports = json.loads((out_dir / "final_reports.json").read_text())
    if list(reports) != [str(i) for i in range(config.num_clients)]:
        raise OutputError("final_reports.json does not hold one report per client")
    has_kind = {
        "acc_at": config.clients_image + config.clients_text > 0,
        "recall_i2t_at": config.clients_multimodal > 0,
        "recall_t2i_at": config.clients_multimodal > 0,
    }
    values = {}
    for column, (report_field, k) in MEAN_COLUMNS.items():
        per_client = [r[report_field][k] for r in reports.values() if r[report_field]]
        if not has_kind[report_field]:
            if row[column] != "" or per_client:
                raise OutputError(f"{column} is set for a run without such clients")
            continue
        value = _cell(row, column)
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise OutputError(f"{column}={row[column]} is not a finite value in [0, 1]")
        if value != float(np.mean(per_client)):
            raise OutputError(f"{column} is not the mean of the final reports")
        values[column] = value
    for column, (a, b) in SUM_COLUMNS.items():
        if a not in values:
            if row[column] != "":
                raise OutputError(f"{column} is set for a run without multimodal clients")
            continue
        if _cell(row, column) != values[a] + values[b]:
            raise OutputError(f"{column} is not {a} + {b}")

    with (out_dir / "rounds.jsonl").open() as fh:
        indices = [json.loads(line)["round_index"] for line in fh]
    if indices != list(range(1, config.rounds + 1)):
        raise OutputError("rounds.jsonl does not hold one record per round")
    return raw


# -- runs ------------------------------------------------------------------------


@dataclass
class RunResult:
    config: ExperimentConfig | None = None
    run_s: float = 0.0  # config load through summary.csv written
    setup_s: float = 0.0  # config load plus setup_experiment
    harness_s: float = 0.0  # inside harness.run
    training_s: float = 0.0  # inside run_training
    round_times: list[float] = field(default_factory=list)
    summary: bytes | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def execute_run(workload: dict, seed: int, out_dir: Path, probe: Probe, **extra) -> RunResult:
    """One timed run plus its output check. A run that raises or fails the
    check is returned as failed; the benchmark counts it and goes on."""
    probe.reset()
    start = clock()
    result = RunResult()
    try:
        result.config = workload_config(workload, seed, **extra)
        loaded = clock()
        harness.run(result.config, out_dir)
        end = clock()
        result.summary = check_run_dir(out_dir, result.config)
    except Exception as err:  # noqa: BLE001 - a failed run is a measured outcome
        result.error = f"{type(err).__name__}: {err}"
        result.run_s = clock() - start
        return result
    result.run_s = end - start
    result.setup_s = (loaded - start) + probe.setup_s
    result.harness_s = end - loaded
    result.training_s = probe.training_end - probe.training_start
    result.round_times = probe.round_times
    return result


def timed_setups(workload: dict, seed: int, repeats: int):
    """Set up ``repeats`` times; returns (durations, config, experiment)."""
    durations = []
    for _ in range(repeats):
        start = clock()
        config = workload_config(workload, seed)
        experiment = federation.setup_experiment(config)
        durations.append(clock() - start)
    return durations, config, experiment


@dataclass
class Report:
    """What one invocation prints: the metrics and the run accounting."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def count(self, run: RunResult) -> None:
        self.attempted += 1
        if not run.ok:
            self.failed += 1
            self.notes.append(f"run {self.attempted} failed: {run.error}")


def _require_same_summary(run: RunResult, reference: RunResult, what: str) -> None:
    if run.ok and reference.ok and run.summary != reference.summary:
        run.error = f"summary.csv differs from {what}"


def tail_percentile(rounds: int) -> float:
    """Highest percentile with TAIL_ROUNDS rounds beyond it in one run."""
    return 100.0 * (1.0 - TAIL_ROUNDS / rounds) if rounds > TAIL_ROUNDS else 50.0


def best_of(runs: list[RunResult]) -> tuple[float, list[float]]:
    """The run time and round times of a run made of the fastest repetition
    of each phase: round r takes the least time any repetition took for
    round r, and the rest of the run (config load, set-up, persistence)
    the least any repetition took for it. Every repetition does the same
    work (their summary.csv bytes are equal), so the host's slow stretches
    and slow CPUs drop out, while a change that slows the program slows
    every repetition."""
    rounds = [min(times) for times in zip(*(r.round_times for r in runs))]
    outside = min(r.run_s - sum(r.round_times) for r in runs)
    return outside + sum(rounds), rounds


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, child


def measure(workload: dict, seed: int, seconds: float, work_dir: Path) -> Report:
    """Untraced invocation: whole runs of the same seed, each after
    SETUP_REPEATS extra set-ups, until the next one would end after
    ``seconds`` (at least one). A serial workload's repetitions are pinned
    to the usable CPUs in turn, since one CPU of a shared host can run at
    half the speed of the other for minutes; a pooled one is left free."""
    deadline = clock() + seconds
    report = Report()
    patcher = Patcher()
    probe = Probe()
    probe.install(patcher)
    runs: list[RunResult] = []
    setups: list[float] = []
    cpus = sorted(os.sched_getaffinity(0))
    serial = workload_config(workload, seed).workers == 1
    try:
        while True:
            if serial:
                os.sched_setaffinity(0, {cpus[len(runs) % len(cpus)]})
            durations, config, experiment = timed_setups(workload, seed, SETUP_REPEATS)
            setups += durations
            run = execute_run(workload, seed, work_dir / f"run{len(runs)}", probe)
            if runs:
                _require_same_summary(run, runs[0], "the first repetition")
            runs.append(run)
            report.count(run)
            next_s = sum(durations) + statistics.median(r.run_s for r in runs)
            if clock() + next_s > deadline:
                break
    finally:
        patcher.restore()
        os.sched_setaffinity(0, cpus)

    good = [r for r in runs if r.ok]
    if not good:
        return report
    per_round = samples_per_round(config, experiment)
    run_s, rounds = best_of(good)
    q = tail_percentile(config.rounds)
    own_rss, worker_rss = peak_rss_mb()
    summary = summary_row(good[0].summary)
    m = report.metrics
    m["run_s"] = (run_s, "s")
    setups += [r.setup_s for r in good]
    m["setup_s"] = (min(setups), "s")
    m["round_s_p50"] = (statistics.median(rounds), "s")
    m["round_s_tail"] = (float(np.percentile(rounds, q)), "s")
    m["train_samples_per_s"] = (per_round * len(rounds) / sum(rounds), "samples/s")
    m["peak_rss_mb"] = (max(own_rss, worker_rss), "MB")
    m["final_acc1_mean"] = (float(summary["acc1_mean"]), "share")
    report.notes += [
        f"runs={len(good)} rounds/run={config.rounds} setups={len(setups)}",
        f"setup_s is the fastest of {len(setups)} set-ups (median {statistics.median(setups):.6f} s)",
        "run_s of each run: " + " ".join(f"{r.run_s:.3f}" for r in good),
        f"run_s, round_s_* and train_samples_per_s: best of {len(good)} repetitions per round"
        + (f", pinned to CPUs {cpus} in turn" if serial else ", on every CPU"),
        f"round_s_tail is p{q:.1f} of {len(rounds)} rounds",
        f"peak_rss_mb: run process {own_rss:.1f}, largest worker {worker_rss:.1f}",
        f"failed_share={report.failed / report.attempted} (failed runs / attempted runs)",
        "final_r1_sum=" + (summary["r1_sum"] or "absent (no multimodal clients)"),
    ]
    return report


# -- traced invocation -------------------------------------------------------------

#: Spans reported as busy seconds, self seconds and share of traced run_s.
SPAN_METRICS = (
    "federation.setup_experiment",
    "data.generate",
    "data.partition",
    "nn.encode",
    "federation.multimodal_client_round",
    "federation.unimodal_client_round",
    "nn.forward",
    "nn.backward",
    "nn.sgd_step",
    "nn.flatten",
    "losses.task",
    "losses.clustering",
    "losses.gpt",
    "losses.gmt",
    "losses.lmr",
    "numerics.kmeans",
    "prototypes.extract",
    "prototypes.complete",
    "prototypes.global",
    "federation.relationship_weights",
    "federation.aggregate_modules",
    "federation.server",
    "federation.evaluate_client",
    "metrics.retrieval",
    "metrics.classification",
    "harness.persist",
    "federation.other",
)
CALL_METRICS = (
    "federation.multimodal_client_round",
    "federation.unimodal_client_round",
    "numerics.kmeans",
    "nn.sgd_step",
    "nn.flatten",
)


def measure_traced(workload: dict, seed: int, seconds: float, work_dir: Path) -> Report:
    """Traced invocation: one traced run for the per-layer numbers, then an
    untraced run of as many rounds as the time left allows (all of them
    when it fits), which gives the tracing overhead over the same rounds."""
    deadline = clock() + seconds
    report = Report()
    probe_patcher, trace_patcher = Patcher(), Patcher()
    probe, tracer = Probe(), Tracer()
    probe.install(probe_patcher)
    try:
        tracer.install(trace_patcher)
        try:
            traced = execute_run(workload, seed, work_dir / "traced", probe)
        finally:
            trace_patcher.restore()
        report.count(traced)
        if not traced.ok:
            return report
        rounds = traced.config.rounds
        per_round = sum(traced.round_times) / rounds
        left = deadline - clock() - traced.run_s + sum(traced.round_times)
        m_rounds = min(rounds, max(1, int(left / per_round)))
        plain = execute_run(workload, seed, work_dir / "plain", probe, rounds=m_rounds)
        if m_rounds == rounds:
            _require_same_summary(plain, traced, "the traced run")
        report.count(plain)
    finally:
        probe_patcher.restore()
    if not plain.ok:
        return report
    traced_s = traced.setup_s + sum(traced.round_times[:m_rounds])
    overhead = traced_s / (plain.setup_s + sum(plain.round_times)) - 1.0
    report.metrics = layer_metrics(tracer, traced, overhead, wrapper_cost())
    report.notes.append(
        f"trace.overhead_share compares setup plus rounds 1..{m_rounds} of {rounds}"
    )
    if tracer.counters["federation.pool.wait_s"]:
        report.notes.append(
            "client-side layers ran in pool workers: their seconds are summed over "
            "workers, so shares of run_s may add up to more than 1"
        )
    return report


def layer_metrics(tracer: Tracer, run: RunResult, overhead: float, call_cost: float) -> dict:
    busy, self_s, calls, counters = tracer.busy, tracer.self_s, tracer.calls, tracer.counters
    wrapped_s = sum(calls.values()) * call_cost
    rounds = run.config.rounds
    for table in (busy, self_s):
        table["numerics.kmeans"] = table["numerics.kmeans.client"] + table["numerics.kmeans.server"]
        table["federation.server"] = sum(table[s] for s in SERVER_SPANS)
    calls["numerics.kmeans"] = calls["numerics.kmeans.client"] + calls["numerics.kmeans.server"]
    persist = run.harness_s - run.training_s
    pooled = counters["federation.pool.wait_s"] > 0
    client_phase = (
        counters["federation.pool.wait_s"] if pooled else sum(busy[s] for s in CLIENT_SPANS)
    )
    evaluation = busy["federation.evaluate_client"]
    other = sum(run.round_times) - client_phase - busy["federation.server"] - evaluation
    busy["harness.persist"] = self_s["harness.persist"] = persist
    busy["federation.other"] = self_s["federation.other"] = other
    covered = busy["federation.setup_experiment"] + client_phase
    covered += busy["federation.server"] + evaluation + persist

    m: dict[str, tuple[float, str]] = {}
    for span in SPAN_METRICS:
        m[f"{span}.s"] = (busy[span], "s")
        m[f"{span}.self_s"] = (self_s[span], "s")
        m[f"{span}.share"] = (busy[span] / run.run_s, "share")
    for span in CALL_METRICS:
        m[f"{span}.calls"] = (float(calls[span]), "count")
    m["numerics.kmeans.client_s"] = (busy["numerics.kmeans.client"], "s")
    m["numerics.kmeans.server_s"] = (busy["numerics.kmeans.server"], "s")
    m["numerics.kmeans.work"] = (counters["numerics.kmeans.work"], "count")
    m["nn.forward.rows"] = (counters["nn.forward.rows"], "count")
    m["metrics.retrieval.queries"] = (counters["metrics.retrieval.queries"], "count")
    capacity = counters["federation.pool.capacity_s"]
    m["federation.pool.wait_s"] = (counters["federation.pool.wait_s"], "s")
    m["federation.pool.task_bytes"] = (counters["federation.pool.task_bytes"] / rounds, "B/round")
    m["federation.pool.result_bytes"] = (
        counters["federation.pool.result_bytes"] / rounds,
        "B/round",
    )
    m["federation.pool.idle_share"] = (
        1.0 - counters["federation.pool.busy_s"] / capacity if capacity else 0.0,
        "share",
    )
    m["federation.comm.upload_bytes"] = (counters["federation.comm.upload_bytes"] / rounds, "B/round")
    m["federation.comm.download_bytes"] = (
        counters["federation.comm.download_bytes"] / rounds,
        "B/round",
    )
    built = counters["prototypes.built"]
    m["prototypes.used_share"] = (counters["prototypes.consumed"] / built if built else 0.0, "share")
    m["trace.run_s"] = (run.run_s, "s")
    m["trace.coverage_share"] = (covered / run.run_s, "share")
    m["trace.overhead_share"] = (overhead, "share")
    m["trace.overhead_est_share"] = (wrapped_s / (run.run_s - wrapped_s), "share")
    return m
