"""Tests of the benchmark itself, on shortened workload configs.

    python3 -m pytest perfbench -q

They check that the instrumentation changes no output byte, that the
client process pool gives the bytes of a serial run, and that the output
check rejects a damaged run directory.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
from apromfl import federation, nn, numerics, prototypes  # noqa: E402
from tracing import Patcher, Probe, Tracer  # noqa: E402

SEED = 3
SHORT = {"apromfl-default": 2, "apromfl-k80-w2": 2, "fediot-unimodal": 3}


def run_once(out_dir, workload, traced=False, **extra):
    patcher, probe, tracer = Patcher(), Probe(), Tracer()
    probe.install(patcher)
    if traced:
        tracer.install(patcher)
    try:
        result = bench.execute_run(bench.WORKLOADS[workload], SEED, out_dir, probe, **extra)
    finally:
        patcher.restore()
    assert result.ok, result.error
    return result, tracer


@pytest.mark.parametrize("workload", list(SHORT))
def test_tracing_changes_no_output_byte(tmp_path, workload):
    rounds = SHORT[workload]
    plain, _ = run_once(tmp_path / "plain", workload, rounds=rounds)
    traced, tracer = run_once(tmp_path / "traced", workload, traced=True, rounds=rounds)
    assert traced.summary == plain.summary
    for name in ("final_reports.json", "config.txt"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert len(traced.round_times) == rounds

    metrics = bench.layer_metrics(tracer, traced, overhead=0.0, call_cost=1e-6)
    assert metrics["trace.coverage_share"][0] >= 0.9
    for span in bench.SPAN_METRICS:
        busy, own = metrics[f"{span}.s"][0], metrics[f"{span}.self_s"][0]
        assert own <= busy + 1e-9, span
    assert metrics["federation.comm.upload_bytes"][0] > 0
    assert metrics["federation.comm.download_bytes"][0] > 0


def test_pool_gives_the_bytes_of_a_serial_run(tmp_path):
    workload, rounds = "apromfl-k80-w2", SHORT["apromfl-k80-w2"]
    serial, _ = run_once(tmp_path / "w1", workload, rounds=rounds, workers=1)
    pooled, _ = run_once(tmp_path / "w2", workload, rounds=rounds)
    traced, tracer = run_once(tmp_path / "w2t", workload, traced=True, rounds=rounds)
    assert serial.config.workers == 1 and pooled.config.workers == 2
    assert pooled.summary == serial.summary
    assert traced.summary == serial.summary

    # client-side layers come back from the workers
    assert tracer.calls["federation.multimodal_client_round"] == 3 * rounds
    assert tracer.calls["federation.unimodal_client_round"] == 6 * rounds
    assert tracer.calls["numerics.kmeans.client"] > 0
    metrics = bench.layer_metrics(tracer, traced, overhead=0.0, call_cost=1e-6)
    assert metrics["federation.pool.task_bytes"][0] > 0
    assert metrics["federation.pool.result_bytes"][0] > 0
    assert 0.0 <= metrics["federation.pool.idle_share"][0] < 1.0
    assert metrics["trace.coverage_share"][0] >= 0.9


def test_patcher_restores_every_name(tmp_path):
    run_once(tmp_path / "run", "fediot-unimodal", traced=True, rounds=1)
    assert federation.forward_map is nn.forward_map
    assert prototypes.kmeans is numerics.kmeans
    from_experiment = federation.ClientRoundConfig.__dict__["from_experiment"].__func__
    assert from_experiment.__module__ == "apromfl.federation"


@pytest.mark.parametrize(
    "column, value",
    [("acc1_mean", "1.5"), ("acc5_mean", "0.123"), ("rounds", "7"), ("r1_sum", "")],
)
def test_output_check_rejects_damaged_summary(tmp_path, column, value):
    result, _ = run_once(tmp_path, "apromfl-default", rounds=1)
    path = tmp_path / "summary.csv"
    header, row = path.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    cells[column] = value
    path.write_text(header + "\n" + ",".join(cells.values()) + "\n")
    with pytest.raises(bench.OutputError):
        bench.check_run_dir(tmp_path, result.config)


def test_tail_percentile_leaves_ten_rounds_beyond():
    assert bench.tail_percentile(30) == pytest.approx(100 * 20 / 30)
    assert bench.tail_percentile(60) == pytest.approx(100 * 50 / 60)


def test_best_of_takes_each_round_from_its_fastest_repetition():
    slow_start = bench.RunResult(run_s=1.0 + 6.0, round_times=[3.0, 1.0, 2.0])
    slow_end = bench.RunResult(run_s=2.0 + 6.0, round_times=[1.0, 2.0, 3.0])
    run_s, rounds = bench.best_of([slow_start, slow_end])
    assert rounds == [1.0, 1.0, 2.0]
    assert run_s == pytest.approx(1.0 + 4.0)
    assert bench.best_of([slow_end]) == (pytest.approx(8.0), [1.0, 2.0, 3.0])
