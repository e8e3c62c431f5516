"""``scripts/bench_pairs.py`` on a stub benchmark: the pair order, the
records it writes and the summary it computes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

STUB = """
import json, sys
from pathlib import Path
workload, seed, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
side = Path.cwd().name
with open(Path.cwd().parent / "order.log", "a") as log:
    log.write(f"{workload} {seed} {seconds} {side}\\n")
run_s = seed + (0.5 if side == "change" else 1.0)
print("env " + json.dumps({"nproc": 2, "side": side}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
    "run_s": {"value": run_s, "unit": "s"},
    "train_samples_per_s": {"value": 100.0, "unit": "samples/s"},
    "not_in_benchmark": {"value": 1.0, "unit": "s"},
}}))
"""


def test_alternating_pairs_and_summary(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "stub.py").write_text(STUB)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 7, "end_to_end": [
        {"name": "run_s", "better": "lower"},
        {"name": "train_samples_per_s", "better": "higher"},
    ]}))
    out = tmp_path / "BENCH_stub.json"
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
            "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--label", "stub", "--workload", "w", "--seeds", "3-5,9",
            "--command", f"{sys.executable} stub.py {{workload}} {{seed}} {{seconds}}",
            "--out", str(out),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "w 3 7 parent", "w 3 7 change", "w 4 7 change", "w 4 7 parent",
        "w 5 7 parent", "w 5 7 change", "w 9 7 change", "w 9 7 parent",
    ]
    bench = json.loads(out.read_text())
    assert bench["label"] == "stub" and bench["machine"] == {"nproc": 2, "side": "parent"}
    assert [(r["pair"], r["seed"], r["side"]) for r in bench["runs"]][:3] == [
        (0, 3, "parent"), (0, 3, "change"), (1, 4, "change"),
    ]
    assert set(bench["summary"]["w"]) == {"run_s", "train_samples_per_s"}
    run_s = bench["summary"]["w"]["run_s"]
    assert run_s["parent_q1_median_q3"] == [4.75, 5.5, 7.0]
    assert run_s["change_q1_median_q3"] == [4.25, 5.0, 6.5]
    assert (run_s["change_wins"], run_s["pairs"], run_s["ties"]) == (4, 4, 0)
    rate = bench["summary"]["w"]["train_samples_per_s"]
    assert (rate["change_wins"], rate["pairs"], rate["ties"]) == (0, 4, 4)
