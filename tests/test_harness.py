import json

import pytest

from apromfl.cli import main
from apromfl.config import (
    ExperimentConfig,
    config_from_mapping,
    load_config,
    parse_config_text,
    serialize_config,
)
from apromfl.harness import apply_axis, load_summary, run, summarize_reports, sweep
from apromfl.metrics import EvalReport

TINY = """
method = apromfl
seed = 3
rounds = 2
local_epochs = 1
batch_size = 8
clients_multimodal = 2
clients_image = 2
clients_text = 1
num_global_prototypes = 3
completion_top_o = 3
hidden_dim = 10
embed_dim = 6
encoder_dim = 8
synthetic.num_classes = 4
synthetic.latent_dim = 6
synthetic.image_dim = 10
synthetic.text_dim = 8
synthetic.samples_per_class = 15
"""


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(TINY)
    return path


class TestConfigParsing:
    def test_minimal_file_applies_defaults(self, tmp_path):
        path = tmp_path / "minimal.txt"
        path.write_text("seed = 9\n")
        config = load_config(path)
        assert config.seed == 9
        assert config.method == "apromfl"
        assert config.rounds == 30
        assert config.synthetic.seed == 9  # derived from the run seed

    def test_explicit_synthetic_seed_is_kept(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 9\nsynthetic.seed = 2\n")
        config = load_config(path)
        assert config.synthetic.seed == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("learning_rate = 0.1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    def test_invalid_alpha_names_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("alpha = 0\n")
        with pytest.raises(ValueError, match="alpha"):
            load_config(path)

    def test_batch_size_one_with_multimodal_clients_names_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("batch_size = 1\n")
        with pytest.raises(ValueError, match="batch_size"):
            load_config(path)
        path.write_text("batch_size = 1\nclients_multimodal = 0\n")
        assert load_config(path).batch_size == 1

    def test_round_trip_is_canonical(self, tiny_config_file):
        config = load_config(tiny_config_file)
        canonical = serialize_config(config)
        reparsed = config_from_mapping(parse_config_text(canonical))
        assert reparsed == config
        assert serialize_config(reparsed) == canonical

    def test_comments_and_blanks_ignored(self):
        mapping = parse_config_text("# a comment\n\nseed = 4  # trailing\n")
        assert mapping == {"seed": 4}

    def test_bool_parsing(self):
        assert parse_config_text("disjoint_role_classes = true\n") == {
            "disjoint_role_classes": True
        }
        with pytest.raises(ValueError):
            parse_config_text("disjoint_role_classes = maybe\n")

    def test_overrides(self, tiny_config_file):
        config = load_config(tiny_config_file, overrides={"seed": 11, "method": "local"})
        assert config.seed == 11
        assert config.method == "local"
        assert config.synthetic.seed == 11


class TestSummaries:
    def test_summary_means(self):
        reports = {
            0: EvalReport(acc_at={1: 0.5, 5: 0.8}, n_eval=10),
            1: EvalReport(acc_at={1: 0.7, 5: 1.0}, n_eval=10),
            2: EvalReport(
                recall_i2t_at={1: 0.2, 5: 0.6}, recall_t2i_at={1: 0.1, 5: 0.5}, n_eval=10
            ),
        }
        summary = summarize_reports(reports)
        assert summary.acc1_mean == pytest.approx(0.6)
        assert summary.r1_sum == pytest.approx(0.3)
        assert summary.r5_sum == pytest.approx(1.1)

    def test_empty_groups_are_none(self):
        summary = summarize_reports({0: EvalReport(acc_at={1: 0.5, 5: 0.6}, n_eval=5)})
        assert summary.r1_sum is None


class TestRunDirectory:
    def test_run_writes_all_artifacts(self, tiny_config_file, tmp_path):
        config = load_config(tiny_config_file)
        out = run(config, tmp_path / "run1")
        assert (out / "config.txt").read_text() == serialize_config(config)
        rounds = [json.loads(line) for line in (out / "rounds.jsonl").read_text().splitlines()]
        assert len(rounds) == config.rounds
        assert all(r["schema"] == "round-record/v1" for r in rounds)
        assert (out / "final_reports.json").exists()
        summary = load_summary(out)
        assert summary["method"] == "apromfl"
        assert summary["seed"] == "3"

    def test_rerun_byte_identical_summary(self, tiny_config_file, tmp_path):
        config = load_config(tiny_config_file)
        a = run(config, tmp_path / "a")
        b = run(config, tmp_path / "b")
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_run_directory_replays_itself(self, tiny_config_file, tmp_path):
        # the persisted snapshot alone reproduces the run
        first = run(load_config(tiny_config_file), tmp_path / "first")
        second = run(load_config(first / "config.txt"), tmp_path / "second")
        assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()
        assert (first / "rounds.jsonl").read_text().count("\n") == (
            second / "rounds.jsonl"
        ).read_text().count("\n")

    def test_methods_share_partitions_via_seeding(self, tiny_config_file, tmp_path):
        # identical seeds mean identical data and round-1 behaviour
        local = load_config(tiny_config_file, overrides={"method": "local", "rounds": 1})
        apromfl = load_config(tiny_config_file, overrides={"method": "apromfl", "rounds": 1})
        out_l = run(local, tmp_path / "l")
        out_a = run(apromfl, tmp_path / "a")
        first_l = json.loads((out_l / "rounds.jsonl").read_text().splitlines()[0])
        first_a = json.loads((out_a / "rounds.jsonl").read_text().splitlines()[0])
        assert first_l["client_losses"] == first_a["client_losses"]

    def test_summary_matches_recomputation_from_round_records(
        self, tiny_config_file, tmp_path
    ):
        config = load_config(tiny_config_file)
        out = run(config, tmp_path / "run")
        last = json.loads((out / "rounds.jsonl").read_text().splitlines()[-1])
        reports = {
            int(cid): EvalReport.from_dict(blob) for cid, blob in last["reports"].items()
        }
        recomputed = summarize_reports(reports)
        summary = load_summary(out)
        assert float(summary["acc1_mean"]) == recomputed.acc1_mean
        assert float(summary["r1_sum"]) == recomputed.r1_sum

    def test_zero_round_run_still_reports(self, tiny_config_file, tmp_path):
        config = load_config(tiny_config_file, overrides={"rounds": 0})
        out = run(config, tmp_path / "zero")
        summary = load_summary(out)
        assert summary["acc1_mean"] != ""


class TestSweep:
    def test_axis_application(self):
        config = ExperimentConfig()
        assert apply_axis(config, "K", 20).num_global_prototypes == 20
        assert apply_axis(config, "O", 5).completion_top_o == 5
        assert apply_axis(config, "alpha", 5.0).alpha == 5.0
        assert apply_axis(config, "mapping_layers", 1).mapping_layers == 1
        clients = apply_axis(config, "clients", 4)
        assert clients.client_counts == (4, 4, 4)
        with pytest.raises(ValueError):
            apply_axis(config, "nope", 1)

    def test_sweep_emits_one_row_per_value(self, tiny_config_file, tmp_path):
        config = load_config(tiny_config_file, overrides={"rounds": 1})
        out = sweep(config, "K", [2, 3], tmp_path / "sweep")
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("K,status,")
        assert len(lines) == 3
        assert all(line.split(",")[1] == "ok" for line in lines[1:])

    def test_prototype_axis_row_sets(self, tiny_config_file, tmp_path):
        # the standard comparison axes: 5 rows for K, 4 rows for O
        config = load_config(tiny_config_file, overrides={"rounds": 1})
        out_k = sweep(config, "K", [10, 20, 40, 60, 80], tmp_path / "k")
        k_lines = (out_k / "sweep.csv").read_text().splitlines()
        assert len(k_lines) == 6
        assert all(line.split(",")[1] == "ok" for line in k_lines[1:])
        out_o = sweep(config, "O", [2, 5, 8, 10], tmp_path / "o")
        o_lines = (out_o / "sweep.csv").read_text().splitlines()
        assert len(o_lines) == 5
        assert all(line.split(",")[1] == "ok" for line in o_lines[1:])

    def test_single_value_sweep_equals_plain_run(self, tiny_config_file, tmp_path):
        config = load_config(tiny_config_file, overrides={"rounds": 1})
        out_sweep = sweep(config, "K", [3], tmp_path / "s")
        out_run = run(apply_axis(config, "K", 3), tmp_path / "r")
        sweep_row = (out_sweep / "sweep.csv").read_text().splitlines()[1]
        run_row = (out_run / "summary.csv").read_text().splitlines()[1]
        assert sweep_row.split(",")[2:] == run_row.split(",")

    def test_failed_value_recorded_and_others_continue(self, tiny_config_file, tmp_path):
        config = load_config(tiny_config_file, overrides={"rounds": 1})
        # K larger than the number of prototype pairs the server can gather
        # is clamped, but alpha <= 0 genuinely fails validation downstream
        out = sweep(config, "alpha", [-1.0, 0.5], tmp_path / "sweep")
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[1].startswith("error")
        assert lines[2].split(",")[1] == "ok"


class TestCli:
    def test_run_subcommand(self, tiny_config_file, tmp_path, capsys):
        out_dir = tmp_path / "cli_run"
        code = main(
            [
                "run",
                "--config",
                str(tiny_config_file),
                "--seed",
                "5",
                "--method",
                "local",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "summary" in captured or "acc1_mean" in captured
        assert load_summary(out_dir)["seed"] == "5"
        assert load_summary(out_dir)["method"] == "local"

    def test_sweep_subcommand(self, tiny_config_file, tmp_path, capsys):
        out_dir = tmp_path / "cli_sweep"
        code = main(
            [
                "sweep",
                "--config",
                str(tiny_config_file),
                "--axis",
                "O",
                "--values",
                "1,2",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "sweep.csv").exists()

    def test_error_exit_status(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        assert main(["run", "--config", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err
