import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apromfl import federation, harness
from apromfl.cli import main
from apromfl.config import (
    CONFIG_KEYS,
    METHODS,
    ExperimentConfig,
    config_from_mapping,
    finalize_config,
    load_config,
    parse_config_text,
    serialize_config,
)
from apromfl.data import SyntheticSpec
from apromfl.federation import RoundFailure, run_training, setup_experiment
from apromfl.harness import apply_axis, load_summary, run, summarize_reports, sweep
from apromfl.metrics import EvalReport
from oracles import eval_report_from_dict

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

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = ROOT / "configs" / "default.txt"

#: Every float-typed config key, as the config file spells it.
FLOAT_KEYS = [key for key, f in CONFIG_KEYS.items() if f.type == "float"]

#: Each single-field range rule as (key, the first value it rejects).
RANGE_RULES = [
    ("method", "nope"),
    ("rounds", -1),
    ("local_epochs", -1),
    ("lr", 0.0),
    ("batch_size", 0),
    ("clients_multimodal", -1),
    ("clients_image", -1),
    ("clients_text", -1),
    ("num_global_prototypes", 0),
    ("completion_top_o", 0),
    ("tau", 0.0),
    ("lmr_weight", -1e-9),
    ("beta1", -1e-9),
    ("beta2", -1e-9),
    ("nu_max", 0.999),
    ("distill_tau", 0.0),
    ("alpha", 0.0),
    ("mapping_layers", 2),
    ("hidden_dim", 0),
    ("embed_dim", 0),
    ("encoder_kind", "conv"),
    ("encoder_dim", 0),
    ("eval_fraction", 0.0),
    ("eval_fraction", 1.0),
    ("workers", 0),
    ("synthetic.num_classes", 0),
    ("synthetic.latent_dim", 0),
    ("synthetic.image_dim", 0),
    ("synthetic.text_dim", 0),
    ("synthetic.samples_per_class", 0),
    ("synthetic.view_noise_sigma", -1e-9),
    ("synthetic.latent_noise_sigma", -1e-9),
    ("synthetic.class_sep", 0.0),
]

#: Wrong-typed values of each declared field type: every key is tried with
#: those of its own type (a bool is an int to isinstance, so it is one too).
WRONG_TYPED = {
    "str": [1, None],
    "bool": [1, "true"],
    "int": [True, 2.0],
    "float": [True, "0.5"],
    "int | None": [False, 2.0],
}
TYPE_CASES = [(key, value) for key, f in CONFIG_KEYS.items() for value in WRONG_TYPED[f.type]]

#: The tiny config diverges at this step size after a few finished rounds.
DIVERGENT = {"lr": 3.0, "rounds": 20}


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

    def test_empty_evaluation_split_names_field(self, tmp_path):
        # int(0.2 * 4) = 0 samples of each class would be held out
        path = tmp_path / "bad.txt"
        path.write_text("synthetic.samples_per_class = 4\neval_fraction = 0.2\n")
        with pytest.raises(ValueError, match="^eval_fraction: .*evaluation split is empty"):
            load_config(path)
        path.write_text("synthetic.samples_per_class = 5\neval_fraction = 0.2\n")
        setup_experiment(load_config(path))

    @pytest.mark.parametrize("disjoint", [False, True])
    def test_too_few_training_samples_for_the_clients_names_field(self, tmp_path, disjoint):
        # 10 classes x (2 - 1) training samples for 3 + 12 + 12 clients; with
        # disjoint role classes the image and text roles get 3 classes each
        path = tmp_path / "bad.txt"
        text = (
            "synthetic.samples_per_class = 2\neval_fraction = 0.5\n"
            "clients_multimodal = 3\nclients_image = 12\nclients_text = 12\n"
            f"disjoint_role_classes = {disjoint}\n"
        )
        path.write_text(text)
        with pytest.raises(ValueError, match="^synthetic.samples_per_class: .*cannot cover"):
            load_config(path)
        # the largest counts each pool covers are accepted and set up
        fits = (3, 3) if disjoint else (6, 1)
        path.write_text(text + "batch_size = 2\nclients_image = %d\nclients_text = %d\n" % fits)
        setup_experiment(load_config(path))

    def test_disjoint_rejection_names_the_first_pool_it_cannot_cover(self, tmp_path):
        # 10 classes dealt over three roles: the image role gets 3 of them,
        # with (2 - 1) training samples each, for 12 clients
        path = tmp_path / "bad.txt"
        path.write_text(
            "synthetic.samples_per_class = 2\neval_fraction = 0.5\n"
            "clients_multimodal = 3\nclients_image = 12\nclients_text = 12\n"
            "disjoint_role_classes = True\n"
        )
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == (
            "synthetic.samples_per_class: 3 training samples cannot cover 12 image clients; "
            "raise samples_per_class or lower the client counts"
        )

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_names_field(self, tmp_path, key, raw):
        path = tmp_path / "bad.txt"
        path.write_text(f"{key} = {raw}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(key)}: "):
            load_config(path)

    @pytest.mark.parametrize("key, value", RANGE_RULES)
    def test_out_of_range_value_names_key(self, tmp_path, key, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(key)}: "):
            load_config(path)

    @pytest.mark.parametrize("key, value", TYPE_CASES)
    def test_wrong_typed_value_names_key(self, key, value):
        """Every key's value is checked against its field's declared type,
        through the path run and apply_axis revalidate."""
        config = ExperimentConfig()
        name = CONFIG_KEYS[key].name
        if key.startswith("synthetic."):
            config = replace(config, synthetic=replace(config.synthetic, **{name: value}))
        else:
            config = replace(config, **{name: value})
        with pytest.raises(ValueError, match=f"^{re.escape(key)}: must be of type "):
            finalize_config(config)

    def test_int_in_a_float_field_is_accepted(self):
        config = replace(ExperimentConfig(), lr=1, synthetic=SyntheticSpec(class_sep=3))
        text = serialize_config(finalize_config(config))
        assert "\nlr = 1\n" in text and "\nsynthetic.class_sep = 3\n" in text

    def test_readme_config_table_names_every_key(self):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        top_level = [key for key in CONFIG_KEYS if not key.startswith("synthetic.")]
        assert [key for key in top_level if f"`{key}`" not in section] == []

    def test_unparsable_number_names_key(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("rounds = 3.5\n")
        with pytest.raises(ValueError, match="^rounds: "):
            load_config(path)

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


@st.composite
def tiny_configs(draw):
    """Configs of a few dozen samples: K, O and the batch size range past the
    sample counts, and image and text widths differ (identity encoders)."""
    spec = SyntheticSpec(
        num_classes=draw(st.integers(1, 3)),
        latent_dim=2,
        image_dim=3,
        text_dim=4,
        samples_per_class=draw(st.integers(2, 10)),
    )
    return ExperimentConfig(
        method=draw(st.sampled_from(METHODS)),
        seed=draw(st.integers(0, 9)),
        rounds=draw(st.integers(1, 2)),
        local_epochs=1,
        batch_size=draw(st.integers(1, 30)),
        clients_multimodal=draw(st.integers(0, 2)),
        clients_image=draw(st.integers(0, 2)),
        clients_text=draw(st.integers(0, 2)),
        num_global_prototypes=draw(st.integers(1, 30)),
        completion_top_o=draw(st.integers(1, 30)),
        alpha=draw(st.floats(0.01, 100.0)),
        mapping_layers=draw(st.sampled_from((1, 3))),
        hidden_dim=4,
        embed_dim=3,
        encoder_kind=draw(st.sampled_from(("projection", "identity"))),
        encoder_dim=3,
        eval_fraction=draw(st.sampled_from((0.2, 0.5))),
        disjoint_role_classes=draw(st.booleans()),
        synthetic=spec,
    )


class TestAcceptedConfigsRun:
    @settings(max_examples=100, derandomize=True)
    @given(tiny_configs())
    def test_completes_or_fails_located(self, config):
        """A config that validation accepts runs to the end unless a value
        turns non-finite, which fails with a located ``RoundFailure``. A zero
        embedding is a point, not an error."""
        try:
            config = finalize_config(config)
        except ValueError:
            assume(False)
        try:
            run_training(config)
        except RoundFailure as failure:
            assert "non-finite" in failure.message, failure


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
        assert summary["acc1_mean"] == pytest.approx(0.6)
        assert summary["r1_sum"] == pytest.approx(0.3)
        assert summary["r5_sum"] == pytest.approx(1.1)

    def test_empty_groups_are_none(self):
        summary = summarize_reports({0: EvalReport(acc_at={1: 0.5, 5: 0.6}, n_eval=5)})
        assert summary["r1_sum"] is None


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
            int(cid): eval_report_from_dict(blob) for cid, blob in last["reports"].items()
        }
        recomputed = summarize_reports(reports)
        summary = load_summary(out)
        assert float(summary["acc1_mean"]) == recomputed["acc1_mean"]
        assert float(summary["r1_sum"]) == recomputed["r1_sum"]

    def test_zero_round_run_still_reports(self, tiny_config_file, tmp_path):
        config = load_config(tiny_config_file, overrides={"rounds": 0})
        out = run(config, tmp_path / "zero")
        summary = load_summary(out)
        assert summary["acc1_mean"] != ""


def rounds_without_wall_time(out) -> list[dict]:
    records = [json.loads(line) for line in (out / "rounds.jsonl").read_text().splitlines()]
    for record in records:
        del record["wall_time"]
    return records


class TestFailedRun:
    def test_divergence_in_round_one_is_located(self, tmp_path, capsys):
        text = DEFAULT_CONFIG.read_text()
        assert "\nlr = 0.05\n" in text
        config_file = tmp_path / "lr05.txt"
        config_file.write_text(text.replace("\nlr = 0.05\n", "\nlr = 0.5\n"))
        out = tmp_path / "run"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 1
        failure = json.loads((out / "failure.json").read_text())
        assert failure == {
            "round": 1,
            "client": 3,
            "phase": "client round",
            "message": "logits contains non-finite entries",
        }
        err = capsys.readouterr().err
        assert "client round failed in round 1 on client 3: logits" in err
        assert (out / "rounds.jsonl").read_text() == ""
        assert not (out / "summary.csv").exists()

    def test_finished_rounds_are_kept(self, tiny_config_file, tmp_path):
        config = load_config(tiny_config_file, overrides=DIVERGENT)
        out = tmp_path / "run"
        with pytest.raises(RoundFailure) as info:
            run(config, out)
        failure = json.loads((out / "failure.json").read_text())
        assert failure == info.value.to_dict()
        assert failure["round"] > 1
        kept = rounds_without_wall_time(out)
        assert [r["round_index"] for r in kept] == list(range(1, failure["round"]))
        # the same rounds without the failing one, rerun into the same directory
        run(replace(config, rounds=failure["round"] - 1), out)
        assert not (out / "failure.json").exists()
        assert rounds_without_wall_time(out) == kept

    def test_failed_rerun_leaves_no_earlier_results(self, tiny_config_file, tmp_path, monkeypatch):
        config = load_config(tiny_config_file)
        out = tmp_path / "run"
        run(config, out)
        assert (out / "summary.csv").exists() and (out / "final_reports.json").exists()

        def failing_round(state, rc):
            raise ValueError("unimodal round failed")

        monkeypatch.setattr(federation, "unimodal_client_round", failing_round)
        with pytest.raises(RoundFailure):
            run(config, out)
        assert (out / "failure.json").exists()
        assert not (out / "summary.csv").exists()
        assert not (out / "final_reports.json").exists()

    def test_setup_failure_is_located_and_clears_earlier_rounds(self, tiny_config_file, tmp_path):
        """Validation accepts each of these data scales, but the draws
        overflow and set-up fails, naming the scales. The failure is located
        (round 0, phase setup), and no round of an earlier run in the
        directory is left."""
        scales = "synthetic.class_sep, synthetic.latent_noise_sigma or synthetic.view_noise_sigma"
        keys = ("synthetic.class_sep", "synthetic.latent_noise_sigma", "synthetic.view_noise_sigma")
        for key in keys:
            out = tmp_path / key
            run(load_config(tiny_config_file), out)
            assert (out / "rounds.jsonl").read_text()
            config = load_config(DEFAULT_CONFIG, overrides={key: 1e308})
            with pytest.raises(RoundFailure, match="^setup failed in round 0: image views") as info:
                run(config, out)
            failure = json.loads((out / "failure.json").read_text())
            assert failure == info.value.to_dict() == {
                "round": 0,
                "client": None,
                "phase": "setup",
                "message": f"image views ({scales} too large) contains non-finite entries",
            }
            assert (out / "config.txt").read_text() == serialize_config(config)
            assert (out / "rounds.jsonl").read_text() == ""
            assert not (out / "summary.csv").exists()
            assert not (out / "final_reports.json").exists()

    def test_workers_name_the_same_failure(self, tiny_config_file, tmp_path):
        for workers in (1, 2):
            config = load_config(tiny_config_file, overrides={**DIVERGENT, "workers": workers})
            with pytest.raises(RoundFailure):
                run(config, tmp_path / f"w{workers}")
        serial = (tmp_path / "w1" / "failure.json").read_bytes()
        assert (tmp_path / "w2" / "failure.json").read_bytes() == serial
        assert json.loads(serial)["client"] is not None

    def test_server_failure_names_no_client(self, tiny_config_file, tmp_path):
        config = load_config(tiny_config_file, overrides={**DIVERGENT, "lr": 2.0})
        with pytest.raises(RoundFailure, match="server failed in round"):
            run(config, tmp_path / "run")
        failure = json.loads((tmp_path / "run" / "failure.json").read_text())
        assert failure["phase"] == "server"
        assert failure["client"] is None


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

    def test_multiline_error_keeps_one_line_per_value(self, tiny_config_file, tmp_path, monkeypatch):
        config = load_config(tiny_config_file, overrides={"rounds": 1})
        real_run = harness.run

        def run_or_fail(cfg, run_dir):
            if cfg.num_global_prototypes == 2:
                raise ValueError("first line\nsecond line, with a comma")
            return real_run(cfg, run_dir)

        monkeypatch.setattr(harness, "run", run_or_fail)
        out = sweep(config, "K", [2, 3], tmp_path / "sweep")
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[:2] == ["2", "error: first line"]
        assert lines[2].split(",")[1] == "ok"
        assert {len(line.split(",")) for line in lines} == {len(lines[0].split(","))}


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
