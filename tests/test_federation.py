import numpy as np
import pytest

from apromfl.config import ExperimentConfig, finalize_config
from apromfl.data import SyntheticSpec
from apromfl.federation import (
    ClientRoundConfig,
    MultimodalClientState,
    RelationshipGraph,
    RoundMessage,
    UnimodalClientState,
    aggregate_modules,
    client_round,
    evaluate_client,
    fediot_aggregate,
    multimodal_client_round,
    relationship_weights,
    run_training,
    setup_experiment,
    unimodal_client_round,
    validate_message,
)
from apromfl.losses import TransferContext
from apromfl.metrics import acc_at_k
from apromfl.nn import (
    Encoder,
    flatten_module,
    forward_head,
    forward_map,
    init_classifier_head,
    init_mapping_module,
    unflatten_module,
)
from apromfl.numerics import seeded_rng


def modules(count, dims=(4, 6, 3), key=0):
    return [init_mapping_module(dims, seeded_rng(900, key, i)) for i in range(count)]


def empty_ctx(tau=0.5):
    return TransferContext(tau=tau)


def round_cfg(**kwargs):
    base = dict(
        seed=0,
        round_index=1,
        epochs=2,
        lr=0.05,
        batch_size=8,
        beta1=1.0,
        beta2=1.0,
        lmr_weight=0.1,
        local_clusters=3,
    )
    base.update(kwargs)
    return ClientRoundConfig(**base)


def tiny_config(**kwargs):
    spec = kwargs.pop("synthetic", None) or SyntheticSpec(
        num_classes=4, latent_dim=6, image_dim=10, text_dim=8, samples_per_class=20
    )
    base = dict(
        rounds=2,
        local_epochs=2,
        batch_size=8,
        clients_multimodal=2,
        clients_image=2,
        clients_text=1,
        num_global_prototypes=3,
        completion_top_o=3,
        hidden_dim=12,
        embed_dim=6,
        encoder_dim=8,
        synthetic=spec,
    )
    base.update(kwargs)
    return finalize_config(ExperimentConfig(**base))


class TestRelationshipWeights:
    def test_identical_modules_uniform(self):
        mods = [modules(1)[0]] * 4
        graph = relationship_weights(mods)
        assert np.allclose(graph.weights, 0.25, atol=1e-12)
        assert np.allclose(graph.sim, 1.0, atol=1e-12)

    def test_single_module(self):
        graph = relationship_weights(modules(1))
        assert graph.weights.tolist() == [[1.0]]

    def test_matches_normalize_oracle(self):
        mods = modules(3, key=1)
        graph = relationship_weights(mods)
        flats = [flatten_module(m) for m in mods]
        for i in range(3):
            sims = []
            for j in range(3):
                if i == j:
                    sims.append(1.0)
                else:
                    a, b = flats[i], flats[j]
                    sims.append(float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b)))
            clamped = [max(s, 0.0) for s in sims]
            expected = np.asarray(clamped) / sum(clamped)
            assert np.allclose(graph.weights[i], expected, atol=1e-12)
            assert abs(graph.weights[i].sum() - 1.0) < 1e-12

    def test_scale_invariance(self):
        mods = modules(3, key=2)
        scaled = [
            unflatten_module(m.dims, 2.5 * flatten_module(m)) for m in mods
        ]
        a = relationship_weights(mods).weights
        b = relationship_weights(scaled).weights
        assert np.allclose(a, b, atol=1e-12)

    def test_architecture_mismatch(self):
        with pytest.raises(ValueError):
            relationship_weights([modules(1)[0], modules(1, dims=(4, 5, 3))[0]])


class TestAggregateModules:
    def test_identical_modules_fixpoint(self):
        base = modules(1, key=3)[0]
        mods = [base] * 3
        graph = relationship_weights(mods)
        for aggregated in aggregate_modules(graph, mods):
            assert np.allclose(
                flatten_module(aggregated), flatten_module(base), rtol=1e-12, atol=1e-12
            )

    def test_one_hot_weights_keep_own_module(self):
        mods = modules(2, key=4)
        graph = RelationshipGraph(
            modality="image", sim=np.eye(2), weights=np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        aggregated = aggregate_modules(graph, mods)
        assert np.array_equal(flatten_module(aggregated[0]), flatten_module(mods[0]))
        assert np.array_equal(flatten_module(aggregated[1]), flatten_module(mods[1]))

    def test_matches_weighted_sum_oracle(self):
        mods = modules(4, key=5)
        graph = relationship_weights(mods)
        flats = np.stack([flatten_module(m) for m in mods])
        for i, aggregated in enumerate(aggregate_modules(graph, mods)):
            expected = sum(graph.weights[i, j] * flats[j] for j in range(4))
            assert np.allclose(flatten_module(aggregated), expected, atol=1e-12)


class TestFediotAggregate:
    def test_identical_modules(self):
        base = modules(1, key=6)[0]
        out = fediot_aggregate([base, base, base])
        assert np.allclose(flatten_module(out), flatten_module(base), atol=1e-12)

    def test_simple_mean(self):
        template = modules(1, key=7)[0]
        zeros = unflatten_module(template.dims, np.zeros(template.params.size))
        twos = unflatten_module(template.dims, np.full(template.params.size, 2.0))
        out = fediot_aggregate([zeros, twos])
        assert np.allclose(flatten_module(out), 1.0)

    def test_bitwise_equals_uniform_graph_aggregation(self):
        mods = modules(3, key=8)
        uniform = RelationshipGraph(
            modality="image", sim=np.ones((3, 3)), weights=np.full((3, 3), 1.0 / 3.0)
        )
        via_graph = aggregate_modules(uniform, mods)
        mean = flatten_module(fediot_aggregate(mods))
        for aggregated in via_graph:
            assert np.array_equal(flatten_module(aggregated), mean)


class TestMessages:
    def test_unimodal_shape_enforced(self):
        with pytest.raises(ValueError):
            validate_message(
                RoundMessage(
                    client_id=0,
                    kind="image",
                    label_prototypes=None,
                    pair_prototypes=None,
                    module_params={"image": np.ones(3)},
                    task_loss=0.0,
                    loss_terms={},
                )
            )

    def test_multimodal_must_not_leak_extra_modules(self):
        with pytest.raises(ValueError):
            validate_message(
                RoundMessage(
                    client_id=0,
                    kind="multimodal",
                    label_prototypes=None,
                    pair_prototypes=(),
                    module_params={"image": np.ones(3), "text": np.ones(3), "cluster": np.ones(3)},
                    task_loss=0.0,
                    loss_terms={},
                )
            )


def make_unimodal_state(n=24, separable=False, key=0):
    rng = seeded_rng(901, key)
    if separable:
        half = n // 2
        feats = np.concatenate(
            [rng.standard_normal((half, 6)) + 4.0, rng.standard_normal((n - half, 6)) - 4.0]
        )
        labels = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    else:
        feats = rng.standard_normal((n, 6))
        labels = rng.integers(0, 3, n)
    return UnimodalClientState(
        client_id=0,
        modality="image",
        encoder=Encoder(kind="identity"),
        mapper=init_mapping_module((6, 8, 4), seeded_rng(902, key)),
        head=init_classifier_head(4, 3, seeded_rng(903, key)),
        features=feats,
        labels=labels,
    )


def make_multimodal_state(n=20, key=0):
    rng = seeded_rng(904, key)
    return MultimodalClientState(
        client_id=1,
        image_encoder=Encoder(kind="identity"),
        text_encoder=Encoder(kind="identity"),
        image_mapper=init_mapping_module((6, 8, 4), seeded_rng(905, key)),
        text_mapper=init_mapping_module((5, 8, 4), seeded_rng(906, key)),
        cluster_image_mapper=init_mapping_module((6, 8, 4), seeded_rng(905, key)),
        cluster_text_mapper=init_mapping_module((5, 8, 4), seeded_rng(906, key)),
        image_features=rng.standard_normal((n, 6)),
        text_features=rng.standard_normal((n, 5)),
    )


class TestUnimodalClientRound:
    def test_empty_context_trains_on_task_only(self):
        state = make_unimodal_state()
        _, msg = unimodal_client_round(state, empty_ctx(), round_cfg())
        assert msg.loss_terms["gpt"] == 0.0
        assert msg.loss_terms["gmt"] == 0.0
        assert msg.loss_terms["task"] > 0.0

    def test_zero_epochs_leaves_model_and_uses_initial_embeddings(self):
        state = make_unimodal_state()
        new_state, msg = unimodal_client_round(state, empty_ctx(), round_cfg(epochs=0))
        assert np.array_equal(
            flatten_module(new_state.mapper), flatten_module(state.mapper)
        )
        expected = forward_map(state.mapper, state.features)
        by_class = {p.class_id: p.vector for p in msg.label_prototypes}
        for c in np.unique(state.labels):
            assert np.allclose(by_class[int(c)], expected[state.labels == c].mean(axis=0))

    def test_converges_on_separable_data(self):
        state = make_unimodal_state(n=40, separable=True)
        trained, _ = unimodal_client_round(state, empty_ctx(), round_cfg(epochs=20))
        logits = forward_head(trained.head, forward_map(trained.mapper, state.features))
        assert acc_at_k(logits, state.labels, 1) >= 0.95


class TestMultimodalClientRound:
    def test_message_contains_only_task_modules(self):
        state = make_multimodal_state()
        _, msg = multimodal_client_round(state, empty_ctx(), round_cfg())
        assert set(msg.module_params) == {"image", "text"}
        assert msg.pair_prototypes and msg.label_prototypes is None

    def test_k1_pair_is_means(self):
        state = make_multimodal_state()
        new_state, msg = multimodal_client_round(
            state, empty_ctx(), round_cfg(epochs=0, local_clusters=1)
        )
        (pair,) = msg.pair_prototypes
        e_img = forward_map(new_state.cluster_image_mapper, state.image_features)
        e_txt = forward_map(new_state.cluster_text_mapper, state.text_features)
        assert np.allclose(pair.image_vec, e_img.mean(axis=0))
        assert np.allclose(pair.text_vec, e_txt.mean(axis=0))

    def test_stronger_regulariser_shrinks_module_gap(self):
        gaps = []
        for weight in (0.0, 0.3, 3.0):
            state = make_multimodal_state(key=3)
            trained, _ = multimodal_client_round(
                state, empty_ctx(), round_cfg(lmr_weight=weight, epochs=3)
            )
            gap_img = trained.image_mapper.params - trained.cluster_image_mapper.params
            gap_txt = trained.text_mapper.params - trained.cluster_text_mapper.params
            gaps.append(float(gap_img @ gap_img + gap_txt @ gap_txt))
        assert gaps[0] > gaps[1] > gaps[2]


def strip_wall_time(records):
    return [
        {
            "round": r.round_index,
            "reports": {cid: rep.to_dict() for cid, rep in r.reports.items()},
            "losses": r.client_losses,
            "means": r.mean_losses,
        }
        for r in records
    ]


class TestRunTraining:
    def test_zero_rounds(self):
        result = run_training(tiny_config(rounds=0))
        assert result.records == []

    def test_deterministic_reruns(self):
        cfg = tiny_config(method="apromfl")
        a = run_training(cfg)
        b = run_training(cfg)
        assert strip_wall_time(a.records) == strip_wall_time(b.records)

    def test_parallel_execution_matches_serial(self):
        serial = run_training(tiny_config(method="apromfl", workers=1))
        parallel = run_training(tiny_config(method="apromfl", workers=2))
        assert strip_wall_time(serial.records) == strip_wall_time(parallel.records)

    def test_round_one_losses_identical_across_methods(self):
        local = run_training(tiny_config(method="local", rounds=1))
        apromfl = run_training(tiny_config(method="apromfl", rounds=1))
        assert local.records[0].client_losses == apromfl.records[0].client_losses

    def test_local_equals_isolated_training(self):
        cfg = tiny_config(method="local", rounds=3)
        result = run_training(cfg)
        # drive the same clients by hand with a forever-empty context
        experiment = setup_experiment(cfg)
        states = list(experiment.clients)
        for round_index in range(1, 4):
            rc = ClientRoundConfig.from_experiment(cfg, round_index)
            ctx = TransferContext(tau=cfg.tau, nu_max=cfg.nu_max, distill_tau=cfg.distill_tau)
            states = [client_round(s, ctx, rc)[0] for s in states]
        for ran, manual in zip(result.experiment.clients, states):
            if isinstance(ran, UnimodalClientState):
                assert np.array_equal(
                    flatten_module(ran.mapper), flatten_module(manual.mapper)
                )
            else:
                assert np.array_equal(
                    flatten_module(ran.image_mapper), flatten_module(manual.image_mapper)
                )
                assert np.array_equal(
                    flatten_module(ran.text_mapper), flatten_module(manual.text_mapper)
                )

    def test_apromfl_broadcast_replaces_modules(self):
        cfg = tiny_config(method="apromfl", rounds=1)
        result = run_training(cfg)
        # after the server phase every context carries the personalised module
        for ctx, state in zip(result.experiment.contexts, result.experiment.clients):
            assert ctx.global_prototypes is not None
            if isinstance(state, UnimodalClientState):
                own = ctx.module_for(state.modality)
                assert own is not None
                assert np.array_equal(flatten_module(own), flatten_module(state.mapper))
            else:
                assert np.array_equal(
                    flatten_module(ctx.image_module), flatten_module(state.image_mapper)
                )

    def test_no_multimodal_clients_still_runs(self):
        cfg = tiny_config(method="apromfl", clients_multimodal=0, clients_image=2, clients_text=2)
        result = run_training(cfg)
        # no pairs exist, so no global prototypes; aggregation still happens
        assert all(ctx.global_prototypes is None for ctx in result.experiment.contexts)
        assert len(result.records) == cfg.rounds

    def test_evaluate_client_shapes(self):
        cfg = tiny_config(rounds=1)
        result = run_training(cfg)
        for state in result.experiment.clients:
            report = evaluate_client(state, result.experiment.test)
            if isinstance(state, UnimodalClientState):
                assert set(report.acc_at) == {1, 5}
            else:
                assert set(report.recall_i2t_at) == {1, 5}
