from dataclasses import replace

import numpy as np
import pytest

from apromfl.config import METHODS, ExperimentConfig, finalize_config
from apromfl.data import SyntheticSpec
from apromfl import federation
from apromfl.federation import (
    ClientRoundConfig,
    MultimodalClientState,
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
    _server,
)
from apromfl.nn import (
    flatten_module,
    forward_head,
    forward_map,
    init_classifier_head,
    init_mapping_module,
    unflatten_module,
)
from apromfl.numerics import seeded_rng, unit_rows
from apromfl.prototypes import pair_matrix
from oracles import (
    acc_at_k,
    cosine_similarity,
    list_semantic_complete,
    per_step_unimodal_round,
    per_tower_multimodal_round,
)


def modules(count, dims=(4, 6, 3), key=0):
    return [init_mapping_module(dims, seeded_rng(900, key, i)) for i in range(count)]


def round_cfg(**kwargs):
    """Round-1 input: no global prototypes and no distillation yet."""
    base = dict(local_epochs=2, batch_size=8, lmr_weight=0.1, num_global_prototypes=3)
    base.update(kwargs)
    return ClientRoundConfig(ExperimentConfig(**base), round_index=1)


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


def global_rows(experiment):
    """The unit rows of the experiment's global pairs, the form in which the
    round loop hands them to every client round."""
    return unit_rows(pair_matrix(experiment.global_prototypes.pairs), "global prototypes")


class TestRelationshipWeights:
    def test_identical_modules_uniform(self):
        mods = [modules(1)[0]] * 4
        weights = relationship_weights(mods)
        assert weights.shape == (4, 4)
        assert np.allclose(weights, 0.25, atol=1e-12)
        assert np.array_equal(weights, weights.T)

    def test_single_module(self):
        weights = relationship_weights(modules(1))
        assert weights.tolist() == [[1.0]]

    def test_matches_normalize_oracle(self):
        mods = modules(3, key=1)
        weights = relationship_weights(mods)
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
            assert np.allclose(weights[i], expected, atol=1e-12)
            assert abs(weights[i].sum() - 1.0) < 1e-12

    def test_scale_invariance(self):
        mods = modules(3, key=2)
        scaled = [
            unflatten_module(m.dims, 2.5 * flatten_module(m)) for m in mods
        ]
        a = relationship_weights(mods)
        b = relationship_weights(scaled)
        assert np.allclose(a, b, atol=1e-12)

    def test_architecture_mismatch(self):
        with pytest.raises(ValueError):
            relationship_weights([modules(1)[0], modules(1, dims=(4, 5, 3))[0]])

    def test_zero_module_is_orthogonal_to_every_other(self):
        template, other = modules(2)
        zero = unflatten_module(template.dims, np.zeros(template.params.size))
        weights = relationship_weights([template, zero])
        assert weights.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        # among other modules, a zero module gets no weight and keeps only its own
        weights = relationship_weights([template, zero, other])
        assert weights[:, 1].tolist() == [0.0, 1.0, 0.0]
        assert weights[1].tolist() == [0.0, 1.0, 0.0]

    def test_sim_matches_pairwise_oracle(self):
        """The weights are the pairwise cosines with a unit diagonal, clamped
        at zero and row-normalised, over modules of random sign."""
        negatives = 0
        for trial in range(20):
            rng = seeded_rng(902, trial)
            count, d_in = int(rng.integers(1, 7)), int(rng.integers(1, 30))
            # a random sign per module makes about half the pairs negative
            flats = rng.standard_normal((count, d_in + 1)) * rng.choice([-1.0, 1.0], (count, 1))
            weights = relationship_weights([unflatten_module((d_in, 1), row) for row in flats])
            for i in range(count):
                row = []
                for j in range(count):
                    cosine = 1.0 if i == j else cosine_similarity(flats[i], flats[j])
                    row.append(max(cosine, 0.0))
                    negatives += cosine < 0
                expected = np.asarray(row) / sum(row)
                assert np.abs(weights[i] - expected).max() < 1e-12
                assert weights[i, i] > 0.0
        assert negatives > 0


class TestAggregateModules:
    def test_identical_modules_fixpoint(self):
        base = modules(1, key=3)[0]
        mods = [base] * 3
        for aggregated in aggregate_modules(relationship_weights(mods), mods):
            assert np.allclose(
                flatten_module(aggregated), flatten_module(base), rtol=1e-12, atol=1e-12
            )

    def test_one_hot_weights_keep_own_module(self):
        mods = modules(2, key=4)
        aggregated = aggregate_modules(np.array([[1.0, 0.0], [0.0, 1.0]]), mods)
        assert np.array_equal(flatten_module(aggregated[0]), flatten_module(mods[0]))
        assert np.array_equal(flatten_module(aggregated[1]), flatten_module(mods[1]))

    def test_matches_weighted_sum_oracle(self):
        mods = modules(4, key=5)
        weights = relationship_weights(mods)
        flats = np.stack([flatten_module(m) for m in mods])
        for i, aggregated in enumerate(aggregate_modules(weights, mods)):
            expected = sum(weights[i, j] * flats[j] for j in range(4))
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
        via_graph = aggregate_modules(np.full((3, 3), 1.0 / 3.0), mods)
        mean = flatten_module(fediot_aggregate(mods))
        for aggregated in via_graph:
            assert np.array_equal(flatten_module(aggregated), mean)


def spy_client_rounds(monkeypatch) -> list:
    """Record ``(state, new_state, message)`` for every client round the
    round loop runs."""
    sent, real_round = [], federation.client_round

    def client_round_spy(state, rc):
        result = real_round(state, rc)
        sent.append((state, *result))
        return result

    monkeypatch.setattr(federation, "client_round", client_round_spy)
    return sent


class TestMessages:
    """The privacy rule on the messages of real two-round runs, under every
    method: the private clustering models are never sent."""

    def test_unimodal_shape_enforced(self, monkeypatch):
        """A unimodal message carries its own modality's module (and under
        fediot that modality's head) and labelled prototypes of that modality
        only."""
        for method in METHODS:
            config = tiny_config(method=method)
            with monkeypatch.context() as patch:
                sent = spy_client_rounds(patch)
                run_training(config)
            unimodal = [(s, m) for s, _, m in sent if isinstance(s, UnimodalClientState)]
            assert len(unimodal) == config.rounds * (config.clients_image + config.clients_text)
            for state, msg in unimodal:
                own = state.modality
                parts = {own, f"{own} head"} if method == "fediot" else {own}
                assert set(msg.module_params) == parts
                assert msg.label_prototypes and msg.pair_prototypes is None
                assert {p.modality for p in msg.label_prototypes} == {own}

    def test_multimodal_must_not_leak_extra_modules(self, monkeypatch):
        """A multimodal message carries exactly its two task modules, as the
        round returns them, and prototype pairs only."""
        for method in METHODS:
            config = tiny_config(method=method)
            with monkeypatch.context() as patch:
                sent = spy_client_rounds(patch)
                run_training(config)
            multimodal = [r for r in sent if isinstance(r[0], MultimodalClientState)]
            assert len(multimodal) == config.rounds * config.clients_multimodal
            for state, new_state, msg in multimodal:
                assert msg.client_id == state.client_id
                assert set(msg.module_params) == {"image", "text"}
                assert msg.pair_prototypes and msg.label_prototypes is None
                for part, module in task_modules(new_state).items():
                    assert msg.module_params[part].tobytes() == module.params.tobytes()


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
        models={
            "image": init_mapping_module((6, 8, 4), seeded_rng(902, key)),
            "image head": init_classifier_head(4, 3, seeded_rng(903, key)),
        },
        features=feats,
        labels=labels,
    )


def make_multimodal_state(n=20, key=0):
    rng = seeded_rng(904, key)
    return MultimodalClientState(
        client_id=1,
        models={
            "image": init_mapping_module((6, 8, 4), seeded_rng(905, key)),
            "text": init_mapping_module((5, 8, 4), seeded_rng(906, key)),
        },
        cluster=(
            init_mapping_module((6, 8, 4), seeded_rng(905, key)),
            init_mapping_module((5, 8, 4), seeded_rng(906, key)),
        ),
        image_features=rng.standard_normal((n, 6)),
        text_features=rng.standard_normal((n, 5)),
    )


class TestUnimodalClientRound:
    def test_empty_context_trains_on_task_only(self):
        state = make_unimodal_state()
        _, msg = unimodal_client_round(state, round_cfg())
        assert msg.loss_terms["gpt"] == 0.0
        assert msg.loss_terms["gmt"] == 0.0
        assert msg.loss_terms["task"] > 0.0

    def test_zero_epochs_leaves_model_and_uses_initial_embeddings(self):
        state = make_unimodal_state()
        new_state, msg = unimodal_client_round(state, round_cfg(local_epochs=0))
        assert np.array_equal(
            flatten_module(new_state.models["image"]), flatten_module(state.models["image"])
        )
        expected = forward_map(state.models["image"], state.features)
        classes = np.unique(state.labels)
        for p, c in zip(msg.label_prototypes, classes, strict=True):
            assert np.allclose(p.vector, expected[state.labels == c].mean(axis=0))

    def test_converges_on_separable_data(self):
        state = make_unimodal_state(n=40, separable=True)
        trained, _ = unimodal_client_round(state, round_cfg(local_epochs=20))
        mapper, head = trained.models["image"], trained.models["image head"]
        logits = forward_head(head, forward_map(mapper, state.features))
        assert acc_at_k(logits, state.labels, 1) >= 0.95

    @pytest.mark.parametrize("method", ["apromfl", "fediot"])
    @pytest.mark.parametrize("encoder_kind", ["projection", "identity"])
    @pytest.mark.parametrize("mapping_layers", [1, 3])
    @pytest.mark.parametrize("round_index", [1, 2])
    def test_matches_per_step_oracle(self, method, encoder_kind, mapping_layers, round_index):
        """The unimodal round against its per-step oracle, bit for bit; in
        round 2 after a real server phase (apromfl: both transfer losses)."""
        config = tiny_config(
            method=method, encoder_kind=encoder_kind, mapping_layers=mapping_layers
        )
        experiment = setup_experiment(config)
        rc = ClientRoundConfig.from_experiment(config, 1)
        if round_index == 2:
            _server(experiment, [client_round(s, rc)[1] for s in experiment.clients], 1)
            protos = global_rows(experiment) if method == "apromfl" else None
            rc = ClientRoundConfig(config, 2, protos)
        for state in experiment.clients:
            if not isinstance(state, UnimodalClientState):
                continue
            new_state, msg = unimodal_client_round(state, rc)
            mapper, head, protos, terms = per_step_unimodal_round(state, rc)
            new_mapper, new_head = new_state.models.values()
            assert new_mapper.params.tobytes() == mapper.params.tobytes()
            assert new_head.params.tobytes() == head.params.tobytes()
            assert msg.module_params[state.modality].tobytes() == mapper.params.tobytes()
            if method == "fediot":
                shared_head = msg.module_params[f"{state.modality} head"]
                assert shared_head.tobytes() == head.params.tobytes()
            classes = np.unique(state.labels)
            for a, b, _ in zip(msg.label_prototypes, protos, classes, strict=True):
                assert a.vector.tobytes() == b.vector.tobytes()
            assert msg.loss_terms == terms
            active = method == "apromfl" and round_index == 2
            assert (terms["gpt"] > 0.0 and terms["gmt"] > 0.0) == active


    def test_each_step_of_a_run_writes_and_steps_one_gradient_buffer(self, monkeypatch):
        """A unimodal round steps its module and head together, once a
        batch, and every step's gradient is the same buffer of one
        workspace (a multimodal round: one per run, clustering and task), so
        no gradient is allocated per step."""
        config = tiny_config(method="fediot")
        experiment = setup_experiment(config)
        rc = ClientRoundConfig.from_experiment(config, 1)
        steps, written = [], []
        real_step, real_backward, real_head = (
            federation.sgd_step, federation.backward, federation.backward_head
        )

        def sgd_step_spy(space, grad, lr):
            steps.append((space, grad))
            real_step(space, grad, lr)

        def backward_spy(*args):
            written.append(real_backward(*args))
            return written[-1]

        def backward_head_spy(*args):
            result = real_head(*args)
            written.append(result[0])
            return result

        monkeypatch.setattr(federation, "sgd_step", sgd_step_spy)
        monkeypatch.setattr(federation, "backward", backward_spy)
        monkeypatch.setattr(federation, "backward_head", backward_head_spy)
        for state in experiment.clients:
            steps.clear()
            written.clear()
            client_round(state, rc)
            unimodal = isinstance(state, UnimodalClientState)
            n = len(state.labels) if unimodal else len(state.image_features)
            batches = len(federation._batches(np.arange(n), config.batch_size, 1 if unimodal else 2))
            runs = 1 if unimodal else 2
            assert len(steps) == runs * config.local_epochs * batches
            buffers = {id(grad): (space, grad) for space, grad in steps}
            assert len(buffers) == runs
            for space, grad in buffers.values():
                assert grad is space.grad and space.params.shape == grad.shape
            assert all(any(np.shares_memory(w, g) for _, g in buffers.values()) for w in written)
            if unimodal:
                ((space, _),) = buffers.values()
                assert [m.dims for m in space.models] == [m.dims for m in state.models.values()]

    def test_returned_models_are_frozen_and_the_next_round_copies_them(self, monkeypatch):
        """The mapper and head a round returns are read-only views of its
        workspace, and the next round trains a private copy that does not
        alias them."""
        config = tiny_config(method="fediot")
        state = next(s for s in setup_experiment(config).clients if isinstance(s, UnimodalClientState))
        first, _ = unimodal_client_round(state, ClientRoundConfig.from_experiment(config, 1))
        first_mapper, first_head = first.models.values()
        before = [m.params.tobytes() for m in (first_mapper, first_head)]
        spaces, real_trainable = [], federation.trainable

        def trainable_spy(*rows):
            spaces.append(real_trainable(*rows))
            return spaces[-1]

        monkeypatch.setattr(federation, "trainable", trainable_spy)
        second, _ = unimodal_client_round(first, ClientRoundConfig.from_experiment(config, 2))
        (space,) = spaces
        second_mapper, second_head = second.models.values()
        for model in (first_mapper, first_head, second_mapper, second_head):
            assert not model.params.flags.writeable
            with pytest.raises(ValueError):
                model.params[0] = 0.0
            assert not np.shares_memory(space.params, first_mapper.params)
            assert not np.shares_memory(space.params, first_head.params)
        assert [m.params.tobytes() for m in (first_mapper, first_head)] == before
        assert second_mapper.params.tobytes() != before[0]

    def test_non_finite_head_gradient_fails_the_round_naming_the_client(self, monkeypatch):
        real_head = federation.backward_head

        def poisoned_head(head, x, upstream, out=None):
            grad, d_x = real_head(head, x, upstream, out)
            grad[-1] = np.inf
            return grad, d_x

        monkeypatch.setattr(federation, "backward_head", poisoned_head)
        config = tiny_config(method="fediot", rounds=1)
        with pytest.raises(federation.RoundFailure) as info:
            run_training(config)
        first = next(
            s.client_id for s in setup_experiment(config).clients if isinstance(s, UnimodalClientState)
        )
        assert (info.value.round_index, info.value.phase) == (1, "client round")
        assert info.value.client_id == first
        assert "non-finite gradient" in info.value.message


class TestMultimodalClientRound:
    def test_message_contains_only_task_modules(self):
        state = make_multimodal_state()
        _, msg = multimodal_client_round(state, round_cfg())
        assert set(msg.module_params) == {"image", "text"}
        assert msg.pair_prototypes and msg.label_prototypes is None

    def test_k1_pair_is_means(self):
        state = make_multimodal_state()
        new_state, msg = multimodal_client_round(
            state, round_cfg(local_epochs=0, num_global_prototypes=1)
        )
        (pair,) = msg.pair_prototypes
        e_img = forward_map(new_state.cluster[0], state.image_features)
        e_txt = forward_map(new_state.cluster[1], state.text_features)
        assert np.allclose(pair.image_vec, e_img.mean(axis=0))
        assert np.allclose(pair.text_vec, e_txt.mean(axis=0))

    def test_stronger_regulariser_shrinks_module_gap(self):
        gaps = []
        for weight in (0.0, 0.3, 3.0):
            state = make_multimodal_state(key=3)
            trained, _ = multimodal_client_round(
                state, round_cfg(lmr_weight=weight, local_epochs=3)
            )
            gap_img = trained.models["image"].params - trained.cluster[0].params
            gap_txt = trained.models["text"].params - trained.cluster[1].params
            gaps.append(float(gap_img @ gap_img + gap_txt @ gap_txt))
        assert gaps[0] > gaps[1] > gaps[2]


class TestStackedTowers:
    """The stacked-tower round against the per-tower oracle, bit for bit."""

    @pytest.mark.parametrize("encoder_kind", ["projection", "identity"])
    @pytest.mark.parametrize("mapping_layers", [1, 3])
    @pytest.mark.parametrize("round_index", [1, 2])
    def test_matches_per_tower_oracle(self, encoder_kind, mapping_layers, round_index):
        config = tiny_config(encoder_kind=encoder_kind, mapping_layers=mapping_layers)
        experiment = setup_experiment(config)
        rc = ClientRoundConfig.from_experiment(config, 1)
        if round_index == 2:
            # a real server phase: global prototypes and adopted aggregates
            messages = [client_round(s, rc)[1] for s in experiment.clients]
            _server(experiment, messages, 1)
            rc = ClientRoundConfig(config, 2, global_rows(experiment))
            assert rc.distill
        for state in experiment.clients:
            if not isinstance(state, MultimodalClientState):
                continue
            if round_index == 2:
                gap = state.models["image"].params - state.cluster[0].params
                assert np.any(gap)
            new_state, msg = multimodal_client_round(state, rc)
            modules, pairs, terms = per_tower_multimodal_round(state, rc)
            got = {
                "image": new_state.models["image"],
                "text": new_state.models["text"],
                "cluster_image": new_state.cluster[0],
                "cluster_text": new_state.cluster[1],
            }
            for name, module in modules.items():
                assert got[name].params.tobytes() == module.params.tobytes(), name
            assert msg.module_params["image"].tobytes() == modules["image"].params.tobytes()
            assert msg.module_params["text"].tobytes() == modules["text"].params.tobytes()
            assert len(msg.pair_prototypes) == len(pairs)
            for a, b in zip(msg.pair_prototypes, pairs):
                assert a.image_vec.tobytes() == b.image_vec.tobytes()
                assert a.text_vec.tobytes() == b.text_vec.tobytes()
            assert msg.loss_terms == terms
            if round_index == 2:
                assert terms["gpt"] > 0.0 and terms["gmt"] > 0.0


def test_round_start_modules_embed_once_per_round(monkeypatch):
    """The distillation target is the round-start modules' embedding of all
    of a client's features, computed once and indexed per batch."""
    config = tiny_config()
    experiment = setup_experiment(config)
    rc = ClientRoundConfig.from_experiment(config, 1)
    _server(experiment, [client_round(s, rc)[1] for s in experiment.clients], 1)
    rc = ClientRoundConfig(config, 2, global_rows(experiment))
    seen, real = [], federation.forward_map

    def forward_map_spy(module, x):
        seen.append(module.params.tobytes())
        return real(module, x)

    monkeypatch.setattr(federation, "forward_map", forward_map_spy)
    for state in experiment.clients:
        start = np.stack([m.params for m in task_modules(state).values()])
        seen.clear()
        client_round(state, rc)
        assert seen.count((start if len(start) == 2 else start[0]).tobytes()) == 1


def test_each_step_normalises_its_embeddings_once(monkeypatch):
    """A round-2 client round with both transfer losses active makes one
    ``unit_rows`` call per training step (a multimodal client's two towers
    together), plus one for its distillation targets. The global prototypes
    arrive normalised."""
    config = tiny_config()
    experiment = setup_experiment(config)
    rc = ClientRoundConfig.from_experiment(config, 1)
    _server(experiment, [client_round(s, rc)[1] for s in experiment.clients], 1)
    rc = ClientRoundConfig(config, 2, global_rows(experiment))
    seen, real = [], federation.unit_rows

    def unit_rows_spy(x, what="embeddings"):
        seen.append(what)
        return real(x, what)

    monkeypatch.setattr(federation, "unit_rows", unit_rows_spy)
    mm = next(s for s in experiment.clients if isinstance(s, MultimodalClientState))
    uni = next(s for s in experiment.clients if isinstance(s, UnimodalClientState))
    # a multimodal round trains twice (clustering refresh, then task model)
    cases = ((mm, len(mm.image_features), 2, 2), (uni, len(uni.labels), 1, 1))
    for state, n, phases, min_size in cases:
        batches = len(federation._batches(np.arange(n), config.batch_size, min_size))
        seen.clear()
        _, msg = client_round(state, rc)
        assert msg.loss_terms["gpt"] > 0.0 and msg.loss_terms["gmt"] > 0.0
        steps = phases * config.local_epochs * batches
        assert sorted(seen) == sorted(["embeddings"] * steps + ["distillation targets"])


@pytest.mark.parametrize("beta1", [1.0, 0.0])
def test_global_prototypes_are_normalised_once_per_round(monkeypatch, beta1):
    """The round loop normalises the global pairs once per round and hands
    every client round the same unit rows; with ``beta1 = 0`` it hands none."""
    inputs, real_round = [], federation.client_round
    normalised, real_unit_rows = [], federation.unit_rows

    def client_round_spy(state, rc):
        inputs.append(rc)
        return real_round(state, rc)

    def unit_rows_spy(x, what="embeddings"):
        if what == "global prototypes":
            normalised.append(x)
        return real_unit_rows(x, what)

    monkeypatch.setattr(federation, "client_round", client_round_spy)
    monkeypatch.setattr(federation, "unit_rows", unit_rows_spy)
    config = tiny_config(rounds=3, beta1=beta1)
    run_training(config)
    clients = config.num_clients
    assert [rc.round_index for rc in inputs] == [r for r in (1, 2, 3) for _ in range(clients)]
    assert all(rc.global_prototypes is None for rc in inputs[:clients])
    if beta1 == 0.0:
        assert normalised == []
        assert all(rc.global_prototypes is None for rc in inputs)
        return
    assert len(normalised) == 2  # rounds 2 and 3
    for r, pairs in zip((1, 2), normalised):
        received = {id(rc.global_prototypes) for rc in inputs[r * clients : (r + 1) * clients]}
        assert len(received) == 1
        rows = inputs[r * clients].global_prototypes
        assert rows.unit.shape == pairs.shape and pairs.shape[0] == 2
        assert rows.unit.tobytes() == real_unit_rows(pairs).unit.tobytes()



def test_server_phase_completes_against_one_pair_matrix(monkeypatch):
    """A server phase makes one ``semantic_complete`` call, which takes the
    unimodal prototypes in message order and completes each to the bits of
    the per-prototype form."""
    config = tiny_config()
    experiment = setup_experiment(config)
    rc = ClientRoundConfig.from_experiment(config, 1)
    messages = [client_round(s, rc)[1] for s in experiment.clients]
    calls, real_complete = [], federation.semantic_complete

    def complete_spy(unimodal, mm_pairs, top_o):
        calls.append((unimodal, top_o, real_complete(unimodal, mm_pairs, top_o)))
        return calls[-1][2]

    monkeypatch.setattr(federation, "semantic_complete", complete_spy)
    federation._aggregate_prototypes(messages, config, 1)
    mm_pairs = [p for m in messages for p in m.pair_prototypes or ()]
    unimodal = [p for m in messages for p in m.label_prototypes or ()]
    assert {p.modality for p in unimodal} == {"image", "text"}
    ((sent, top_o, completed),) = calls
    assert [id(uni) for uni in sent] == [id(p) for p in unimodal]
    assert top_o == min(config.completion_top_o, len(mm_pairs))
    for uni, got in zip(unimodal, completed, strict=True):
        want = list_semantic_complete(uni, mm_pairs, top_o)
        assert got.image_vec.tobytes() == want.image_vec.tobytes()
        assert got.text_vec.tobytes() == want.text_vec.tobytes()

@pytest.mark.parametrize("method", ["apromfl", "local", "fediot"])
def test_only_fediot_uploads_heads_and_shares_their_mean(monkeypatch, method):
    """Under fediot each unimodal message carries its head, and every
    unimodal client adopts the uniform mean of its modality's uploaded heads,
    bit for bit. No other method uploads a head."""
    sent = spy_client_rounds(monkeypatch)
    result = run_training(tiny_config(method=method, rounds=1))
    unimodal = [(s.modality, m) for s, _, m in sent if isinstance(s, UnimodalClientState)]
    assert unimodal
    if method != "fediot":
        assert not any(part.endswith(" head") for _, _, m in sent for part in m.module_params)
        return
    for modality, m in unimodal:
        assert set(m.module_params) == {modality, f"{modality} head"}
    for modality in ("image", "text"):
        heads = np.stack(
            [m.module_params[f"{modality} head"] for mod, m in unimodal if mod == modality]
        )
        mean = np.full(len(heads), 1.0 / len(heads)) @ heads
        for state in result.experiment.clients:
            if getattr(state, "modality", None) == modality:
                assert state.models[f"{modality} head"].params.tobytes() == mean.tobytes()


def round_models(state) -> list:
    """Every model a client state holds: its models, then any private
    clustering pair."""
    return [*state.models.values(), *getattr(state, "cluster", ())]


@pytest.mark.parametrize("method", ["apromfl", "local", "fediot"])
def test_round_writes_no_shared_model_and_returns_private_frozen_ones(monkeypatch, method):
    """Set-up hands every client the same initial models (which also seed the
    clustering models); training in place must copy them first."""
    starts, snapshots, returned = [], [], []
    real_setup, real_round = federation.setup_experiment, federation.client_round

    def setup(config):
        experiment = real_setup(config)
        starts.extend(experiment.clients)
        snapshots.extend([m.params.tobytes() for m in round_models(s)] for s in starts)
        return experiment

    def client_round_spy(state, rc):
        result = real_round(state, rc)
        returned.append(result[0])
        return result

    monkeypatch.setattr(federation, "setup_experiment", setup)
    monkeypatch.setattr(federation, "client_round", client_round_spy)
    run_training(tiny_config(method=method, rounds=1))

    mm = [s for s in starts if isinstance(s, MultimodalClientState)]
    assert mm[0].models["image"] is mm[1].models["image"] is mm[0].cluster[0]
    for state, before in zip(starts, snapshots):
        assert [m.params.tobytes() for m in round_models(state)] == before
    assert len(returned) == len(starts)
    for i, state in enumerate(returned):
        for model in round_models(state):
            assert not model.params.flags.writeable
            for other in returned[i + 1 :]:
                assert not any(
                    np.shares_memory(model.params, m.params) for m in round_models(other)
                )


def task_modules(state) -> dict:
    """A client's mapping modules by modality: its models but any head."""
    return {part: m for part, m in state.models.items() if not part.endswith(" head")}


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
    @pytest.mark.parametrize(
        "field, value",
        [
            ("tau", 0.0),
            ("distill_tau", 0.0),
            ("nu_max", 0.5),
            ("lmr_weight", -1.0),
            ("completion_top_o", 0),
            ("num_global_prototypes", 0),
        ],
    )
    def test_config_is_the_one_gate(self, monkeypatch, field, value):
        """No loss, prototype or k-means function checks these values: the
        run refuses them before set-up, naming the field."""

        def setup(config):
            raise AssertionError("set-up ran")

        monkeypatch.setattr(federation, "setup_experiment", setup)
        config = replace(tiny_config(), **{field: value})
        with pytest.raises(ValueError, match=f"^{field}: "):
            run_training(config)

    def test_unresolved_data_seed_follows_the_run_seed(self):
        config = tiny_config(seed=4, rounds=1)
        unresolved = replace(config, synthetic=replace(config.synthetic, seed=None))
        assert finalize_config(unresolved) == config
        assert strip_wall_time(run_training(unresolved).records) == strip_wall_time(
            run_training(config).records
        )

    @pytest.mark.parametrize(
        "workers, counts, pools",
        [(1, (2, 2, 1), []), (2, (2, 2, 1), [2]), (64, (2, 2, 1), [5]), (2, (1, 0, 0), [])],
    )
    def test_pool_never_outnumbers_the_clients(self, monkeypatch, workers, counts, pools):
        """A process pool forks all its workers at the first task, so it
        holds no more workers than there are clients, and a lone worker is
        no pool. The fake pool maps serially and starts no process."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, tasks):
                return map(fn, tasks)

            def shutdown(self):
                pass

        monkeypatch.setattr(federation, "ProcessPoolExecutor", SerialPool)
        m, i, t = counts
        kwargs = dict(rounds=1, clients_multimodal=m, clients_image=i, clients_text=t)
        pooled = run_training(tiny_config(workers=workers, **kwargs))
        assert sizes == pools
        serial = run_training(tiny_config(**kwargs))
        assert strip_wall_time(pooled.records) == strip_wall_time(serial.records)

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
        # drive the same clients by hand, never with any global input
        experiment = setup_experiment(cfg)
        states = list(experiment.clients)
        for round_index in range(1, 4):
            rc = ClientRoundConfig.from_experiment(cfg, round_index)
            states = [client_round(s, rc)[0] for s in states]
        for ran, manual in zip(result.experiment.clients, states):
            if isinstance(ran, UnimodalClientState):
                assert np.array_equal(
                    flatten_module(ran.models[ran.modality]),
                    flatten_module(manual.models[manual.modality]),
                )
            else:
                assert np.array_equal(
                    flatten_module(ran.models["image"]), flatten_module(manual.models["image"])
                )
                assert np.array_equal(
                    flatten_module(ran.models["text"]), flatten_module(manual.models["text"])
                )

    def test_apromfl_broadcast_replaces_modules(self):
        cfg = tiny_config(method="apromfl", rounds=1)
        result = run_training(cfg)
        assert result.experiment.global_prototypes is not None
        # recompute the round-1 uploads by hand: after the server phase each
        # client holds its own row of the relationship-graph aggregate
        rc = ClientRoundConfig.from_experiment(cfg, 1)
        uploaded = [task_modules(client_round(s, rc)[0]) for s in setup_experiment(cfg).clients]
        for modality in ("image", "text"):
            ids = [i for i, mods in enumerate(uploaded) if modality in mods]
            modules = [uploaded[i][modality] for i in ids]
            expected = aggregate_modules(relationship_weights(modules), modules)
            for i, module in zip(ids, expected):
                adopted = task_modules(result.experiment.clients[i])[modality]
                assert np.array_equal(adopted.params, module.params)

    def test_apromfl_server_keeps_every_part_it_did_not_send(self):
        """An apromfl server phase sends each client an aggregate of every
        part it uploaded and nothing else: a unimodal client keeps the very
        head its round returned, and a multimodal client its very clustering
        pair, while each uploaded part is replaced; the part order holds."""
        config = tiny_config(method="apromfl")
        experiment = setup_experiment(config)
        rc = ClientRoundConfig.from_experiment(config, 1)
        rounds = [client_round(s, rc) for s in experiment.clients]
        experiment.clients[:] = [state for state, _ in rounds]
        _server(experiment, [message for _, message in rounds], 1)
        for (returned, message), adopted in zip(rounds, experiment.clients, strict=True):
            assert list(adopted.models) == list(returned.models)
            for part, model in adopted.models.items():
                assert (model is returned.models[part]) == (part not in message.module_params)
            if isinstance(adopted, UnimodalClientState):
                head = f"{adopted.modality} head"
                assert adopted.models[head] is returned.models[head]
            else:
                assert adopted.cluster is returned.cluster

    @pytest.mark.parametrize("method", ["apromfl", "local", "fediot"])
    def test_only_apromfl_broadcasts_prototypes_and_distills(self, method):
        cfg = tiny_config(method=method, rounds=1)
        result = run_training(cfg)
        assert (result.experiment.global_prototypes is not None) == (method == "apromfl")
        assert not ClientRoundConfig.from_experiment(cfg, 1).distill
        assert ClientRoundConfig.from_experiment(cfg, 2).distill == (method == "apromfl")

    def test_no_multimodal_clients_still_runs(self):
        cfg = tiny_config(method="apromfl", clients_multimodal=0, clients_image=2, clients_text=2)
        result = run_training(cfg)
        # no pairs exist, so no global prototypes; aggregation still happens
        assert result.experiment.global_prototypes is None
        assert len(result.records) == cfg.rounds

    @pytest.mark.parametrize(
        "method, per_round, multimodal",
        [
            pytest.param("fediot", 2, 0, id="fediot-2"),
            pytest.param("apromfl", 4, 0, id="apromfl-4"),
            pytest.param("local", 4, 0, id="local-4"),
            pytest.param("fediot", 3, 2, id="fediot-3-multimodal"),
            pytest.param("apromfl", 6, 2, id="apromfl-6-multimodal"),
            pytest.param("local", 6, 2, id="local-6-multimodal"),
        ],
    )
    def test_each_distinct_model_is_evaluated_once_a_round(
        self, monkeypatch, method, per_round, multimodal
    ):
        """Under fediot every sender of a part holds the same model, so two
        image and two text clients make two evaluations a round, and two
        multimodal clients one more: they share the image module with the
        image clients but not the head. Each client's report is still its
        own evaluation's. Under apromfl and local every client holds its own
        models."""
        calls, real = [], federation.evaluate_client

        def counting(state, test):
            calls.append(state.client_id)
            return real(state, test)

        monkeypatch.setattr(federation, "evaluate_client", counting)
        kwargs = dict(clients_multimodal=multimodal, clients_image=2, clients_text=2)
        cfg = tiny_config(method=method, **kwargs)
        result = run_training(cfg)
        assert len(calls) == per_round * cfg.rounds
        reports = result.records[-1].reports
        for state in result.experiment.clients:
            assert reports[state.client_id] == real(state, result.experiment.test)

    def test_a_failing_shared_evaluation_names_its_first_holder(self, monkeypatch):
        def failing(state, test):
            raise ValueError("evaluation failed")

        monkeypatch.setattr(federation, "evaluate_client", failing)
        cfg = tiny_config(method="fediot", clients_multimodal=0, clients_image=2, clients_text=2)
        with pytest.raises(federation.RoundFailure) as failure:
            run_training(cfg)
        assert (failure.value.round_index, failure.value.client_id) == (1, 0)

    def test_evaluate_client_shapes(self):
        cfg = tiny_config(rounds=1)
        result = run_training(cfg)
        for state in result.experiment.clients:
            report = evaluate_client(state, result.experiment.test)
            if isinstance(state, UnimodalClientState):
                assert set(report.acc_at) == {1, 5}
            else:
                assert set(report.recall_i2t_at) == {1, 5}
