"""Client state machines and the federated round loop.

Three methods share one client-side training path:

* ``apromfl`` - clients train with task + transfer losses, send prototypes
  and mapping modules; the server completes unimodal prototypes, clusters
  everything into K global pairs, and aggregates mapping modules per
  modality through a client-relationship graph (cosine similarity of flat
  parameters, clamped and row-normalised). Each client receives its own
  personalised aggregate, adopts it, and distills against it next round.
* ``local`` - the same client rounds with a forever-empty transfer context
  and no exchange at all.
* ``fediot`` - empty transfer context; the server uniformly averages
  mapping modules (and classifier heads) per modality.

Randomness is keyed by (seed, client, round, purpose) substreams, never by
method or execution order, so round 1 is bit-identical across methods and
parallel client execution cannot change any result. Server reductions
iterate clients in ascending id.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .data import assign_roles, generate, role_partition, train_eval_split
from .losses import (
    TransferContext,
    clustering_total_loss,
    cross_entropy_batch,
    gmt_loss_batch,
    gpt_loss_batch,
    gpt_loss_paired_batch,
    lmr_loss,
    retrieval_task_loss,
)
from .metrics import EvalReport, classification_report, retrieval_report
from .nn import (
    ClassifierHead,
    Encoder,
    MappingModule,
    backward,
    backward_head,
    encode,
    flatten_module,
    forward_head,
    forward_map,
    forward_map_trace,
    init_classifier_head,
    init_mapping_module,
    make_projection_encoder,
    same_architecture,
    sgd_step,
    sgd_step_head,
    unflatten_module,
)
from .numerics import ClusterAssignment, cosine_similarity, kmeans, require_finite, seeded_rng
from .prototypes import (
    GlobalPrototypeSet,
    PrototypePair,
    UnimodalPrototype,
    build_global_prototypes,
    clustering_prototype_pairs,
    label_guided_prototypes,
    semantic_complete,
)

EVAL_KS = (1, 5)
LOSS_TERMS = ("task", "gpt", "gmt", "lmr")


# -- client state -------------------------------------------------------------


@dataclass(frozen=True)
class UnimodalClientState:
    client_id: int
    modality: str  # "image" | "text"
    encoder: Encoder
    mapper: MappingModule
    head: ClassifierHead
    features: np.ndarray  # frozen encoder outputs for the train split
    labels: np.ndarray

    @property
    def kind(self) -> str:
        return self.modality


@dataclass(frozen=True)
class MultimodalClientState:
    client_id: int
    image_encoder: Encoder
    text_encoder: Encoder
    image_mapper: MappingModule
    text_mapper: MappingModule
    cluster_image_mapper: MappingModule  # private, never transmitted
    cluster_text_mapper: MappingModule
    image_features: np.ndarray
    text_features: np.ndarray

    @property
    def kind(self) -> str:
        return "multimodal"


ClientState = UnimodalClientState | MultimodalClientState


@dataclass(frozen=True)
class RoundMessage:
    """What a client uploads: prototypes, flat mapping-module parameters,
    and a loss summary. Private clustering models never appear here."""

    client_id: int
    kind: str
    label_prototypes: tuple[UnimodalPrototype, ...] | None
    pair_prototypes: tuple[PrototypePair, ...] | None
    module_params: dict[str, np.ndarray]
    task_loss: float
    loss_terms: dict[str, float]


def validate_message(msg: RoundMessage) -> None:
    """Structural invariants on an outbound message."""
    if msg.kind in ("image", "text"):
        if msg.label_prototypes is None or msg.pair_prototypes is not None:
            raise ValueError("unimodal messages carry labelled prototypes only")
        if set(msg.module_params) != {msg.kind}:
            raise ValueError("unimodal messages carry exactly their own module")
    elif msg.kind == "multimodal":
        if msg.pair_prototypes is None or msg.label_prototypes is not None:
            raise ValueError("multimodal messages carry prototype pairs only")
        if set(msg.module_params) != {"image", "text"}:
            raise ValueError("multimodal messages carry both task modules")
    else:
        raise ValueError(f"bad message kind {msg.kind!r}")
    for flat in msg.module_params.values():
        require_finite(flat, "module parameters")


@dataclass(frozen=True)
class ClientRoundConfig:
    """Per-round training knobs plus the seeding contract inputs."""

    seed: int
    round_index: int
    epochs: int
    lr: float
    batch_size: int
    beta1: float
    beta2: float
    lmr_weight: float
    local_clusters: int

    @classmethod
    def from_experiment(cls, config: ExperimentConfig, round_index: int) -> "ClientRoundConfig":
        return cls(
            seed=config.seed,
            round_index=round_index,
            epochs=config.local_epochs,
            lr=config.lr,
            batch_size=config.batch_size,
            beta1=config.beta1,
            beta2=config.beta2,
            lmr_weight=config.lmr_weight,
            local_clusters=config.num_global_prototypes,
        )


def _batches(order: np.ndarray, batch_size: int, min_size: int) -> list[np.ndarray]:
    slices = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    if len(slices) > 1 and len(slices[-1]) < min_size:
        slices[-2] = np.concatenate([slices[-2], slices[-1]])
        slices.pop()
    elif slices and len(slices[0]) < min_size:
        return []
    return slices


class _LossMeter:
    def __init__(self):
        self.sums = dict.fromkeys(LOSS_TERMS, 0.0)
        self.steps = 0

    def add(self, **terms: float):
        for name, value in terms.items():
            self.sums[name] += value
        self.steps += 1

    def means(self) -> dict[str, float]:
        if self.steps == 0:
            return dict.fromkeys(LOSS_TERMS, 0.0)
        return {name: self.sums[name] / self.steps for name in LOSS_TERMS}


# -- client rounds -------------------------------------------------------------


def unimodal_client_round(
    state: UnimodalClientState, ctx: TransferContext, rc: ClientRoundConfig
) -> tuple[UnimodalClientState, RoundMessage]:
    """Local epochs of minibatch SGD on cross-entropy plus (when the context
    carries global artifacts) the prototype- and model-transfer losses, then
    label-guided prototype extraction."""
    mapper, head = state.mapper, state.head
    feats, labels = state.features, state.labels
    n = len(labels)
    use_gpt = ctx.global_prototypes is not None and rc.beta1 > 0
    global_mapper = ctx.module_for(state.modality)
    use_gmt = global_mapper is not None and rc.beta2 > 0
    if use_gpt:
        img_protos = ctx.global_prototypes.image_matrix()
        txt_protos = ctx.global_prototypes.text_matrix()
    meter = _LossMeter()
    batch_rng = seeded_rng(rc.seed, "client", state.client_id, "round", rc.round_index, "batches")
    for _ in range(rc.epochs):
        order = batch_rng.permutation(n)
        for batch in _batches(order, rc.batch_size, min_size=1):
            x, y = feats[batch], labels[batch]
            emb, trace = forward_map_trace(mapper, x)
            logits = forward_head(head, emb)
            task, d_logits = cross_entropy_batch(logits, y)
            head_grad, d_emb = backward_head(head, emb, d_logits)
            gpt_value = gmt_value = 0.0
            if use_gpt:
                gpt_value, grad = gpt_loss_batch(emb, img_protos, txt_protos, ctx.tau)
                d_emb = d_emb + rc.beta1 * grad
            if use_gmt:
                global_emb = forward_map(global_mapper, x)
                global_task = cross_entropy_batch(forward_head(head, global_emb), y)[0]
                gmt_value, grad = gmt_loss_batch(emb, global_emb, task, global_task, ctx)
                d_emb = d_emb + rc.beta2 * grad
            grad, _ = backward(mapper, trace, d_emb)
            mapper = sgd_step(mapper, grad, rc.lr)
            head = sgd_step_head(head, head_grad, rc.lr)
            meter.add(task=task, gpt=gpt_value, gmt=gmt_value, lmr=0.0)
    terms = meter.means()
    protos = label_guided_prototypes(
        forward_map(mapper, feats), labels, modality=state.modality, client_id=state.client_id
    )
    message = RoundMessage(
        client_id=state.client_id,
        kind=state.modality,
        label_prototypes=tuple(protos),
        pair_prototypes=None,
        module_params={state.modality: flatten_module(mapper)},
        task_loss=terms["task"],
        loss_terms=terms,
    )
    validate_message(message)
    return replace(state, mapper=mapper, head=head), message


def multimodal_client_round(
    state: MultimodalClientState, ctx: TransferContext, rc: ClientRoundConfig
) -> tuple[MultimodalClientState, RoundMessage]:
    """(a) refresh the private clustering model on the clustering objective,
    re-deriving pseudo-labels each epoch, and build local prototype pairs;
    (b) train the task model on retrieval + transfer losses plus the
    regulariser tying it to the clustering model's modules."""
    xi, xt = state.image_features, state.text_features
    n = len(xi)
    k_local = max(1, min(rc.local_clusters, n))
    key = (rc.seed, "client", state.client_id, "round", rc.round_index)

    # (a) clustering model refresh (warm start from the previous round)
    c_img, c_txt = state.cluster_image_mapper, state.cluster_text_mapper
    cluster_rng = seeded_rng(*key, "cluster-batches")
    for epoch in range(rc.epochs):
        fused = (forward_map(c_img, xi) + forward_map(c_txt, xt)) / 2.0
        pseudo, _ = kmeans_labels(fused, k_local, seeded_rng(*key, "kmeans", epoch))
        order = cluster_rng.permutation(n)
        for batch in _batches(order, rc.batch_size, min_size=2):
            sub = pseudo.restrict(batch)
            e_img, tr_img = forward_map_trace(c_img, xi[batch])
            e_txt, tr_txt = forward_map_trace(c_txt, xt[batch])
            _, g_img, g_txt = clustering_total_loss(e_img, e_txt, sub, ctx.tau)
            c_img = sgd_step(c_img, backward(c_img, tr_img, g_img)[0], rc.lr)
            c_txt = sgd_step(c_txt, backward(c_txt, tr_txt, g_txt)[0], rc.lr)
    pairs, _ = clustering_prototype_pairs(
        forward_map(c_img, xi), forward_map(c_txt, xt), k_local, seeded_rng(*key, "kmeans", "final")
    )

    # (b) task model training
    mapper_img, mapper_txt = state.image_mapper, state.text_mapper
    use_gpt = ctx.global_prototypes is not None and rc.beta1 > 0
    use_gmt = ctx.image_module is not None and ctx.text_module is not None and rc.beta2 > 0
    if use_gpt:
        img_protos = ctx.global_prototypes.image_matrix()
        txt_protos = ctx.global_prototypes.text_matrix()
    meter = _LossMeter()
    task_rng = seeded_rng(*key, "task-batches")
    for _ in range(rc.epochs):
        order = task_rng.permutation(n)
        for batch in _batches(order, rc.batch_size, min_size=2):
            e_img, tr_img = forward_map_trace(mapper_img, xi[batch])
            e_txt, tr_txt = forward_map_trace(mapper_txt, xt[batch])
            task, g_img, g_txt = retrieval_task_loss(e_img, e_txt, ctx.tau)
            gpt_value = gmt_value = 0.0
            if use_gpt:
                gpt_value, a_img, a_txt = gpt_loss_paired_batch(
                    e_img, e_txt, img_protos, txt_protos, ctx.tau
                )
                g_img = g_img + rc.beta1 * a_img
                g_txt = g_txt + rc.beta1 * a_txt
            if use_gmt:
                ge_img = forward_map(ctx.image_module, xi[batch])
                ge_txt = forward_map(ctx.text_module, xt[batch])
                global_task = retrieval_task_loss(ge_img, ge_txt, ctx.tau)[0]
                v_img, a_img = gmt_loss_batch(e_img, ge_img, task, global_task, ctx)
                v_txt, a_txt = gmt_loss_batch(e_txt, ge_txt, task, global_task, ctx)
                gmt_value = 0.5 * (v_img + v_txt)
                g_img = g_img + 0.5 * rc.beta2 * a_img
                g_txt = g_txt + 0.5 * rc.beta2 * a_txt
            lmr_img, lmr_grad_img = lmr_loss(mapper_img, c_img, rc.lmr_weight)
            lmr_txt, lmr_grad_txt = lmr_loss(mapper_txt, c_txt, rc.lmr_weight)
            grad_img, _ = backward(mapper_img, tr_img, g_img)
            grad_txt, _ = backward(mapper_txt, tr_txt, g_txt)
            grad_img += lmr_grad_img
            grad_txt += lmr_grad_txt
            mapper_img = sgd_step(mapper_img, grad_img, rc.lr)
            mapper_txt = sgd_step(mapper_txt, grad_txt, rc.lr)
            meter.add(task=task, gpt=gpt_value, gmt=gmt_value, lmr=lmr_img + lmr_txt)
    terms = meter.means()
    message = RoundMessage(
        client_id=state.client_id,
        kind="multimodal",
        label_prototypes=None,
        pair_prototypes=tuple(pairs),
        module_params={
            "image": flatten_module(mapper_img),
            "text": flatten_module(mapper_txt),
        },
        task_loss=terms["task"],
        loss_terms=terms,
    )
    validate_message(message)
    return (
        replace(
            state,
            image_mapper=mapper_img,
            text_mapper=mapper_txt,
            cluster_image_mapper=c_img,
            cluster_text_mapper=c_txt,
        ),
        message,
    )


def kmeans_labels(points, k, rng):
    """kmeans wrapped into a ClusterAssignment (helper for client rounds)."""
    labels, centroids = kmeans(points, k, rng)
    return ClusterAssignment.from_labels(labels), centroids


def client_round(state: ClientState, ctx: TransferContext, rc: ClientRoundConfig):
    if isinstance(state, UnimodalClientState):
        return unimodal_client_round(state, ctx, rc)
    return multimodal_client_round(state, ctx, rc)


def _client_round_task(args):
    return client_round(*args)


# -- relationship graph and aggregation ---------------------------------------


@dataclass(frozen=True)
class RelationshipGraph:
    """Pairwise parameter-space cosine similarities and the derived
    row-normalised aggregation weights (negatives clamped to zero; the unit
    diagonal keeps every row sum >= 1 before normalisation)."""

    modality: str
    sim: np.ndarray
    weights: np.ndarray


def _stack_params(modules: list[MappingModule]) -> np.ndarray:
    """(n, P) stack of the modules' parameters; they must share one architecture."""
    if not modules:
        raise ValueError("need at least one module")
    first = modules[0]
    for m in modules[1:]:
        if not same_architecture(first, m):
            raise ValueError(f"architecture mismatch: {first.dims} vs {m.dims}")
    return np.stack([m.params for m in modules])


def relationship_weights(modules: list[MappingModule], modality: str = "image") -> RelationshipGraph:
    flats = _stack_params(modules)
    n = len(flats)
    sim = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            sim[i, j] = sim[j, i] = cosine_similarity(flats[i], flats[j])
    clamped = np.maximum(sim, 0.0)
    weights = clamped / clamped.sum(axis=1, keepdims=True)
    return RelationshipGraph(modality=modality, sim=sim, weights=weights)


def aggregate_modules(graph: RelationshipGraph, modules: list[MappingModule]) -> list[MappingModule]:
    """Personalised aggregation: client i receives sum_j w_ij * theta_j."""
    if graph.weights.shape != (len(modules), len(modules)):
        raise ValueError("graph was not built over these modules")
    flats = _stack_params(modules)
    return [unflatten_module(m.dims, row @ flats) for m, row in zip(modules, graph.weights)]


def fediot_aggregate(modules: list[MappingModule]) -> MappingModule:
    """Uniform parameter mean (FedAvg semantics), one shared module.

    Computed through the same weighted-sum kernel as
    :func:`aggregate_modules` so the two agree bit-for-bit under uniform
    weights.
    """
    flats = _stack_params(modules)
    uniform = np.full(len(modules), 1.0 / len(modules))
    return unflatten_module(modules[0].dims, uniform @ flats)


def _average_heads(heads: list[ClassifierHead]) -> ClassifierHead:
    return ClassifierHead(heads[0].dims, np.mean([h.params for h in heads], axis=0))


# -- experiment setup ----------------------------------------------------------


@dataclass(frozen=True)
class TestBundle:
    image_features: np.ndarray
    text_features: np.ndarray
    labels: np.ndarray


@dataclass
class Experiment:
    config: ExperimentConfig
    clients: list[ClientState]
    contexts: list[TransferContext]
    test: TestBundle


def _encoder_for(config: ExperimentConfig, modality: str, view_dim: int) -> Encoder:
    if config.encoder_kind == "identity":
        return Encoder(kind="identity")
    # distinct per-modality encoder seeds derived from the run seed
    seed = config.seed * 2 + (0 if modality == "image" else 1)
    return make_projection_encoder(seed, view_dim, config.encoder_dim)


def _module_dims(config: ExperimentConfig, modality: str) -> tuple[int, ...]:
    """Layer widths of every client's mapping module for ``modality``."""
    if config.encoder_kind == "identity":
        spec = config.synthetic
        in_dim = spec.image_dim if modality == "image" else spec.text_dim
    else:
        in_dim = config.encoder_dim
    if config.mapping_layers == 1:
        return (in_dim, config.embed_dim)
    return (in_dim, config.hidden_dim, config.hidden_dim, config.embed_dim)


def _empty_context(config: ExperimentConfig) -> TransferContext:
    return TransferContext(
        tau=config.tau, nu_max=config.nu_max, distill_tau=config.distill_tau
    )


def setup_experiment(config: ExperimentConfig) -> Experiment:
    """Generate data, hold out the shared test split, partition the rest,
    encode everything once, and build client states with shared per-modality
    initial parameters (so aggregation starts from a common point)."""
    dataset = generate(config.synthetic)
    train, eval_set = train_eval_split(dataset, config.eval_fraction)
    if len(eval_set) == 0:
        raise ValueError(
            "empty evaluation split; raise eval_fraction or samples_per_class"
        )
    plan = role_partition(
        train.labels,
        config.client_counts,
        config.alpha,
        seeded_rng(config.seed, "partition"),
        disjoint_classes=config.disjoint_role_classes,
    )
    client_data = assign_roles(train, plan, config.client_counts)

    spec = config.synthetic
    image_encoder = _encoder_for(config, "image", spec.image_dim)
    text_encoder = _encoder_for(config, "text", spec.text_dim)
    init_mapper = {
        m: init_mapping_module(
            _module_dims(config, m), seeded_rng(config.seed, "init", "mapper", m)
        )
        for m in ("image", "text")
    }
    # clustering models start from the task-model init so the regulariser
    # measures drift rather than an arbitrary init gap
    init_cluster = init_mapper
    init_head = {
        m: init_classifier_head(
            config.embed_dim, spec.num_classes, seeded_rng(config.seed, "init", "head", m)
        )
        for m in ("image", "text")
    }

    clients: list[ClientState] = []
    for client_id, cd in enumerate(client_data):
        if cd.kind == "multimodal":
            clients.append(
                MultimodalClientState(
                    client_id=client_id,
                    image_encoder=image_encoder,
                    text_encoder=text_encoder,
                    image_mapper=init_mapper["image"],
                    text_mapper=init_mapper["text"],
                    cluster_image_mapper=init_cluster["image"],
                    cluster_text_mapper=init_cluster["text"],
                    image_features=encode(image_encoder, cd.image_views),
                    text_features=encode(text_encoder, cd.text_views),
                )
            )
        else:
            encoder = image_encoder if cd.kind == "image" else text_encoder
            views = cd.image_views if cd.kind == "image" else cd.text_views
            clients.append(
                UnimodalClientState(
                    client_id=client_id,
                    modality=cd.kind,
                    encoder=encoder,
                    mapper=init_mapper[cd.kind],
                    head=init_head[cd.kind],
                    features=encode(encoder, views),
                    labels=cd.labels,
                )
            )
    test = TestBundle(
        image_features=encode(image_encoder, eval_set.images),
        text_features=encode(text_encoder, eval_set.texts),
        labels=eval_set.labels,
    )
    contexts = [_empty_context(config) for _ in clients]
    return Experiment(config=config, clients=clients, contexts=contexts, test=test)


# -- server phase ---------------------------------------------------------------


def _aggregate_prototypes(
    messages: list[RoundMessage], config: ExperimentConfig, round_index: int
) -> GlobalPrototypeSet | None:
    mm_pairs: list[PrototypePair] = []
    for msg in messages:
        if msg.pair_prototypes:
            mm_pairs.extend(msg.pair_prototypes)
    completed: list[PrototypePair] = []
    if mm_pairs:
        top_o = min(config.completion_top_o, len(mm_pairs))
        for msg in messages:
            if msg.label_prototypes:
                completed.extend(
                    semantic_complete(proto, mm_pairs, top_o) for proto in msg.label_prototypes
                )
    all_pairs = mm_pairs + completed
    if not all_pairs:
        return None
    k = min(config.num_global_prototypes, len(all_pairs))
    rng = seeded_rng(config.seed, "server", "round", round_index, "global-kmeans")
    return build_global_prototypes(all_pairs, k, rng, round_index=round_index)


def _received_modules(
    messages: list[RoundMessage], config: ExperimentConfig, modality: str
) -> tuple[list[int], list[MappingModule]]:
    """Ids of the clients that uploaded a ``modality`` module, and the modules."""
    dims = _module_dims(config, modality)
    senders = [m for m in messages if modality in m.module_params]
    return (
        [m.client_id for m in senders],
        [unflatten_module(dims, m.module_params[modality]) for m in senders],
    )


def _apromfl_server(
    experiment: Experiment, messages: list[RoundMessage], round_index: int
) -> None:
    config = experiment.config
    global_set = _aggregate_prototypes(messages, config, round_index)
    personalized: dict[int, dict[str, MappingModule]] = {m.client_id: {} for m in messages}
    for modality in ("image", "text"):
        ids, modules = _received_modules(messages, config, modality)
        if not ids:
            continue
        graph = relationship_weights(modules, modality=modality)
        for cid, aggregated in zip(ids, aggregate_modules(graph, modules)):
            personalized[cid][modality] = aggregated

    broadcast = replace(_empty_context(config), global_prototypes=global_set)
    for idx, state in enumerate(experiment.clients):
        mods = personalized.get(state.client_id, {})
        if isinstance(state, UnimodalClientState):
            new_mapper = mods.get(state.modality, state.mapper)
            experiment.clients[idx] = replace(state, mapper=new_mapper)
            experiment.contexts[idx] = replace(
                broadcast, **{f"{state.modality}_module": new_mapper}
            )
        else:
            new_img = mods.get("image", state.image_mapper)
            new_txt = mods.get("text", state.text_mapper)
            experiment.clients[idx] = replace(state, image_mapper=new_img, text_mapper=new_txt)
            experiment.contexts[idx] = replace(
                broadcast, image_module=new_img, text_module=new_txt
            )


def _fediot_server(experiment: Experiment, messages: list[RoundMessage]) -> None:
    shared: dict[str, MappingModule] = {}
    for modality in ("image", "text"):
        _, modules = _received_modules(messages, experiment.config, modality)
        if modules:
            shared[modality] = fediot_aggregate(modules)
    shared_heads: dict[str, ClassifierHead] = {}
    for modality in ("image", "text"):
        heads = [
            c.head
            for c in experiment.clients
            if isinstance(c, UnimodalClientState) and c.modality == modality
        ]
        if heads:
            shared_heads[modality] = _average_heads(heads)
    for idx, state in enumerate(experiment.clients):
        if isinstance(state, UnimodalClientState):
            experiment.clients[idx] = replace(
                state,
                mapper=shared.get(state.modality, state.mapper),
                head=shared_heads.get(state.modality, state.head),
            )
        else:
            experiment.clients[idx] = replace(
                state,
                image_mapper=shared.get("image", state.image_mapper),
                text_mapper=shared.get("text", state.text_mapper),
            )


# -- evaluation and the round loop ----------------------------------------------


def evaluate_client(state: ClientState, test: TestBundle) -> EvalReport:
    if isinstance(state, UnimodalClientState):
        feats = test.image_features if state.modality == "image" else test.text_features
        logits = forward_head(state.head, forward_map(state.mapper, feats))
        return classification_report(logits, test.labels, ks=EVAL_KS)
    img = forward_map(state.image_mapper, test.image_features)
    txt = forward_map(state.text_mapper, test.text_features)
    return retrieval_report(img, txt, ks=EVAL_KS)


@dataclass(frozen=True)
class RoundRecord:
    """One completed federated round: metrics, loss summaries, timing."""

    round_index: int
    reports: dict[int, EvalReport]
    client_losses: dict[int, dict[str, float]]
    mean_losses: dict[str, float]
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "schema": "round-record/v1",
            "round_index": self.round_index,
            "reports": {str(cid): r.to_dict() for cid, r in self.reports.items()},
            "client_losses": {str(cid): dict(v) for cid, v in self.client_losses.items()},
            "mean_losses": dict(self.mean_losses),
            "wall_time": self.wall_time,
        }


@dataclass
class TrainingRun:
    records: list[RoundRecord]
    experiment: Experiment


def run_training(config: ExperimentConfig) -> TrainingRun:
    """Execute the full federated loop for the configured method."""
    experiment = setup_experiment(config)
    records: list[RoundRecord] = []
    pool = ProcessPoolExecutor(max_workers=config.workers) if config.workers > 1 else None
    try:
        for round_index in range(1, config.rounds + 1):
            start = time.perf_counter()
            rc = ClientRoundConfig.from_experiment(config, round_index)
            tasks = [
                (state, ctx, rc) for state, ctx in zip(experiment.clients, experiment.contexts)
            ]
            if pool is not None:
                results = list(pool.map(_client_round_task, tasks))
            else:
                results = [_client_round_task(t) for t in tasks]
            messages = []
            for idx, (new_state, message) in enumerate(results):
                experiment.clients[idx] = new_state
                messages.append(message)
            messages.sort(key=lambda m: m.client_id)

            if config.method == "apromfl":
                _apromfl_server(experiment, messages, round_index)
            elif config.method == "fediot":
                _fediot_server(experiment, messages)
            # "local": no exchange at all

            reports = {c.client_id: evaluate_client(c, experiment.test) for c in experiment.clients}
            client_losses = {m.client_id: dict(m.loss_terms) for m in messages}
            mean_losses = {
                term: float(np.mean([m.loss_terms[term] for m in messages]))
                for term in LOSS_TERMS
            }
            records.append(
                RoundRecord(
                    round_index=round_index,
                    reports=reports,
                    client_losses=client_losses,
                    mean_losses=mean_losses,
                    wall_time=time.perf_counter() - start,
                )
            )
    finally:
        if pool is not None:
            pool.shutdown()
    return TrainingRun(records=records, experiment=experiment)
