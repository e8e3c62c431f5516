"""Client state machines and the federated round loop.

Three methods share one client-side training path:

* ``apromfl`` - clients train with task + transfer losses, send prototypes
  and mapping modules; the server completes unimodal prototypes, clusters
  everything into K global pairs, and aggregates mapping modules per
  modality through the weights of a client-relationship graph (cosine
  similarity of flat parameters, clamped and row-normalised). Each client
  receives its own personalised aggregate, adopts it, and distills against
  it next round.
* ``local`` - the same client rounds with no exchange at all, so no
  transfer loss ever applies.
* ``fediot`` - no transfer losses; unimodal clients also send their
  classifier heads (one-layer modules), and the server uniformly averages
  each uploaded part per modality.

A client state keys its models by part (``"image"``, ``"text"``, or
``"<modality> head"``), and its message carries them as flat vectors under
the same names: every part, except that a head travels only under fediot.
A multimodal client's private clustering pair is held apart from its
models and never uploaded. One server function aggregates each part over
the clients that sent it, and each sender merges what it receives into its
models.

Randomness is keyed by (seed, client, round, purpose) substreams, never by
method or execution order, so round 1 is bit-identical across methods and
parallel client execution cannot change any result. Set-up lists the
clients in ascending id and every round keeps that order, so server
reductions iterate clients in ascending id. The round loop finalizes the
config once, before set-up: it resolves the data seed and validates, the
only argument gate. Below it only fault detectors raise, such as a client
round whose uploaded parameters are not finite.

A client round trains in place. Each run (a multimodal client's task
modules, its clustering modules, a unimodal client's module and head) copies
the models it trains once into one private workspace (``nn.trainable``): a
writable parameter buffer and a gradient buffer, with their views built
once. Each step writes the gradient buffer and steps the whole parameter
buffer once, and the round ends by freezing it; the frozen models a client
state holds (at set-up, every client shares the same initial ones) are
never written. Both kinds of client train in one loop with the same
transfer losses: a unimodal client's module and head, end to end in one
buffer, on cross-entropy; a multimodal client's two modules as one
``(2, P)`` stack on retrieval (one forward, backward and SGD call a step for
both towers) plus a regulariser. A step's embeddings and gradients are one
``(t, B, d)`` stack of the client's t towers, so each transfer loss, the
retrieval loss and the clustering objective run once a step for every
tower, and the distributions GMT distills toward are computed once a round. A round evaluates each
distinct model once (under fediot every sender of a part holds the same).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig, finalize_config
from .data import SyntheticDataset, assign_roles, generate, role_partition, train_eval_split
from .losses import (
    clustering_total_loss,
    cross_entropy_batch,
    gmt_loss_batch,
    gmt_targets,
    gpt_loss_batch,  # noqa: F401 - unused here; perfbench's tracer wraps it by name
    gpt_loss_paired_batch,
    lmr_loss,
    retrieval_task_loss,
    retrieval_task_value,
)
from .metrics import EvalReport, classification_report, retrieval_report
from .nn import (
    ForwardTrace,
    Gradient,
    MappingModule,
    Workspace,
    backward,
    backward_head,
    encode,
    flatten_module,
    forward_head,
    forward_map,
    forward_map_trace,
    freeze,
    init_classifier_head,
    init_mapping_module,
    make_projection_encoder,
    sgd_step,
    sgd_step_head,  # noqa: F401 - unused here; perfbench's tracer wraps it by name
    trainable,
    unflatten_module,
)
from .numerics import UnitRows, kmeans, require_finite, seeded_rng, unit_rows
from .prototypes import (
    GlobalPrototypeSet,
    PrototypePair,
    UnimodalPrototype,
    build_global_prototypes,
    clustering_prototype_pairs,
    fuse,
    label_guided_prototypes,
    pair_matrix,
    semantic_complete,
)

EVAL_KS = (1, 5)
LOSS_TERMS = ("task", "gpt", "gmt", "lmr")


# -- client state -------------------------------------------------------------


@dataclass(frozen=True)
class UnimodalClientState:
    client_id: int
    modality: str  # "image" | "text"
    #: ``{modality: module, f"{modality} head": head}``, the head one layer
    #: ``(embed_dim, num_classes)``; never mutated, replaced whole
    models: dict[str, MappingModule]
    features: np.ndarray  # frozen encoder outputs for the train split
    labels: np.ndarray


@dataclass(frozen=True)
class MultimodalClientState:
    client_id: int
    models: dict[str, MappingModule]  # {"image": ..., "text": ...}
    cluster: tuple[MappingModule, MappingModule]  # private (image, text), never uploaded
    image_features: np.ndarray
    text_features: np.ndarray


ClientState = UnimodalClientState | MultimodalClientState


@dataclass(frozen=True)
class RoundMessage:
    """What a client uploads: prototypes, flat model parameters by part
    (its mapping modules; under fediot a unimodal client's head too), and a
    loss summary. Private clustering models never appear here."""

    client_id: int
    label_prototypes: tuple[UnimodalPrototype, ...] | None
    pair_prototypes: tuple[PrototypePair, ...] | None
    module_params: dict[str, np.ndarray]
    loss_terms: dict[str, float]


@dataclass(frozen=True)
class ClientRoundConfig:
    """One round's input to every client: the run's config, the round index
    (part of the seeding contract) and the unit rows of the global prototype
    pairs the server built after the previous round, as one ``(2, K, d)``
    stack, image first. They are normalised once per round, and are ``None``
    when the prototype-transfer loss does not apply: before the first
    apromfl server phase, under every other method, and when ``beta1`` is 0."""

    config: ExperimentConfig
    round_index: int
    global_prototypes: UnitRows | None = None

    @classmethod
    def from_experiment(cls, config: ExperimentConfig, round_index: int) -> "ClientRoundConfig":
        return cls(config=config, round_index=round_index)

    @property
    def distill(self) -> bool:
        """Whether clients distill toward the mapping modules they start the
        round with. Under apromfl every client uploads its modules each round,
        so after any server phase every client holds its personalised
        aggregate."""
        return self.config.method == "apromfl" and self.round_index > 1


def _batches(order: np.ndarray, batch_size: int, min_size: int) -> list[np.ndarray]:
    slices = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    if len(slices) > 1 and len(slices[-1]) < min_size:
        slices[-2] = np.concatenate([slices[-2], slices[-1]])
        slices.pop()
    elif slices and len(slices[0]) < min_size:
        return []
    return slices


# -- client rounds -------------------------------------------------------------


@dataclass(frozen=True)
class _Towers:
    """A client's t mapping modules (its towers), trained together in one
    private workspace ``space``: each run is a model of it on its features.
    A multimodal client's image and text modules run as one ``(2, P)`` stack
    on ``(2, N, d)`` features when the two share their dims (always under
    projection encoders); otherwise each runs alone on its ``(N, d)``
    features (numpy's 2-D products cost less), the two end to end in the
    buffer. A unimodal client's module runs alone, its head the segment
    after it. Embeddings and their gradients are each one ``(t, N, d)``
    array, image first, so one :func:`unit_rows` call normalises every tower
    and each transfer loss runs once on them."""

    space: Workspace
    runs: tuple[tuple[MappingModule, Gradient, np.ndarray], ...]

    @classmethod
    def of(cls, space: Workspace, features) -> "_Towers":
        """The towers of ``space``: its first segments, each on its features."""
        return cls(space, tuple(zip(space.models, space.grads, features)))

    @classmethod
    def pair(cls, modules, features) -> "_Towers":
        """A multimodal client's two modules on their ``(N, d)`` features, as
        one stack when they share their dims."""
        if modules[0].dims == modules[1].dims:
            return cls.of(trainable(*modules), (np.stack(features),))
        return cls.of(trainable(tuple(modules)), features)

    def embed(self) -> np.ndarray:
        return np.concatenate([_tower_axis(forward_map(m, x)) for m, _, x in self.runs])

    def embed_trace(self, rows) -> tuple[np.ndarray, tuple[ForwardTrace, ...]]:
        if len(self.runs) == 1:  # every client under projection encoders
            ((module, _, x),) = self.runs
            emb, trace = forward_map_trace(module, x.take(rows, axis=-2))
            return _tower_axis(emb), (trace,)
        runs = [forward_map_trace(m, x.take(rows, axis=-2)) for m, _, x in self.runs]
        return np.concatenate([_tower_axis(e) for e, _ in runs]), tuple(t for _, t in runs)

    def descend(self, traces, grads: np.ndarray, lr: float, anchor=None, weight=0.0) -> float:
        """Backpropagate the ``(t, B, d)`` embedding gradients ``grads``
        through the runs into the workspace's gradient, with an ``anchor``
        (frozen towers of the same layout) adding run j's regulariser
        gradient toward ``anchor.runs[j]``, then step the whole workspace
        once (a head's gradient was written by the task loss). Returns the
        regulariser value, summed over the towers (0 without an anchor)."""
        parts = grads if len(grads) == len(self.runs) else (grads,)
        total = 0.0
        for j, ((module, out, _), trace, g) in enumerate(zip(self.runs, traces, parts)):
            grad = backward(module, trace, g, out)
            if anchor is not None:
                values, lmr_grad = lmr_loss(module, anchor.runs[j][0], weight)
                for value in values:
                    total += value
                grad += lmr_grad
        sgd_step(self.space, self.space.grad, lr)
        return total


def _tower_axis(embs: np.ndarray) -> np.ndarray:
    """``embs`` with a leading tower axis: a lone module's are ``(N, d)``."""
    return embs if embs.ndim == 3 else embs[None]


def _train_task(towers, rc, batch_rng, min_size, task_loss, anchor=None):
    """Every client's task training, the one training loop of both kinds of
    client: local epochs of SGD of its ``towers``' workspace, in place, on
    its task loss plus, once the server has broadcast them, the transfer
    losses toward the round-start embeddings (the targets), plus the
    regulariser toward ``anchor`` if given. Each batch makes one step of the
    whole workspace (a unimodal client's module and head together). Returns
    each term's mean.

    Every tower of a step is one ``(t, B, d)`` stack: each transfer loss
    runs once on it, and GMT distills toward the targets' distributions,
    computed once a round for all ``(t, N, d)`` rows and gathered per batch.
    ``task_loss(embs, batch, targets)`` returns the value on the
    ``(t, B, d)`` embeddings, their ``(t, B, d)`` gradient, their unit rows
    if it built them, and, once there are targets (the round's ``(t, N, d)``
    targets and their unit rows, else ``None``), the value alone on the
    batch of the targets (else ``None``). It writes the gradient of any
    model it reads besides the towers (a head) into that model's segment of
    the workspace, and reads the models as they were before the batch's
    step."""
    cfg = rc.config
    n = towers.runs[0][2].shape[-2]
    protos = rc.global_prototypes
    use_gmt = rc.distill and cfg.beta2 > 0
    targets = None
    if use_gmt:
        start = towers.embed()
        targets = start, unit_rows(start, "distillation targets")
        target_dists = gmt_targets(targets[1], cfg.distill_tau)
        gmt_weight = cfg.beta2 / len(start)
    values = []  # each step's loss terms
    for _ in range(cfg.local_epochs):
        for batch in _batches(batch_rng.permutation(n), cfg.batch_size, min_size):
            embs, traces = towers.embed_trace(batch)
            gpt_value = gmt_value = 0.0
            task, grads, rows, global_task = task_loss(embs, batch, targets)
            if rows is None and (protos is not None or use_gmt):
                rows = unit_rows(embs)
            if protos is not None:
                gpt_value, g = gpt_loss_paired_batch(rows, protos, cfg.tau)
                grads = grads + cfg.beta1 * g
            if use_gmt:
                target = target_dists.take(batch, axis=-2)
                gmt_value, g = gmt_loss_batch(
                    rows, target, task, global_task, cfg.nu_max, cfg.distill_tau
                )
                grads = grads + gmt_weight * g
            lmr_value = towers.descend(traces, grads, cfg.lr, anchor, cfg.lmr_weight)
            values.append((task, gpt_value, gmt_value, lmr_value))
    means = {}
    for i, name in enumerate(LOSS_TERMS):
        total = 0.0
        for step in values:
            total += step[i]
        means[name] = total / max(len(values), 1)
    return means


def _uploaded(models: dict[str, MappingModule], method: str) -> dict[str, np.ndarray]:
    """The flat parameters a client uploads, by part: each of its models, a
    head only under fediot."""
    return {
        part: flatten_module(m)
        for part, m in models.items()
        if method == "fediot" or not part.endswith(" head")
    }


def unimodal_client_round(
    state: UnimodalClientState, rc: ClientRoundConfig
) -> tuple[UnimodalClientState, RoundMessage]:
    """The task training of :func:`_train_task` on cross-entropy through the
    classifier head, which trains with the mapper in one workspace, then
    label-guided prototype extraction."""
    cfg = rc.config
    towers = _Towers.of(trainable(tuple(state.models.values())), (state.features,))
    head, head_grad, labels = towers.space.models[1], towers.space.grads[1], state.labels

    def cross_entropy(embs, batch, targets):
        global_task = None
        if targets is None:
            task, d_logits = cross_entropy_batch(forward_head(head, embs[0]), labels[batch])
        else:  # the batch and its targets, in one pass through the head
            pair = np.concatenate([embs, targets[0].take(batch, axis=-2)])
            task, d_logits, global_task = cross_entropy_batch(
                forward_head(head, pair), labels[batch]
            )
        return task, backward_head(head, embs[0], d_logits, head_grad)[1][None], None, global_task

    batch_rng = seeded_rng(cfg.seed, "client", state.client_id, "round", rc.round_index, "batches")
    terms = _train_task(towers, rc, batch_rng, 1, cross_entropy)
    models = dict(zip(state.models, freeze(towers.space)))
    protos = label_guided_prototypes(towers.embed()[0], labels, state.modality)
    params = _uploaded(models, cfg.method)
    message = RoundMessage(state.client_id, tuple(protos), None, params, terms)
    return replace(state, models=models), message


def multimodal_client_round(
    state: MultimodalClientState, rc: ClientRoundConfig
) -> tuple[MultimodalClientState, RoundMessage]:
    """(a) refresh the private clustering model on the clustering objective,
    re-deriving pseudo-labels each epoch, and build local prototype pairs;
    (b) the task training of :func:`_train_task` on retrieval, plus the
    regulariser tying it to the clustering model's modules."""
    cfg = rc.config
    n = len(state.image_features)
    k_local = min(cfg.num_global_prototypes, n)
    key = (cfg.seed, "client", state.client_id, "round", rc.round_index)
    features = (state.image_features, state.text_features)

    # (a) clustering model refresh (warm start from the previous round)
    cluster = _Towers.pair(state.cluster, features)
    cluster_rng = seeded_rng(*key, "cluster-batches")
    for epoch in range(cfg.local_epochs):
        e_img, e_txt = cluster.embed()
        pseudo = kmeans(fuse(e_img, e_txt), k_local, seeded_rng(*key, "kmeans", epoch))
        order = cluster_rng.permutation(n)
        for batch in _batches(order, cfg.batch_size, min_size=2):
            embs, traces = cluster.embed_trace(batch)
            grads = clustering_total_loss(unit_rows(embs), pseudo[batch], cfg.tau)
            cluster.descend(traces, grads, cfg.lr)
    e_img, e_txt = cluster.embed()
    pairs = clustering_prototype_pairs(e_img, e_txt, k_local, seeded_rng(*key, "kmeans", "final"))

    # (b) task model training
    def retrieval(embs, batch, targets):
        global_task = None
        if targets is not None:
            global_task = retrieval_task_value(targets[1].unit.take(batch, axis=-2), cfg.tau)
        rows = unit_rows(embs)
        task, grads = retrieval_task_loss(rows, cfg.tau)
        return task, grads, rows, global_task

    towers = _Towers.pair(tuple(state.models.values()), features)
    task_rng = seeded_rng(*key, "task-batches")
    terms = _train_task(towers, rc, task_rng, 2, retrieval, cluster)
    models = dict(zip(state.models, freeze(towers.space)))
    params = _uploaded(models, cfg.method)
    message = RoundMessage(state.client_id, None, tuple(pairs), params, terms)
    return replace(state, models=models, cluster=freeze(cluster.space)), message


@np.errstate(over="ignore", invalid="ignore")
def client_round(state: ClientState, rc: ClientRoundConfig):
    """One client's round. A diverged client fails here, naming its
    uploaded parameters, before any server phase reads them. An overflow
    raises no numpy warning: the finiteness detectors report it once."""
    if isinstance(state, UnimodalClientState):
        state, message = unimodal_client_round(state, rc)
    else:
        state, message = multimodal_client_round(state, rc)
    for flat in message.module_params.values():
        require_finite(flat, "module parameters")
    return state, message


def _client_round_task(args):
    return client_round(*args)


# -- relationship graph and aggregation ---------------------------------------


def relationship_weights(modules: list[MappingModule]) -> np.ndarray:
    """The ``(n, n)`` aggregation weights of the relationship graph: pairwise
    parameter-space cosine similarities with a unit diagonal, negatives
    clamped to zero, rows normalised (the diagonal keeps every row sum >= 1
    before normalisation)."""
    unit = unit_rows(np.stack([m.params for m in modules]), "module parameters").unit
    sim = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(sim, 1.0)
    clamped = np.maximum(sim, 0.0)
    return clamped / clamped.sum(axis=1, keepdims=True)


def aggregate_modules(weights: np.ndarray, modules: list[MappingModule]) -> list[MappingModule]:
    """Personalised aggregation: client i receives sum_j w_ij * theta_j."""
    flats = np.stack([m.params for m in modules])
    return [unflatten_module(m.dims, row @ flats) for m, row in zip(modules, weights)]


def fediot_aggregate(modules: list[MappingModule]) -> MappingModule:
    """One shared model (module or head): the uniform parameter mean (FedAvg
    semantics) of the received ones. It is the weighted-sum kernel of
    :func:`aggregate_modules`, so the two agree bit-for-bit under uniform
    weights."""
    uniform = np.full(len(modules), 1.0 / len(modules))
    return MappingModule(modules[0].dims, uniform @ np.stack([m.params for m in modules]))


# -- experiment setup ----------------------------------------------------------


@dataclass
class Experiment:
    config: ExperimentConfig
    clients: list[ClientState]
    test: SyntheticDataset  # the evaluation split, encoded
    #: the last apromfl server phase's global pairs; None before the first
    #: and when no multimodal client uploaded any pair
    global_prototypes: GlobalPrototypeSet | None = None


def _encoder_for(config: ExperimentConfig, modality: str, view_dim: int) -> np.ndarray | None:
    """The modality's projection matrix, or ``None`` for the identity."""
    if config.encoder_kind == "identity":
        return None
    # distinct per-modality encoder seeds derived from the run seed
    seed = config.seed * 2 + (0 if modality == "image" else 1)
    return make_projection_encoder(seed, view_dim, config.encoder_dim)


def _module_dims(config: ExperimentConfig, part: str) -> tuple[int, ...]:
    """Layer widths of every client's model for ``part``: a modality's
    mapping module, or its classifier head (``"<modality> head"``)."""
    if part.endswith(" head"):
        return (config.embed_dim, config.synthetic.num_classes)
    if config.encoder_kind == "identity":
        spec = config.synthetic
        in_dim = spec.image_dim if part == "image" else spec.text_dim
    else:
        in_dim = config.encoder_dim
    if config.mapping_layers == 1:
        return (in_dim, config.embed_dim)
    return (in_dim, config.hidden_dim, config.hidden_dim, config.embed_dim)


def setup_experiment(config: ExperimentConfig) -> Experiment:
    """Generate data, hold out the shared test split, partition the rest,
    encode everything once, and build client states with shared per-modality
    initial parameters (so aggregation starts from a common point)."""
    dataset = generate(config.synthetic)
    train, eval_set = train_eval_split(dataset, config.eval_fraction)
    plan = role_partition(
        train.labels,
        config.client_counts,
        config.alpha,
        seeded_rng(config.seed, "partition"),
        disjoint_classes=config.disjoint_role_classes,
    )
    roles = assign_roles(plan, config.client_counts)

    spec = config.synthetic
    image_encoder = _encoder_for(config, "image", spec.image_dim)
    text_encoder = _encoder_for(config, "text", spec.text_dim)
    init_mapper = {
        m: init_mapping_module(
            _module_dims(config, m), seeded_rng(config.seed, "init", "mapper", m)
        )
        for m in ("image", "text")
    }
    init_head = {
        m: init_classifier_head(
            config.embed_dim, spec.num_classes, seeded_rng(config.seed, "init", "head", m)
        )
        for m in ("image", "text")
    }

    clients: list[ClientState] = []
    for client_id, (kind, rows) in enumerate(roles):
        if kind == "multimodal":
            clients.append(
                MultimodalClientState(
                    client_id=client_id,
                    models=dict(init_mapper),
                    # clustering models start from the task-model init so the
                    # regulariser measures drift rather than an arbitrary init gap
                    cluster=(init_mapper["image"], init_mapper["text"]),
                    image_features=encode(image_encoder, train.images[rows]),
                    text_features=encode(text_encoder, train.texts[rows]),
                )
            )
        else:
            encoder, views = (
                (image_encoder, train.images) if kind == "image" else (text_encoder, train.texts)
            )
            clients.append(
                UnimodalClientState(
                    client_id=client_id,
                    modality=kind,
                    models={kind: init_mapper[kind], f"{kind} head": init_head[kind]},
                    features=encode(encoder, views[rows]),
                    labels=train.labels[rows],
                )
            )
    test = SyntheticDataset(
        encode(image_encoder, eval_set.images), encode(text_encoder, eval_set.texts), eval_set.labels
    )
    return Experiment(config=config, clients=clients, test=test)


# -- server phase ---------------------------------------------------------------


def _aggregate_prototypes(
    messages: list[RoundMessage], config: ExperimentConfig, round_index: int
) -> GlobalPrototypeSet | None:
    mm_pairs = [pair for msg in messages for pair in msg.pair_prototypes or ()]
    unimodal = [proto for msg in messages for proto in msg.label_prototypes or ()]
    completed: list[PrototypePair] = []
    if mm_pairs and unimodal:
        top_o = min(config.completion_top_o, len(mm_pairs))
        completed = semantic_complete(unimodal, mm_pairs, top_o)
    all_pairs = mm_pairs + completed
    if not all_pairs:
        return None
    k = min(config.num_global_prototypes, len(all_pairs))
    rng = seeded_rng(config.seed, "server", "round", round_index, "global-kmeans")
    return build_global_prototypes(all_pairs, k, rng)


def _server(experiment: Experiment, messages: list[RoundMessage], round_index: int) -> None:
    """One server phase. For each uploaded part, in order of first upload,
    the models of its senders (ascending id) are aggregated: under apromfl
    through the relationship graph, one personalised aggregate per sender,
    and under fediot as one shared uniform mean. Each sender adopts what it
    receives, merged into its models by part: a part it did not receive
    keeps its own model. Under apromfl the global prototypes are rebuilt
    too."""
    config = experiment.config
    apromfl = config.method == "apromfl"
    if apromfl:
        experiment.global_prototypes = _aggregate_prototypes(messages, config, round_index)
    received: dict[int, dict[str, MappingModule]] = {m.client_id: {} for m in messages}
    for part in dict.fromkeys(key for m in messages for key in m.module_params):
        senders = [m for m in messages if part in m.module_params]
        dims = _module_dims(config, part)
        modules = [unflatten_module(dims, m.module_params[part]) for m in senders]
        if apromfl:
            aggregated = aggregate_modules(relationship_weights(modules), modules)
        else:
            aggregated = [fediot_aggregate(modules)] * len(modules)
        for m, module in zip(senders, aggregated):
            received[m.client_id][part] = module
    for idx, state in enumerate(experiment.clients):
        experiment.clients[idx] = replace(state, models=state.models | received[state.client_id])


# -- evaluation and the round loop ----------------------------------------------


def evaluate_client(state: ClientState, test: SyntheticDataset) -> EvalReport:
    if isinstance(state, UnimodalClientState):
        feats = test.images if state.modality == "image" else test.texts
        mapper, head = state.models.values()
        logits = forward_head(head, forward_map(mapper, feats))
        return classification_report(logits, test.labels, ks=EVAL_KS)
    img = forward_map(state.models["image"], test.images)
    txt = forward_map(state.models["text"], test.texts)
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


class RoundFailure(RuntimeError):
    """A round, or the set-up before round 1, raised. Names the round (0 for
    set-up), the phase (``setup``, ``client round``, ``server`` or
    ``evaluation``) and the client where there is one, and carries the
    records of the rounds finished before it."""

    def __init__(
        self,
        round_index: int,
        phase: str,
        client_id: int | None,
        cause: Exception,
        records: list[RoundRecord],
    ):
        self.round_index = round_index
        self.phase = phase
        self.client_id = client_id
        self.message = str(cause)
        self.records = records
        where = f"{phase} failed in round {round_index}"
        if client_id is not None:
            where += f" on client {client_id}"
        super().__init__(f"{where}: {self.message}")

    def to_dict(self) -> dict:
        return {
            "round": self.round_index,
            "client": self.client_id,
            "phase": self.phase,
            "message": self.message,
        }


@contextmanager
def _located(round_index: int, phase: str, client_id: int | None, records: list[RoundRecord]):
    """Run the body as a located phase: a failure raises :class:`RoundFailure`,
    and an overflow raises no numpy warning before it (the finiteness
    detectors report a divergence once)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except Exception as err:  # noqa: BLE001 - any failure is reported with its place
        raise RoundFailure(round_index, phase, client_id, err, records) from err


def run_training(config: ExperimentConfig) -> TrainingRun:
    """Execute the full federated loop for the configured method.

    The config goes through ``finalize_config`` first, so an unresolved data
    seed follows the run seed. Raises ``ValueError`` naming the field if
    ``config`` is invalid, and :class:`RoundFailure` if set-up or a round
    fails. Client results are read in client order, so the failing client
    named is the first in that order for any ``workers`` value.
    """
    config = finalize_config(config)
    records: list[RoundRecord] = []
    with _located(0, "setup", None, records):
        experiment = setup_experiment(config)
    workers = min(config.workers, len(experiment.clients))  # no idle worker is forked
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for round_index in range(1, config.rounds + 1):
            start = time.perf_counter()
            rc = ClientRoundConfig.from_experiment(config, round_index)
            if experiment.global_prototypes is not None and config.beta1 > 0:
                pairs = pair_matrix(experiment.global_prototypes.pairs)
                rc = replace(rc, global_prototypes=unit_rows(pairs, "global prototypes"))
            tasks = [(state, rc) for state in experiment.clients]
            outcomes = (map if pool is None else pool.map)(_client_round_task, tasks)
            messages = []
            for idx, (state, _) in enumerate(tasks):
                with _located(round_index, "client round", state.client_id, records):
                    experiment.clients[idx], message = next(outcomes)
                messages.append(message)

            if config.method != "local":  # "local": no exchange at all
                with _located(round_index, "server", None, records):
                    _server(experiment, messages, round_index)

            # each distinct set of models (what evaluate_client reads) evaluated once
            reports, evaluated = {}, {}
            for c in experiment.clients:
                key = tuple(map(id, c.models.values()))
                if key not in evaluated:
                    with _located(round_index, "evaluation", c.client_id, records):
                        evaluated[key] = evaluate_client(c, experiment.test)
                reports[c.client_id] = evaluated[key]
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
