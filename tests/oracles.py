"""Independent brute-force oracles shared by the test modules.

These deliberately re-derive results through the dumbest possible route
(enumeration, loops, central finite differences) and never call the code
paths they check. The last sections hold the forms only tests use: the
per-step unimodal and per-tower multimodal client rounds, the single-sample
wrappers of the batched losses and a few reference reductions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from apromfl.federation import LOSS_TERMS, _batches
from apromfl.losses import (
    clustering_total_loss,
    cross_entropy_batch,
    gmt_loss_batch,
    gpt_loss_batch,
    gpt_loss_paired_batch,
    lmr_loss,
    retrieval_task_loss,
)
from apromfl.metrics import EvalReport, _hit_rate, _true_ranks
from apromfl.nn import (
    backward,
    backward_head,
    flatten_module,
    forward_head,
    forward_map,
    forward_map_trace,
    sgd_step,
    stack,
    trainable,
    unflatten_module,
)
from apromfl.numerics import (
    KL_EPS,
    KMEANS_RESTARTS,
    KMEANS_RESTARTS_SMALL,
    KMEANS_SMALL_N,
    UnitRows,
    kmeans,
    logsumexp,
    require_finite,
    seeded_rng,
    unit_rows,
)
from apromfl.prototypes import (
    WEIGHT_EPS,
    PrototypePair,
    clustering_prototype_pairs,
    fuse,
    label_guided_prototypes,
)


def exhaustive_kmeans_sse(points: np.ndarray, k: int) -> float:
    """Minimum SSE over every assignment of n points to k clusters."""
    points = np.asarray(points, dtype=float)
    best = np.inf
    for assign in itertools.product(range(k), repeat=len(points)):
        a = np.asarray(assign)
        sse = 0.0
        for c in range(k):
            members = points[a == c]
            if len(members):
                sse += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, sse)
    return best


def loop_kmeans(points, k: int, rng, max_iters: int = 100):
    """``numerics.kmeans`` in its loop form: each greedy k-means++ candidate
    is scored on its own, and each Lloyd centroid is the ``mean`` of its
    members. Returns ``(labels, centroids, history, repairs)``, where
    ``repairs`` counts the empty clusters the winning restart refilled."""
    pts = np.asarray(points, dtype=float)
    restarts = KMEANS_RESTARTS_SMALL if len(pts) <= KMEANS_SMALL_N else KMEANS_RESTARTS
    best = None
    for _ in range(restarts):
        result = _loop_lloyd(pts, _loop_kmeans_pp_init(pts, k, rng), max_iters)
        if best is None or result[2][-1] < best[2][-1]:
            best = result
    return best


def _loop_kmeans_pp_init(pts, k, rng):
    n = len(pts)
    n_candidates = 2 + int(np.log(k))
    centroids = np.empty((k, pts.shape[1]), dtype=float)
    centroids[0] = pts[int(rng.integers(n))]
    closest = ((pts - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total > 0:
            candidates = rng.choice(n, size=n_candidates, p=closest / total)
        else:
            candidates = np.asarray([int(rng.integers(n))])
        best_idx, best_potential = int(candidates[0]), np.inf
        for idx in candidates:
            potential = float(
                np.minimum(closest, ((pts - pts[int(idx)]) ** 2).sum(axis=1)).sum()
            )
            if potential < best_potential:
                best_idx, best_potential = int(idx), potential
        centroids[i] = pts[best_idx]
        closest = np.minimum(closest, ((pts - centroids[i]) ** 2).sum(axis=1))
    return centroids


def _loop_lloyd(pts, centroids, max_iters):
    n, k = len(pts), len(centroids)
    history, prev, repairs = [], None, 0
    assignments = np.zeros(n, dtype=int)
    for iteration in range(max_iters):
        diff = pts[:, None, :] - centroids[None, :, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        assignments = np.argmin(d2, axis=1)
        counts = np.bincount(assignments, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            movable = counts[assignments] > 1
            candidate = np.where(movable, d2[np.arange(n), assignments], -np.inf)
            worst = int(np.argmax(candidate))
            counts[assignments[worst]] -= 1
            assignments[worst] = empty
            counts[empty] = 1
            repairs += 1
        if iteration == 0:
            history.append(float(((pts - centroids[assignments]) ** 2).sum()))
        for c in range(k):
            centroids[c] = pts[assignments == c].mean(axis=0)
        history.append(float(((pts - centroids[assignments]) ** 2).sum()))
        if prev is not None and np.array_equal(assignments, prev):
            break
        prev = assignments.copy()
    return assignments, centroids, history, repairs


def list_semantic_complete(uni, mm_pairs, top_o: int) -> PrototypePair:
    """``prototypes.semantic_complete`` taking the list of multimodal pairs:
    it stacks and normalises the own-modality matrix for this one prototype."""
    own = np.stack([p.image_vec if uni.modality == "image" else p.text_vec for p in mm_pairs])
    other = np.stack([p.text_vec if uni.modality == "image" else p.image_vec for p in mm_pairs])
    unit = uni.vector / np.linalg.norm(uni.vector)
    sims = unit_rows(own, "multimodal prototypes").unit @ unit
    keep = np.argsort(-sims, kind="stable")[:top_o]
    weights = np.maximum(sims[keep], 0.0)
    total = weights.sum()
    weights = np.full(top_o, 1.0 / top_o) if total < WEIGHT_EPS else weights / total
    completed = weights @ other[keep]
    image_vec = uni.vector if uni.modality == "image" else completed
    text_vec = completed if uni.modality == "image" else uni.vector
    return PrototypePair(image_vec=image_vec, text_vec=text_vec)


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors, clipped into [-1, 1]: the
    pairwise form of the Gram matrix in ``federation.relationship_weights``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm input")
    return float(np.clip(float(a @ b) / (norm_a * norm_b), -1.0, 1.0))


def finite_difference(f, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.empty_like(x0)
    for i in range(x0.size):
        plus = x0.copy()
        plus[i] += h
        minus = x0.copy()
        minus[i] -= h
        grad[i] = (f(plus) - f(minus)) / (2.0 * h)
    return grad


def grad_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Scaled max-norm error: max|a-b| / max(1, |a|_inf, |b|_inf)."""
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    scale = max(1.0, float(np.abs(analytic).max(initial=0.0)), float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def fd_wrt_arrays(f, arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """FD gradients of f(*arrays) w.r.t. each array, preserving shapes."""
    shapes = [a.shape for a in arrays]
    sizes = [a.size for a in arrays]
    x0 = np.concatenate([a.ravel() for a in arrays])

    def unpack(x):
        out, pos = [], 0
        for shape, size in zip(shapes, sizes):
            out.append(x[pos : pos + size].reshape(shape))
            pos += size
        return out

    grad = finite_difference(lambda x: f(*unpack(x)), x0, h)
    return unpack(grad)


def fd_wrt_modules(loss_of_modules, modules: list, h: float = 1e-5) -> np.ndarray:
    """FD gradient over the concatenated flat parameters of several modules."""
    flats = [flatten_module(m) for m in modules]
    sizes = [f.size for f in flats]

    def f(x):
        rebuilt, pos = [], 0
        for template, size in zip(modules, sizes):
            rebuilt.append(unflatten_module(template.dims, x[pos : pos + size]))
            pos += size
        return loss_of_modules(rebuilt)

    return finite_difference(f, np.concatenate(flats), h)


def _unit_rows(embs) -> np.ndarray:
    embs = np.asarray(embs, dtype=float)
    return embs / np.linalg.norm(embs, axis=1, keepdims=True)


def intra_modal_loss(embs, labels, i: int, tau: float) -> float:
    """Contrastive loss of sample i against the samples sharing its
    pseudo-label, with the denominator running over all samples of the
    modality: the per-sample term that ``losses.intra_modal_total`` sums."""
    labels = np.asarray(labels)
    u = _unit_rows(embs)
    sims = u @ u[i] / tau
    return float(logsumexp(sims) - sims[labels == labels[i]].mean())


def inter_modal_loss(img_embs, txt_embs, labels, i: int, tau: float) -> float:
    """Cross-modal counterpart of :func:`intra_modal_loss`: image anchor i
    against the text embeddings sharing its pseudo-label, denominator over
    all text embeddings (the term ``losses.inter_modal_total`` sums)."""
    labels = np.asarray(labels)
    u, v = _unit_rows(img_embs), _unit_rows(txt_embs)
    sims = v @ u[i] / tau
    return float(logsumexp(sims) - sims[labels == labels[i]].mean())


def min_abs_preact(module, x) -> float:
    """Distance of the hidden pre-activations from the ReLU kink."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    worst = math.inf
    last = module.num_layers - 1
    for i, (w, b) in enumerate(zip(module.weights, module.biases)):
        z = h @ w + b
        if i != last:
            worst = min(worst, float(np.abs(z).min()))
            h = np.maximum(z, 0.0)
        else:
            h = z
    return worst


# -- the per-step client rounds ----------------------------------------------------


def per_step_unimodal_round(state, rc):
    """``federation.unimodal_client_round`` written out step by step on its
    own ``(N, d)`` features, before a unimodal client trained as a one-tower
    stack: a :func:`trainable` copy of the mapper and of the head, a
    cross-entropy step through the head, and every batch embeds its
    distillation targets itself.
    Returns ``(mapper, head, prototypes, loss_terms)``."""
    cfg = rc.config
    feats, labels = state.features, state.labels
    mapper, head = trainable(state.mapper), trainable(state.head)
    protos = rc.global_prototypes
    use_gmt = rc.distill and cfg.beta2 > 0
    sums, steps = dict.fromkeys(LOSS_TERMS, 0.0), 0
    batch_rng = seeded_rng(cfg.seed, "client", state.client_id, "round", rc.round_index, "batches")
    for _ in range(cfg.local_epochs):
        order = batch_rng.permutation(len(labels))
        for batch in _batches(order, cfg.batch_size, min_size=1):
            x, y = feats[batch], labels[batch]
            emb, trace = forward_map_trace(mapper, x)
            task, d_logits = cross_entropy_batch(forward_head(head, emb), y)
            head_grad, d_emb = backward_head(head, emb, d_logits)
            gpt_value = gmt_value = 0.0
            if protos is not None:
                gpt_value, grad = gpt_loss_batch(unit_rows(emb), protos, cfg.tau)
                d_emb = d_emb + cfg.beta1 * grad
            if use_gmt:
                target = forward_map(state.mapper, x)
                global_task = cross_entropy_batch(forward_head(head, target), y)[0]
                gmt_value, grad = gmt_loss_batch(
                    unit_rows(emb), unit_rows(target), task, global_task, cfg.nu_max,
                    cfg.distill_tau,
                )
                d_emb = d_emb + cfg.beta2 * grad
            sgd_step(mapper, backward(mapper, trace, d_emb), cfg.lr)
            sgd_step(head, head_grad, cfg.lr)
            for name, value in zip(LOSS_TERMS, (task, gpt_value, gmt_value, 0.0)):
                sums[name] += value
            steps += 1
    terms = {name: (sums[name] / steps if steps else 0.0) for name in LOSS_TERMS}
    prototypes = label_guided_prototypes(forward_map(mapper, feats), labels, state.modality)
    return mapper, head, prototypes, terms


# -- the per-tower multimodal client round ----------------------------------------


def per_tower_multimodal_round(state, rc):
    """``federation.multimodal_client_round`` as it ran before towers were
    stacked: each tower forwards, normalises, backpropagates and steps on its
    own (a :func:`trainable` copy per model, taken at round start), runs
    the regulariser on one-row stacks, and every batch embeds and normalises
    its distillation targets itself.
    Returns ``(modules, pairs, loss_terms)``, where ``modules`` maps
    ``image``, ``text``, ``cluster_image`` and ``cluster_text`` to the
    trained modules."""
    cfg = rc.config
    xi, xt = state.image_features, state.text_features
    n = len(xi)
    k_local = max(1, min(cfg.num_global_prototypes, n))
    key = (cfg.seed, "client", state.client_id, "round", rc.round_index)

    c_img, c_txt = trainable(state.cluster_image_mapper), trainable(state.cluster_text_mapper)
    cluster_rng = seeded_rng(*key, "cluster-batches")
    for epoch in range(cfg.local_epochs):
        fused = fuse(forward_map(c_img, xi), forward_map(c_txt, xt))
        pseudo, _, _ = kmeans(fused, k_local, seeded_rng(*key, "kmeans", epoch))
        order = cluster_rng.permutation(n)
        for batch in _batches(order, cfg.batch_size, min_size=2):
            e_img, tr_img = forward_map_trace(c_img, xi[batch])
            e_txt, tr_txt = forward_map_trace(c_txt, xt[batch])
            _, g_img, g_txt = clustering_total_loss(
                unit_rows(e_img), unit_rows(e_txt), pseudo[batch], cfg.tau
            )
            sgd_step(c_img, backward(c_img, tr_img, g_img), cfg.lr)
            sgd_step(c_txt, backward(c_txt, tr_txt, g_txt), cfg.lr)
    pairs, _ = clustering_prototype_pairs(
        forward_map(c_img, xi), forward_map(c_txt, xt), k_local, seeded_rng(*key, "kmeans", "final")
    )

    mapper_img, mapper_txt = trainable(state.image_mapper), trainable(state.text_mapper)
    protos = rc.global_prototypes
    use_gmt = rc.distill and cfg.beta2 > 0
    sums, steps = dict.fromkeys(LOSS_TERMS, 0.0), 0
    task_rng = seeded_rng(*key, "task-batches")
    for _ in range(cfg.local_epochs):
        order = task_rng.permutation(n)
        for batch in _batches(order, cfg.batch_size, min_size=2):
            e_img, tr_img = forward_map_trace(mapper_img, xi[batch])
            e_txt, tr_txt = forward_map_trace(mapper_txt, xt[batch])
            e_img, e_txt = unit_rows(e_img), unit_rows(e_txt)
            task, g_img, g_txt = retrieval_task_loss(e_img, e_txt, cfg.tau)
            gpt_value = gmt_value = 0.0
            if protos is not None:
                gpt_value, a_img, a_txt = gpt_loss_paired_batch(e_img, e_txt, protos, cfg.tau)
                g_img = g_img + cfg.beta1 * a_img
                g_txt = g_txt + cfg.beta1 * a_txt
            if use_gmt:
                ge_img = unit_rows(forward_map(state.image_mapper, xi[batch]))
                ge_txt = unit_rows(forward_map(state.text_mapper, xt[batch]))
                global_task = retrieval_task_loss(ge_img, ge_txt, cfg.tau)[0]
                v_img, a_img = gmt_loss_batch(
                    e_img, ge_img, task, global_task, cfg.nu_max, cfg.distill_tau
                )
                v_txt, a_txt = gmt_loss_batch(
                    e_txt, ge_txt, task, global_task, cfg.nu_max, cfg.distill_tau
                )
                gmt_value = 0.5 * (v_img + v_txt)
                g_img = g_img + 0.5 * cfg.beta2 * a_img
                g_txt = g_txt + 0.5 * cfg.beta2 * a_txt
            (lmr_img,), lmr_grad_img = lmr_loss(stack(mapper_img), stack(c_img), cfg.lmr_weight)
            (lmr_txt,), lmr_grad_txt = lmr_loss(stack(mapper_txt), stack(c_txt), cfg.lmr_weight)
            grad_img = backward(mapper_img, tr_img, g_img)
            grad_txt = backward(mapper_txt, tr_txt, g_txt)
            grad_img += lmr_grad_img[0]
            grad_txt += lmr_grad_txt[0]
            sgd_step(mapper_img, grad_img, cfg.lr)
            sgd_step(mapper_txt, grad_txt, cfg.lr)
            for name, value in zip(LOSS_TERMS, (task, gpt_value, gmt_value, lmr_img + lmr_txt)):
                sums[name] += value
            steps += 1
    terms = {name: (sums[name] / steps if steps else 0.0) for name in LOSS_TERMS}
    modules = {
        "image": mapper_img,
        "text": mapper_txt,
        "cluster_image": c_img,
        "cluster_text": c_txt,
    }
    return modules, pairs, terms


# -- single-sample and reference forms ------------------------------------------
# The program trains on batches only; these per-sample forms and reductions
# pin down the batched kernels' semantics in the tests.

LN2 = float(np.log(2.0))


def acc_at_k(logits_list, labels, k: int) -> float:
    """Fraction of samples whose true label ranks among the k largest logits.
    Every label must be a class index in ``[0, C)``."""
    logits = require_finite(logits_list, "logits")
    return _hit_rate(_true_ranks(logits, np.asarray(labels, dtype=int)), k)


def recall_at_k(query_embs, gallery_embs, ground_truth, k: int) -> float:
    """Fraction of queries whose true gallery item ranks in the cosine top-k.
    Every ground-truth entry must be a gallery index in ``[0, len(gallery))``."""
    queries = unit_rows(query_embs, "query embeddings").unit
    gallery = unit_rows(gallery_embs, "gallery embeddings").unit
    truth = np.asarray(ground_truth, dtype=int)
    return _hit_rate(_true_ranks(queries @ gallery.T, truth), k)


def softmax_temp(v, tau: float) -> np.ndarray:
    """Temperature softmax along the last axis, with max-subtraction.

    Output entries are non-negative and sum to 1 (within 1e-9 per row); the
    result is invariant to adding a constant to every input.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    v = np.asarray(v, dtype=float)
    z = (v - np.max(v, axis=-1, keepdims=True)) / tau
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats, with q floored at ``KL_EPS`` and 0 log 0 = 0.

    The result is clamped at 0 so that float round-off on p == q can never
    surface as a negative divergence.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    q_floor = np.maximum(q, KL_EPS)
    mask = p > 0
    value = float(np.sum(p[mask] * np.log(p[mask] / q_floor[mask])))
    return max(value, 0.0)


def cross_entropy(logits, label: int) -> tuple[float, np.ndarray]:
    """Negative log softmax probability of the true class.

    grad = softmax(logits) - onehot(label).
    """
    logits = require_finite(logits, "logits")
    if logits.ndim != 1:
        raise ValueError("logits must be a vector")
    label = int(label)
    if not 0 <= label < logits.size:
        raise ValueError(f"label {label} out of range for {logits.size} classes")
    value = float(logsumexp(logits) - logits[label])
    grad = softmax_temp(logits, 1.0)
    grad[label] -= 1.0
    return value, grad


def assignment_probs(e, protos, tau: float) -> np.ndarray:
    """Softmax over temperature-scaled cosine similarities to each prototype.

    Invariant under positive rescaling of e and of each prototype.
    """
    protos = np.asarray(protos, dtype=float)
    if protos.ndim != 2 or len(protos) < 1:
        raise ValueError("need a non-empty (K, d) prototype matrix")
    p_norms = np.linalg.norm(protos, axis=1, keepdims=True)
    if np.any(p_norms == 0):
        raise ValueError("prototypes contain a zero-norm row")
    e = require_finite(e, "embedding")
    norm = np.linalg.norm(e)
    if norm == 0:
        raise ValueError("embedding has zero norm")
    return softmax_temp((protos / p_norms) @ (e / norm), tau)


def prototype_rows(image_protos, text_protos) -> UnitRows:
    """The ``(2, K, d)`` prototype stack the GPT losses take, with each
    matrix normalised on its own."""
    image = unit_rows(image_protos, "image prototypes")
    text = unit_rows(text_protos, "text prototypes")
    return UnitRows(np.stack([image.unit, text.unit]), np.stack([image.norms, text.norms]))


def gpt_loss(e, image_protos, text_protos, tau: float):
    """Single-embedding form of ``losses.gpt_loss_batch``."""
    e = np.asarray(e, dtype=float)
    value, grad = gpt_loss_batch(
        unit_rows(e[None, :]), prototype_rows(image_protos, text_protos), tau
    )
    return value, grad[0]


def gmt_loss(
    local_emb, global_emb, task_loss_local, task_loss_global, nu_max: float, distill_tau: float
):
    """Single-embedding form of ``losses.gmt_loss_batch``."""
    local_emb = np.asarray(local_emb, dtype=float)
    global_emb = np.asarray(global_emb, dtype=float)
    value, grad = gmt_loss_batch(
        unit_rows(local_emb[None, :]),
        unit_rows(global_emb[None, :]),
        task_loss_local,
        task_loss_global,
        nu_max,
        distill_tau,
    )
    return value, grad[0]


def eval_report_from_dict(d: dict) -> EvalReport:
    """Inverse of ``EvalReport.to_dict`` (the derived recall sums are dropped)."""
    return EvalReport(
        acc_at={int(k): float(v) for k, v in d["acc_at"].items()},
        recall_i2t_at={int(k): float(v) for k, v in d["recall_i2t_at"].items()},
        recall_t2i_at={int(k): float(v) for k, v in d["recall_t2i_at"].items()},
        n_eval=int(d["n_eval"]),
    )
