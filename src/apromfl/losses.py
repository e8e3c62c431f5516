"""Training objectives: task losses, contrastive losses over pseudo-label
clusters, the knowledge-transfer losses, and the mapping-module regulariser.

Every trainable loss returns its value together with exact analytic
gradients with respect to the embeddings (or, for the regulariser, the
module parameters). Gradients are chained through the mapping modules by
``nn.backward``; all of them are validated against central finite
differences in the test suite.

Conventions: embeddings arrive as (N, d) batches, cosine similarities are
taken after internal L2 normalisation, and contrastive denominators run over
every sample in the batch including the anchor itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import MappingModule, same_architecture
from .numerics import KL_EPS, ClusterAssignment, logsumexp, require_finite
from .prototypes import GlobalPrototypeSet

LN2 = float(np.log(2.0))

#: Floor for the global task loss in the transfer ratio.
TASK_LOSS_FLOOR = 1e-8


@dataclass(frozen=True)
class TransferContext:
    """Per-round snapshot of the global artifacts a client trains against.

    Empty in round 1 (no global prototypes or aggregated modules exist yet),
    after which it carries the broadcast global prototype set and the
    client's personalised aggregated module(s).
    """

    tau: float
    nu_max: float = 10.0
    distill_tau: float = 1.0
    global_prototypes: GlobalPrototypeSet | None = None
    image_module: MappingModule | None = None
    text_module: MappingModule | None = None

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.distill_tau <= 0:
            raise ValueError(f"distill_tau must be positive, got {self.distill_tau}")
        if self.nu_max < 1:
            raise ValueError(f"nu_max must be >= 1, got {self.nu_max}")

    @property
    def is_empty(self) -> bool:
        return (
            self.global_prototypes is None
            and self.image_module is None
            and self.text_module is None
        )

    def module_for(self, modality: str) -> MappingModule | None:
        return self.image_module if modality == "image" else self.text_module


# -- shared helpers ----------------------------------------------------------


def _norm_rows(x, what: str = "embeddings") -> tuple[np.ndarray, np.ndarray]:
    x = require_finite(x, what)
    if x.ndim != 2:
        raise ValueError(f"{what} must be (N, d)")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError(f"{what} contain a zero-norm row")
    return x / norms, norms


def _norm_rows_backward(g_unit, unit, norms) -> np.ndarray:
    # d/dx of u = x/|x|, applied to an upstream gradient on u
    return (g_unit - (g_unit * unit).sum(axis=1, keepdims=True) * unit) / norms


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_rows_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    # jacobian-vector product of row-wise softmax
    return p * (g - (p * g).sum(axis=1, keepdims=True))


# -- classification ----------------------------------------------------------


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
    grad = _softmax_rows(logits[None, :])[0]
    grad[label] -= 1.0
    return value, grad


def cross_entropy_batch(logits, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch; grad is of the mean."""
    logits = require_finite(logits, "logits")
    labels = np.asarray(labels, dtype=int)
    n = len(labels)
    if logits.shape[0] != n:
        raise ValueError("logits and labels must align")
    if np.any(labels < 0) or np.any(labels >= logits.shape[1]):
        raise ValueError("label out of range")
    lse = logsumexp(logits, axis=1)
    value = float((lse - logits[np.arange(n), labels]).mean())
    grad = np.exp(logits - lse[:, None])
    grad[np.arange(n), labels] -= 1.0
    return value, grad / n


# -- retrieval ---------------------------------------------------------------


def retrieval_task_loss(img_embs, txt_embs, tau: float):
    """Symmetric InfoNCE over the N x N cosine-similarity matrix.

    Embeddings are L2-normalised internally; the value averages the
    image-to-text and text-to-image cross entropies against the diagonal.
    Returns (value, grad_img, grad_txt).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u, nu = _norm_rows(img_embs, "image embeddings")
    v, nv = _norm_rows(txt_embs, "text embeddings")
    if u.shape != v.shape:
        raise ValueError("image/text embedding counts must match")
    n = len(u)
    if n < 2:
        raise ValueError("retrieval loss needs at least 2 pairs")
    scores = u @ v.T / tau
    lse_rows = logsumexp(scores, axis=1)
    lse_cols = logsumexp(scores, axis=0)
    diag = np.diag(scores)
    value = 0.5 * float((lse_rows - diag).mean() + (lse_cols - diag).mean())
    p_rows = np.exp(scores - lse_rows[:, None])
    p_cols = np.exp(scores - lse_cols[None, :])
    eye = np.eye(n)
    d_scores = 0.5 * ((p_rows - eye) + (p_cols - eye)) / n
    g_u = d_scores @ v / tau
    g_v = d_scores.T @ u / tau
    return value, _norm_rows_backward(g_u, u, nu), _norm_rows_backward(g_v, v, nv)


# -- pseudo-label contrastive losses -----------------------------------------


def intra_modal_loss(embs, clusters: ClusterAssignment, i: int, tau: float) -> float:
    """Contrastive loss of one sample against its pseudo-label cluster mates,
    with the denominator running over all samples of the modality."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u, _ = _norm_rows(embs)
    sims = u @ u[i] / tau
    member = clusters.cluster_of(i)
    return float(logsumexp(sims) - sims[member].mean())


def inter_modal_loss(img_embs, txt_embs, clusters: ClusterAssignment, i: int, tau: float) -> float:
    """Cross-modal counterpart: an image anchor against the text embeddings
    of its cluster, denominator over all text embeddings."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u, _ = _norm_rows(img_embs, "image embeddings")
    v, _ = _norm_rows(txt_embs, "text embeddings")
    if u.shape != v.shape:
        raise ValueError("image/text embedding counts must match")
    sims = v @ u[i] / tau
    member = clusters.cluster_of(i)
    return float(logsumexp(sims) - sims[member].mean())


def _cluster_mask(clusters: ClusterAssignment, n: int) -> tuple[np.ndarray, np.ndarray]:
    labels = clusters.pseudo_labels
    if labels.size != n:
        raise ValueError("cluster assignment does not match the batch")
    mask = labels[:, None] == labels[None, :]
    return mask, mask.sum(axis=1)


def intra_modal_total(embs, clusters: ClusterAssignment, tau: float):
    """Sum over all samples of :func:`intra_modal_loss`, with gradients."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u, norms = _norm_rows(embs)
    n = len(u)
    mask, counts = _cluster_mask(clusters, n)
    scores = u @ u.T / tau
    lse = logsumexp(scores, axis=1)
    value = float(np.sum(lse - np.where(mask, scores, 0.0).sum(axis=1) / counts))
    probs = np.exp(scores - lse[:, None])
    g_scores = (probs - mask / counts[:, None]) / tau
    g_u = (g_scores + g_scores.T) @ u
    return value, _norm_rows_backward(g_u, u, norms)


def inter_modal_total(img_embs, txt_embs, clusters: ClusterAssignment, tau: float):
    """Sum over all samples of :func:`inter_modal_loss`, with gradients for
    both modalities."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u, nu = _norm_rows(img_embs, "image embeddings")
    v, nv = _norm_rows(txt_embs, "text embeddings")
    if u.shape != v.shape:
        raise ValueError("image/text embedding counts must match")
    n = len(u)
    mask, counts = _cluster_mask(clusters, n)
    scores = u @ v.T / tau
    lse = logsumexp(scores, axis=1)
    value = float(np.sum(lse - np.where(mask, scores, 0.0).sum(axis=1) / counts))
    probs = np.exp(scores - lse[:, None])
    g_scores = (probs - mask / counts[:, None]) / tau
    g_u = g_scores @ v
    g_v = g_scores.T @ u
    return value, _norm_rows_backward(g_u, u, nu), _norm_rows_backward(g_v, v, nv)


def clustering_total_loss(img_embs, txt_embs, clusters: ClusterAssignment, tau: float):
    """Clustering-model objective: retrieval task loss plus the summed
    intra-modal (both modalities) and inter-modal contrastive losses.

    Returns (value, grad_img, grad_txt).
    """
    task, g_img, g_txt = retrieval_task_loss(img_embs, txt_embs, tau)
    intra_i, gi = intra_modal_total(img_embs, clusters, tau)
    intra_t, gt = intra_modal_total(txt_embs, clusters, tau)
    inter, hi, ht = inter_modal_total(img_embs, txt_embs, clusters, tau)
    value = task + intra_i + intra_t + inter
    return value, g_img + gi + hi, g_txt + gt + ht


# -- mapping-module regulariser ----------------------------------------------


def lmr_loss(module: MappingModule, anchor: MappingModule, weight: float):
    """weight * ||theta - theta_anchor||^2 with gradient w.r.t. theta only.

    The anchor (the private clustering model's module) is frozen.
    """
    if weight < 0:
        raise ValueError(f"weight must be >= 0, got {weight}")
    if not same_architecture(module, anchor):
        raise ValueError(f"architecture mismatch: {module.dims} vs {anchor.dims}")
    diff = module.params - anchor.params
    return weight * float(diff @ diff), 2.0 * weight * diff


# -- global prototype transfer -----------------------------------------------


def assignment_probs(e, protos, tau: float) -> np.ndarray:
    """Softmax over temperature-scaled cosine similarities to each prototype.

    Invariant under positive rescaling of e and of each prototype.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    protos = np.asarray(protos, dtype=float)
    if protos.ndim != 2 or len(protos) < 1:
        raise ValueError("need a non-empty (K, d) prototype matrix")
    p_unit, _ = _norm_rows(protos, "prototypes")
    e = require_finite(e, "embedding")
    norm = np.linalg.norm(e)
    if norm == 0:
        raise ValueError("embedding has zero norm")
    sims = p_unit @ (e / norm)
    return _softmax_rows(sims[None, :] / tau)[0]


#: Smallest positive double; floors softmax outputs inside logs so that an
#: underflowed probability contributes exactly 0 * finite instead of 0 * inf.
_TINY = np.finfo(float).tiny


def _js_rows(p: np.ndarray, q: np.ndarray):
    """Row-wise Jensen-Shannon divergence and its gradients w.r.t. p and q."""
    mid = 0.5 * (p + q)
    log_p = np.log(np.maximum(p, _TINY) / mid)
    log_q = np.log(np.maximum(q, _TINY) / mid)
    rows = 0.5 * (p * log_p).sum(axis=1) + 0.5 * (q * log_q).sum(axis=1)
    return rows, 0.5 * log_p, 0.5 * log_q


def gpt_loss_batch(embs, image_protos, text_protos, tau: float):
    """Alignment of each embedding's assignment distributions over the
    paired global image and text prototype sets (a Jensen-Shannon
    divergence, so the value lies in [0, ln 2]).

    Used by unimodal clients: the same embedding is assigned to both sets.
    Returns (mean value, grad of the mean w.r.t. the embeddings).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u, norms = _norm_rows(embs)
    n = len(u)
    pi_unit, _ = _norm_rows(np.asarray(image_protos, dtype=float), "image prototypes")
    pt_unit, _ = _norm_rows(np.asarray(text_protos, dtype=float), "text prototypes")
    p = _softmax_rows(u @ pi_unit.T / tau)
    q = _softmax_rows(u @ pt_unit.T / tau)
    rows, g_p, g_q = _js_rows(p, q)
    value = max(float(rows.mean()), 0.0)
    d_img = _softmax_rows_backward(p, g_p) / tau
    d_txt = _softmax_rows_backward(q, g_q) / tau
    g_u = d_img @ pi_unit + d_txt @ pt_unit
    return value, _norm_rows_backward(g_u, u, norms) / n


def gpt_loss(e, image_protos, text_protos, tau: float):
    """Single-embedding form of :func:`gpt_loss_batch`."""
    e = np.asarray(e, dtype=float)
    value, grad = gpt_loss_batch(e[None, :], image_protos, text_protos, tau)
    return value, grad[0]


def gpt_loss_paired_batch(img_embs, txt_embs, image_protos, text_protos, tau: float):
    """Multimodal variant: the image embedding is assigned to the image
    prototypes and its paired text embedding to the text prototypes.

    Returns (mean value, grad_img, grad_txt).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u, nu = _norm_rows(img_embs, "image embeddings")
    v, nv = _norm_rows(txt_embs, "text embeddings")
    if u.shape[0] != v.shape[0]:
        raise ValueError("image/text embedding counts must match")
    n = len(u)
    pi_unit, _ = _norm_rows(np.asarray(image_protos, dtype=float), "image prototypes")
    pt_unit, _ = _norm_rows(np.asarray(text_protos, dtype=float), "text prototypes")
    p = _softmax_rows(u @ pi_unit.T / tau)
    q = _softmax_rows(v @ pt_unit.T / tau)
    rows, g_p, g_q = _js_rows(p, q)
    value = max(float(rows.mean()), 0.0)
    g_u = _softmax_rows_backward(p, g_p) @ pi_unit / tau
    g_v = _softmax_rows_backward(q, g_q) @ pt_unit / tau
    return (
        value,
        _norm_rows_backward(g_u, u, nu) / n,
        _norm_rows_backward(g_v, v, nv) / n,
    )


# -- global model transfer ---------------------------------------------------


def transfer_ratio(task_loss_local: float, task_loss_global: float, nu_max: float) -> float:
    """Scale factor for distillation: local/global task-loss ratio, with the
    denominator floored and the result clamped into [0, nu_max]."""
    ratio = task_loss_local / max(task_loss_global, TASK_LOSS_FLOOR)
    if not np.isfinite(ratio):
        raise ValueError(f"non-finite transfer ratio from {task_loss_local}/{task_loss_global}")
    return float(np.clip(ratio, 0.0, nu_max))


def gmt_loss_batch(local_embs, global_embs, task_loss_local, task_loss_global, ctx: TransferContext):
    """Ratio-scaled KL distillation of local embeddings toward the global
    module's embeddings.

    Embeddings are L2-normalised and become distributions via a softmax at
    ``ctx.distill_tau`` (normalising first keeps the distillation stable:
    the cosine-based task losses leave embedding norms free to grow, and raw
    norms would saturate the softmax). The ratio is treated as a constant,
    so gradient flows only into the local embeddings. Returns (mean value,
    grad of the mean w.r.t. local_embs).
    """
    if np.asarray(local_embs).shape != np.asarray(global_embs).shape:
        raise ValueError("local/global embedding shapes must match")
    u, norms = _norm_rows(local_embs, "local embeddings")
    v, _ = _norm_rows(global_embs, "global embeddings")
    nu = transfer_ratio(task_loss_local, task_loss_global, ctx.nu_max)
    t = ctx.distill_tau
    n = len(u)
    p = _softmax_rows(u / t)
    q = np.maximum(_softmax_rows(v / t), KL_EPS)
    log_ratio = np.log(np.maximum(p, _TINY) / q)
    kl_rows = (p * log_ratio).sum(axis=1)
    value = nu * max(float(kl_rows.mean()), 0.0)
    g_unit = (nu / (t * n)) * p * (log_ratio - kl_rows[:, None])
    return value, _norm_rows_backward(g_unit, u, norms)


def gmt_loss(local_emb, global_emb, task_loss_local, task_loss_global, ctx: TransferContext):
    """Single-embedding form of :func:`gmt_loss_batch`."""
    local_emb = np.asarray(local_emb, dtype=float)
    global_emb = np.asarray(global_emb, dtype=float)
    value, grad = gmt_loss_batch(
        local_emb[None, :], global_emb[None, :], task_loss_local, task_loss_global, ctx
    )
    return value, grad[0]
