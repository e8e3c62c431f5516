"""Training objectives: task losses, contrastive losses over pseudo-label
clusters, the knowledge-transfer losses, and the mapping-module regulariser.

Every trainable loss returns its value together with exact analytic
gradients with respect to the embeddings (or, for the regulariser, the
module parameters). Gradients are chained through the mapping modules by
``nn.backward``; all of them are validated against central finite
differences in the test suite.

Conventions: every cosine-based loss takes its embeddings as
:class:`~apromfl.numerics.UnitRows` of an (N, d) batch, which the caller
builds once per step with :func:`~apromfl.numerics.unit_rows` and shares
between the losses; each loss returns its gradients with respect to the raw
embeddings through its own ``rows.backward`` call. Contrastive denominators
run over every sample in the batch including the anchor itself.

Arguments are not range-checked here: ``config.validate_config`` is the one
gate for temperatures, weights and the ratio clamp, and the client rounds
build every batch (a retrieval batch holds at least 2 pairs). Only fault
detectors remain: non-finite logits and a non-finite transfer ratio raise.
"""

from __future__ import annotations

import numpy as np

from .nn import MappingModule
from .numerics import KL_EPS, UnitRows, logsumexp, require_finite

#: Floor for the global task loss in the transfer ratio.
TASK_LOSS_FLOOR = 1e-8


# -- shared helpers ----------------------------------------------------------


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_rows_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    # jacobian-vector product of row-wise softmax
    return p * (g - (p * g).sum(axis=1, keepdims=True))


# -- classification ----------------------------------------------------------


def _cross_entropy(logits, labels) -> tuple[float, np.ndarray, np.ndarray]:
    logits = require_finite(logits, "logits")
    n = len(labels)
    lse = logsumexp(logits, axis=1)
    return float((lse - logits[np.arange(n), labels]).sum() / n), logits, lse


def cross_entropy_value(logits, labels) -> float:
    """The value of :func:`cross_entropy_batch`, to the bit, without its
    gradient."""
    return _cross_entropy(logits, labels)[0]


def cross_entropy_batch(logits, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch; grad is of the mean."""
    value, logits, lse = _cross_entropy(logits, labels)
    n = len(labels)
    grad = np.exp(logits - lse[:, None])
    grad[np.arange(n), labels] -= 1.0
    return value, grad / n


# -- retrieval ---------------------------------------------------------------


def _retrieval(u: np.ndarray, v: np.ndarray, tau: float):
    scores = u @ v.T / tau
    lse_rows = logsumexp(scores, axis=1)
    lse_cols = logsumexp(scores, axis=0)
    diag = np.diag(scores)
    n = len(u)
    value = 0.5 * float((lse_rows - diag).sum() / n + (lse_cols - diag).sum() / n)
    return value, scores, lse_rows, lse_cols


def retrieval_task_value(img: UnitRows, txt: UnitRows, tau: float) -> float:
    """The value of :func:`retrieval_task_loss`, to the bit, without its
    gradients."""
    return _retrieval(img.unit, txt.unit, tau)[0]


def retrieval_task_loss(img: UnitRows, txt: UnitRows, tau: float):
    """Symmetric InfoNCE over the N x N cosine-similarity matrix: the value
    averages the image-to-text and text-to-image cross entropies against the
    diagonal. Returns (value, grad_img, grad_txt).
    """
    u, v = img.unit, txt.unit
    n = len(u)
    value, scores, lse_rows, lse_cols = _retrieval(u, v, tau)
    p_rows = np.exp(scores - lse_rows[:, None])
    p_cols = np.exp(scores - lse_cols[None, :])
    eye = np.eye(n)
    d_scores = 0.5 * ((p_rows - eye) + (p_cols - eye)) / n
    g_u = d_scores @ v / tau
    g_v = d_scores.T @ u / tau
    return value, img.backward(g_u), txt.backward(g_v)


# -- pseudo-label contrastive losses -----------------------------------------


def intra_modal_total(rows: UnitRows, labels, tau: float):
    """Contrastive loss of each sample against the samples sharing its
    pseudo-label (itself included), with the denominator running over all
    samples of the modality; summed over samples, with gradients. This is
    :func:`inter_modal_total` with the one modality on both sides."""
    # the other side gets its own buffer: numpy multiplies an array by its
    # own transpose with a symmetric kernel, whose last bits differ
    other = UnitRows(rows.unit.copy(), rows.norms)
    value, g_anchor, g_other = inter_modal_total(rows, other, labels, tau)
    return value, g_anchor + g_other


def inter_modal_total(img: UnitRows, txt: UnitRows, labels, tau: float):
    """Contrastive loss of each image anchor against the text embeddings
    sharing its pseudo-label, with the denominator running over all text
    embeddings; summed over samples, with gradients for both modalities."""
    u, v = img.unit, txt.unit
    mask = labels[:, None] == labels[None, :]
    counts = mask.sum(axis=1)
    scores = u @ v.T / tau
    lse = logsumexp(scores, axis=1)
    value = float(np.sum(lse - np.where(mask, scores, 0.0).sum(axis=1) / counts))
    probs = np.exp(scores - lse[:, None])
    g_scores = (probs - mask / counts[:, None]) / tau
    return value, img.backward(g_scores @ v), txt.backward(g_scores.T @ u)


def clustering_total_loss(img: UnitRows, txt: UnitRows, labels, tau: float):
    """Clustering-model objective: retrieval task loss plus the summed
    intra-modal (both modalities) and inter-modal contrastive losses.

    Returns (value, grad_img, grad_txt).
    """
    task, g_img, g_txt = retrieval_task_loss(img, txt, tau)
    intra_i, gi = intra_modal_total(img, labels, tau)
    intra_t, gt = intra_modal_total(txt, labels, tau)
    inter, hi, ht = inter_modal_total(img, txt, labels, tau)
    value = task + intra_i + intra_t + inter
    return value, g_img + gi + hi, g_txt + gt + ht


# -- mapping-module regulariser ----------------------------------------------


def lmr_loss(module: MappingModule, anchor: MappingModule, weight: float):
    """weight * ||theta - theta_anchor||^2 with gradient w.r.t. theta only,
    for a module against its anchor, or a stack of modules against a stack
    of anchors: the value is a list with one entry per module (row), and the
    gradient has the parameters' shape.

    The anchor (the private clustering model's module) is frozen.
    """
    diff = module.params - anchor.params
    return [weight * float(row @ row) for row in np.atleast_2d(diff)], 2.0 * weight * diff


# -- global prototype transfer -----------------------------------------------


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


def gpt_loss_batch(rows: UnitRows, protos: UnitRows, tau: float):
    """Unimodal form of :func:`gpt_loss_paired_batch`: the same embedding is
    assigned to both prototype sets. Returns (mean value, grad of the mean
    w.r.t. the embeddings)."""
    value, g_img, g_txt = gpt_loss_paired_batch(rows, rows, protos, tau)
    return value, g_img + g_txt


def gpt_loss_paired_batch(img: UnitRows, txt: UnitRows, protos: UnitRows, tau: float):
    """Alignment of assignment distributions over the paired global image
    and text prototype sets: each image embedding is assigned to the image
    prototypes and its paired text embedding to the text prototypes, and the
    value is their Jensen-Shannon divergence, so it lies in [0, ln 2].
    ``protos`` stacks the two (K, d) prototype matrices, image first.

    Returns (mean value, grad_img, grad_txt).
    """
    u, v = img.unit, txt.unit
    n = len(u)
    pi_unit, pt_unit = protos.unit
    p = _softmax_rows(u @ pi_unit.T / tau)
    q = _softmax_rows(v @ pt_unit.T / tau)
    rows, g_p, g_q = _js_rows(p, q)
    value = max(float(rows.sum() / n), 0.0)
    g_u = _softmax_rows_backward(p, g_p) @ pi_unit / tau
    g_v = _softmax_rows_backward(q, g_q) @ pt_unit / tau
    return value, img.backward(g_u) / n, txt.backward(g_v) / n


# -- global model transfer ---------------------------------------------------


def transfer_ratio(task_loss_local: float, task_loss_global: float, nu_max: float) -> float:
    """Scale factor for distillation: local/global task-loss ratio, with the
    denominator floored and the result clamped into [0, nu_max]."""
    ratio = task_loss_local / max(task_loss_global, TASK_LOSS_FLOOR)
    if not np.isfinite(ratio):
        raise ValueError(f"non-finite transfer ratio from {task_loss_local}/{task_loss_global}")
    return float(np.clip(ratio, 0.0, nu_max))


def gmt_loss_batch(
    local: UnitRows,
    target: UnitRows,
    task_loss_local,
    task_loss_global,
    nu_max: float,
    distill_tau: float,
):
    """Ratio-scaled KL distillation of local embeddings toward the global
    module's embeddings (``target``).

    The unit rows become distributions via a softmax at ``distill_tau``
    (normalising first keeps the distillation stable: the cosine-based task
    losses leave embedding norms free to grow, and raw norms would saturate
    the softmax). The ratio is clamped at ``nu_max`` and treated as a
    constant, so gradient flows only into the local embeddings.
    Returns (mean value, grad of the mean w.r.t. the local embeddings).
    """
    u, v = local.unit, target.unit
    nu = transfer_ratio(task_loss_local, task_loss_global, nu_max)
    t = distill_tau
    n = len(u)
    p = _softmax_rows(u / t)
    q = np.maximum(_softmax_rows(v / t), KL_EPS)
    log_ratio = np.log(np.maximum(p, _TINY) / q)
    kl_rows = (p * log_ratio).sum(axis=1)
    value = nu * max(float(kl_rows.sum() / n), 0.0)
    g_unit = (nu / (t * n)) * p * (log_ratio - kl_rows[:, None])
    return value, local.backward(g_unit)
