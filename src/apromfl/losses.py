"""Training objectives: task losses, contrastive losses over pseudo-label
clusters, the knowledge-transfer losses, and the mapping-module regulariser.

Every trainable loss returns its value together with exact analytic
gradients with respect to the embeddings (or, for the regulariser, the
module parameters). Gradients are chained through the mapping modules by
``nn.backward``; all of them are validated against central finite
differences in the test suite.

Conventions: every cosine-based loss takes its embeddings as
:class:`~apromfl.numerics.UnitRows`, which the caller builds once per step
with :func:`~apromfl.numerics.unit_rows` and shares between the losses, and
returns its gradients with respect to the raw embeddings. The task and
clustering losses take one ``(N, d)`` batch per modality; the two transfer
losses take a client's ``(t, N, d)`` stack of towers (t = 2, image first, or
1 for a unimodal client) and make one ``rows.backward`` call on it.
Contrastive denominators run over every sample in the batch including the
anchor itself.

Arguments are not range-checked here: ``config.validate_config`` is the one
gate for temperatures, weights and the ratio clamp, and the client rounds
build every batch (a retrieval batch holds at least 2 pairs). Only fault
detectors remain: non-finite logits and a non-finite transfer ratio raise.
"""

from __future__ import annotations

import math

import numpy as np

from .nn import MappingModule
from .numerics import KL_EPS, UnitRows, logsumexp, require_finite

#: Floor for the global task loss in the transfer ratio.
TASK_LOSS_FLOOR = 1e-8


# -- shared helpers ----------------------------------------------------------


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_rows_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    # jacobian-vector product of row-wise softmax
    return p * (g - (p * g).sum(axis=-1, keepdims=True))


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


def _retrieval_grads(img: UnitRows, txt: UnitRows, tau: float, scores, lse_cols, p_rows):
    """The gradients of :func:`retrieval_task_loss` from its scores, their
    column logsumexp and their row softmax."""
    n = len(scores)
    p_cols = np.exp(scores - lse_cols[None, :])
    eye = np.eye(n)
    d_scores = 0.5 * ((p_rows - eye) + (p_cols - eye)) / n
    g_u = d_scores @ txt.unit / tau
    g_v = d_scores.T @ img.unit / tau
    return img.backward(g_u), txt.backward(g_v)


def retrieval_task_value(u: np.ndarray, v: np.ndarray, tau: float) -> float:
    """The value of :func:`retrieval_task_loss`, to the bit, without its
    gradients, from the two ``(N, d)`` arrays of unit rows."""
    return _retrieval(u, v, tau)[0]


def retrieval_task_loss(img: UnitRows, txt: UnitRows, tau: float):
    """Symmetric InfoNCE over the N x N cosine-similarity matrix: the value
    averages the image-to-text and text-to-image cross entropies against the
    diagonal. Returns (value, grad_img, grad_txt).
    """
    value, scores, lse_rows, lse_cols = _retrieval(img.unit, txt.unit, tau)
    p_rows = np.exp(scores - lse_rows[:, None])
    return (value, *_retrieval_grads(img, txt, tau, scores, lse_cols, p_rows))


# -- pseudo-label contrastive losses -----------------------------------------


def _label_mask(labels):
    """Which samples share each sample's pseudo-label, and how many do."""
    mask = labels[:, None] == labels[None, :]
    return mask, mask.sum(axis=1)


def _contrastive(img: UnitRows, txt: UnitRows, mask, counts, tau: float, scores, lse, probs):
    """:func:`inter_modal_total` from the label mask and counts, the scores
    ``u @ v.T / tau``, their row logsumexp and their row softmax."""
    value = float(np.sum(lse - np.where(mask, scores, 0.0).sum(axis=1) / counts))
    g_scores = (probs - mask / counts[:, None]) / tau
    return value, img.backward(g_scores @ txt.unit), txt.backward(g_scores.T @ img.unit)


def _scored(u: np.ndarray, v: np.ndarray, tau: float):
    """The scores ``u @ v.T / tau``, their row logsumexp and row softmax."""
    scores = u @ v.T / tau
    lse = logsumexp(scores, axis=1)
    return scores, lse, np.exp(scores - lse[:, None])


def _intra(rows: UnitRows, mask, counts, tau: float):
    # the other side gets its own buffer: numpy multiplies an array by its
    # own transpose with a symmetric kernel, whose last bits differ
    other = UnitRows(rows.unit.copy(), rows.norms)
    scored = _scored(rows.unit, other.unit, tau)
    value, g_anchor, g_other = _contrastive(rows, other, mask, counts, tau, *scored)
    return value, g_anchor + g_other


def intra_modal_total(rows: UnitRows, labels, tau: float):
    """Contrastive loss of each sample against the samples sharing its
    pseudo-label (itself included), with the denominator running over all
    samples of the modality; summed over samples, with gradients. This is
    :func:`inter_modal_total` with the one modality on both sides."""
    return _intra(rows, *_label_mask(labels), tau)


def inter_modal_total(img: UnitRows, txt: UnitRows, labels, tau: float):
    """Contrastive loss of each image anchor against the text embeddings
    sharing its pseudo-label, with the denominator running over all text
    embeddings; summed over samples, with gradients for both modalities."""
    scored = _scored(img.unit, txt.unit, tau)
    return _contrastive(img, txt, *_label_mask(labels), tau, *scored)


def clustering_total_loss(img: UnitRows, txt: UnitRows, labels, tau: float):
    """Clustering-model objective: retrieval task loss plus the summed
    intra-modal (both modalities) and inter-modal contrastive losses. The
    retrieval and inter-modal terms share the scores, their row logsumexp
    and row softmax, and all three contrastive terms one label mask.

    Returns (value, grad_img, grad_txt).
    """
    task, scores, lse_rows, lse_cols = _retrieval(img.unit, txt.unit, tau)
    p_rows = np.exp(scores - lse_rows[:, None])
    g_img, g_txt = _retrieval_grads(img, txt, tau, scores, lse_cols, p_rows)
    mask, counts = _label_mask(labels)
    intra_i, gi = _intra(img, mask, counts, tau)
    intra_t, gt = _intra(txt, mask, counts, tau)
    inter, hi, ht = _contrastive(img, txt, mask, counts, tau, scores, lse_rows, p_rows)
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


def _js_rows(probs: np.ndarray):
    """Row-wise Jensen-Shannon divergence of the two assignment distributions
    ``probs[0]`` and ``probs[1]``, and its gradients w.r.t. each, stacked."""
    p, q = probs
    mid = 0.5 * (p + q)
    log = np.log(np.maximum(probs, _TINY) / mid)
    terms = (probs * log).sum(axis=-1)
    return 0.5 * terms[0] + 0.5 * terms[1], 0.5 * log


def gpt_loss_paired_batch(rows: UnitRows, protos: UnitRows, tau: float):
    """Alignment of assignment distributions over the paired global image
    and text prototype sets: each image embedding is assigned to the image
    prototypes and its paired text embedding to the text prototypes, and the
    value is their Jensen-Shannon divergence, so it lies in [0, ln 2].
    ``rows`` is a client's ``(t, B, d)`` stack of towers, image first; a
    lone tower (t = 1) is assigned to both prototype sets. ``protos`` stacks
    the two (K, d) prototype matrices, image first.

    Returns (mean value, grad of the mean w.r.t. the ``(t, B, d)`` stack).
    """
    n = rows.unit.shape[-2]
    protos_unit = protos.unit
    probs = _softmax_rows(rows.unit @ protos_unit.transpose(0, 2, 1) / tau)
    js, g_probs = _js_rows(probs)
    value = max(float(js.sum() / n), 0.0)
    g_unit = _softmax_rows_backward(probs, g_probs) @ protos_unit / tau
    grad = rows.backward(g_unit) / n
    return value, grad if len(rows.unit) == 2 else grad[:1] + grad[1:]


#: The unimodal name of :func:`gpt_loss_paired_batch`, on a one-tower stack.
gpt_loss_batch = gpt_loss_paired_batch


# -- global model transfer ---------------------------------------------------


def transfer_ratio(task_loss_local: float, task_loss_global: float, nu_max: float) -> float:
    """Scale factor for distillation: local/global task-loss ratio, with the
    denominator floored and the result clamped into [0, nu_max]."""
    ratio = task_loss_local / max(task_loss_global, TASK_LOSS_FLOOR)
    if not math.isfinite(ratio):
        raise ValueError(f"non-finite transfer ratio from {task_loss_local}/{task_loss_global}")
    return min(max(ratio, 0.0), nu_max)


def gmt_targets(target: UnitRows, distill_tau: float) -> np.ndarray:
    """The distributions :func:`gmt_loss_batch` distills toward: the softmax
    of the target unit rows at ``distill_tau``, floored at ``KL_EPS``. Row
    by row, so a client computes them once a round on all of its rows and
    each step gathers its batch."""
    return np.maximum(_softmax_rows(target.unit / distill_tau), KL_EPS)


def gmt_loss_batch(
    local: UnitRows,
    target: np.ndarray,
    task_loss_local,
    task_loss_global,
    nu_max: float,
    distill_tau: float,
):
    """Ratio-scaled KL distillation of a client's ``(t, B, d)`` stack of
    local embeddings toward the global module's embeddings, given as their
    distributions ``target`` (:func:`gmt_targets` of the same rows).

    The unit rows become distributions via a softmax at ``distill_tau``
    (normalising first keeps the distillation stable: the cosine-based task
    losses leave embedding norms free to grow, and raw norms would saturate
    the softmax). The ratio is clamped at ``nu_max`` and treated as a
    constant, so gradient flows only into the local embeddings.
    Returns (the towers' mean of each tower's mean value, and for each tower
    the grad of its own mean value w.r.t. its local embeddings).
    """
    nu = transfer_ratio(task_loss_local, task_loss_global, nu_max)
    t = distill_tau
    n = local.unit.shape[-2]
    p = _softmax_rows(local.unit / t)
    log_ratio = np.log(np.maximum(p, _TINY) / target)
    kl_rows = (p * log_ratio).sum(axis=-1)
    value = 0.0
    for kl in kl_rows.sum(axis=-1) / n:
        value += nu * max(float(kl), 0.0)
    g_unit = (nu / (t * n)) * p * (log_ratio - kl_rows[..., None])
    return value / len(kl_rows), local.backward(g_unit)
