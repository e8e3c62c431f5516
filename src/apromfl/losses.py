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
returns its gradients with respect to the raw embeddings. Each takes a
client's ``(t, N, d)`` stack of towers (t = 2, image first, or 1 for a
unimodal client under the transfer losses) and makes one ``rows.backward``
call on it: each term writes its gradient with respect to the unit rows
into one array, which is mapped back to the raw embeddings at once.
Cross-entropy takes a batch's logits, or the pair of a batch's and its
distillation targets' logits in one pass. Contrastive denominators run over
every sample in the batch including the anchor itself.

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


def cross_entropy_batch(logits, labels):
    """Mean cross-entropy over a batch of ``(B, C)`` logits; grad is of the
    mean. Returns (value, grad).

    Given a ``(2, B, C)`` pair against the same labels (a batch's logits and
    those of its distillation targets), both sets pass one finiteness check
    and one logsumexp, and it returns (value, grad) of the first set plus
    the value of the second: the bits of two separate calls.
    """
    logits = require_finite(logits, "logits")
    n = len(labels)
    rows = np.arange(n)
    lse = logsumexp(logits, axis=-1)
    values = (lse - logits[..., rows, labels]).sum(axis=-1) / n
    local, local_lse = (logits, lse) if logits.ndim == 2 else (logits[0], lse[0])
    grad = np.exp(local - local_lse[:, None])
    grad[rows, labels] -= 1.0
    if logits.ndim == 2:
        return float(values), grad / n
    return float(values[0]), grad / n, float(values[1])


# -- retrieval ---------------------------------------------------------------


def _retrieval(u: np.ndarray, v: np.ndarray, tau: float):
    scores = u @ v.T / tau
    lse_rows = logsumexp(scores, axis=1)
    lse_cols = logsumexp(scores, axis=0)
    diag = np.diag(scores)
    n = len(u)
    value = 0.5 * float((lse_rows - diag).sum() / n + (lse_cols - diag).sum() / n)
    return value, scores, lse_rows, lse_cols


def _retrieval_grad(u: np.ndarray, scores, lse_cols, p_rows, tau: float, out: np.ndarray):
    """The gradient of :func:`retrieval_task_loss`'s value w.r.t. the
    ``(2, N, d)`` unit rows ``u``, written into ``out``, from the scores,
    their column logsumexp and their row softmax."""
    n = len(scores)
    p_cols = np.exp(scores - lse_cols[None, :])
    eye = np.eye(n)
    d_scores = 0.5 * ((p_rows - eye) + (p_cols - eye)) / n
    np.matmul(d_scores, u[1], out=out[0])
    np.matmul(d_scores.T, u[0], out=out[1])
    out /= tau
    return out


def retrieval_task_value(unit: np.ndarray, tau: float) -> float:
    """The value of :func:`retrieval_task_loss`, to the bit, without its
    gradient, from the ``(2, N, d)`` unit rows."""
    return _retrieval(*unit, tau)[0]


def retrieval_task_loss(rows: UnitRows, tau: float):
    """Symmetric InfoNCE over the N x N cosine-similarity matrix of a
    multimodal client's ``(2, N, d)`` stack of towers, image first: the
    value averages the image-to-text and text-to-image cross entropies
    against the diagonal. Returns (value, grad w.r.t. the stack).
    """
    u = rows.unit
    value, scores, lse_rows, lse_cols = _retrieval(*u, tau)
    p_rows = np.exp(scores - lse_rows[:, None])
    g_unit = _retrieval_grad(u, scores, lse_cols, p_rows, tau, np.empty_like(u))
    return value, rows.backward(g_unit)


# -- pseudo-label contrastive losses -----------------------------------------


def clustering_total_loss(rows: UnitRows, labels, tau: float):
    """Clustering-model objective on a multimodal client's ``(2, B, d)``
    stack of towers, image first: the retrieval task loss plus, summed over
    samples, the intra-modal contrastive loss of each modality and the
    inter-modal one. A contrastive term scores each anchor against the
    samples sharing its pseudo-label (itself included), with the
    denominator over every sample of the other side: its own modality
    (intra) or the text embeddings (inter, image anchors).

    The two intra-modal terms run as one batched product against a copy of
    the stack (numpy multiplies an array by its own transpose with a
    symmetric kernel, whose last bits differ), and the inter-modal term
    reuses the retrieval scores, their row logsumexp and row softmax. Every
    term writes its unit-space gradients into one ``(4, 2, B, d)`` array
    that makes one ``rows.backward`` call, and the results are added per
    tower as retrieval + (anchor + other side of intra) + inter.

    Returns the gradient w.r.t. the ``(2, B, d)`` stack only: the one
    caller steps on it and never reads the value.
    """
    u = rows.unit
    img, txt = u
    _, scores, lse_rows, lse_cols = _retrieval(img, txt, tau)
    p_rows = np.exp(scores - lse_rows[:, None])
    mask = labels[:, None] == labels[None, :]
    counts = mask.sum(axis=1)
    share = mask / counts[:, None]
    other = u.copy()
    intra = u @ other.transpose(0, 2, 1) / tau
    intra_lse = logsumexp(intra, axis=-1)
    intra_probs = np.exp(intra - intra_lse[..., None])

    pieces = np.empty((4, *u.shape))
    _retrieval_grad(u, scores, lse_cols, p_rows, tau, pieces[0])
    g_intra = (intra_probs - share) / tau
    np.matmul(g_intra, other, out=pieces[1])
    np.matmul(g_intra.transpose(0, 2, 1), u, out=pieces[2])
    g_inter = (p_rows - share) / tau
    np.matmul(g_inter, txt, out=pieces[3, 0])
    np.matmul(g_inter.T, img, out=pieces[3, 1])
    back = rows.backward(pieces)
    return back[0] + (back[1] + back[2]) + back[3]


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
