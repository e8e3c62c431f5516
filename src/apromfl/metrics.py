"""Evaluation metrics: top-k classification accuracy and bidirectional
retrieval recall over cosine rankings. Ties break toward the lower class or
gallery index (stable sort), so results are fully deterministic. Each
query's true item is ranked once, by counting the scores ahead of it, and
that rank serves every k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import require_finite, unit_rows


@dataclass(frozen=True)
class EvalReport:
    """Per-client metric bundle.

    Classification clients fill ``acc_at``; retrieval clients fill the two
    recall maps. ``r1_sum``/``r5_sum`` are the summed bidirectional recalls.
    """

    acc_at: dict[int, float] = field(default_factory=dict)
    recall_i2t_at: dict[int, float] = field(default_factory=dict)
    recall_t2i_at: dict[int, float] = field(default_factory=dict)
    n_eval: int = 0

    @property
    def r1_sum(self) -> float:
        return self.recall_i2t_at.get(1, 0.0) + self.recall_t2i_at.get(1, 0.0)

    @property
    def r5_sum(self) -> float:
        return self.recall_i2t_at.get(5, 0.0) + self.recall_t2i_at.get(5, 0.0)

    def to_dict(self) -> dict:
        return {
            "acc_at": {str(k): v for k, v in self.acc_at.items()},
            "recall_i2t_at": {str(k): v for k, v in self.recall_i2t_at.items()},
            "recall_t2i_at": {str(k): v for k, v in self.recall_t2i_at.items()},
            "r1_sum": self.r1_sum,
            "r5_sum": self.r5_sum,
            "n_eval": self.n_eval,
        }


def _true_ranks(scores: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Position of each row's true column under a stable descending sort of
    that row: the count of strictly greater scores plus the equal scores at a
    lower column. A row is a top-k hit exactly when its rank is below k.

    The greater scores are summed as bytes into the narrowest unsigned type
    that holds a row's length, and the equal ones are counted only when some
    row has one besides its own score."""
    own = scores[np.arange(len(scores)), truth][:, None]
    greater = (scores > own).view(np.uint8)
    ranks = greater.sum(axis=1, dtype=np.min_scalar_type(scores.shape[1]))
    equal = scores == own
    if np.count_nonzero(equal) > len(scores):
        lower = np.arange(scores.shape[1]) < truth[:, None]
        ranks = ranks + np.count_nonzero(equal & lower, axis=1)
    return ranks


def _hit_rate(ranks: np.ndarray, k: int) -> float:
    return float((ranks < k).mean())


def classification_report(logits, labels, ks=(1, 5)) -> EvalReport:
    ranks = _true_ranks(require_finite(logits, "logits"), labels)
    return EvalReport(acc_at={int(k): _hit_rate(ranks, k) for k in ks}, n_eval=len(labels))


def retrieval_report(img_embs, txt_embs, ks=(1, 5)) -> EvalReport:
    """Bidirectional retrieval with identity ground truth (aligned pairs):
    each side is normalised once, and one cosine matrix per direction serves
    every k."""
    img = unit_rows(img_embs, "image embeddings").unit
    txt = unit_rows(txt_embs, "text embeddings").unit
    n = len(img)
    identity = np.arange(n)
    i2t = _true_ranks(img @ txt.T, identity)
    t2i = _true_ranks(txt @ img.T, identity)
    return EvalReport(
        recall_i2t_at={int(k): _hit_rate(i2t, k) for k in ks},
        recall_t2i_at={int(k): _hit_rate(t2i, k) for k in ks},
        n_eval=n,
    )
