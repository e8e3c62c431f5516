"""Prototype construction and server-side heterogeneous aggregation.

Unimodal clients summarise each class by the mean of its embeddings;
multimodal clients cluster fused image/text embeddings and emit one
(image mean, text mean) pair per cluster; no record carries a class label.
The server completes the missing modality of every unimodal prototype as a
similarity-weighted sum over the multimodal pairs, in one
:func:`semantic_complete` call, then clusters everything into K global pairs.

Callers pass valid sizes (``k`` and ``top_o`` at most the number of points
or pairs, every client holding a sample), so no argument is range-checked;
non-finite embeddings still raise, naming the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, kmeans, require_finite, unit_rows

#: Below this total weight, completion falls back to uniform weights.
WEIGHT_EPS = 1e-12


@dataclass(frozen=True)
class UnimodalPrototype:
    """Mean embedding of one class on one unimodal client."""

    modality: str  # "image" | "text"
    vector: np.ndarray


@dataclass(frozen=True)
class PrototypePair:
    """Matched (image prototype, text prototype) couple."""

    image_vec: np.ndarray
    text_vec: np.ndarray


@dataclass(frozen=True)
class GlobalPrototypeSet:
    """The K server-side prototype pairs broadcast each round."""

    pairs: tuple[PrototypePair, ...]


def label_guided_prototypes(embs, labels, modality: str) -> list[UnimodalPrototype]:
    """One prototype per present class, in ascending class order: the mean
    embedding of that class."""
    embs = require_finite(embs, "embeddings")
    return [
        UnimodalPrototype(modality, embs[labels == c].mean(axis=0))
        for c in np.unique(labels)
    ]


def fuse(e_img, e_txt) -> np.ndarray:
    """Elementwise mean of the two modality embeddings."""
    return (e_img + e_txt) / 2.0


def clustering_prototype_pairs(img_embs, txt_embs, k: int, rng: Rng) -> list[PrototypePair]:
    """Cluster fused embeddings into k pseudo-labels; per cluster, in
    ascending label order, pair the mean image embedding with the mean text
    embedding."""
    img_embs = require_finite(img_embs, "image embeddings")
    txt_embs = require_finite(txt_embs, "text embeddings")
    labels = kmeans(fuse(img_embs, txt_embs), k, rng)
    return [
        PrototypePair(img_embs[labels == c].mean(axis=0), txt_embs[labels == c].mean(axis=0))
        for c in range(k)
    ]


def pair_matrix(pairs) -> np.ndarray:
    """The image and text vectors of ``pairs`` as one ``(2, M, d)`` stack."""
    return np.stack([[p.image_vec for p in pairs], [p.text_vec for p in pairs]])


def semantic_complete(
    unimodal: list[UnimodalPrototype], mm_pairs: list[PrototypePair], top_o: int
) -> list[PrototypePair]:
    """Synthesise the missing modality of each unimodal prototype, in order,
    from the multimodal pairs, which are stacked and normalised once.

    Ranks the multimodal pairs by cosine similarity on the prototype's own
    modality, keeps the top_o most similar (ties broken by lower pair index),
    converts the kept similarities into weights by clamping negatives to zero
    and normalising, and pairs the weighted sum of the opposite-modality
    prototypes with the original vector. If every kept similarity is
    non-positive (a zero vector has cosine 0 with every pair) the weights
    fall back to uniform.
    """
    pairs = pair_matrix(mm_pairs)
    unit = unit_rows(pairs, "multimodal prototypes").unit
    completed = []
    for uni in unimodal:
        own = 0 if uni.modality == "image" else 1
        norm = np.linalg.norm(uni.vector)
        sims = unit[own] @ (uni.vector / (norm if norm else 1.0))
        keep = np.argsort(-sims, kind="stable")[:top_o]
        weights = np.maximum(sims[keep], 0.0)
        total = weights.sum()
        if total < WEIGHT_EPS:
            weights = np.full(top_o, 1.0 / top_o)
        else:
            weights = weights / total
        filled = weights @ pairs[1 - own][keep]
        if uni.modality == "image":
            completed.append(PrototypePair(image_vec=uni.vector, text_vec=filled))
        else:
            completed.append(PrototypePair(image_vec=filled, text_vec=uni.vector))
    return completed


def build_global_prototypes(all_pairs: list[PrototypePair], k: int, rng: Rng) -> GlobalPrototypeSet:
    """Cluster fused pair representations into exactly k global pairs."""
    return GlobalPrototypeSet(tuple(clustering_prototype_pairs(*pair_matrix(all_pairs), k, rng)))
