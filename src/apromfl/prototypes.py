"""Prototype construction and server-side heterogeneous aggregation.

Unimodal clients summarise each class by the mean of its embeddings;
multimodal clients cluster fused image/text embeddings and emit one
(image mean, text mean) pair per cluster. The server completes the missing
modality of every unimodal prototype as a similarity-weighted sum over the
multimodal pairs, then clusters everything into K global pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, UnitRows, kmeans, require_finite, unit_rows

#: Below this total weight, completion falls back to uniform weights.
WEIGHT_EPS = 1e-12


@dataclass(frozen=True)
class UnimodalPrototype:
    """Mean embedding of one class on one unimodal client."""

    modality: str  # "image" | "text"
    vector: np.ndarray
    class_id: int


@dataclass(frozen=True)
class PrototypePair:
    """Matched (image prototype, text prototype) couple."""

    image_vec: np.ndarray
    text_vec: np.ndarray


@dataclass(frozen=True)
class GlobalPrototypeSet:
    """The K server-side prototype pairs broadcast each round."""

    pairs: tuple[PrototypePair, ...]


def label_guided_prototypes(embs, labels, modality: str = "image") -> list[UnimodalPrototype]:
    """One prototype per present class: the mean embedding of that class."""
    embs = require_finite(embs, "embeddings")
    labels = np.asarray(labels, dtype=int)
    if embs.ndim != 2 or len(embs) == 0:
        raise ValueError("need a non-empty (N, d) embedding array")
    if len(labels) != len(embs):
        raise ValueError("embeddings and labels must align")
    return [
        UnimodalPrototype(modality, embs[labels == class_id].mean(axis=0), int(class_id))
        for class_id in np.unique(labels)
    ]


def fuse(e_img, e_txt) -> np.ndarray:
    """Elementwise mean of the two modality embeddings."""
    e_img = np.asarray(e_img, dtype=float)
    e_txt = np.asarray(e_txt, dtype=float)
    if e_img.shape != e_txt.shape:
        raise ValueError(f"dimension mismatch: {e_img.shape} vs {e_txt.shape}")
    return (e_img + e_txt) / 2.0


def _cluster_pairs(imgs, txts, k: int, rng: Rng):
    """k-means on the fused pairs, then one (image mean, text mean) pair per
    cluster, in ascending label order. Returns ``(pairs, labels)``."""
    labels, _, _ = kmeans(fuse(imgs, txts), k, rng)
    pairs = [
        PrototypePair(imgs[labels == c].mean(axis=0), txts[labels == c].mean(axis=0))
        for c in range(k)
    ]
    return pairs, labels


def clustering_prototype_pairs(
    img_embs, txt_embs, k: int, rng: Rng
) -> tuple[list[PrototypePair], np.ndarray]:
    """Cluster fused embeddings into k pseudo-labels; per cluster, pair the
    mean image embedding with the mean text embedding. Returns the pairs and
    the pseudo-label of every sample."""
    img_embs = require_finite(img_embs, "image embeddings")
    txt_embs = require_finite(txt_embs, "text embeddings")
    if img_embs.shape != txt_embs.shape:
        raise ValueError("image/text embeddings must align pairwise")
    return _cluster_pairs(img_embs, txt_embs, k, rng)


def pair_matrix(pairs) -> np.ndarray:
    """The image and text vectors of ``pairs`` as one ``(2, M, d)`` stack."""
    return np.stack([[p.image_vec for p in pairs], [p.text_vec for p in pairs]])


def completion_matrices(mm_pairs: list[PrototypePair]) -> tuple[np.ndarray, UnitRows]:
    """What :func:`semantic_complete` reads: the multimodal pairs as one
    ``(2, M, d)`` image/text stack, and its unit rows. A server phase builds
    them once and completes every unimodal prototype against them."""
    pairs = pair_matrix(mm_pairs)
    return pairs, unit_rows(pairs, "multimodal prototypes")


def semantic_complete(
    uni: UnimodalPrototype, pairs: np.ndarray, unit: UnitRows, top_o: int
) -> PrototypePair:
    """Synthesise the missing modality of a unimodal prototype from the
    multimodal pairs given by :func:`completion_matrices`.

    Ranks the multimodal pairs by cosine similarity on the prototype's own
    modality, keeps the top_o most similar (ties broken by lower pair index),
    converts the kept similarities into weights by clamping negatives to zero
    and normalising, and returns the weighted sum of the opposite-modality
    prototypes paired with the original vector. If every kept similarity is
    non-positive (a zero vector has cosine 0 with every pair) the weights
    fall back to uniform.
    """
    if top_o < 1:
        raise ValueError(f"top_o must be >= 1, got {top_o}")
    if pairs.shape[1] < top_o:
        raise ValueError(f"need at least top_o={top_o} pairs, got {pairs.shape[1]}")
    own = 0 if uni.modality == "image" else 1
    norm = np.linalg.norm(uni.vector)
    sims = unit.unit[own] @ (uni.vector / (norm if norm else 1.0))
    keep = np.argsort(-sims, kind="stable")[:top_o]
    weights = np.maximum(sims[keep], 0.0)
    total = weights.sum()
    if total < WEIGHT_EPS:
        weights = np.full(top_o, 1.0 / top_o)
    else:
        weights = weights / total
    completed = weights @ pairs[1 - own][keep]
    image_vec = uni.vector if uni.modality == "image" else completed
    text_vec = completed if uni.modality == "image" else uni.vector
    return PrototypePair(image_vec, text_vec)


def build_global_prototypes(all_pairs: list[PrototypePair], k: int, rng: Rng) -> GlobalPrototypeSet:
    """Cluster fused pair representations into exactly k global pairs."""
    if len(all_pairs) < k:
        raise ValueError(f"need at least k={k} pairs, got {len(all_pairs)}")
    imgs, txts = pair_matrix(all_pairs)
    pairs, _ = _cluster_pairs(imgs, txts, k, rng)
    return GlobalPrototypeSet(tuple(pairs))
