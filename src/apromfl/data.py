"""Synthetic multimodal data with a shared latent-class structure, plus
Dirichlet non-IID partitioning and role assignment: each client gets a kind
and the index rows of its samples.

Each sample owns a latent point near its class mean; both views are fixed
nonlinear projections of that same latent (tanh keeps them non-trivially
related), so paired views are alignable across modalities by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import Rng, require_finite, seeded_rng

ROLE_ORDER = ("multimodal", "image", "text")


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = field(default=10, metadata={"min": 1})
    latent_dim: int = field(default=16, metadata={"min": 1})
    image_dim: int = field(default=32, metadata={"min": 1})
    text_dim: int = field(default=24, metadata={"min": 1})
    samples_per_class: int = field(default=200, metadata={"min": 1})
    view_noise_sigma: float = field(default=0.25, metadata={"min": 0})
    latent_noise_sigma: float = field(default=1.0, metadata={"min": 0})
    class_sep: float = field(default=3.0, metadata={"above": 0})
    seed: int | None = None  # None: finalize_config sets it to the run seed


@dataclass(frozen=True)
class SyntheticDataset:
    """Paired views and labels, one row per sample."""

    images: np.ndarray  # (N, image_dim)
    texts: np.ndarray  # (N, text_dim)
    labels: np.ndarray  # (N,) int

    def subset(self, indices: np.ndarray) -> "SyntheticDataset":
        return SyntheticDataset(self.images[indices], self.texts[indices], self.labels[indices])


def generate(spec: SyntheticSpec) -> SyntheticDataset:
    """Draw the dataset. The spec seed fully determines every sample."""
    if spec.seed is None:
        raise ValueError("synthetic.seed must be resolved before generation")
    rng = seeded_rng(spec.seed, "synthetic-data")
    means = spec.class_sep * rng.standard_normal((spec.num_classes, spec.latent_dim))
    proj_img = rng.standard_normal((spec.latent_dim, spec.image_dim)) / np.sqrt(spec.latent_dim)
    proj_txt = rng.standard_normal((spec.latent_dim, spec.text_dim)) / np.sqrt(spec.latent_dim)
    images, texts, labels = [], [], []
    n = spec.samples_per_class
    for c in range(spec.num_classes):
        latent = means[c] + spec.latent_noise_sigma * rng.standard_normal((n, spec.latent_dim))
        images.append(
            np.tanh(latent @ proj_img)
            + spec.view_noise_sigma * rng.standard_normal((n, spec.image_dim))
        )
        texts.append(
            np.tanh(latent @ proj_txt)
            + spec.view_noise_sigma * rng.standard_normal((n, spec.text_dim))
        )
        labels.append(np.full(n, c, dtype=int))
    # validation takes any finite scale, but a large one overflows the draws
    scales = "synthetic.class_sep, synthetic.latent_noise_sigma or synthetic.view_noise_sigma"
    return SyntheticDataset(
        images=require_finite(np.concatenate(images), f"image views ({scales} too large)"),
        texts=require_finite(np.concatenate(texts), f"text views ({scales} too large)"),
        labels=np.concatenate(labels),
    )


def eval_cut(class_size: int, eval_fraction: float) -> int:
    """How many samples of a class :func:`train_eval_split` holds out."""
    return int(eval_fraction * class_size)


def train_eval_split(dataset: SyntheticDataset, eval_fraction: float):
    """Per-class holdout taken before any partitioning, so eval membership
    never depends on the client split. Returns (train, eval)."""
    eval_idx, train_idx = [], []
    for c in np.unique(dataset.labels):
        idx = np.flatnonzero(dataset.labels == c)
        cut = eval_cut(len(idx), eval_fraction)
        eval_idx.append(idx[:cut])
        train_idx.append(idx[cut:])
    return dataset.subset(np.concatenate(train_idx)), dataset.subset(np.concatenate(eval_idx))


@dataclass(frozen=True)
class PartitionPlan:
    """Per-client, per-class sample index lists (a true partition)."""

    client_shares: tuple[dict[int, np.ndarray], ...]

    def client_indices(self, client_id: int) -> np.ndarray:
        shares = self.client_shares[client_id]
        if not shares:
            return np.empty(0, dtype=int)
        return np.concatenate([shares[c] for c in sorted(shares)])


def dirichlet_partition(labels, num_clients: int, alpha: float, rng: Rng) -> PartitionPlan:
    """Split each class across clients by Dirichlet(alpha) proportions.

    Counts are rounded by largest remainder; if a client ends up empty it
    takes one sample from the currently largest client.
    """
    shares: list[dict[int, np.ndarray]] = [dict() for _ in range(num_clients)]
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(len(idx))]
        props = rng.dirichlet(np.full(num_clients, alpha))
        counts = _largest_remainder(props * len(idx))
        start = 0
        for client, count in enumerate(counts):
            if count:
                shares[client][int(c)] = idx[start : start + count]
            start += count

    _repair_empty_clients(shares)
    return PartitionPlan(tuple(shares))


def _largest_remainder(targets: np.ndarray) -> np.ndarray:
    floors = np.floor(targets).astype(int)
    remainder = int(round(targets.sum())) - int(floors.sum())
    if remainder > 0:
        fractional = targets - floors
        # ties fall to the lower client id via stable sort
        for slot in np.argsort(-fractional, kind="stable")[:remainder]:
            floors[slot] += 1
    return floors


def _repair_empty_clients(plan: list[dict[int, np.ndarray]]) -> None:
    sizes = [sum(len(v) for v in s.values()) for s in plan]
    for client, size in enumerate(sizes):
        if size:
            continue
        donor = int(np.argmax(sizes))
        donor_class = max(plan[donor], key=lambda c: (len(plan[donor][c]), -c))
        moved, rest = plan[donor][donor_class][-1], plan[donor][donor_class][:-1]
        if len(rest):
            plan[donor][donor_class] = rest
        else:
            del plan[donor][donor_class]
        plan[client][donor_class] = np.asarray([moved], dtype=int)
        sizes[donor] -= 1
        sizes[client] += 1


def role_pools(
    classes, counts: tuple[int, int, int], disjoint: bool
) -> list[tuple[str, list[int], int]]:
    """Each partition pool as ``(who, classes, client count)``: one of every
    class for all clients, or, if ``disjoint``, one per role that has
    clients, the classes dealt round-robin across those roles in order."""
    classes = [int(c) for c in classes]
    if not disjoint:
        return [("clients", classes, sum(counts))]
    active = [r for r, m in enumerate(counts) if m > 0]
    return [
        (f"{ROLE_ORDER[r]} clients", classes[j :: len(active)], counts[r])
        for j, r in enumerate(active)
    ]


def role_partition(
    labels,
    counts: tuple[int, int, int],
    alpha: float,
    rng: Rng,
    disjoint_classes: bool = False,
) -> PartitionPlan:
    """Partition for (multimodal, image, text) client groups in that order:
    each of the :func:`role_pools` (one shared, or with ``disjoint_classes``
    one per role) is split across its clients."""
    shares: list[dict[int, np.ndarray]] = []
    for _, classes, count in role_pools(np.unique(labels), counts, disjoint_classes):
        pool = np.flatnonzero(np.isin(labels, classes))
        sub = dirichlet_partition(labels[pool], count, alpha, rng)
        shares += [{c: pool[v] for c, v in share.items()} for share in sub.client_shares]
    return PartitionPlan(tuple(shares))


def assign_roles(
    plan: PartitionPlan, counts: tuple[int, int, int]
) -> list[tuple[str, np.ndarray]]:
    """Each client's kind and its index rows into the partitioned samples;
    ids run multimodal, then image, then text."""
    kinds = [kind for kind, m in zip(ROLE_ORDER, counts) for _ in range(m)]
    return [(kind, plan.client_indices(client_id)) for client_id, kind in enumerate(kinds)]
