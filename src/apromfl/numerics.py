"""Deterministic numeric primitives used by every other module.

Everything operates on float64 numpy arrays and is pure. The only source of
randomness in the whole project is :func:`seeded_rng`; callers derive one
generator per purpose (init / batching / clustering / ...), so results never
depend on call ordering across purposes, threads or processes.

Arguments are not range- or shape-checked: the config validation and the
callers make them valid. What raises is a fault detector: non-finite input
(:func:`require_finite`, :func:`unit_rows`, :func:`kmeans`), or k-means
points so large that their squared distances overflow.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

Rng = np.random.Generator

#: Floor applied to divergence denominators so KL stays defined at q == 0.
KL_EPS = 1e-12


def seeded_rng(*key: int | str) -> Rng:
    """PCG64 generator derived from a key path of ints and strings.

    The path is hashed with SHA-256 into SeedSequence entropy. Extending the
    key, e.g. ``seeded_rng(seed, "client", 3, "round", 7, "batches")``, yields
    an independent substream that is reproducible bit-for-bit on every
    platform and in every process.
    """
    material = ":".join(str(part) for part in key).encode("utf-8")
    entropy = int.from_bytes(hashlib.sha256(material).digest(), "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def require_finite(arr, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class UnitRows:
    """Rows of an ``(..., N, d)`` array scaled to unit L2 norm, with the norms
    they were divided by: the form every cosine in the project starts from.
    Indexing the leading axes gathers both (``rows[:, batch]``, ``rows[0]``),
    and a stack unpacks along its first axis (``img, txt = rows``), so one
    normalisation serves any slice of it."""

    unit: np.ndarray  # (..., N, d)
    norms: np.ndarray  # (..., N, 1)

    def __getitem__(self, index) -> "UnitRows":
        return UnitRows(self.unit[index], self.norms[index])

    def backward(self, g_unit) -> np.ndarray:
        """d/dx of u = x/|x|, applied to an upstream gradient on the unit rows."""
        u = self.unit
        return (g_unit - (g_unit * u).sum(axis=-1, keepdims=True) * u) / self.norms


def unit_rows(x, what: str = "embeddings") -> UnitRows:
    """``x`` checked finite (raising naming ``what``) and scaled to unit rows.
    A zero row has its norm taken as 1 (scikit-learn's ``normalize`` rule),
    so it stays zero: its cosines are 0 and its gradient is finite."""
    x = require_finite(x, what)
    # what np.linalg.norm(x, axis=-1, keepdims=True) computes, minus its dispatch
    norms = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    norms[norms == 0] = 1.0
    return UnitRows(x / norms, norms)


def logsumexp(a, axis: int = -1) -> np.ndarray:
    """Stable log-sum-exp along ``axis``."""
    m = a.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m
    return out.squeeze(axis=axis)


#: Independent k-means++ initialisations per call; the lowest-SSE run wins.
#: Tiny instances get extra restarts: they are nearly free to re-run and are
#: exactly where a single init is most likely to land in a local optimum.
KMEANS_RESTARTS = 3
KMEANS_RESTARTS_SMALL = 10
KMEANS_SMALL_N = 32
#: Lloyd iterations per restart at most; each stops earlier once its
#: assignments repeat.
KMEANS_MAX_ITERS = 100


def kmeans(points, k: int, rng: Rng):
    """Greedy k-means++ init (best of a few restarts) plus Lloyd iterations
    on an ``(n, d)`` array of points, with ``1 <= k <= n``.

    Returns ``(labels, centroids, history)``. Deterministic given the
    generator; every label in ``0..k-1`` is used on return. ``history`` is
    the winning restart's SSE: ``history[0]`` is the SSE of the k-means++
    centroids under their induced assignment; each later entry is measured
    after a full Lloyd update. The sequence is non-increasing by
    construction: empty clusters are repaired at the assignment level (the
    point fitting its own cluster worst moves into the empty cluster) before
    centroids are recomputed as means, which can only lower the objective.

    Each mean is a sum accumulated point by point in index order (``np.add.at``)
    divided by the cluster size: for d >= 2, bit-for-bit
    ``pts[labels == c].mean(axis=0)``.

    The seedings of all restarts read one :class:`_DistanceRows` store, so
    the squared-distance row of a point is computed once per call however
    often the candidates and restarts draw it. The store holds at most
    ``min(n, draws)`` rows of n float64 values, where ``draws`` counts every
    point the seeding picks in the call: under 1 MB at the benchmark's sizes
    (n <= 266, so at most 0.57 MB). It is freed before the first Lloyd run.
    """
    pts = require_finite(points, "kmeans points")
    restarts = KMEANS_RESTARTS_SMALL if len(pts) <= KMEANS_SMALL_N else KMEANS_RESTARTS
    rows = _DistanceRows(pts)
    seeds = [_kmeans_pp_init(pts, k, rng, rows) for _ in range(restarts)]
    # Lloyd draws nothing from rng, so it can run after every seeding, once
    # the rows are freed: its (n, k, d) difference array is the call's peak.
    del rows
    best = None
    for centroids in seeds:
        result = _lloyd(pts, centroids)
        if best is None or result[2][-1] < best[2][-1]:
            best = result
    return best


def _lloyd(pts: np.ndarray, centroids: np.ndarray):
    n, k = len(pts), len(centroids)
    history: list[float] = []
    prev = None
    assignments = np.zeros(n, dtype=int)
    for iteration in range(KMEANS_MAX_ITERS):
        d2 = _sq_dists(pts, centroids)
        assignments = np.argmin(d2, axis=1)  # ties -> lowest centroid index
        counts = np.bincount(assignments, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            movable = counts[assignments] > 1
            candidate = np.where(movable, d2[np.arange(n), assignments], -np.inf)
            worst = int(np.argmax(candidate))
            counts[assignments[worst]] -= 1
            assignments[worst] = empty
            counts[empty] = 1
        if iteration == 0:
            history.append(float(((pts - centroids[assignments]) ** 2).sum()))
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, pts)
        centroids = sums / counts[:, None]
        history.append(float(((pts - centroids[assignments]) ** 2).sum()))
        if prev is not None and np.array_equal(assignments, prev):
            break
        prev = assignments.copy()
    return assignments, centroids, history


def _sq_dists(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _sq_dist_rows(pts: np.ndarray, idx) -> np.ndarray:
    """Squared distances from the points ``idx`` to every point, ``(len(idx), n)``."""
    return ((pts[None] - pts[idx][:, None]) ** 2).sum(axis=2)


class _DistanceRows:
    """Squared-distance rows of one point set, each computed the first time
    its point is asked for and kept for the rest of the ``kmeans`` call. A
    row has the bits whichever batch computed it: the sum runs over d alone."""

    def __init__(self, pts: np.ndarray):
        self.pts = pts
        self.rows: dict[int, np.ndarray] = {}

    def __getitem__(self, idx: np.ndarray) -> np.ndarray:
        idx = idx.tolist()
        missing = [i for i in dict.fromkeys(idx) if i not in self.rows]
        if missing:
            self.rows.update(zip(missing, _sq_dist_rows(self.pts, missing)))
        return np.array([self.rows[i] for i in idx])


def _draw_d2(closest: np.ndarray, total: float, size: int, rng: Rng) -> np.ndarray:
    """``rng.choice(len(closest), size=size, p=closest / total)`` minus its
    argument checks: the same inverse-CDF search over the same uniforms, so
    the same indices from the same stream. Those checks cannot fail here:
    ``closest`` is a finite sum of squares and ``total > 0``."""
    cdf = (closest / total).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: Rng, rows: _DistanceRows) -> np.ndarray:
    """Greedy k-means++: each new centroid is sampled D^2-proportionally from
    a few candidates and the one shrinking the potential most is kept; ties
    go to the first candidate drawn. The candidates' distance rows come from
    ``rows``, which the other candidates and restarts of the call share."""
    n = len(pts)
    n_candidates = 2 + int(np.log(k))
    centroids = np.empty((k, pts.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centroids[0] = pts[first]
    closest = rows[np.asarray([first])][0]
    if not np.isfinite(closest.sum()):
        raise ValueError("kmeans points are too large: their squared distances overflow")
    for i in range(1, k):
        total = closest.sum()
        if total > 0:
            candidates = _draw_d2(closest, total, n_candidates, rng)
        else:
            # all remaining points coincide with a chosen centroid
            candidates = np.asarray([int(rng.integers(n))])
        d2 = rows[candidates]
        best = int(np.argmin(np.minimum(closest, d2).sum(axis=1)))  # first strict minimum
        centroids[i] = pts[candidates[best]]
        closest = np.minimum(closest, d2[best])
    return centroids
