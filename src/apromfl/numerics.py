"""Deterministic numeric primitives used by every other module.

Everything operates on float64 numpy arrays and is pure. The only source of
randomness in the whole project is :func:`seeded_rng`; callers derive one
generator per purpose (init / batching / clustering / ...), so results never
depend on call ordering across purposes, threads or processes.

k-means returns only its labels, every one of ``0..k-1`` used: each
restart measures its SSE once, after its last Lloyd update, and the lowest
wins. The labels are the bits of its loop form (``tests/oracles.py``, which
also keeps each iteration's SSE) on any BLAS: Lloyd screens its assignments
with one GEMM and computes exactly every row the screen cannot decide (a row
whose second-best screen value lies within the screen's error bound of its
best), and stops at the first repeated assignment without recomputing its
means. The k-means++ seeding reads one ``(n, n)`` squared-distance matrix,
built in one call by a blocked kernel that adds each row's terms in numpy's
own pairwise-sum order.

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
    they were divided by: the form every cosine in the project starts from."""

    unit: np.ndarray  # (..., N, d)
    norms: np.ndarray  # (..., N, 1)

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
#: The Lloyd screen runs only while ``max |x|^2 + max |c|^2`` is below this:
#: then none of its values can overflow.
_SCREEN_LIMIT = float(np.finfo(float).max) / 8
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)
#: Squared-difference terms :func:`_sq_dist_rows` holds at once (1 MB).
_SQ_DIST_BLOCK = 1 << 17


def kmeans(points, k: int, rng: Rng) -> np.ndarray:
    """Greedy k-means++ init (best of a few restarts) plus Lloyd iterations
    on an ``(n, d)`` array of points, with ``1 <= k <= n``.

    Returns the ``(n,)`` labels, every one of ``0..k-1`` used. Deterministic
    given the generator. Each restart's SSE is measured once, after its
    last Lloyd update, and the restart with the strictly lowest SSE wins
    (ties to the first). Empty clusters are repaired at the assignment
    level (the point fitting its own cluster worst moves into the empty
    cluster) before centroids are recomputed as means, so no Lloyd update
    raises the objective.

    Each Lloyd assignment is the argmin of the exact squared distances
    (:func:`_sq_dists`, ties to the lowest index), found through one GEMM
    screen (:func:`_nearest`). Each mean is a sum accumulated point by point
    in index order (``np.bincount``) divided by the cluster size: for
    d >= 2, bit-for-bit ``pts[labels == c].mean(axis=0)``.

    The seedings of all restarts read one squared-distance matrix, built in
    one :func:`_sq_dist_rows` call before the first restart by a blocked
    kernel that adds each row's d terms in numpy's pairwise-sum order (the
    bits of ``.sum(axis=-1)``). It is one ``(n, n)`` float64 array, 0.57 MB
    at the benchmark's largest n (266), plus the kernel's block buffer of at
    most about 1 MB, and it is freed before the first Lloyd run. Lloyd's
    screen holds a few ``(n, k)`` arrays, and its exact rows an
    ``(m, k, d)`` one for the m rows it recomputes: m is small unless many
    points tie.
    """
    pts = require_finite(points, "kmeans points")
    restarts = KMEANS_RESTARTS_SMALL if len(pts) <= KMEANS_SMALL_N else KMEANS_RESTARTS
    with np.errstate(over="ignore"):  # reported once, by the seeding's ValueError
        rows = _sq_dist_rows(pts)
    seeds = [_kmeans_pp_init(pts, k, rng, rows) for _ in range(restarts)]
    # Lloyd draws nothing from rng, so it can run after every seeding, once
    # the matrix is freed.
    del rows
    x_sq_max = _sq_norm_max(pts)
    runs = [_lloyd(pts, centroids, x_sq_max) for centroids in seeds]
    return min(runs, key=lambda run: run[1])[0]  # the first of equal SSEs


def _lloyd(pts: np.ndarray, centroids: np.ndarray, x_sq_max: float):
    """Lloyd iterations from ``centroids``; returns the last assignments and
    their SSE against the last centroids."""
    d, k = pts.shape[1], len(centroids)
    coords = np.arange(d)
    prev = None
    for _ in range(KMEANS_MAX_ITERS):
        assignments = _nearest(pts, centroids, x_sq_max)
        counts = np.bincount(assignments, minlength=k)
        if not counts.all():
            # each point's exact squared distance to its centroid (the bits
            # of _sq_dists); a moved point is never movable again, so its
            # stale entry is never read
            diff = pts - centroids[assignments]
            own = np.einsum("nd,nd->n", diff, diff)
            for empty in np.flatnonzero(counts == 0):
                movable = counts[assignments] > 1
                worst = int(np.argmax(np.where(movable, own, -np.inf)))
                counts[assignments[worst]] -= 1
                assignments[worst] = empty
                counts[empty] = 1
        if prev is not None and np.array_equal(assignments, prev):
            break  # the centroids are already the means of these assignments
        # one bin per (cluster, coordinate), filled in point order
        bins = (assignments[:, None] * d + coords).ravel()
        sums = np.bincount(bins, weights=pts.ravel(), minlength=k * d).reshape(k, d)
        centroids = sums / counts[:, None]
        prev = assignments
    return assignments, float(((pts - centroids.take(assignments, axis=0)) ** 2).sum())


def _sq_dists(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _sq_norm_max(pts: np.ndarray) -> float:
    """``max |x|^2`` over the points, the screen's per-call scale term (inf
    when it overflows)."""
    return float(np.einsum("nd,nd->n", pts, pts).max())


def _nearest(pts: np.ndarray, centroids: np.ndarray, x_sq_max: float) -> np.ndarray:
    """``np.argmin(_sq_dists(pts, centroids), axis=1)`` through one GEMM,
    given ``x_sq_max``, the points' :func:`_sq_norm_max`.

    The screen ``|c|^2 - 2 x.c`` is ``|x - c|^2`` less the row's constant
    ``|x|^2``, so its argmin is the nearest centroid, but it rounds
    differently from the exact form. Each form is within
    ``(2d + 4) eps (|x|^2 + |c|^2)`` of the true value, plus ``2d`` times
    the smallest subnormal for products that underflow, whatever the
    summation order, FMA use or BLAS thread count. A row keeps the screen's
    argmin only when every other centroid's screen value exceeds the best
    one's by ``slack``: more than four times that bound at the largest
    norms (both forms' errors, on both values compared), so both forms then
    have the same strict minimum. The other rows get their exact distances:
    exact ties (which go to the lowest index) and near-ties, found as the
    rows whose second-smallest screen value is within ``slack`` of the
    best. All rows do when the norms are so large that the screen could
    overflow.
    """
    c_sq = np.einsum("kd,kd->k", centroids, centroids)
    scale = x_sq_max + float(c_sq.max())  # python floats: an overflow is inf, not a warning
    if not scale < _SCREEN_LIMIT:
        return np.argmin(_sq_dists(pts, centroids), axis=1)
    screen = pts @ (-2.0 * centroids.T) + c_sq
    labels = screen.argmin(axis=1)
    rows = np.arange(len(screen))
    best = screen[rows, labels]
    screen[rows, labels] = np.inf
    second = screen[rows, screen.argmin(axis=1)]  # a row's argmin costs less than its min
    slack = 8 * (pts.shape[1] + 4) * (_EPS * scale + _TINY)
    recheck = np.flatnonzero(second <= best + slack)
    if len(recheck):
        labels[recheck] = np.argmin(_sq_dists(pts[recheck], centroids), axis=1)
    return labels


def _sq_dist_rows(pts: np.ndarray) -> np.ndarray:
    """Squared distances between every two points, ``(n, n)``: the bits of
    ``((pts[None] - pts[:, None]) ** 2).sum(axis=2)``.

    The work runs coordinate-major, ``_SQ_DIST_BLOCK`` terms at a time: each
    block of rows fills one reused ``(d, rows, n)`` buffer with its squared
    differences (at most about 1 MB, or one row's ``d * n`` terms if that is
    more) and :func:`_pairwise_sum` reduces it over d in the order numpy's
    ``.sum`` adds a row's d terms. The matrix is symmetric to the bit (each
    term of row i, column j is the square of the negated term of row j,
    column i, added in the same order), so a block computes only the columns
    from its first row on and mirrors the ones after its last row into the
    rows below it.
    """
    n, d = pts.shape
    cols = np.ascontiguousarray(pts.T)
    block = max(1, _SQ_DIST_BLOCK // (d * n))
    out = np.empty((n, n))
    buf = np.empty(d * min(block, n) * n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        shape = (d, stop - start, n - start)
        terms = buf[: shape[0] * shape[1] * shape[2]].reshape(shape)
        np.subtract(cols[:, None, start:], cols[:, start:stop, None], out=terms)
        np.square(terms, out=terms)
        out[start:stop, start:] = _pairwise_sum(terms)
        out[stop:, start:stop] = out[start:stop, stop:].T
    return out


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=0)``'s bits as if axis 0 were contiguous: numpy's
    pairwise summation of d terms, in place, returning the slab holding the
    sum. Below 8 terms they are added in sequence; up to 128, into 8 running
    accumulators combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and
    then the leftover terms in sequence; above, each half (split at a
    multiple of 8) is summed alike and the halves added."""
    d = len(terms)
    if d < 8:
        for i in range(1, d):
            terms[0] += terms[i]
        return terms[0]
    if d <= 128:
        acc, tail = terms[:8], d - d % 8
        for i in range(8, tail, 8):
            acc += terms[i : i + 8]
        acc[0::2] += acc[1::2]
        acc[0::4] += acc[2::4]
        acc[0] += acc[4]
        for i in range(tail, d):
            acc[0] += terms[i]
        return acc[0]
    half = d // 2 - (d // 2) % 8
    total = _pairwise_sum(terms[:half])
    total += _pairwise_sum(terms[half:])
    return total


def _draw_d2(closest: np.ndarray, total: float, size: int, rng: Rng) -> np.ndarray:
    """``rng.choice(len(closest), size=size, p=closest / total)`` minus its
    argument checks: the same inverse-CDF search over the same uniforms, so
    the same indices from the same stream. Those checks cannot fail here:
    ``closest`` is a finite sum of squares and ``total > 0``."""
    cdf = (closest / total).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: Rng, rows: np.ndarray) -> np.ndarray:
    """Greedy k-means++: each new centroid is sampled D^2-proportionally from
    a few candidates and the one shrinking the potential most is kept; ties
    go to the first candidate drawn. The candidates' distance rows are taken
    from ``rows``, the call's ``(n, n)`` squared-distance matrix. The
    winner's row of candidate minima becomes ``closest`` and its potential
    ``total``: the bits of recomputing them."""
    n = len(pts)
    n_candidates = 2 + int(np.log(k))
    chosen = np.empty(k, dtype=int)
    chosen[0] = rng.integers(n)
    closest = rows[chosen[0]]
    with np.errstate(over="ignore"):  # reported once, by the ValueError below
        total = closest.sum()
    if not np.isfinite(total):
        raise ValueError("kmeans points are too large: their squared distances overflow")
    for i in range(1, k):
        if total > 0:
            candidates = _draw_d2(closest, total, n_candidates, rng)
        else:
            # all remaining points coincide with a chosen centroid
            candidates = rng.integers(n, size=1)
        mins = rows.take(candidates, axis=0)
        np.minimum(mins, closest, out=mins)
        potentials = mins.sum(axis=1)
        best = potentials.argmin()  # first strict minimum
        chosen[i] = candidates[best]
        closest, total = mins[best], potentials[best]
    return pts[chosen]
