"""Independent brute-force oracles shared by the test modules.

These deliberately re-derive results through the dumbest possible route
(enumeration, loops, central finite differences) and never call the code
paths they check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from apromfl.nn import flatten_module, unflatten_module


def exhaustive_kmeans_sse(points: np.ndarray, k: int) -> float:
    """Minimum SSE over every assignment of n points to k clusters."""
    points = np.asarray(points, dtype=float)
    best = np.inf
    for assign in itertools.product(range(k), repeat=len(points)):
        a = np.asarray(assign)
        sse = 0.0
        for c in range(k):
            members = points[a == c]
            if len(members):
                sse += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, sse)
    return best


def finite_difference(f, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.empty_like(x0)
    for i in range(x0.size):
        plus = x0.copy()
        plus[i] += h
        minus = x0.copy()
        minus[i] -= h
        grad[i] = (f(plus) - f(minus)) / (2.0 * h)
    return grad


def grad_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Scaled max-norm error: max|a-b| / max(1, |a|_inf, |b|_inf)."""
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    scale = max(1.0, float(np.abs(analytic).max(initial=0.0)), float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def fd_wrt_arrays(f, arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """FD gradients of f(*arrays) w.r.t. each array, preserving shapes."""
    shapes = [a.shape for a in arrays]
    sizes = [a.size for a in arrays]
    x0 = np.concatenate([a.ravel() for a in arrays])

    def unpack(x):
        out, pos = [], 0
        for shape, size in zip(shapes, sizes):
            out.append(x[pos : pos + size].reshape(shape))
            pos += size
        return out

    grad = finite_difference(lambda x: f(*unpack(x)), x0, h)
    return unpack(grad)


def fd_wrt_modules(loss_of_modules, modules: list, h: float = 1e-5) -> np.ndarray:
    """FD gradient over the concatenated flat parameters of several modules."""
    flats = [flatten_module(m) for m in modules]
    sizes = [f.size for f in flats]

    def f(x):
        rebuilt, pos = [], 0
        for template, size in zip(modules, sizes):
            rebuilt.append(unflatten_module(template.dims, x[pos : pos + size]))
            pos += size
        return loss_of_modules(rebuilt)

    return finite_difference(f, np.concatenate(flats), h)


def min_abs_preact(module, x) -> float:
    """Distance of the hidden pre-activations from the ReLU kink."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    worst = math.inf
    last = module.num_layers - 1
    for i, (w, b) in enumerate(zip(module.weights, module.biases)):
        z = h @ w + b
        if i != last:
            worst = min(worst, float(np.abs(z).min()))
            h = np.maximum(z, 0.0)
        else:
            h = z
    return worst
