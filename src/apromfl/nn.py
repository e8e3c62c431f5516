"""Mapping modules: tiny fully connected networks with hand-written
forward/backward passes and plain SGD. A classifier head is the one-layer
module ``(embed_dim, num_classes)``, with lean kernels of its own.

Weights are stored ``(d_in, d_out)`` so a batch forward is ``x @ W + b``.
ReLU sits between layers and the final layer is linear. Each model holds
one float64 parameter vector laid out W0, b0, W1, b1, ...; its
per-layer weights and biases are views of that vector, sliced by a layout
computed once per architecture, and a gradient is a vector of the same
layout. A *stack* of t models of one architecture holds a ``(t, P)`` matrix
instead, one vector per row, and its views and gradients carry the same
leading axis: one forward or backward call then runs every tower of the
stack.

Models are frozen dataclasses with read-only parameters, and this module
makes every private copy. A client run trains in one :class:`Workspace`
(:func:`trainable`): one writable buffer holding a copy of its models, end
to end (a mapper and its head) or as the rows of a stack, and one gradient
buffer of the same shape, with the models' views and the gradient's views
built once. :func:`backward` and :func:`backward_head` write into the
gradient's views, one :func:`sgd_step` a batch steps the whole buffer in
place, and :func:`freeze` ends the round, handing back each frozen model; a
frozen model shared between clients is never written.
Every input is a batch: ``(N, d)``, or ``(t, N, d)`` for a stack of t models.

An encoder, the frozen stand-in for a large pretrained backbone, is a fixed
seeded random projection matrix, or ``None`` for the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .numerics import Rng, seeded_rng


@cache
def _layout(dims: tuple[int, ...]) -> tuple[int, tuple[tuple[slice, tuple[int, int], slice], ...]]:
    """The length of the parameter vector of a net with layer widths ``dims``
    and, per layer, the slice of its weights in the vector laid out W0, b0,
    W1, b1, ..., their shape and the slice of its bias."""
    layers, pos = [], 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        end = pos + d_in * d_out
        layers.append((slice(pos, end), (d_in, d_out), slice(end, end + d_out)))
        pos = end + d_out
    return pos, tuple(layers)


def _layer_views(flat: np.ndarray, dims) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer weight and bias views of a vector laid out W0, b0, W1, b1,
    ..., or of a stack of such vectors (one per row)."""
    lead = flat.shape[:-1]
    layers = _layout(dims)[1]
    weights = tuple(flat[..., w].reshape(*lead, *shape) for w, shape, _ in layers)
    return weights, tuple(flat[..., b] for _, _, b in layers)


@dataclass(frozen=True, eq=False)
class MappingModule:
    """Fully connected net projecting encoder features into the shared space;
    a classifier head is the one-layer module ``(d_in, num_classes)``."""

    dims: tuple[int, ...]  # layer widths, input to output
    params: np.ndarray
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        # keeps a read-only view of ``params`` (a vector, or a stack of
        # vectors): a float64 array is not copied, so a segment of a
        # workspace stays a view of it, and its own flags are left alone
        params = np.asarray(self.params, dtype=float).view()
        count = _layout(self.dims)[0]
        if params.ndim not in (1, 2) or params.shape[-1] != count:
            raise ValueError(f"flat vector length {params.shape[-1]} != parameter count {count}")
        params.flags.writeable = False
        weights, biases = _layer_views(params, self.dims)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    def __reduce__(self):
        # pickle the vector once; unpickling rebuilds the views onto it
        return MappingModule, (self.dims, self.params)

    @property
    def num_layers(self) -> int:
        return len(self.dims) - 1


@dataclass
class ForwardTrace:
    """Activations recorded during a forward pass, consumed by backward()."""

    layer_inputs: list[np.ndarray]
    preacts: list[np.ndarray]


def init_mapping_module(dims, rng: Rng) -> MappingModule:
    """He-initialised weights, zero biases. ``dims`` chains input to output."""
    params = np.zeros(_layout(dims)[0])
    for w in _layer_views(params, dims)[0]:
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
    return MappingModule(dims, params)


def init_classifier_head(in_dim: int, num_classes: int, rng: Rng) -> MappingModule:
    """A one-layer head: N(0, 1/in_dim) weights, zero biases."""
    weights = rng.standard_normal((in_dim, num_classes)) / np.sqrt(in_dim)
    params = np.concatenate([weights.ravel(), np.zeros(num_classes)])
    return MappingModule((in_dim, num_classes), params)


class Gradient(NamedTuple):
    """A writable gradient in a model's layout: its vector (or stack of
    vectors) and the per-layer weight and bias views of it."""

    params: np.ndarray
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class Workspace:
    """One client run's private buffers for a round of in-place training;
    :func:`trainable` makes it. ``params`` holds a writable copy of the run's
    models, ``grad`` their gradient in the same shape (written by
    :func:`backward`/:func:`backward_head`, consumed by :func:`sgd_step`),
    and ``models`` and ``grads`` are each segment's model and gradient
    views, built once."""

    params: np.ndarray
    grad: np.ndarray
    models: tuple[MappingModule, ...]
    grads: tuple[Gradient, ...]


def trainable(*rows) -> Workspace:
    """The private workspace of one round of in-place training, made in one
    copy. Each argument is a row: one model, or a tuple of models laid out
    end to end as consecutive segments (a mapper, then its head). One row is
    a vector; several rows of one layout are a ``(t, P)`` stack, and each
    segment's model is then a stack whose forward or backward call runs all
    t. :func:`sgd_step` steps the whole buffer, and :func:`freeze` ends the
    round."""
    rows = [row if isinstance(row, tuple) else (row,) for row in rows]
    params = np.concatenate([m.params for row in rows for m in row])  # the one copy
    if len(rows) > 1:
        params = params.reshape(len(rows), -1)
    grad = np.empty_like(params)
    models, grads, pos = [], [], 0
    for m in rows[0]:
        end = pos + m.params.shape[-1]
        models.append(MappingModule(m.dims, params[..., pos:end]))
        flat = grad[..., pos:end]
        grads.append(Gradient(flat, *_layer_views(flat, m.dims)))
        pos = end
    return Workspace(params, grad, tuple(models), tuple(grads))


def freeze(space: Workspace) -> tuple[MappingModule, ...]:
    """The frozen models a workspace holds, without a copy, row by row:
    each segment's read-only model, or of a stack, each row's segments as
    models of their own."""
    if space.params.ndim == 1:
        return space.models
    rows = range(len(space.params))
    return tuple(MappingModule(m.dims, m.params[i]) for i in rows for m in space.models)


def forward_map(module: MappingModule, x: np.ndarray) -> np.ndarray:
    """Map an (N, d) batch of features to embeddings, or a (t, N, d) batch
    for a stack of t modules."""
    return forward_map_trace(module, x)[0]


def forward_map_trace(module: MappingModule, x: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Forward pass that records what backward() needs."""
    inputs, preacts = [], []
    h = x
    last = module.num_layers - 1
    for i, (w, b) in enumerate(zip(module.weights, module.biases)):
        inputs.append(h)
        z = h @ w + b[..., None, :]
        preacts.append(z)
        h = z if i == last else np.maximum(z, 0.0)
    return h, ForwardTrace(inputs, preacts)


def backward(
    module: MappingModule, trace: ForwardTrace, upstream: np.ndarray, out: Gradient
) -> np.ndarray:
    """Exact reverse-mode parameter gradient for a recorded forward pass.

    ``upstream`` is dL/d(output), shaped like the traced output. Writes
    dL/d(params) into ``out`` (a workspace's gradient views of ``module``)
    and returns its vector, in the module's layout (a stack of them for a
    stack of modules). The input gradient is not computed: the inputs are
    frozen encoder features.
    """
    g = upstream
    for i in range(module.num_layers - 1, -1, -1):
        np.matmul(trace.layer_inputs[i].swapaxes(-1, -2), g, out=out.weights[i])
        g.sum(axis=-2, out=out.biases[i])
        if i:
            g = (g @ module.weights[i].swapaxes(-1, -2)) * (trace.preacts[i - 1] > 0)
    return out.params


def forward_head(head: MappingModule, x: np.ndarray) -> np.ndarray:
    """:func:`forward_map` of a one-layer head, without the trace."""
    return x @ head.weights[0] + head.biases[0]


def backward_head(
    head: MappingModule, x: np.ndarray, upstream: np.ndarray, out: Gradient
) -> tuple[np.ndarray, np.ndarray]:
    """The parameter gradient of a one-layer head at input ``x``, written
    into ``out`` as in :func:`backward`, and the gradient with respect to
    ``x``."""
    np.matmul(x.T, upstream, out=out.weights[0])
    upstream.sum(axis=0, out=out.biases[0])
    return out.params, upstream @ head.weights[0].T


def sgd_step(space, grad: np.ndarray, lr: float) -> None:
    """theta -= lr * grad, in place on the buffer of a :func:`trainable`
    workspace; a frozen model is rejected. ``grad`` is consumed: it is
    scaled in place, which gives the bits of ``params - lr * grad``. ``lr``
    was validated with the config."""
    if not space.params.flags.writeable:
        raise ValueError("sgd_step steps a trainable() copy in place; this model is frozen")
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient; aborting update")
    np.multiply(grad, lr, out=grad)
    np.subtract(space.params, grad, out=space.params)


sgd_step_head = sgd_step


def flatten_module(module: MappingModule) -> np.ndarray:
    """Canonical flat parameter vector: W then b, layer by layer. No copy."""
    return module.params


def unflatten_module(dims, flat) -> MappingModule:
    """Wrap a flat parameter vector as a module with layer widths ``dims``,
    without copying; raises if its length does not match."""
    return MappingModule(dims, flat)


# frozen encoders ------------------------------------------------------------


def make_projection_encoder(seed: int, in_dim: int, out_dim: int) -> np.ndarray:
    """The fixed seeded random projection matrix ``(in_dim, out_dim)``."""
    rng = seeded_rng(seed, "encoder-projection", in_dim, out_dim)
    return rng.standard_normal((in_dim, out_dim)) / np.sqrt(in_dim)


def encode(encoder: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """Features of the ``(N, d)`` batch ``x``: ``x`` itself under the
    identity encoder (``None``), else its projection."""
    return x if encoder is None else x @ encoder
