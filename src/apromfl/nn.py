"""Mapping modules: tiny fully connected networks with hand-written
forward/backward passes and plain SGD. A classifier head is the one-layer
module ``(embed_dim, num_classes)``, with lean kernels of its own.

Weights are stored ``(d_in, d_out)`` so a batch forward is ``x @ W + b``.
ReLU sits between layers and the final layer is linear. Each model holds
one contiguous float64 parameter vector laid out W0, b0, W1, b1, ...; its
per-layer weights and biases are views of that vector, and every gradient
is a plain vector of the same length. A *stack* of t models of one
architecture holds a ``(t, P)`` matrix instead, one vector per row, and its
views and gradients carry the same leading axis: one forward or backward
call then runs every tower of the stack.

Models are frozen dataclasses with read-only parameters, and this module
makes every private copy: a client round copies the models it trains once
into one writable buffer (:func:`trainable`: one model, or a stack), steps
it in place, and ends the round with :func:`freeze`, which hands back each
frozen model; a frozen model shared between clients is never written.
Every input is a batch: ``(N, d)``, or ``(t, N, d)`` for a stack of t models.

An encoder, the frozen stand-in for a large pretrained backbone, is a fixed
seeded random projection matrix, or ``None`` for the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import Rng, seeded_rng


def _param_count(dims) -> int:
    """Length of the flat parameter vector of a net with layer widths ``dims``."""
    return sum((d_in + 1) * d_out for d_in, d_out in zip(dims[:-1], dims[1:]))


def _layer_views(flat: np.ndarray, dims) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer weight and bias views of a vector laid out W0, b0, W1, b1,
    ..., or of a stack of such vectors (one per row)."""
    lead = flat.shape[:-1]
    weights, biases = [], []
    pos = 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[..., pos : pos + d_in * d_out].reshape(*lead, d_in, d_out))
        pos += d_in * d_out
        biases.append(flat[..., pos : pos + d_out])
        pos += d_out
    return tuple(weights), tuple(biases)


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
        # vectors): a contiguous float64 array is not copied, and its own
        # flags are left alone
        params = np.ascontiguousarray(self.params, dtype=float).view()
        count = _param_count(self.dims)
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
    params = np.zeros(_param_count(dims))
    for w in _layer_views(params, dims)[0]:
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
    return MappingModule(dims, params)


def init_classifier_head(in_dim: int, num_classes: int, rng: Rng) -> MappingModule:
    """A one-layer head: N(0, 1/in_dim) weights, zero biases."""
    weights = rng.standard_normal((in_dim, num_classes)) / np.sqrt(in_dim)
    params = np.concatenate([weights.ravel(), np.zeros(num_classes)])
    return MappingModule((in_dim, num_classes), params)


def trainable(*models: MappingModule) -> MappingModule:
    """A private, writable copy for one round of in-place training, made in
    one copy: of one model, or of several of one architecture as the rows of
    a ``(t, P)`` stack, whose forward or backward call runs all t.
    :func:`sgd_step` steps it in place, and :func:`freeze` ends the round."""
    params = np.array([m.params for m in models])  # the one copy
    copy = MappingModule(models[0].dims, params if len(models) > 1 else params[0])
    copy.params.flags.writeable = True  # a view of the private copy
    return copy


def freeze(model: MappingModule) -> tuple[MappingModule, ...]:
    """The frozen models ``model`` holds, without a copy: itself with
    read-only parameters, or each row of a stack as its own model."""
    rows = model.params if model.params.ndim == 2 else (model.params,)
    return tuple(MappingModule(model.dims, row) for row in rows)


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


def backward(module: MappingModule, trace: ForwardTrace, upstream: np.ndarray) -> np.ndarray:
    """Exact reverse-mode parameter gradient for a recorded forward pass.

    ``upstream`` is dL/d(output), shaped like the traced output. Returns
    dL/d(params), a flat vector in the module's layout (a stack of them for
    a stack of modules). The input gradient is not computed: the inputs are
    frozen encoder features.
    """
    g = upstream
    grad = np.empty(module.params.shape)
    d_weights, d_biases = _layer_views(grad, module.dims)
    for i in range(module.num_layers - 1, -1, -1):
        np.matmul(trace.layer_inputs[i].swapaxes(-1, -2), g, out=d_weights[i])
        g.sum(axis=-2, out=d_biases[i])
        if i:
            g = (g @ module.weights[i].swapaxes(-1, -2)) * (trace.preacts[i - 1] > 0)
    return grad


def forward_head(head: MappingModule, x: np.ndarray) -> np.ndarray:
    """:func:`forward_map` of a one-layer head, without the trace."""
    return x @ head.weights[0] + head.biases[0]


def backward_head(
    head: MappingModule, x: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The parameter gradient of a one-layer head at input ``x``, and the
    gradient with respect to ``x``."""
    grad = np.empty(head.params.size)
    (d_weights,), (d_bias,) = _layer_views(grad, head.dims)
    np.matmul(x.T, upstream, out=d_weights)
    upstream.sum(axis=0, out=d_bias)
    return grad, upstream @ head.weights[0].T


def sgd_step(model, grad: np.ndarray, lr: float) -> None:
    """theta -= lr * grad, in place on a :func:`trainable` module or stack;
    a frozen model is rejected. ``lr`` was validated with the config."""
    if not model.params.flags.writeable:
        raise ValueError("sgd_step steps a trainable() copy in place; this model is frozen")
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient; aborting update")
    # same bits as params - lr * grad
    np.subtract(model.params, lr * grad, out=model.params)


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
