"""Mapping modules and classifier heads: tiny fully connected networks with
hand-written forward/backward passes and plain SGD.

Weights are stored ``(d_in, d_out)`` so a batch forward is ``x @ W + b``.
ReLU sits between layers and the final layer is linear. Each model holds
one contiguous, read-only float64 parameter vector laid out W0, b0, W1, b1,
...; its per-layer weights and biases are views of that vector, and every
gradient is a plain vector of the same length. Models are frozen
dataclasses; every update builds a new value, which keeps concurrent client
training trivially safe. Encoders are frozen stand-ins for large pretrained
backbones: either the identity or a fixed seeded random projection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _serde
from .numerics import Rng, require_finite, seeded_rng

MODULE_FORMAT = "mapping-module/v1"


def _param_count(dims) -> int:
    """Length of the flat parameter vector of a net with layer widths ``dims``."""
    return sum((d_in + 1) * d_out for d_in, d_out in zip(dims[:-1], dims[1:]))


def _check_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or min(dims) < 1:
        raise ValueError(f"bad layer dims {dims}")
    return dims


def _layer_views(flat: np.ndarray, dims) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer weight and bias views of a vector laid out W0, b0, W1, b1, ..."""
    weights, biases = [], []
    pos = 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[pos : pos + d_in * d_out].reshape(d_in, d_out))
        pos += d_in * d_out
        biases.append(flat[pos : pos + d_out])
        pos += d_out
    return tuple(weights), tuple(biases)


def _freeze(model, dims, params):
    """Store checked ``dims`` and a read-only view of ``params`` on a frozen
    model, and return the per-layer views. A contiguous float64 array is not
    copied, and its own flags are left alone."""
    dims = _check_dims(dims)
    params = np.ascontiguousarray(params, dtype=float).view()
    count = _param_count(dims)
    if params.shape != (count,):
        raise ValueError(f"flat vector length {params.size} != parameter count {count}")
    params.flags.writeable = False
    object.__setattr__(model, "dims", dims)
    object.__setattr__(model, "params", params)
    return _layer_views(params, dims)


@dataclass(frozen=True, eq=False)
class MappingModule:
    """Fully connected net projecting encoder features into the shared space."""

    dims: tuple[int, ...]  # layer widths, input to output
    params: np.ndarray
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        weights, biases = _freeze(self, self.dims, self.params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    def __reduce__(self):
        # pickle the vector once; unpickling rebuilds the views onto it
        return MappingModule, (self.dims, self.params)

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def num_layers(self) -> int:
        return len(self.dims) - 1


@dataclass(frozen=True, eq=False)
class ClassifierHead:
    """Single linear layer producing class logits."""

    dims: tuple[int, int]  # (d_in, num_classes)
    params: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)  # (d_in, num_classes)
    bias: np.ndarray = field(init=False, repr=False)  # (num_classes,)

    def __post_init__(self):
        if len(self.dims) != 2:
            raise ValueError(f"a classifier head has one layer, got dims {tuple(self.dims)}")
        (weights,), (bias,) = _freeze(self, self.dims, self.params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)

    def __reduce__(self):
        return ClassifierHead, (self.dims, self.params)

    @property
    def in_dim(self) -> int:
        return self.dims[0]


@dataclass
class ForwardTrace:
    """Activations recorded during a forward pass, consumed by backward()."""

    layer_inputs: list[np.ndarray]
    preacts: list[np.ndarray]


def init_mapping_module(dims, rng: Rng) -> MappingModule:
    """He-initialised weights, zero biases. ``dims`` chains input to output."""
    dims = _check_dims(dims)
    params = np.zeros(_param_count(dims))
    for w in _layer_views(params, dims)[0]:
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
    return MappingModule(dims, params)


def init_classifier_head(in_dim: int, num_classes: int, rng: Rng) -> ClassifierHead:
    weights = rng.standard_normal((in_dim, num_classes)) / np.sqrt(in_dim)
    params = np.concatenate([weights.ravel(), np.zeros(num_classes)])
    return ClassifierHead((in_dim, num_classes), params)


def _as_batch(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def forward_map(module: MappingModule, x) -> np.ndarray:
    """Map features to embeddings; accepts a vector or an (N, d) batch."""
    batch, squeeze = _as_batch(x)
    if batch.shape[1] != module.in_dim:
        raise ValueError(f"input dim {batch.shape[1]} != module in_dim {module.in_dim}")
    h = batch
    last = module.num_layers - 1
    for i, (w, b) in enumerate(zip(module.weights, module.biases)):
        h = h @ w + b
        if i != last:
            h = np.maximum(h, 0.0)
    return h[0] if squeeze else h


def forward_map_trace(module: MappingModule, x) -> tuple[np.ndarray, ForwardTrace]:
    """Forward pass that records what backward() needs."""
    batch, _ = _as_batch(x)
    if batch.shape[1] != module.in_dim:
        raise ValueError(f"input dim {batch.shape[1]} != module in_dim {module.in_dim}")
    inputs, preacts = [], []
    h = batch
    last = module.num_layers - 1
    for i, (w, b) in enumerate(zip(module.weights, module.biases)):
        inputs.append(h)
        z = h @ w + b
        preacts.append(z)
        h = z if i == last else np.maximum(z, 0.0)
    return h, ForwardTrace(inputs, preacts)


def backward(module: MappingModule, trace: ForwardTrace, upstream) -> tuple[np.ndarray, np.ndarray]:
    """Exact reverse-mode gradients for a recorded forward pass.

    ``upstream`` is dL/d(output), shaped like the traced output. Returns
    dL/d(params), a flat vector in the module's layout, and dL/d(input).
    """
    g, _ = _as_batch(upstream)
    if len(trace.layer_inputs) != module.num_layers:
        raise ValueError("trace does not match module architecture")
    grad = np.empty(module.params.size)
    d_weights, d_biases = _layer_views(grad, module.dims)
    last = module.num_layers - 1
    for i in range(last, -1, -1):
        if i != last:
            g = g * (trace.preacts[i] > 0)
        np.matmul(trace.layer_inputs[i].T, g, out=d_weights[i])
        g.sum(axis=0, out=d_biases[i])
        g = g @ module.weights[i].T
    return grad, g


def forward_head(head: ClassifierHead, x) -> np.ndarray:
    batch, squeeze = _as_batch(x)
    if batch.shape[1] != head.in_dim:
        raise ValueError(f"input dim {batch.shape[1]} != head in_dim {head.in_dim}")
    logits = batch @ head.weights + head.bias
    return logits[0] if squeeze else logits


def backward_head(head: ClassifierHead, x, upstream) -> tuple[np.ndarray, np.ndarray]:
    batch, _ = _as_batch(x)
    g, _ = _as_batch(upstream)
    grad = np.empty(head.params.size)
    (d_weights,), (d_bias,) = _layer_views(grad, head.dims)
    np.matmul(batch.T, g, out=d_weights)
    g.sum(axis=0, out=d_bias)
    return grad, g @ head.weights.T


def _descend(params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient; aborting update")
    return params - lr * grad


def sgd_step(module: MappingModule, grad: np.ndarray, lr: float) -> MappingModule:
    """theta' = theta - lr * grad, as a new immutable module."""
    return MappingModule(module.dims, _descend(module.params, grad, lr))


def sgd_step_head(head: ClassifierHead, grad: np.ndarray, lr: float) -> ClassifierHead:
    return ClassifierHead(head.dims, _descend(head.params, grad, lr))


def flatten_module(module: MappingModule) -> np.ndarray:
    """Canonical flat parameter vector: W then b, layer by layer. No copy."""
    return module.params


def unflatten_module(dims, flat) -> MappingModule:
    """Wrap a flat parameter vector as a module with layer widths ``dims``,
    without copying; raises if its length does not match."""
    return MappingModule(dims, flat)


def same_architecture(a: MappingModule, b: MappingModule) -> bool:
    return a.dims == b.dims


# frozen encoders ------------------------------------------------------------


@dataclass(frozen=True)
class Encoder:
    """Deterministic feature extractor, never trained.

    ``identity`` passes inputs through; ``projection`` applies a fixed seeded
    random matrix. The same input always maps to the same output.
    """

    kind: str
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "projection"):
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        if self.kind == "projection" and self.matrix is None:
            raise ValueError("projection encoder needs a matrix")

    @property
    def out_dim(self) -> int | None:
        return None if self.kind == "identity" else self.matrix.shape[1]


def make_projection_encoder(seed: int, in_dim: int, out_dim: int) -> Encoder:
    rng = seeded_rng(seed, "encoder-projection", in_dim, out_dim)
    matrix = rng.standard_normal((in_dim, out_dim)) / np.sqrt(in_dim)
    return Encoder(kind="projection", matrix=matrix)


def encode(encoder: Encoder, x) -> np.ndarray:
    batch, squeeze = _as_batch(x)
    if encoder.kind == "identity":
        out = batch
    else:
        if batch.shape[1] != encoder.matrix.shape[0]:
            raise ValueError(
                f"input dim {batch.shape[1]} != encoder in_dim {encoder.matrix.shape[0]}"
            )
        out = batch @ encoder.matrix
    return out[0] if squeeze else out


# checkpointing --------------------------------------------------------------


def save_mapping_module(module: MappingModule, path) -> None:
    """Versioned checkpoint: architecture descriptor plus flat parameters."""
    payload = {
        "format": MODULE_FORMAT,
        "dims": list(module.dims),
        "params": _serde.encode_array(flatten_module(module)),
    }
    Path(path).write_text(json.dumps(payload))


def load_mapping_module(path) -> MappingModule:
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != MODULE_FORMAT:
        raise ValueError(f"unsupported checkpoint format {payload.get('format')!r}")
    flat = require_finite(_serde.decode_array(payload["params"]), "checkpoint params")
    return unflatten_module(payload["dims"], flat)
