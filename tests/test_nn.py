import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apromfl.nn import (
    ClassifierHead,
    Encoder,
    MappingModule,
    backward,
    backward_head,
    encode,
    flatten_module,
    forward_head,
    forward_map,
    forward_map_trace,
    init_classifier_head,
    init_mapping_module,
    load_mapping_module,
    make_projection_encoder,
    save_mapping_module,
    sgd_step,
    sgd_step_head,
    unflatten_module,
)
from apromfl.numerics import seeded_rng
from oracles import fd_wrt_modules, grad_rel_error, min_abs_preact


def small_module(dims=(4, 5, 3), key=0):
    return init_mapping_module(dims, seeded_rng(100, "module", key))


def from_layers(weights, biases):
    dims = (weights[0].shape[0],) + tuple(w.shape[1] for w in weights)
    flat = np.concatenate([part.ravel() for wb in zip(weights, biases) for part in wb])
    return MappingModule(dims, flat)


class TestEncoder:
    def test_identity(self):
        enc = Encoder(kind="identity")
        assert np.array_equal(encode(enc, [1.0, 2.0]), [1.0, 2.0])

    def test_projection_deterministic(self):
        enc1 = make_projection_encoder(7, 16, 8)
        enc2 = make_projection_encoder(7, 16, 8)
        x = seeded_rng(1).standard_normal(16)
        assert np.array_equal(encode(enc1, x), encode(enc2, x))

    def test_projection_shape(self):
        enc = make_projection_encoder(7, 16, 8)
        assert encode(enc, np.zeros(16)).shape == (8,)
        assert encode(enc, np.zeros((5, 16))).shape == (5, 8)

    def test_dim_mismatch(self):
        enc = make_projection_encoder(7, 16, 8)
        with pytest.raises(ValueError):
            encode(enc, np.zeros(4))


class TestForward:
    def test_identity_weights(self):
        m = from_layers((np.eye(2),), (np.zeros(2),))
        assert np.allclose(forward_map(m, [3.0, 4.0]), [3.0, 4.0])

    def test_relu_clamps_hidden_layer(self):
        m = from_layers((np.eye(2), np.eye(2)), (np.array([-5.0, 0.0]), np.zeros(2)))
        out = forward_map(m, [3.0, 4.0])
        # hidden pre-activation (-2, 4) -> relu (0, 4)
        assert np.allclose(out, [0.0, 4.0])

    def test_matches_straight_line_reimplementation(self):
        m = small_module((6, 7, 7, 4))
        x = seeded_rng(2).standard_normal((5, 6))
        h = x
        for i, (w, b) in enumerate(zip(m.weights, m.biases)):
            h = h @ w + b
            if i < m.num_layers - 1:
                h = np.where(h > 0, h, 0.0)
        assert np.allclose(forward_map(m, x), h, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            forward_map(small_module(), np.zeros(9))


class TestBackward:
    def test_one_layer_closed_form(self):
        # loss = 0.5 ||W x + b||^2 -> dW = (Wx+b) x^T laid out as x (Wx+b)^T
        rng = seeded_rng(3)
        w, b = rng.standard_normal((3, 2)), rng.standard_normal(2)
        m = from_layers((w,), (b,))
        x = rng.standard_normal(3)
        out, trace = forward_map_trace(m, x)
        grad, dx = backward(m, trace, out)
        assert np.allclose(grad[:6].reshape(3, 2), np.outer(x, out[0]), atol=1e-12)
        assert np.allclose(grad[6:], out[0], atol=1e-12)

    def test_zero_upstream_zero_gradients(self):
        m = small_module()
        _, trace = forward_map_trace(m, seeded_rng(4).standard_normal((3, 4)))
        grad, dx = backward(m, trace, np.zeros((3, 3)))
        assert grad.shape == m.params.shape
        assert np.all(grad == 0)
        assert np.all(dx == 0)

    @pytest.mark.parametrize("dims", [(4, 3), (4, 6, 6, 3)])
    def test_finite_difference_half_sq_norm(self, dims):
        for trial in range(20):
            m = init_mapping_module(dims, seeded_rng(200, trial, dims))
            x = seeded_rng(201, trial).standard_normal((4, dims[0]))
            if min_abs_preact(m, x) < 1e-2:
                continue

            def loss(modules):
                return 0.5 * float((forward_map(modules[0], x) ** 2).sum())

            out, trace = forward_map_trace(m, x)
            grad, _ = backward(m, trace, out)
            numeric = fd_wrt_modules(loss, [m])
            assert grad_rel_error(grad, numeric) < 1e-4


class TestSgd:
    def test_zero_grad_no_change(self):
        m = small_module()
        stepped = sgd_step(m, np.zeros_like(m.params), lr=0.5)
        assert all(np.array_equal(a, b) for a, b in zip(m.weights, stepped.weights))

    def test_scalar_arithmetic(self):
        m = MappingModule((1, 1), np.array([1.0, 0.0]))
        assert sgd_step(m, np.array([2.0, 0.0]), lr=0.1).weights[0][0, 0] == pytest.approx(0.8)

    def test_deterministic(self):
        m = small_module()
        out, trace = forward_map_trace(m, seeded_rng(5).standard_normal((2, 4)))
        grad, _ = backward(m, trace, out)
        s1 = sgd_step(m, grad, 0.05)
        s2 = sgd_step(m, grad, 0.05)
        assert all(np.array_equal(a, b) for a, b in zip(s1.weights, s2.weights))

    def test_non_finite_gradient_rejected(self):
        m = small_module()
        grad = np.zeros_like(m.params)
        grad[0] = np.nan
        with pytest.raises(ValueError):
            sgd_step(m, grad, 0.1)


class TestFlatten:
    @given(st.integers(0, 10_000))
    def test_round_trip_exact(self, key):
        m = init_mapping_module((3, 5, 2), seeded_rng(300, key))
        rebuilt = unflatten_module(m.dims, flatten_module(m))
        assert all(np.array_equal(a, b) for a, b in zip(m.weights, rebuilt.weights))
        assert all(np.array_equal(a, b) for a, b in zip(m.biases, rebuilt.biases))

    def test_flatten_returns_the_parameters_without_copying(self):
        m = small_module()
        assert flatten_module(m) is m.params
        assert np.shares_memory(m.weights[0], m.params)
        assert np.shares_memory(m.biases[-1], m.params)

    def test_parameters_are_read_only(self):
        flat = flatten_module(small_module()).copy()
        m = unflatten_module((4, 5, 3), flat)
        with pytest.raises(ValueError):
            m.weights[0][0, 0] = 1.0
        with pytest.raises(ValueError):
            m.params[0] = 1.0
        # the wrapped array itself is left as the caller had it
        assert flat.flags.writeable

    def test_architecture_mismatch(self):
        # a vector for one architecture does not wrap as another
        flat = flatten_module(small_module((4, 5, 3)))
        with pytest.raises(ValueError, match="parameter count"):
            unflatten_module((4, 4, 3), flat)
        with pytest.raises(ValueError, match="parameter count"):
            unflatten_module((4, 5, 3), flat[:-1])

    def test_pickle_round_trip_keeps_views(self):
        m = small_module((4, 6, 6, 3))
        loaded = pickle.loads(pickle.dumps(m))
        assert np.array_equal(loaded.params, m.params)
        assert not loaded.params.flags.writeable
        assert all(np.shares_memory(w, loaded.params) for w in loaded.weights)


class TestHead:
    def test_forward_backward_shapes(self):
        head = init_classifier_head(4, 3, seeded_rng(6))
        x = seeded_rng(7).standard_normal((5, 4))
        logits = forward_head(head, x)
        assert logits.shape == (5, 3)
        grad, dx = backward_head(head, x, np.ones_like(logits))
        assert grad.shape == head.params.shape == (4 * 3 + 3,)
        assert dx.shape == x.shape

    def test_sgd_head(self):
        head = ClassifierHead((2, 2), np.concatenate([np.ones(4), np.zeros(2)]))
        stepped = sgd_step_head(head, np.ones(6), 0.5)
        assert np.allclose(stepped.weights, 0.5)
        assert np.allclose(stepped.bias, -0.5)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        m = init_mapping_module((6, 9, 9, 4), seeded_rng(8))
        path = tmp_path / "module.json"
        save_mapping_module(m, path)
        loaded = load_mapping_module(path)
        assert loaded.dims == m.dims
        assert np.array_equal(flatten_module(loaded), flatten_module(m))
