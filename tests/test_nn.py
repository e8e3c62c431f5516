import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apromfl.nn import (
    MappingModule,
    backward,
    backward_head,
    encode,
    flatten_module,
    forward_head,
    forward_map,
    forward_map_trace,
    freeze,
    init_classifier_head,
    init_mapping_module,
    make_projection_encoder,
    sgd_step,
    sgd_step_head,
    trainable,
    unflatten_module,
)
from apromfl.numerics import seeded_rng
from oracles import (
    backward_alone,
    backward_head_alone,
    fd_wrt_modules,
    grad_rel_error,
    min_abs_preact,
)


def small_module(dims=(4, 5, 3), key=0):
    return init_mapping_module(dims, seeded_rng(100, "module", key))


def from_layers(weights, biases):
    dims = (weights[0].shape[0],) + tuple(w.shape[1] for w in weights)
    flat = np.concatenate([part.ravel() for wb in zip(weights, biases) for part in wb])
    return MappingModule(dims, flat)


class TestEncoder:
    """An encoder is its projection matrix; ``None`` is the identity."""

    def test_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert encode(None, x) is x

    def test_projection_deterministic(self):
        enc1 = make_projection_encoder(7, 16, 8)
        enc2 = make_projection_encoder(7, 16, 8)
        assert np.array_equal(enc1, enc2)
        assert not np.array_equal(enc1, make_projection_encoder(8, 16, 8))
        x = seeded_rng(1).standard_normal((3, 16))
        assert np.array_equal(encode(enc1, x), encode(enc2, x))
        assert np.array_equal(encode(enc1, x), x @ enc1)

    def test_projection_shape(self):
        enc = make_projection_encoder(7, 16, 8)
        assert enc.shape == (16, 8)
        assert encode(enc, np.zeros((5, 16))).shape == (5, 8)

    def test_dim_mismatch(self):
        enc = make_projection_encoder(7, 16, 8)
        with pytest.raises(ValueError):
            encode(enc, np.zeros((5, 4)))


class TestForward:
    def test_identity_weights(self):
        m = from_layers((np.eye(2),), (np.zeros(2),))
        assert np.allclose(forward_map(m, np.array([[3.0, 4.0]])), [[3.0, 4.0]])

    def test_relu_clamps_hidden_layer(self):
        m = from_layers((np.eye(2), np.eye(2)), (np.array([-5.0, 0.0]), np.zeros(2)))
        out = forward_map(m, np.array([[3.0, 4.0]]))
        # hidden pre-activation (-2, 4) -> relu (0, 4)
        assert np.allclose(out, [[0.0, 4.0]])

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
            forward_map(small_module(), np.zeros((2, 9)))


class TestBackward:
    def test_one_layer_closed_form(self):
        # loss = 0.5 ||W x + b||^2 -> dW = (Wx+b) x^T laid out as x (Wx+b)^T
        rng = seeded_rng(3)
        w, b = rng.standard_normal((3, 2)), rng.standard_normal(2)
        m = from_layers((w,), (b,))
        x = rng.standard_normal((1, 3))
        out, trace = forward_map_trace(m, x)
        grad = backward_alone(m, trace, out)
        assert np.allclose(grad[:6].reshape(3, 2), np.outer(x[0], out[0]), atol=1e-12)
        assert np.allclose(grad[6:], out[0], atol=1e-12)

    def test_zero_upstream_zero_gradients(self):
        m = small_module()
        _, trace = forward_map_trace(m, seeded_rng(4).standard_normal((3, 4)))
        grad = backward_alone(m, trace, np.zeros((3, 3)))
        assert grad.shape == m.params.shape
        assert np.all(grad == 0)

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
            grad = backward_alone(m, trace, out)
            numeric = fd_wrt_modules(loss, [m])
            assert grad_rel_error(grad, numeric) < 1e-4


class TestSgd:
    def test_zero_grad_no_change(self):
        m = small_module()
        stepped = trainable(m)
        sgd_step(stepped, np.zeros_like(m.params), lr=0.5)
        (model,) = stepped.models
        assert all(np.array_equal(a, b) for a, b in zip(m.weights, model.weights))

    def test_scalar_arithmetic(self):
        m = trainable(MappingModule((1, 1), np.array([1.0, 0.0])))
        sgd_step(m, np.array([2.0, 0.0]), lr=0.1)
        assert m.models[0].weights[0][0, 0] == pytest.approx(0.8)

    def test_deterministic(self):
        m = small_module()
        out, trace = forward_map_trace(m, seeded_rng(5).standard_normal((2, 4)))
        grad = backward_alone(m, trace, out)
        expected = (m.params - 0.05 * grad).tobytes()
        s1, s2 = trainable(m), trainable(m)
        # a step consumes its gradient (scales it in place), so each gets a copy
        sgd_step(s1, grad.copy(), 0.05)
        sgd_step(s2, grad.copy(), 0.05)
        assert s1.params.tobytes() == s2.params.tobytes() == expected

    def test_non_finite_gradient_rejected(self):
        m = trainable(small_module())
        grad = np.zeros_like(m.params)
        grad[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sgd_step(m, grad, 0.1)

    def test_frozen_model_rejected(self):
        m = small_module()
        before = m.params.tobytes()
        with pytest.raises(ValueError, match="trainable"):
            sgd_step(m, np.ones_like(m.params), 0.1)
        head = init_classifier_head(4, 3, seeded_rng(8))
        with pytest.raises(ValueError, match="trainable"):
            sgd_step_head(head, np.ones_like(head.params), 0.1)
        assert m.params.tobytes() == before


class TestPrivateCopies:
    def test_trainable_pair_is_one_private_stack_and_freeze_views_its_rows(self):
        a, b = small_module(key=1), small_module(key=2)
        pair = trainable(a, b)
        assert pair.params.flags.writeable and pair.params.shape == (2, a.params.size)
        assert not np.shares_memory(pair.params, a.params)
        assert not np.shares_memory(pair.params, b.params)
        rows = freeze(pair)
        assert len(rows) == 2
        for i, (row, original) in enumerate(zip(rows, (a, b))):
            assert not row.params.flags.writeable
            assert np.shares_memory(row.params, pair.params[i])
            assert row.params.tobytes() == original.params.tobytes()
            assert row.dims == original.dims

    def test_freeze_of_one_trainable_model_gives_one(self):
        a = small_module(key=3)
        copy = trainable(a)
        (frozen,) = freeze(copy)
        assert not frozen.params.flags.writeable
        assert np.shares_memory(frozen.params, copy.params)
        assert frozen.params.tobytes() == a.params.tobytes()


    def test_mapper_and_head_are_one_buffer_stepped_as_two_separate_steps(self):
        """A workspace of a mapper and its head holds both end to end; one
        step of it gives the bits of ``params - lr * grad`` for each."""
        mapper, head = small_module((4, 5, 3), key=4), init_classifier_head(3, 2, seeded_rng(9))
        space = trainable((mapper, head))
        assert space.params.shape == space.grad.shape == (mapper.params.size + head.params.size,)
        assert not np.shares_memory(space.params, mapper.params)
        for model, grad in zip(space.models, space.grads):
            assert np.shares_memory(model.params, space.params)
            assert np.shares_memory(grad.params, space.grad)
        g_mapper = seeded_rng(10).standard_normal(mapper.params.shape)
        g_head = seeded_rng(11).standard_normal(head.params.shape)
        space.grads[0].params[...] = g_mapper
        space.grads[1].params[...] = g_head
        sgd_step(space, space.grad, 0.05)
        stepped_mapper, stepped_head = freeze(space)
        assert stepped_mapper.params.tobytes() == (mapper.params - 0.05 * g_mapper).tobytes()
        assert stepped_head.params.tobytes() == (head.params - 0.05 * g_head).tobytes()
        assert stepped_head.dims == head.dims and not stepped_head.params.flags.writeable

    def test_backward_writes_the_workspace_gradient(self):
        """Given a workspace's gradient views, both backward kernels write
        into its buffer, to the bits they write into a workspace of the
        model's own."""
        mapper, head = small_module((4, 5, 3), key=5), init_classifier_head(3, 2, seeded_rng(12))
        space = trainable((mapper, head))
        x = seeded_rng(13).standard_normal((6, 4))
        emb, trace = forward_map_trace(mapper, x)
        upstream = seeded_rng(14).standard_normal((6, 2))
        written = backward_head(space.models[1], emb, upstream, space.grads[1])
        alone = backward_head_alone(head, emb, upstream)
        assert np.shares_memory(written[0], space.grad)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(written, alone))
        grad = backward(space.models[0], trace, written[1], space.grads[0])
        assert np.shares_memory(grad, space.grad)
        assert grad.tobytes() == backward_alone(mapper, trace, alone[1]).tobytes()


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
        for m in (small_module((4, 6, 6, 3)), init_classifier_head(4, 3, seeded_rng(5))):
            loaded = pickle.loads(pickle.dumps(m))
            assert loaded.dims == m.dims
            assert np.array_equal(loaded.params, m.params)
            assert not loaded.params.flags.writeable
            assert all(np.shares_memory(w, loaded.params) for w in loaded.weights)


class TestHead:
    def test_head_is_a_one_layer_module(self):
        head = init_classifier_head(4, 3, seeded_rng(6))
        assert isinstance(head, MappingModule)
        assert head.dims == (4, 3)
        assert head.num_layers == 1

    def test_forward_head_matches_forward_map(self):
        head = init_classifier_head(4, 3, seeded_rng(6))
        x = seeded_rng(7).standard_normal((5, 4))
        assert np.array_equal(forward_head(head, x), forward_map(head, x))
        assert np.array_equal(forward_head(head, x[:1]), forward_map(head, x[:1]))

    def test_backward_head_matches_backward(self):
        head = init_classifier_head(4, 3, seeded_rng(6))
        x = seeded_rng(7).standard_normal((5, 4))
        upstream = seeded_rng(8).standard_normal((5, 3))
        grad, _ = backward_head_alone(head, x, upstream)
        _, trace = forward_map_trace(head, x)
        assert np.array_equal(grad, backward_alone(head, trace, upstream))

    def test_forward_backward_shapes(self):
        head = init_classifier_head(4, 3, seeded_rng(6))
        x = seeded_rng(7).standard_normal((5, 4))
        logits = forward_head(head, x)
        assert logits.shape == (5, 3)
        grad, dx = backward_head_alone(head, x, np.ones_like(logits))
        assert grad.shape == head.params.shape == (4 * 3 + 3,)
        assert dx.shape == x.shape

    def test_sgd_head(self):
        head = trainable(MappingModule((2, 2), np.concatenate([np.ones(4), np.zeros(2)])))
        sgd_step_head(head, np.ones(6), 0.5)
        assert np.allclose(head.models[0].weights[0], 0.5)
        assert np.allclose(head.models[0].biases[0], -0.5)
