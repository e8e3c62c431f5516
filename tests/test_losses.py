import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apromfl.losses import (
    clustering_total_loss,
    cross_entropy_batch,
    gmt_loss_batch,
    gmt_targets,
    gpt_loss_batch,
    gpt_loss_paired_batch,
    lmr_loss,
    retrieval_task_loss,
    retrieval_task_value,
    transfer_ratio,
)
from apromfl.nn import flatten_module, init_mapping_module, unflatten_module
from apromfl.numerics import KL_EPS, UnitRows, seeded_rng, unit_rows
from oracles import (
    LN2,
    assignment_probs,
    cross_entropy,
    fd_wrt_arrays,
    gmt_loss,
    gpt_loss,
    grad_rel_error,
    inter_modal_loss,
    inter_modal_total,
    intra_modal_loss,
    intra_modal_total,
    loop_clustering_total_loss,
    loop_gmt_loss_batch,
    loop_gpt_loss_batch,
    loop_gpt_loss_paired_batch,
    loop_retrieval_task_loss,
    loop_transfer_ratio,
    prototype_rows,
    stack,
    towers,
)

TAU = 0.5
NU_MAX = 10.0
DISTILL_TAU = 1.0


def rand_embs(n, d, key, scale=1.0):
    embs = seeded_rng(500, "embs", key).standard_normal((n, d)) * scale
    # keep rows away from zero norm so cosine gradients stay well conditioned
    norms = np.linalg.norm(embs, axis=1, keepdims=True)
    return embs + 0.2 * np.sign(embs) * (norms < 0.3)


class TestCrossEntropy:
    def test_uniform_logits(self):
        value, _ = cross_entropy(np.zeros(7), 3)
        assert value == pytest.approx(math.log(7), abs=1e-12)

    def test_saturated(self):
        value, _ = cross_entropy(np.array([10.0, -10.0]), 0)
        assert value == pytest.approx(0.0, abs=1e-8)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros(3), 3)

    def test_finite_difference(self):
        for trial in range(10):
            logits = seeded_rng(501, trial).standard_normal(5)
            _, grad = cross_entropy(logits, 2)
            numeric = fd_wrt_arrays(lambda l: cross_entropy(l, 2)[0], [logits])[0]
            assert grad_rel_error(grad, numeric) < 1e-4

    def test_batch_matches_mean_of_singles(self):
        logits = seeded_rng(502).standard_normal((6, 4))
        labels = np.array([0, 1, 2, 3, 1, 0])
        value, grad = cross_entropy_batch(logits, labels)
        singles = [cross_entropy(l, y)[0] for l, y in zip(logits, labels)]
        assert value == pytest.approx(np.mean(singles), rel=1e-12)
        numeric = fd_wrt_arrays(lambda l: cross_entropy_batch(l, labels)[0], [logits])[0]
        assert grad_rel_error(grad, numeric) < 1e-4

    def test_value_form_gives_the_bits_of_the_batch_value(self):
        """The second set of a ``(2, B, C)`` pair, value only, gives the
        bits of its own batch value; either set being non-finite raises."""
        for trial in range(5):
            logits = seeded_rng(503, trial).standard_normal((2, 7, 4)) * 3.0
            labels = seeded_rng(504, trial).integers(0, 4, 7)
            value = cross_entropy_batch(logits, labels)[2]
            assert value.hex() == cross_entropy_batch(logits[1], labels)[0].hex()
        for bad in range(2):
            logits = np.zeros((2, 2, 3))
            logits[bad, 1, 2] = np.nan
            with pytest.raises(ValueError, match="logits contains non-finite"):
                cross_entropy_batch(logits, np.array([0, 1]))

    def test_pair_gives_the_bits_of_two_separate_calls(self):
        """One pass over a batch's logits and its targets' gives the bits of
        the two separate calls: the first set's value and gradient and the
        second's value."""
        for trial in range(300):
            rng = seeded_rng(507, trial)
            n, c = int(rng.integers(1, 65)), int(rng.integers(2, 21))
            logits = rng.standard_normal((2, n, c)) * float(10.0 ** rng.uniform(-2, 2))
            labels = rng.integers(0, c, n)
            value, grad, global_value = cross_entropy_batch(logits, labels)
            local, local_grad = cross_entropy_batch(logits[0], labels)
            assert value.hex() == local.hex(), trial
            assert grad.tobytes() == local_grad.tobytes(), trial
            assert global_value.hex() == cross_entropy_batch(logits[1], labels)[0].hex(), trial


def retrieval_on_stack(img, txt, tau):
    """``retrieval_task_loss`` on the stack of two ``(N, d)`` batches.
    Returns (value, grad_img, grad_txt)."""
    value, grad = retrieval_task_loss(unit_rows(np.stack([img, txt])), tau)
    return value, *grad


class TestRetrievalTaskLoss:
    def test_matched_orthogonal_pairs_vanish_at_small_tau(self):
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        value, _, _ = retrieval_on_stack(img, img, tau=0.01)
        assert value == pytest.approx(0.0, abs=1e-8)

    def test_self_alignment_matches_direct_summation(self):
        embs = rand_embs(5, 4, key=1)
        value, _, _ = retrieval_on_stack(embs, embs, TAU)
        unit = embs / np.linalg.norm(embs, axis=1, keepdims=True)
        sims = unit @ unit.T / TAU
        total = 0.0
        for i in range(5):
            total += -sims[i, i] + math.log(sum(math.exp(s) for s in sims[i]))
            total += -sims[i, i] + math.log(sum(math.exp(s) for s in sims[:, i]))
        assert value == pytest.approx(total / 10, rel=1e-10)

    def test_permutation_invariance(self):
        img, txt = rand_embs(6, 3, 2), rand_embs(6, 3, 3)
        perm = seeded_rng(503).permutation(6)
        base, _, _ = retrieval_on_stack(img, txt, TAU)
        permuted, _, _ = retrieval_on_stack(img[perm], txt[perm], TAU)
        assert base == pytest.approx(permuted, rel=1e-12)

    def test_finite_difference(self):
        img, txt = rand_embs(4, 3, 4), rand_embs(4, 3, 5)
        _, g_img, g_txt = retrieval_on_stack(img, txt, TAU)
        n_img, n_txt = fd_wrt_arrays(lambda a, b: retrieval_on_stack(a, b, TAU)[0], [img, txt])
        assert grad_rel_error(g_img, n_img) < 1e-4
        assert grad_rel_error(g_txt, n_txt) < 1e-4

    def test_value_form_gives_the_bits_of_the_loss_value(self):
        for trial in range(5):
            rows = unit_rows(seeded_rng(505, trial).standard_normal((2, 6, 4)))
            for tau in (0.07, 0.5):
                value = retrieval_task_value(rows.unit, tau)
                assert value.hex() == retrieval_task_loss(rows, tau)[0].hex()

    def test_stacked_gives_the_bits_of_the_loop_form(self):
        """The stacked loss and its one backward call against the per-tower
        form, bit for bit, over batch sizes 2-64, dims 2-32, scales 1e-2 to
        1e2 (each tower its own) and temperatures 0.05-1."""
        for trial in range(400):
            rng = seeded_rng(507, trial)
            n, d = int(rng.integers(2, 65)), int(rng.integers(2, 33))
            embs = rng.standard_normal((2, n, d)) * 10.0 ** rng.uniform(-2, 2, (2, 1, 1))
            tau = float(rng.uniform(0.05, 1.0))
            rows = unit_rows(embs)
            value, grad = retrieval_task_loss(rows, tau)
            expected, g_img, g_txt = loop_retrieval_task_loss(*towers(rows), tau)
            assert value.hex() == expected.hex(), trial
            assert grad.tobytes() == np.stack([g_img, g_txt]).tobytes(), trial


def brute_intra(embs, clusters, i, tau):
    unit = embs / np.linalg.norm(embs, axis=1, keepdims=True)
    member = np.flatnonzero(clusters == clusters[i])
    denom = sum(math.exp(float(unit[i] @ unit[t]) / tau) for t in range(len(embs)))
    total = 0.0
    for j in member:
        total += math.log(math.exp(float(unit[i] @ unit[j]) / tau) / denom)
    return -total / len(member)


def brute_inter(img, txt, clusters, i, tau):
    u = img / np.linalg.norm(img, axis=1, keepdims=True)
    v = txt / np.linalg.norm(txt, axis=1, keepdims=True)
    member = np.flatnonzero(clusters == clusters[i])
    denom = sum(math.exp(float(u[i] @ v[t]) / tau) for t in range(len(img)))
    total = 0.0
    for j in member:
        total += math.log(math.exp(float(u[i] @ v[j]) / tau) / denom)
    return -total / len(member)


class TestContrastiveLosses:
    def test_single_sample_is_zero(self):
        clusters = np.array([0])
        value = intra_modal_loss(np.array([[1.0, 2.0]]), clusters, 0, TAU)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_two_identical_in_one_cluster(self):
        embs = np.array([[1.0, 1.0], [1.0, 1.0]])
        clusters = np.array([0, 0])
        assert intra_modal_loss(embs, clusters, 0, TAU) == pytest.approx(math.log(2), abs=1e-12)

    def test_three_sample_brute_sum(self):
        embs = rand_embs(3, 4, 6)
        clusters = np.array([0, 1, 0])
        for i in range(3):
            assert intra_modal_loss(embs, clusters, i, TAU) == pytest.approx(
                brute_intra(embs, clusters, i, TAU), abs=1e-12
            )

    def test_inter_collapses_to_intra_when_modalities_match(self):
        embs = rand_embs(4, 3, 7)
        clusters = np.array([0, 0, 0, 0])
        for i in range(4):
            assert inter_modal_loss(embs, embs.copy(), clusters, i, TAU) == pytest.approx(
                intra_modal_loss(embs, clusters, i, TAU), abs=1e-12
            )

    def test_inter_brute_sum_two_samples(self):
        img, txt = rand_embs(2, 3, 8), rand_embs(2, 3, 9)
        clusters = np.array([0, 0])
        for i in range(2):
            assert inter_modal_loss(img, txt, clusters, i, TAU) == pytest.approx(
                brute_inter(img, txt, clusters, i, TAU), abs=1e-12
            )

    def test_scale_invariance(self):
        img, txt = rand_embs(5, 3, 10), rand_embs(5, 3, 11)
        clusters = np.array([0, 1, 0, 1, 0])
        base = inter_modal_loss(img, txt, clusters, 2, TAU)
        scaled = inter_modal_loss(3.7 * img, 0.2 * txt, clusters, 2, TAU)
        assert base == pytest.approx(scaled, rel=1e-10)

    def test_totals_match_per_sample_sums(self):
        img, txt = rand_embs(6, 4, 12), rand_embs(6, 4, 13)
        clusters = np.array([0, 1, 0, 2, 1, 2])
        total_i, _ = intra_modal_total(unit_rows(img), clusters, TAU)
        assert total_i == pytest.approx(
            sum(intra_modal_loss(img, clusters, i, TAU) for i in range(6)), rel=1e-10
        )
        total_x, _, _ = inter_modal_total(unit_rows(img), unit_rows(txt), clusters, TAU)
        assert total_x == pytest.approx(
            sum(inter_modal_loss(img, txt, clusters, i, TAU) for i in range(6)), rel=1e-10
        )

    def test_total_finite_differences(self):
        img, txt = rand_embs(5, 3, 14), rand_embs(5, 3, 15)
        clusters = np.array([0, 1, 0, 1, 1])
        _, g = intra_modal_total(unit_rows(img), clusters, TAU)
        numeric = fd_wrt_arrays(
            lambda a: intra_modal_total(unit_rows(a), clusters, TAU)[0], [img]
        )[0]
        assert grad_rel_error(g, numeric) < 1e-4
        _, gi, gt = inter_modal_total(unit_rows(img), unit_rows(txt), clusters, TAU)
        ni, nt = fd_wrt_arrays(
            lambda a, b: inter_modal_total(unit_rows(a), unit_rows(b), clusters, TAU)[0],
            [img, txt],
        )
        assert grad_rel_error(gi, ni) < 1e-4
        assert grad_rel_error(gt, nt) < 1e-4


def clustering_on_stack(img, txt, clusters, tau):
    """The clustering objective on two ``(N, d)`` batches: its value from the
    loop form (the program steps on the gradient alone), its gradient from
    ``clustering_total_loss`` on their stack.
    Returns (value, grad_img, grad_txt)."""
    value = loop_clustering_total_loss(unit_rows(img), unit_rows(txt), clusters, tau)[0]
    return value, *clustering_total_loss(unit_rows(np.stack([img, txt])), clusters, tau)


class TestClusteringTotalLoss:
    def test_equals_component_sum(self):
        img, txt = rand_embs(6, 4, 16), rand_embs(6, 4, 17)
        clusters = np.array([0, 0, 1, 1, 2, 2])
        value, _, _ = clustering_on_stack(img, txt, clusters, TAU)
        expected = (
            retrieval_on_stack(img, txt, TAU)[0]
            + intra_modal_total(unit_rows(img), clusters, TAU)[0]
            + intra_modal_total(unit_rows(txt), clusters, TAU)[0]
            + inter_modal_total(unit_rows(img), unit_rows(txt), clusters, TAU)[0]
        )
        assert value == pytest.approx(expected, abs=1e-10)

    def test_gives_the_bits_of_its_terms_computed_apart(self):
        """Sharing the scores, their softmax and the label mask between the
        terms, and one backward call for all of them, changes no bit of
        either gradient; the value (the loop form's) is the sum of the
        terms."""
        for trial in range(400):
            rng = seeded_rng(511, trial)
            n, d = int(rng.integers(2, 41)), int(rng.integers(2, 25))
            img = rng.standard_normal((n, d)) * float(rng.uniform(0.1, 10.0))
            txt = rng.standard_normal((n, d))
            clusters = rng.integers(0, int(rng.integers(1, n + 1)), n)
            tau = float(rng.uniform(0.05, 2.0))
            value, gi, gt = clustering_on_stack(img, txt, clusters, tau)
            img, txt = unit_rows(img), unit_rows(txt)
            task, g_img, g_txt = loop_retrieval_task_loss(img, txt, tau)
            intra_i, ai = intra_modal_total(img, clusters, tau)
            intra_t, at = intra_modal_total(txt, clusters, tau)
            inter, hi, ht = inter_modal_total(img, txt, clusters, tau)
            assert value.hex() == (task + intra_i + intra_t + inter).hex(), trial
            assert gi.tobytes() == (g_img + ai + hi).tobytes(), trial
            assert gt.tobytes() == (g_txt + at + ht).tobytes(), trial

    def test_stacked_gives_the_bits_of_the_loop_form(self):
        """The stacked objective's gradient against the per-term loop form,
        bit for bit, over batch sizes 2-64, dims 2-24, scales 1e-2 to 1e2
        (each tower its own), temperatures 0.05-1 and 1-12 pseudo-labels."""
        for trial in range(400):
            rng = seeded_rng(512, trial)
            n, d = int(rng.integers(2, 65)), int(rng.integers(2, 25))
            scales = 10.0 ** rng.uniform(-2, 2, (2, 1, 1))
            embs = rng.standard_normal((2, n, d)) * scales
            clusters = rng.integers(0, int(rng.integers(1, 13)), n)
            tau = float(rng.uniform(0.05, 1.0))
            rows = unit_rows(embs)
            grad = clustering_total_loss(rows, clusters, tau)
            _, g_img, g_txt = loop_clustering_total_loss(*towers(rows), clusters, tau)
            assert grad.tobytes() == np.stack([g_img, g_txt]).tobytes(), trial

    def test_finite_difference(self):
        img, txt = rand_embs(4, 3, 18), rand_embs(4, 3, 19)
        clusters = np.array([0, 1, 1, 0])
        _, gi, gt = clustering_on_stack(img, txt, clusters, TAU)
        ni, nt = fd_wrt_arrays(
            lambda a, b: clustering_on_stack(a, b, clusters, TAU)[0], [img, txt]
        )
        assert grad_rel_error(gi, ni) < 1e-4
        assert grad_rel_error(gt, nt) < 1e-4


class TestLmrLoss:
    """The regulariser takes a module or a stack; these run it on one-row
    stacks, and pin a lone module to its one-row stack."""

    def test_identical_modules(self):
        m = stack(init_mapping_module((3, 4, 2), seeded_rng(504)))
        value, _ = lmr_loss(m, m, 0.7)
        assert value == [0.0]

    def test_zero_weight(self):
        a = stack(init_mapping_module((3, 4, 2), seeded_rng(505, "a")))
        b = stack(init_mapping_module((3, 4, 2), seeded_rng(505, "b")))
        assert lmr_loss(a, b, 0.0)[0] == [0.0]

    def test_arithmetic(self):
        a = init_mapping_module((3, 4, 2), seeded_rng(506))
        flat = flatten_module(a)
        bumped = unflatten_module(a.dims, flat + np.isin(np.arange(flat.size), [1, 4, 8, 11]))
        (value,), grad = lmr_loss(stack(bumped), stack(a), 0.5)
        assert value == pytest.approx(2.0)
        assert grad.shape == (1, flat.size)
        assert np.allclose(np.abs(grad).sum(), 4.0)

    def test_gradient_finite_difference(self):
        a = init_mapping_module((3, 4, 2), seeded_rng(507, "a"))
        anchor = stack(init_mapping_module((3, 4, 2), seeded_rng(507, "b")))
        _, grad = lmr_loss(stack(a), anchor, 0.3)
        from oracles import fd_wrt_modules

        numeric = fd_wrt_modules(lambda ms: lmr_loss(stack(ms[0]), anchor, 0.3)[0][0], [a])
        assert grad_rel_error(grad[0], numeric) < 1e-4

    def test_lone_module_matches_its_one_row_stack(self):
        m = init_mapping_module((3, 4, 2), seeded_rng(508, "m"))
        a = init_mapping_module((3, 4, 2), seeded_rng(508, "a"))
        (value,), grad = lmr_loss(m, a, 0.6)
        (row_value,), row_grad = lmr_loss(stack(m), stack(a), 0.6)
        assert value == pytest.approx(0.6 * np.sum((m.params - a.params) ** 2))
        assert grad.shape == m.params.shape
        assert value == row_value
        assert np.array_equal(grad, row_grad[0])


class TestAssignmentProbs:
    def test_single_prototype(self):
        probs = assignment_probs([1.0, 0.0], np.array([[0.5, 0.5]]), TAU)
        assert probs.tolist() == [1.0]

    def test_equidistant_uniform(self):
        protos = np.array([[1.0, 0.0], [0.0, 1.0]])
        probs = assignment_probs([1.0, 1.0], protos, TAU)
        assert np.allclose(probs, 0.5)

    def test_closed_form(self):
        probs = assignment_probs([1.0, 0.0], np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)
        e = math.e
        assert probs == pytest.approx([e / (e + 1), 1 / (e + 1)], abs=1e-9)

    def test_zero_norm_prototype_rejected(self):
        with pytest.raises(ValueError):
            assignment_probs([1.0, 0.0], np.array([[0.0, 0.0]]), TAU)

    @given(st.floats(0.1, 10), st.floats(0.1, 10))
    def test_scale_invariance(self, c_e, c_p):
        protos = np.array([[1.0, 2.0], [2.0, -1.0], [0.5, 0.5]])
        e = np.array([1.0, 0.3])
        base = assignment_probs(e, protos, TAU)
        scaled = assignment_probs(c_e * e, c_p * protos, TAU)
        assert np.allclose(base, scaled, atol=1e-12)


class TestGptLoss:
    def test_identical_assignments_zero(self):
        protos = rand_embs(4, 3, 20)
        value, _ = gpt_loss([0.3, -0.8, 1.1], protos, protos.copy(), TAU)
        assert value == 0.0

    def test_maximal_js_is_ln2(self):
        img_protos = np.array([[1.0, 0.0], [-1.0, 0.0]])
        txt_protos = np.array([[-1.0, 0.0], [1.0, 0.0]])
        value, _ = gpt_loss([1.0, 0.0], img_protos, txt_protos, tau=0.01)
        assert value == pytest.approx(LN2, abs=1e-9)

    def test_symmetric_under_set_swap(self):
        a, b = rand_embs(5, 3, 21), rand_embs(5, 3, 22)
        e = np.array([0.4, -1.2, 0.7])
        v1, _ = gpt_loss(e, a, b, TAU)
        v2, _ = gpt_loss(e, b, a, TAU)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_bounds_on_random_inputs(self):
        for trial in range(200):
            rng = seeded_rng(508, trial)
            k, d = int(rng.integers(1, 7)), int(rng.integers(2, 5))
            value, _ = gpt_loss(
                rng.standard_normal(d) + 0.1,
                rng.standard_normal((k, d)) + 0.1,
                rng.standard_normal((k, d)) - 0.1,
                float(rng.uniform(0.05, 3.0)),
            )
            assert 0.0 <= value <= LN2 + 1e-12

    def test_finite_difference(self):
        img_p, txt_p = rand_embs(4, 3, 23), rand_embs(4, 3, 24)
        embs = rand_embs(3, 3, 25)
        protos = prototype_rows(img_p, txt_p)
        _, (grad,) = gpt_loss_batch(unit_rows(embs[None]), protos, TAU)
        numeric = fd_wrt_arrays(
            lambda e: gpt_loss_batch(unit_rows(e[None]), protos, TAU)[0], [embs]
        )[0]
        assert grad_rel_error(grad, numeric) < 1e-4

    def test_paired_finite_difference(self):
        img_p, txt_p = rand_embs(4, 3, 26), rand_embs(4, 3, 27)
        img_e, txt_e = rand_embs(3, 3, 28), rand_embs(3, 3, 29)
        protos = prototype_rows(img_p, txt_p)
        _, (gi, gt) = gpt_loss_paired_batch(unit_rows(np.stack([img_e, txt_e])), protos, TAU)
        ni, nt = fd_wrt_arrays(
            lambda a, b: gpt_loss_paired_batch(unit_rows(np.stack([a, b])), protos, TAU)[0],
            [img_e, txt_e],
        )
        assert grad_rel_error(gi, ni) < 1e-4
        assert grad_rel_error(gt, nt) < 1e-4


class TestGmtLoss:
    def test_identical_embeddings_zero(self):
        emb = np.array([0.2, -0.4, 1.0])
        value, grad = gmt_loss(emb, emb.copy(), 1.0, 1.0, NU_MAX, DISTILL_TAU)
        assert value == 0.0
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_equal_task_losses_give_unit_ratio(self):
        local, glob = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        v1, _ = gmt_loss(local, glob, 0.37, 0.37, NU_MAX, DISTILL_TAU)
        v_base, _ = gmt_loss(local, glob, 1.0, 1.0, NU_MAX, DISTILL_TAU)
        assert v1 == pytest.approx(v_base, rel=1e-12)

    def test_ratio_scales_linearly_below_clamp(self):
        local, glob = np.array([1.0, 0.2]), np.array([0.1, 0.9])
        v1, _ = gmt_loss(local, glob, 1.0, 1.0, NU_MAX, DISTILL_TAU)
        v2, _ = gmt_loss(local, glob, 2.0, 1.0, NU_MAX, DISTILL_TAU)
        assert v2 == pytest.approx(2 * v1, rel=1e-12)

    def test_ratio_clamped(self):
        local, glob = np.array([1.0, 0.2]), np.array([0.1, 0.9])
        v_cap, _ = gmt_loss(local, glob, 1e9, 1.0, 5.0, DISTILL_TAU)
        v_unit, _ = gmt_loss(local, glob, 1.0, 1.0, 5.0, DISTILL_TAU)
        assert v_cap == pytest.approx(5.0 * v_unit, rel=1e-12)

    def test_gradient_flows_only_into_local(self):
        local, glob = rand_embs(3, 4, 30), rand_embs(3, 4, 31)
        target = gmt_targets(unit_rows(glob[None]), DISTILL_TAU)
        _, (grad,) = gmt_loss_batch(unit_rows(local[None]), target, 0.8, 0.5, NU_MAX, DISTILL_TAU)
        numeric = fd_wrt_arrays(
            lambda l: gmt_loss_batch(unit_rows(l[None]), target, 0.8, 0.5, NU_MAX, DISTILL_TAU)[0],
            [local],
        )[0]
        assert grad_rel_error(grad, numeric) < 1e-4

    def test_non_finite_ratio_rejected(self):
        with pytest.raises(ValueError):
            gmt_loss(np.ones(2), np.ones(2), float("nan"), 1.0, NU_MAX, DISTILL_TAU)


def _transfer_case(key, t):
    """Random ``(t, B, d)`` unit rows, their ``(t, N, d)`` targets with a
    batch of N, and prototypes, at B in 1-64, K in 1-80 and a few scales."""
    rng = seeded_rng(512, key, t)
    b, d, k = int(rng.integers(1, 65)), int(rng.integers(2, 25)), int(rng.integers(1, 81))
    n = b + int(rng.integers(0, 40))
    scale = 10.0 ** float(rng.uniform(-2, 2))
    rows = unit_rows(rng.standard_normal((t, b, d)) * scale)
    targets = unit_rows(rng.standard_normal((t, n, d)) * scale, "distillation targets")
    batch = rng.permutation(n)[:b]
    protos = prototype_rows(rng.standard_normal((k, d)), rng.standard_normal((k, d)))
    return rng, rows, targets, batch, protos


class TestStackedTransferLosses:
    """Each transfer loss on a client's stack of towers gives the bits of its
    per-tower loop form (``tests/oracles.py``): one call for t = 1 and 2."""

    @pytest.mark.parametrize("t", [1, 2])
    def test_gpt_gives_the_bits_of_the_loop_form(self, t):
        for trial in range(150):
            rng, rows, _, _, protos = _transfer_case(("gpt", trial), t)
            tau = float(rng.uniform(0.05, 2.0))
            value, grad = gpt_loss_paired_batch(rows, protos, tau)
            if t == 2:
                want, g_img, g_txt = loop_gpt_loss_paired_batch(*towers(rows), protos, tau)
                want_grad = np.stack([g_img, g_txt])
            else:
                want, g = loop_gpt_loss_batch(*towers(rows), protos, tau)
                want_grad = g[None]
            assert value.hex() == want.hex(), trial
            assert grad.shape == rows.unit.shape, trial
            assert grad.tobytes() == want_grad.tobytes(), trial

    @pytest.mark.parametrize("t", [1, 2])
    def test_gmt_gives_the_bits_of_the_loop_form(self, t):
        """Against one loop call per tower, each toward its batch's target
        unit rows; the value is their mean, added in tower order. The ratio
        runs unclamped, clamped and with a zero global loss, and temperatures
        down to 0.01 floor target probabilities at ``KL_EPS``."""
        floored = 0
        for trial in range(150):
            rng, rows, targets, batch, _ = _transfer_case(("gmt", trial), t)
            distill_tau = 10.0 ** float(rng.uniform(-2.0, 0.3))
            local_task = float(rng.uniform(0.0, 3.0))
            global_task = (0.0, float(rng.uniform(0.01, 3.0)))[trial % 2]
            nu_max = float(rng.uniform(0.5, 10.0))
            target = gmt_targets(targets, distill_tau).take(batch, axis=-2)
            value, grad = gmt_loss_batch(
                rows, target, local_task, global_task, nu_max, distill_tau
            )
            want = 0.0
            for i, (local, gathered) in enumerate(zip(towers(rows), towers(targets, batch))):
                v, g = loop_gmt_loss_batch(
                    local, gathered, local_task, global_task, nu_max, distill_tau
                )
                want += v
                assert grad[i].tobytes() == g.tobytes(), trial
            assert value.hex() == (want / t).hex(), trial
            floored += bool((target == KL_EPS).any())
        assert floored > 20

    def test_target_distributions_gathered_equal_those_of_the_batch(self):
        """The distributions of all N target rows, computed once and then
        gathered, are those computed from the batch's own unit rows."""
        for trial in range(200):
            rng, _, targets, batch, _ = _transfer_case(("targets", trial), 1 + trial % 2)
            distill_tau = float(rng.uniform(0.05, 2.0))
            gathered = gmt_targets(targets, distill_tau).take(batch, axis=-2)
            batch_rows = UnitRows(targets.unit[:, batch], targets.norms[:, batch])
            own = gmt_targets(batch_rows, distill_tau)
            assert gathered.tobytes() == own.tobytes(), trial

    def test_transfer_ratio_gives_the_bits_of_the_numpy_form(self):
        rng = seeded_rng(513)
        for trial in range(5000):
            local = float(rng.uniform(0.0, 5.0)) * float(trial % 7 != 0)
            glob = float(rng.uniform(0.0, 5.0)) * float(trial % 5 != 0)
            nu_max = float(rng.uniform(0.5, 10.0))
            got = transfer_ratio(local, glob, nu_max)
            want = loop_transfer_ratio(local, glob, nu_max)
            assert type(got) is float and got.hex() == want.hex(), trial
        for local, glob in ((float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="non-finite transfer ratio") as ours:
                transfer_ratio(local, glob, NU_MAX)
            with pytest.raises(ValueError) as theirs:
                loop_transfer_ratio(local, glob, NU_MAX)
            assert str(ours.value) == str(theirs.value)
