import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apromfl.losses import (
    LN2,
    TransferContext,
    assignment_probs,
    clustering_total_loss,
    cross_entropy,
    cross_entropy_batch,
    gmt_loss,
    gmt_loss_batch,
    gpt_loss,
    gpt_loss_batch,
    gpt_loss_paired_batch,
    inter_modal_loss,
    inter_modal_total,
    intra_modal_loss,
    intra_modal_total,
    lmr_loss,
    retrieval_task_loss,
)
from apromfl.nn import flatten_module, init_mapping_module, unflatten_module
from apromfl.numerics import ClusterAssignment, seeded_rng
from oracles import fd_wrt_arrays, grad_rel_error

TAU = 0.5


def ctx(**kwargs):
    return TransferContext(tau=TAU, **kwargs)


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


class TestRetrievalTaskLoss:
    def test_matched_orthogonal_pairs_vanish_at_small_tau(self):
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        value, _, _ = retrieval_task_loss(img, img.copy(), tau=0.01)
        assert value == pytest.approx(0.0, abs=1e-8)

    def test_self_alignment_matches_direct_summation(self):
        embs = rand_embs(5, 4, key=1)
        value, _, _ = retrieval_task_loss(embs, embs.copy(), TAU)
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
        base, _, _ = retrieval_task_loss(img, txt, TAU)
        permuted, _, _ = retrieval_task_loss(img[perm], txt[perm], TAU)
        assert base == pytest.approx(permuted, rel=1e-12)

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            retrieval_task_loss(np.ones((1, 3)), np.ones((1, 3)), TAU)

    def test_finite_difference(self):
        img, txt = rand_embs(4, 3, 4), rand_embs(4, 3, 5)
        _, g_img, g_txt = retrieval_task_loss(img, txt, TAU)
        n_img, n_txt = fd_wrt_arrays(
            lambda a, b: retrieval_task_loss(a, b, TAU)[0], [img, txt]
        )
        assert grad_rel_error(g_img, n_img) < 1e-4
        assert grad_rel_error(g_txt, n_txt) < 1e-4


def brute_intra(embs, clusters, i, tau):
    unit = embs / np.linalg.norm(embs, axis=1, keepdims=True)
    member = clusters.cluster_of(i)
    denom = sum(math.exp(float(unit[i] @ unit[t]) / tau) for t in range(len(embs)))
    total = 0.0
    for j in member:
        total += math.log(math.exp(float(unit[i] @ unit[j]) / tau) / denom)
    return -total / len(member)


def brute_inter(img, txt, clusters, i, tau):
    u = img / np.linalg.norm(img, axis=1, keepdims=True)
    v = txt / np.linalg.norm(txt, axis=1, keepdims=True)
    member = clusters.cluster_of(i)
    denom = sum(math.exp(float(u[i] @ v[t]) / tau) for t in range(len(img)))
    total = 0.0
    for j in member:
        total += math.log(math.exp(float(u[i] @ v[j]) / tau) / denom)
    return -total / len(member)


class TestContrastiveLosses:
    def test_single_sample_is_zero(self):
        clusters = ClusterAssignment.from_labels([0])
        value = intra_modal_loss(np.array([[1.0, 2.0]]), clusters, 0, TAU)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_two_identical_in_one_cluster(self):
        embs = np.array([[1.0, 1.0], [1.0, 1.0]])
        clusters = ClusterAssignment.from_labels([0, 0])
        assert intra_modal_loss(embs, clusters, 0, TAU) == pytest.approx(math.log(2), abs=1e-12)

    def test_three_sample_brute_sum(self):
        embs = rand_embs(3, 4, 6)
        clusters = ClusterAssignment.from_labels([0, 1, 0])
        for i in range(3):
            assert intra_modal_loss(embs, clusters, i, TAU) == pytest.approx(
                brute_intra(embs, clusters, i, TAU), abs=1e-12
            )

    def test_inter_collapses_to_intra_when_modalities_match(self):
        embs = rand_embs(4, 3, 7)
        clusters = ClusterAssignment.from_labels([0, 0, 0, 0])
        for i in range(4):
            assert inter_modal_loss(embs, embs.copy(), clusters, i, TAU) == pytest.approx(
                intra_modal_loss(embs, clusters, i, TAU), abs=1e-12
            )

    def test_inter_brute_sum_two_samples(self):
        img, txt = rand_embs(2, 3, 8), rand_embs(2, 3, 9)
        clusters = ClusterAssignment.from_labels([0, 0])
        for i in range(2):
            assert inter_modal_loss(img, txt, clusters, i, TAU) == pytest.approx(
                brute_inter(img, txt, clusters, i, TAU), abs=1e-12
            )

    def test_scale_invariance(self):
        img, txt = rand_embs(5, 3, 10), rand_embs(5, 3, 11)
        clusters = ClusterAssignment.from_labels([0, 1, 0, 1, 0])
        base = inter_modal_loss(img, txt, clusters, 2, TAU)
        scaled = inter_modal_loss(3.7 * img, 0.2 * txt, clusters, 2, TAU)
        assert base == pytest.approx(scaled, rel=1e-10)

    def test_totals_match_per_sample_sums(self):
        img, txt = rand_embs(6, 4, 12), rand_embs(6, 4, 13)
        clusters = ClusterAssignment.from_labels([0, 1, 0, 2, 1, 2])
        total_i, _ = intra_modal_total(img, clusters, TAU)
        assert total_i == pytest.approx(
            sum(intra_modal_loss(img, clusters, i, TAU) for i in range(6)), rel=1e-10
        )
        total_x, _, _ = inter_modal_total(img, txt, clusters, TAU)
        assert total_x == pytest.approx(
            sum(inter_modal_loss(img, txt, clusters, i, TAU) for i in range(6)), rel=1e-10
        )

    def test_total_finite_differences(self):
        img, txt = rand_embs(5, 3, 14), rand_embs(5, 3, 15)
        clusters = ClusterAssignment.from_labels([0, 1, 0, 1, 1])
        _, g = intra_modal_total(img, clusters, TAU)
        numeric = fd_wrt_arrays(lambda a: intra_modal_total(a, clusters, TAU)[0], [img])[0]
        assert grad_rel_error(g, numeric) < 1e-4
        _, gi, gt = inter_modal_total(img, txt, clusters, TAU)
        ni, nt = fd_wrt_arrays(lambda a, b: inter_modal_total(a, b, clusters, TAU)[0], [img, txt])
        assert grad_rel_error(gi, ni) < 1e-4
        assert grad_rel_error(gt, nt) < 1e-4


class TestClusteringTotalLoss:
    def test_equals_component_sum(self):
        img, txt = rand_embs(6, 4, 16), rand_embs(6, 4, 17)
        clusters = ClusterAssignment.from_labels([0, 0, 1, 1, 2, 2])
        value, _, _ = clustering_total_loss(img, txt, clusters, TAU)
        expected = (
            retrieval_task_loss(img, txt, TAU)[0]
            + intra_modal_total(img, clusters, TAU)[0]
            + intra_modal_total(txt, clusters, TAU)[0]
            + inter_modal_total(img, txt, clusters, TAU)[0]
        )
        assert value == pytest.approx(expected, abs=1e-10)

    def test_finite_difference(self):
        img, txt = rand_embs(4, 3, 18), rand_embs(4, 3, 19)
        clusters = ClusterAssignment.from_labels([0, 1, 1, 0])
        _, gi, gt = clustering_total_loss(img, txt, clusters, TAU)
        ni, nt = fd_wrt_arrays(
            lambda a, b: clustering_total_loss(a, b, clusters, TAU)[0], [img, txt]
        )
        assert grad_rel_error(gi, ni) < 1e-4
        assert grad_rel_error(gt, nt) < 1e-4


class TestLmrLoss:
    def test_identical_modules(self):
        m = init_mapping_module((3, 4, 2), seeded_rng(504))
        value, _ = lmr_loss(m, m, 0.7)
        assert value == 0.0

    def test_zero_weight(self):
        a = init_mapping_module((3, 4, 2), seeded_rng(505, "a"))
        b = init_mapping_module((3, 4, 2), seeded_rng(505, "b"))
        assert lmr_loss(a, b, 0.0)[0] == 0.0

    def test_arithmetic(self):
        a = init_mapping_module((3, 4, 2), seeded_rng(506))
        flat = flatten_module(a)
        bumped = unflatten_module(a.dims, flat + np.isin(np.arange(flat.size), [1, 4, 8, 11]))
        value, grad = lmr_loss(bumped, a, 0.5)
        assert value == pytest.approx(2.0)
        assert np.allclose(np.abs(grad).sum(), 4.0)

    def test_gradient_finite_difference(self):
        a = init_mapping_module((3, 4, 2), seeded_rng(507, "a"))
        anchor = init_mapping_module((3, 4, 2), seeded_rng(507, "b"))
        _, grad = lmr_loss(a, anchor, 0.3)
        from oracles import fd_wrt_modules

        numeric = fd_wrt_modules(lambda ms: lmr_loss(ms[0], anchor, 0.3)[0], [a])
        assert grad_rel_error(grad, numeric) < 1e-4

    def test_architecture_mismatch(self):
        a = init_mapping_module((3, 4, 2), seeded_rng(508, "a"))
        b = init_mapping_module((3, 5, 2), seeded_rng(508, "b"))
        with pytest.raises(ValueError, match="architecture mismatch"):
            lmr_loss(a, b, 0.3)


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
        _, grad = gpt_loss_batch(embs, img_p, txt_p, TAU)
        numeric = fd_wrt_arrays(lambda e: gpt_loss_batch(e, img_p, txt_p, TAU)[0], [embs])[0]
        assert grad_rel_error(grad, numeric) < 1e-4

    def test_paired_finite_difference(self):
        img_p, txt_p = rand_embs(4, 3, 26), rand_embs(4, 3, 27)
        img_e, txt_e = rand_embs(3, 3, 28), rand_embs(3, 3, 29)
        _, gi, gt = gpt_loss_paired_batch(img_e, txt_e, img_p, txt_p, TAU)
        ni, nt = fd_wrt_arrays(
            lambda a, b: gpt_loss_paired_batch(a, b, img_p, txt_p, TAU)[0], [img_e, txt_e]
        )
        assert grad_rel_error(gi, ni) < 1e-4
        assert grad_rel_error(gt, nt) < 1e-4


class TestGmtLoss:
    def test_identical_embeddings_zero(self):
        emb = np.array([0.2, -0.4, 1.0])
        value, grad = gmt_loss(emb, emb.copy(), 1.0, 1.0, ctx())
        assert value == 0.0
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_equal_task_losses_give_unit_ratio(self):
        local, glob = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        v1, _ = gmt_loss(local, glob, 0.37, 0.37, ctx())
        v_base, _ = gmt_loss(local, glob, 1.0, 1.0, ctx())
        assert v1 == pytest.approx(v_base, rel=1e-12)

    def test_ratio_scales_linearly_below_clamp(self):
        local, glob = np.array([1.0, 0.2]), np.array([0.1, 0.9])
        v1, _ = gmt_loss(local, glob, 1.0, 1.0, ctx())
        v2, _ = gmt_loss(local, glob, 2.0, 1.0, ctx())
        assert v2 == pytest.approx(2 * v1, rel=1e-12)

    def test_ratio_clamped(self):
        local, glob = np.array([1.0, 0.2]), np.array([0.1, 0.9])
        v_cap, _ = gmt_loss(local, glob, 1e9, 1.0, ctx(nu_max=5.0))
        v_unit, _ = gmt_loss(local, glob, 1.0, 1.0, ctx(nu_max=5.0))
        assert v_cap == pytest.approx(5.0 * v_unit, rel=1e-12)

    def test_gradient_flows_only_into_local(self):
        local, glob = rand_embs(3, 4, 30), rand_embs(3, 4, 31)
        _, grad = gmt_loss_batch(local, glob, 0.8, 0.5, ctx())
        numeric = fd_wrt_arrays(
            lambda l: gmt_loss_batch(l, glob, 0.8, 0.5, ctx())[0], [local]
        )[0]
        assert grad_rel_error(grad, numeric) < 1e-4

    def test_non_finite_ratio_rejected(self):
        with pytest.raises(ValueError):
            gmt_loss(np.ones(2), np.ones(2), float("nan"), 1.0, ctx())


class TestTransferContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransferContext(tau=0.0)
        with pytest.raises(ValueError):
            TransferContext(tau=1.0, distill_tau=0.0)
        with pytest.raises(ValueError):
            TransferContext(tau=1.0, nu_max=0.5)

    def test_empty(self):
        assert ctx().is_empty
