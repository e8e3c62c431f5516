import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apromfl.metrics import EvalReport, _true_ranks, classification_report, retrieval_report
from apromfl.numerics import seeded_rng
from oracles import acc_at_k, eval_report_from_dict, recall_at_k, two_pass_true_ranks


def sort_oracle_acc(logits, labels, k):
    hits = 0
    for row, label in zip(logits, labels):
        ranked = sorted(range(len(row)), key=lambda c: (-row[c], c))
        hits += label in ranked[:k]
    return hits / len(labels)


def ranking_oracle_recall(queries, gallery, truth, k):
    hits = 0
    for q, t in zip(queries, truth):
        sims = []
        for g in gallery:
            sims.append(float(q @ g) / (np.linalg.norm(q) * np.linalg.norm(g)))
        ranked = sorted(range(len(gallery)), key=lambda j: (-sims[j], j))
        hits += t in ranked[:k]
    return hits / len(queries)


def argsort_recall(queries, gallery, truth, k):
    """The stable-argsort ranking over the same cosine matrix the metric
    builds, so exactly tied similarities are tied for both."""
    q = np.asarray(queries, dtype=float)
    g = np.asarray(gallery, dtype=float)
    sims = (q / np.linalg.norm(q, axis=1, keepdims=True)) @ (
        g / np.linalg.norm(g, axis=1, keepdims=True)
    ).T
    top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return float((top == np.asarray(truth)[:, None]).any(axis=1).mean())


def tied_embeddings(rng, n, d):
    """Nonzero integer rows in {-1, 0, 1}^d: few distinct directions, so
    many cosines tie exactly (for d = 1 every cosine is +-1)."""
    embs = rng.integers(-1, 2, (n, d)).astype(float)
    embs[~embs.any(axis=1), 0] = 1.0
    return embs


class TestAccAtK:
    def test_k_at_least_num_classes(self):
        logits = seeded_rng(800).standard_normal((7, 4))
        labels = seeded_rng(801).integers(0, 4, 7)
        assert acc_at_k(logits, labels, 4) == 1.0
        assert acc_at_k(logits, labels, 9) == 1.0

    def test_onehot_logits(self):
        labels = np.array([2, 0, 1])
        logits = np.eye(3)[labels]
        assert acc_at_k(logits, labels, 1) == 1.0

    def test_matches_sort_oracle(self):
        rng = seeded_rng(802)
        for trial in range(50):
            logits = rng.standard_normal((rng.integers(1, 12), rng.integers(2, 7)))
            labels = rng.integers(0, logits.shape[1], len(logits))
            k = int(rng.integers(1, logits.shape[1] + 2))
            assert acc_at_k(logits, labels, k) == sort_oracle_acc(logits, labels, k)

    def test_tie_break_low_class_wins(self):
        logits = np.array([[1.0, 1.0, 0.0]])
        assert acc_at_k(logits, [0], 1) == 1.0
        assert acc_at_k(logits, [1], 1) == 0.0

    def test_monotone_in_k(self):
        rng = seeded_rng(803)
        logits = rng.standard_normal((20, 6))
        labels = rng.integers(0, 6, 20)
        values = [acc_at_k(logits, labels, k) for k in range(1, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_transform_invariance(self):
        rng = seeded_rng(804)
        logits = rng.standard_normal((15, 5))
        labels = rng.integers(0, 5, 15)
        assert acc_at_k(logits, labels, 2) == acc_at_k(3 * logits + 7, labels, 2)

    def test_tie_heavy_integer_logits_match_sort_oracle(self):
        rng = seeded_rng(813)
        for trial in range(60):
            n, c = int(rng.integers(1, 15)), int(rng.integers(1, 8))
            logits = rng.integers(0, 3, (n, c)).astype(float)
            labels = rng.integers(0, c, n)
            for k in range(1, c + 3):  # k >= C included
                assert acc_at_k(logits, labels, k) == sort_oracle_acc(logits, labels, k)


class TestRecallAtK:
    def test_gallery_equals_queries(self):
        embs = seeded_rng(805).standard_normal((9, 4))
        assert recall_at_k(embs, embs, np.arange(9), 1) == 1.0

    def test_k_covers_whole_gallery(self):
        rng = seeded_rng(806)
        q = rng.standard_normal((1, 3))
        gallery = rng.standard_normal((6, 3))
        assert recall_at_k(q, gallery, [4], 6) == 1.0

    def test_matches_full_ranking_oracle(self):
        rng = seeded_rng(807)
        for trial in range(40):
            nq, ng = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            q = rng.standard_normal((nq, 4)) + 0.1
            g = rng.standard_normal((ng, 4)) + 0.1
            truth = rng.integers(0, ng, nq)
            k = int(rng.integers(1, ng + 1))
            assert recall_at_k(q, g, truth, k) == ranking_oracle_recall(q, g, truth, k)

    def test_gallery_permutation_invariance(self):
        rng = seeded_rng(808)
        q, g = rng.standard_normal((6, 3)), rng.standard_normal((8, 3))
        truth = rng.integers(0, 8, 6)
        perm = rng.permutation(8)
        inverse = np.argsort(perm)
        assert recall_at_k(q, g, truth, 3) == recall_at_k(q, g[perm], inverse[truth], 3)

    def test_scale_invariance(self):
        rng = seeded_rng(809)
        q, g = rng.standard_normal((5, 3)), rng.standard_normal((7, 3))
        truth = rng.integers(0, 7, 5)
        assert recall_at_k(q, g, truth, 2) == recall_at_k(5.0 * q, 0.3 * g, truth, 2)

    def test_tie_heavy_integer_embeddings_match_sort_oracle(self):
        rng = seeded_rng(815)
        for trial in range(60):
            nq, ng, d = int(rng.integers(1, 12)), int(rng.integers(1, 12)), int(rng.integers(1, 4))
            q, g = tied_embeddings(rng, nq, d), tied_embeddings(rng, ng, d)
            truth = rng.integers(0, ng, nq)
            for k in range(1, ng + 3):  # k >= gallery size included
                assert recall_at_k(q, g, truth, k) == argsort_recall(q, g, truth, k)

    @given(st.integers(1, 6))
    def test_monotone_in_k(self, k):
        rng = seeded_rng(810)
        q, g = rng.standard_normal((10, 3)), rng.standard_normal((6, 3))
        truth = rng.integers(0, 6, 10)
        assert recall_at_k(q, g, truth, k + 1) >= recall_at_k(q, g, truth, k)


class TestTrueRanks:
    def test_gives_the_ranks_of_the_two_pass_form(self):
        """Rows of 2 to 400 columns, half of them integer-valued (many
        ties), give the ranks of the two-pass form, and so do rows without
        any tie and rows whose rank needs more than a byte."""
        for trial in range(400):
            rng = seeded_rng(520, trial)
            n, c = int(rng.integers(1, 40)), int(rng.choice([2, 5, 10, 255, 256, 300, 400]))
            scores = rng.standard_normal((n, c))
            if trial % 2:
                scores = np.round(scores * float(rng.uniform(0.5, 3.0)))
            truth = rng.integers(0, c, n)
            assert np.array_equal(_true_ranks(scores, truth), two_pass_true_ranks(scores, truth))
        for c in (255, 256, 300):
            scores = np.tile(np.arange(c, dtype=float), (3, 1))
            truth = np.array([0, c // 2, c - 1])
            ranks = _true_ranks(scores, truth)
            assert ranks.tolist() == [c - 1, c - 1 - c // 2, 0]
            assert np.array_equal(ranks, two_pass_true_ranks(scores, truth))


class TestReports:
    def test_classification_report(self):
        rng = seeded_rng(811)
        logits = rng.standard_normal((12, 10))
        labels = rng.integers(0, 10, 12)
        report = classification_report(logits, labels)
        assert set(report.acc_at) == {1, 5}
        assert report.recall_i2t_at == {}
        assert report.n_eval == 12

    def test_retrieval_report_sums(self):
        rng = seeded_rng(812)
        img, txt = rng.standard_normal((15, 4)), rng.standard_normal((15, 4))
        report = retrieval_report(img, txt)
        assert report.r1_sum == report.recall_i2t_at[1] + report.recall_t2i_at[1]
        assert report.r5_sum == report.recall_i2t_at[5] + report.recall_t2i_at[5]
        assert 0 <= report.r1_sum <= 2

    def test_classification_report_matches_sort_oracle(self):
        rng = seeded_rng(817)
        for trial in range(20):
            n, c = int(rng.integers(1, 15)), int(rng.integers(1, 8))
            logits = rng.integers(0, 3, (n, c)).astype(float)
            labels = rng.integers(0, c, n)
            ks = tuple(range(1, c + 3))
            report = classification_report(logits, labels, ks=ks)
            assert report.acc_at == {k: sort_oracle_acc(logits, labels, k) for k in ks}

    def test_retrieval_report_matches_sort_oracle(self):
        rng = seeded_rng(818)
        for trial in range(20):
            n, d = int(rng.integers(1, 12)), int(rng.integers(1, 4))
            img, txt = tied_embeddings(rng, n, d), tied_embeddings(rng, n, d)
            identity = np.arange(n)
            ks = tuple(range(1, n + 3))
            report = retrieval_report(img, txt, ks=ks)
            assert report.recall_i2t_at == {k: argsort_recall(img, txt, identity, k) for k in ks}
            assert report.recall_t2i_at == {k: argsort_recall(txt, img, identity, k) for k in ks}

    @pytest.mark.parametrize("side", ["image", "text"])
    def test_retrieval_report_gives_a_zero_embedding_cosine_zero(self, side):
        rng = seeded_rng(819)
        embs = {"image": rng.standard_normal((4, 3)), "text": rng.standard_normal((4, 3))}
        embs[side][2] = 0.0
        ks = (1, 2, 3, 4)
        report = retrieval_report(embs["image"], embs["text"], ks=ks)
        # the zero row stays zero, so it ties at cosine 0 with every row
        unit = {}
        for name, e in embs.items():
            norms = np.linalg.norm(e, axis=1, keepdims=True)
            unit[name] = e / np.where(norms > 0, norms, 1.0)
        sims = unit["image"] @ unit["text"].T
        assert not (sims[2] if side == "image" else sims[:, 2]).any()

        def stable_recall(scores, k):
            top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            return float((top == np.arange(len(scores))[:, None]).any(axis=1).mean())

        assert report.recall_i2t_at == {k: stable_recall(sims, k) for k in ks}
        assert report.recall_t2i_at == {k: stable_recall(sims.T, k) for k in ks}

    def test_round_trip_dict(self):
        report = EvalReport(acc_at={1: 0.5, 5: 0.9}, n_eval=10)
        assert eval_report_from_dict(report.to_dict()) == report
