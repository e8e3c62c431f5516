import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apromfl.numerics import kmeans, seeded_rng
from apromfl.prototypes import (
    PrototypePair,
    UnimodalPrototype,
    build_global_prototypes,
    clustering_prototype_pairs,
    fuse,
    label_guided_prototypes,
    semantic_complete,
)
from oracles import exhaustive_kmeans_sse, kmeans_sse


def rand_pairs(count, dim, key):
    rng = seeded_rng(600, "pairs", key)
    return [
        PrototypePair(
            image_vec=rng.standard_normal(dim) + 0.2,
            text_vec=rng.standard_normal(dim) - 0.2,
        )
        for _ in range(count)
    ]


class TestLabelGuidedPrototypes:
    def test_one_sample_per_class(self):
        embs = np.array([[1.0, 0.0], [0.0, 2.0]])
        class_1, class_3 = label_guided_prototypes(embs, np.array([3, 1]), "image")  # ascending
        assert np.array_equal(class_1.vector, embs[1])
        assert np.array_equal(class_3.vector, embs[0])

    def test_arithmetic_mean(self):
        embs = np.array([[0.0, 0.0], [2.0, 2.0], [5.0, 1.0]])
        _, class_4 = label_guided_prototypes(embs + 1e-9, np.array([4, 4, 0]), "image")
        assert np.allclose(class_4.vector, [1.0, 1.0])

    def test_matches_grouping_oracle(self):
        rng = seeded_rng(601)
        embs = rng.standard_normal((40, 5)) + 0.3
        labels = rng.integers(0, 6, size=40)
        protos = label_guided_prototypes(embs, labels, "image")
        for p, class_id in zip(protos, np.unique(labels), strict=True):
            acc = np.zeros(5)
            count = 0
            for e, y in zip(embs, labels):
                if y == class_id:
                    acc += e
                    count += 1
            assert np.allclose(p.vector, acc / count, atol=1e-12)

    def test_convex_hull_single_class(self):
        rng = seeded_rng(602)
        embs = rng.standard_normal((10, 3)) + 1.0
        (proto,) = label_guided_prototypes(embs, np.full(10, 2), "image")
        assert np.allclose(proto.vector, embs.mean(axis=0))


class TestFuse:
    def test_identical(self):
        v = np.array([1.0, -2.0])
        assert np.array_equal(fuse(v, v), v)

    def test_mean(self):
        assert np.array_equal(fuse(np.array([2.0, 0.0]), np.array([0.0, 2.0])), [1.0, 1.0])

    def test_symmetry(self):
        a, b = np.array([1.0, 3.0]), np.array([-2.0, 5.0])
        assert np.array_equal(fuse(a, b), fuse(b, a))


class TestClusteringPrototypePairs:
    def test_k1_is_global_mean(self):
        rng = seeded_rng(603)
        img, txt = rng.standard_normal((7, 3)) + 1, rng.standard_normal((7, 3)) - 1
        pairs = clustering_prototype_pairs(img, txt, 1, seeded_rng(604))
        labels = kmeans(fuse(img, txt), 1, seeded_rng(604))
        assert len(pairs) == 1
        assert np.allclose(pairs[0].image_vec, img.mean(axis=0))
        assert np.allclose(pairs[0].text_vec, txt.mean(axis=0))
        assert labels.tolist() == [0] * 7

    def test_two_separated_groups(self):
        img = np.array([[0.0, 0.1], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        txt = img[:, ::-1].copy()
        pairs = clustering_prototype_pairs(img, txt, 2, seeded_rng(605))
        fused = fuse(img, txt)
        labels = kmeans(fused, 2, seeded_rng(605))
        assert kmeans_sse(fused, labels) == pytest.approx(exhaustive_kmeans_sse(fused, 2), abs=1e-9)
        members = [np.flatnonzero(labels == c) for c in range(2)]
        for idx, pair in zip(members, pairs):
            assert np.allclose(pair.image_vec, img[idx].mean(axis=0))
            assert np.allclose(pair.text_vec, txt[idx].mean(axis=0))

    def test_assignment_partitions_indices(self):
        rng = seeded_rng(606)
        img, txt = rng.standard_normal((12, 4)) + 0.5, rng.standard_normal((12, 4)) + 0.5
        pairs = clustering_prototype_pairs(img, txt, 3, seeded_rng(607))
        labels = kmeans(fuse(img, txt), 3, seeded_rng(607))
        assert labels.shape == (12,)
        assert np.array_equal(np.unique(labels), np.arange(3))
        for c, pair in enumerate(pairs):
            assert np.array_equal(pair.image_vec, img[labels == c].mean(axis=0))


class TestSemanticComplete:
    def test_top1_copies_best_match(self):
        pairs = rand_pairs(5, 4, key=1)
        uni = UnimodalPrototype("image", pairs[2].image_vec * 2.0)
        (completed,) = semantic_complete([uni], pairs, top_o=1)
        assert np.array_equal(completed.text_vec, pairs[2].text_vec)
        assert np.array_equal(completed.image_vec, uni.vector)

    def test_equal_similarity_averages(self):
        v = np.array([1.0, 0.0, 0.0])
        pairs = [
            PrototypePair(image_vec=v, text_vec=np.array([1.0, 1.0, 0.0])),
            PrototypePair(image_vec=2 * v, text_vec=np.array([0.0, 1.0, 1.0])),
        ]
        uni = UnimodalPrototype("image", v.copy())
        (completed,) = semantic_complete([uni], pairs, top_o=2)
        assert np.allclose(completed.text_vec, [0.5, 1.0, 0.5])

    def test_matches_sort_select_normalize_oracle(self):
        for trial in range(50):
            rng = seeded_rng(608, trial)
            pairs = rand_pairs(8, 5, key=(100 + trial))
            modality = "image" if trial % 2 == 0 else "text"
            uni = UnimodalPrototype(modality, rng.standard_normal(5) + 0.3)
            top_o = int(rng.integers(1, 9))
            (completed,) = semantic_complete([uni], pairs, top_o)
            # independent re-derivation
            own = [p.image_vec if modality == "image" else p.text_vec for p in pairs]
            other = [p.text_vec if modality == "image" else p.image_vec for p in pairs]
            sims = [
                float(uni.vector @ o) / (np.linalg.norm(uni.vector) * np.linalg.norm(o))
                for o in own
            ]
            order = sorted(range(8), key=lambda j: (-sims[j], j))[:top_o]
            weights = [max(sims[j], 0.0) for j in order]
            total = sum(weights)
            if total < 1e-12:
                weights = [1.0 / top_o] * top_o
            else:
                weights = [w / total for w in weights]
            expected = sum(w * other[j] for w, j in zip(weights, order))
            got = completed.text_vec if modality == "image" else completed.image_vec
            assert np.allclose(got, expected, atol=1e-10)

    def test_uniform_fallback_when_all_similarities_negative(self):
        v = np.array([1.0, 0.0])
        pairs = [
            PrototypePair(image_vec=np.array([-1.0, 0.0]), text_vec=np.array([1.0, 2.0])),
            PrototypePair(image_vec=np.array([-1.0, -0.1]), text_vec=np.array([3.0, 4.0])),
        ]
        uni = UnimodalPrototype("image", v)
        (completed,) = semantic_complete([uni], pairs, top_o=2)
        assert np.allclose(completed.text_vec, [2.0, 3.0])

    @given(st.floats(0.1, 25.0))
    def test_scale_invariance_of_input_vector(self, scale):
        pairs = rand_pairs(6, 4, key=5)
        uni = UnimodalPrototype("text", np.array([0.5, -1.0, 2.0, 0.1]))
        scaled = UnimodalPrototype("text", uni.vector * scale)
        (a,) = semantic_complete([uni], pairs, top_o=3)
        (b,) = semantic_complete([scaled], pairs, top_o=3)
        assert np.allclose(a.image_vec, b.image_vec, atol=1e-10)

    def test_weights_in_convex_hull(self):
        pairs = rand_pairs(5, 3, key=6)
        uni = UnimodalPrototype("image", np.abs(seeded_rng(609).standard_normal(3)) + 0.1)
        (completed,) = semantic_complete([uni], pairs, top_o=3)
        # completed vector is a convex combination of at most 3 text prototypes
        texts = np.stack([p.text_vec for p in pairs])
        low = texts.min(axis=0) - 1e-9
        high = texts.max(axis=0) + 1e-9
        assert np.all(completed.text_vec >= low) and np.all(completed.text_vec <= high)


class TestBuildGlobalPrototypes:
    def test_k_equals_count_keeps_pairs(self):
        pairs = rand_pairs(4, 3, key=8)
        global_set = build_global_prototypes(pairs, 4, seeded_rng(610))
        assert len(global_set.pairs) == 4
        originals = {tuple(p.image_vec) for p in pairs}
        recovered = {tuple(p.image_vec) for p in global_set.pairs}
        assert originals == recovered

    def test_identical_pairs_collapse(self):
        base = rand_pairs(1, 3, key=9)[0]
        pairs = [base] * 6
        global_set = build_global_prototypes(pairs, 3, seeded_rng(611))
        for p in global_set.pairs:
            assert np.allclose(p.image_vec, base.image_vec)
            assert np.allclose(p.text_vec, base.text_vec)

    def test_two_separated_groups(self):
        rng = seeded_rng(612)
        lo = [
            PrototypePair(rng.standard_normal(3) * 0.1 + 1, rng.standard_normal(3) * 0.1 + 1)
            for _ in range(3)
        ]
        hi = [
            PrototypePair(rng.standard_normal(3) * 0.1 + 30, rng.standard_normal(3) * 0.1 + 30)
            for _ in range(3)
        ]
        global_set = build_global_prototypes(lo + hi, 2, seeded_rng(613))
        means = sorted(float(p.image_vec.mean()) for p in global_set.pairs)
        assert means[0] == pytest.approx(np.mean([p.image_vec for p in lo]), abs=1e-9)
        assert means[1] == pytest.approx(np.mean([p.image_vec for p in hi]), abs=1e-9)

    def test_deterministic(self):
        pairs = rand_pairs(9, 4, key=11)
        a = build_global_prototypes(pairs, 3, seeded_rng(615))
        b = build_global_prototypes(pairs, 3, seeded_rng(615))
        for pa, pb in zip(a.pairs, b.pairs):
            assert np.array_equal(pa.image_vec, pb.image_vec)
