import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apromfl import numerics
from apromfl.numerics import _draw_d2, kmeans, seeded_rng, unit_rows
from oracles import (
    cosine_similarity,
    exhaustive_kmeans_sse,
    fd_wrt_arrays,
    grad_rel_error,
    kl_divergence,
    kmeans_sse,
    loop_kmeans,
    row_count_nearest,
    softmax_temp,
)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestCosineSimilarity:
    def test_identical_unit_vectors(self):
        assert cosine_similarity([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_exact_arithmetic(self):
        assert cosine_similarity([1, 2], [2, 1]) == pytest.approx(0.8, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1, 2], [1, 2, 3])

    def test_zero_norm(self):
        with pytest.raises(ValueError):
            cosine_similarity([0, 0], [1, 2])

    @given(st.lists(finite_floats, min_size=2, max_size=6))
    def test_self_similarity_is_one(self, values):
        v = np.asarray(values)
        if np.linalg.norm(v) == 0:
            return
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)


class TestSoftmaxTemp:
    def test_uniform_input(self):
        out = softmax_temp([3.0, 3.0, 3.0], tau=0.7)
        assert np.allclose(out, 1 / 3)

    def test_closed_form(self):
        out = softmax_temp([1.0, 0.0], tau=1.0)
        e = math.e
        assert out == pytest.approx([e / (e + 1), 1 / (e + 1)], abs=1e-9)

    def test_stability_large_inputs(self):
        out = softmax_temp([1000.0, 0.0], tau=1.0)
        assert np.isfinite(out).all()
        assert out == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            softmax_temp([1.0], tau=0.0)

    @given(st.lists(finite_floats, min_size=1, max_size=8), st.floats(0.05, 5.0))
    def test_sums_to_one_and_shift_invariant(self, values, tau):
        v = np.asarray(values)
        out = softmax_temp(v, tau)
        assert abs(out.sum() - 1.0) < 1e-9
        assert (out >= 0).all()
        shifted = softmax_temp(v + 11.5, tau)
        assert np.allclose(out, shifted, atol=1e-12)


class TestKLDivergence:
    def test_identical(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_closed_form(self):
        expected = 0.5 * math.log(5 / 9) + 0.5 * math.log(5)
        assert kl_divergence([0.5, 0.5], [0.9, 0.1]) == pytest.approx(expected, abs=1e-9)

    def test_zero_in_q_is_floored(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0], [0.5, 0.5])

    @given(
        st.lists(st.floats(0.01, 10), min_size=2, max_size=6),
        st.lists(st.floats(0.01, 10), min_size=2, max_size=6),
    )
    def test_non_negative(self, raw_p, raw_q):
        size = min(len(raw_p), len(raw_q))
        p = np.asarray(raw_p[:size])
        q = np.asarray(raw_q[:size])
        assert kl_divergence(p / p.sum(), q / q.sum()) >= 0.0


class TestKMeans:
    def test_two_obvious_clusters(self):
        pts = np.array([[0, 0], [0.1, 0], [10, 10], [10.1, 10]], dtype=float)
        labels = kmeans(pts, 2, seeded_rng(1))
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert kmeans_sse(pts, labels) == pytest.approx(exhaustive_kmeans_sse(pts, 2), abs=1e-9)

    def test_single_point(self):
        labels = kmeans(np.array([[2.0, 3.0]]), 1, seeded_rng(0))
        assert labels.tolist() == [0]

    def test_k_equals_n(self):
        pts = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
        labels = kmeans(pts, 4, seeded_rng(5))
        assert sorted(labels.tolist()) == [0, 1, 2, 3]
        assert kmeans_sse(pts, labels) == 0.0

    def test_duplicate_points_still_fill_clusters(self):
        pts = np.zeros((3, 2))
        labels = kmeans(pts, 2, seeded_rng(3))
        assert set(labels.tolist()) == {0, 1}

    def test_labels_use_every_cluster(self):
        for trial in range(20):
            rng = seeded_rng(9, trial)
            k = int(rng.integers(1, 6))
            pts = rng.standard_normal((int(rng.integers(k, 40)), 3))
            labels = kmeans(pts, k, seeded_rng(10, trial))
            assert labels.shape == (len(pts),)
            assert np.array_equal(np.unique(labels), np.arange(k))

    def test_deterministic_given_seed(self):
        rng = seeded_rng(42, "pts")
        pts = rng.standard_normal((30, 4))
        a1 = kmeans(pts, 5, seeded_rng(42, "km"))
        a2 = kmeans(pts, 5, seeded_rng(42, "km"))
        assert np.array_equal(a1, a2)

    @staticmethod
    def loop_history(pts, k, key):
        """The SSE trace of the loop form, once its labels are those of
        ``kmeans`` on the same instance."""
        labels, _, history, _ = loop_kmeans(pts, k, seeded_rng(*key))
        assert np.array_equal(kmeans(pts, k, seeded_rng(*key)), labels), key
        return history

    def test_sse_never_increases(self):
        for trial in range(20):
            rng = seeded_rng(7, trial)
            pts = rng.standard_normal((int(rng.integers(3, 30)), 3))
            history = self.loop_history(pts, 3, (8, trial))
            assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_final_sse_at_most_init_sse(self):
        rng = seeded_rng(11)
        pts = rng.standard_normal((25, 2))
        history = self.loop_history(pts, 4, (12,))
        assert history[-1] <= history[0] + 1e-12

    def test_overflowing_potential_reported_only_by_the_error(self):
        """Every squared distance is finite, but their sum overflows."""
        pts = np.repeat([[-1e153], [1e153]], 200, axis=0)
        assert np.isfinite(((pts - pts[0]) ** 2)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="kmeans points"):
                kmeans(pts, 2, seeded_rng(13))


class TestKMeansLoopOracle:
    """The vectorised kernels give the loop form's labels, to the bit."""

    @staticmethod
    def instance(trial):
        rng = seeded_rng(31, trial)
        d = (2, 16, 32)[trial % 3]
        k = int(rng.integers(1, 81 if trial % 8 == 0 else 21))
        n = int(rng.integers(k, k + 40))
        kind = trial % 4
        if kind == 1:  # rounded coordinates: many tied distances
            pts = np.round(rng.standard_normal((n, d)), 1)
        elif kind == 2:  # at most k distinct points: empty clusters get repaired
            base = rng.standard_normal((int(rng.integers(1, k + 1)), d))
            pts = base[rng.integers(0, len(base), n)]
        else:
            pts = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
        return pts, k

    def test_matches_loop_form_bit_for_bit(self):
        repairs = 0
        for trial in range(200):
            pts, k = self.instance(trial)
            labels = kmeans(pts, k, seeded_rng(32, trial))
            o_labels, _, _, o_repairs = loop_kmeans(pts, k, seeded_rng(32, trial))
            assert np.array_equal(labels, o_labels), trial
            repairs += o_repairs
        assert repairs > 0

    def test_overflowing_points_named(self):
        pts = seeded_rng(33).standard_normal((20, 3)) * 1e160
        with pytest.raises(ValueError, match="kmeans points"):
            kmeans(pts, 3, seeded_rng(34))

    def test_overflow_reported_only_by_the_error(self):
        pts = seeded_rng(33).standard_normal((20, 3)) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="kmeans points"):
                kmeans(pts, 3, seeded_rng(34))

    @staticmethod
    def assert_matches_loop_form(pts, k, key):
        labels = kmeans(pts, k, seeded_rng(*key))
        o_labels = loop_kmeans(pts, k, seeded_rng(*key))[0]
        assert np.array_equal(labels, o_labels), key

    def test_matches_loop_form_at_run_sizes(self):
        """The sizes runs cluster: 150-300 fused embeddings or prototype
        pairs of width 16, into k = 10 or 80, spread or grouped by class."""
        for trial in range(16):
            rng = seeded_rng(39, trial)
            n, k = int(rng.integers(150, 301)), (10, 80)[trial % 2]
            pts = rng.standard_normal((n, 16))
            if trial % 4 >= 2:
                pts += 3.0 * rng.standard_normal((10, 16))[rng.integers(0, 10, n)]
            self.assert_matches_loop_form(pts, k, (40, trial))

    def test_matches_loop_form_with_small_n_restarts(self):
        for trial in range(24):
            rng = seeded_rng(41, trial)
            n = int(rng.integers(1, numerics.KMEANS_SMALL_N + 1))
            k = int(rng.integers(1, n + 1))
            pts = rng.standard_normal((n, int(rng.integers(1, 17))))
            self.assert_matches_loop_form(pts, k, (42, trial))

    def test_matches_loop_form_once_every_distinct_point_is_chosen(self):
        """With fewer distinct points than k, the seeding chooses all of them
        and then draws uniformly: the ``total == 0`` branch."""
        for trial in range(12):
            rng = seeded_rng(43, trial)
            k = int(rng.integers(2, 81))
            base = rng.standard_normal((int(rng.integers(1, k)), 16))
            pts = base[rng.integers(0, len(base), int(rng.integers(k, k + 60)))]
            assert len(np.unique(pts, axis=0)) < k
            self.assert_matches_loop_form(pts, k, (44, trial))

    def test_computes_each_distance_row_at_most_once(self, monkeypatch):
        """All restarts of one call share the matrix: one ``_sq_dist_rows``
        call of n rows per ``kmeans`` call."""
        computed, real = [], numerics._sq_dist_rows

        def rows_spy(pts):
            rows = real(pts)
            computed.append(len(rows))
            return rows

        monkeypatch.setattr(numerics, "_sq_dist_rows", rows_spy)
        for trial in range(40):
            pts, k = self.instance(trial)
            computed.clear()
            kmeans(pts, k, seeded_rng(45, trial))
            assert computed == [len(pts)], trial


class TestNearestScreen:
    """The GEMM-screened Lloyd assignment is the argmin of the exact form,
    ties to the lowest index, at every scale a finite input can have."""

    @staticmethod
    def assert_exact_argmin(pts, centroids, key):
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.argmin(numerics._sq_dists(pts, centroids), axis=1)
        got = numerics._nearest(pts, centroids, numerics._sq_norm_max(pts))
        assert np.array_equal(got, want), key

    @staticmethod
    def tied(rng, n, k, d):
        """Integer points and centroids, some centroids duplicated: many
        exactly tied distances."""
        pts = rng.integers(-3, 4, (n, d)).astype(float)
        centroids = rng.integers(-3, 4, (k, d)).astype(float)
        centroids[rng.integers(0, k, k // 2)] = centroids[0]
        return pts, centroids

    def test_exact_ties_and_duplicate_centroids(self):
        for trial in range(100):
            rng = seeded_rng(48, trial)
            n, k, d = int(rng.integers(1, 120)), int(rng.integers(1, 40)), (2, 3, 16)[trial % 3]
            self.assert_exact_argmin(*self.tied(rng, n, k, d), trial)

    def test_near_ties_a_few_ulps_apart(self):
        for trial in range(100):
            rng = seeded_rng(49, trial)
            n, k, d = int(rng.integers(1, 120)), int(rng.integers(2, 40)), (2, 16, 32)[trial % 3]
            pts = rng.standard_normal((n, d)) * float(rng.uniform(0.01, 100.0))
            centroids = pts[rng.integers(0, n, k)]
            ulps = rng.integers(-4, 5, (k, d))
            centroids = centroids + ulps * np.spacing(centroids)
            # pairs of centroids mirrored across some points: equal up to rounding
            mirrored = 2 * pts[rng.integers(0, n, k)] - centroids
            self.assert_exact_argmin(pts, np.concatenate([centroids, mirrored]), trial)

    def test_scales_from_1e_170_to_1e154(self):
        for trial, exponent in enumerate(range(-170, 155, 4)):
            rng = seeded_rng(50, trial)
            n, k, d = int(rng.integers(1, 200)), int(rng.integers(1, 81)), (2, 16, 32)[trial % 3]
            # clustered away from the origin, so |x|^2 can overflow while
            # the distances do not
            pts = rng.standard_normal(d) + 0.1 * rng.standard_normal((n, d))
            centroids = pts[rng.integers(0, n, k)] + 0.01 * rng.standard_normal((k, d))
            for scale in (10.0**exponent, 5 * 10.0**exponent):
                self.assert_exact_argmin(pts * scale, centroids * scale, (trial, scale))
                self.assert_exact_argmin(*(x * scale for x in self.tied(rng, n, k, d)), trial)

    def test_recheck_runs_on_ties_only(self, monkeypatch):
        """Tied rows take the exact path; well-separated rows never do."""
        rechecked, real = [], numerics._sq_dists

        def dists_spy(pts, centroids):
            rechecked.append(len(pts))
            return real(pts, centroids)

        monkeypatch.setattr(numerics, "_sq_dists", dists_spy)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        centroids = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [9.0, 1.0]])
        assert numerics._nearest(pts, centroids, numerics._sq_norm_max(pts)).tolist() == [
            0, 0, 3, 3
        ]
        assert rechecked == [2]  # (0, 0) ties centroids 0 and 2; (1, 0) ties 0, 1 and 2
        rechecked.clear()
        rng = seeded_rng(51)
        centroids = 10.0 * rng.standard_normal((10, 16))
        pts = centroids[rng.integers(0, 10, 266)] + rng.standard_normal((266, 16))
        numerics._nearest(pts, centroids, numerics._sq_norm_max(pts))
        assert rechecked == []


    def test_rechecks_the_rows_of_the_row_count_form(self, monkeypatch):
        """The second-minimum screen rechecks exactly the rows the row-count
        form does, and gives its labels: on exact ties, duplicate centroids,
        near-ties, the overflow path, and a row whose second screen value
        lies exactly ``slack`` above its best."""
        rechecked, real = [], numerics._sq_dists

        def dists_spy(pts, centroids):
            rechecked.append(pts.copy())
            return real(pts, centroids)

        monkeypatch.setattr(numerics, "_sq_dists", dists_spy)
        # x = 0 screens to |c|^2 exactly: 1 and 1 + 2^-44, where the scale
        # |c|^2 = 4 gives slack = 8 (d + 4) eps 4 = 2^-44 at d = 4
        boundary = np.zeros((1, 4)), np.array(
            [[1.0, 2.0**-22, 0, 0], [1.0, 0, 0, 0], [2.0, 0, 0, 0]]
        )
        cases = [("boundary", boundary)]
        for trial in range(60):
            rng = seeded_rng(52, trial)
            n, k, d = int(rng.integers(1, 120)), int(rng.integers(1, 40)), (2, 3, 16)[trial % 3]
            pts, centroids = TestNearestScreen.tied(rng, n, k, d)
            cases.append((("tied", trial), (pts, centroids)))
            near = centroids + rng.integers(-2, 3, centroids.shape) * np.spacing(centroids)
            cases.append((("near", trial), (pts, near)))
            cases.append((("overflow", trial), (pts * 1e154, centroids * 1e154)))
        for key, (pts, centroids) in cases:
            rechecked.clear()
            labels = numerics._nearest(pts, centroids, numerics._sq_norm_max(pts))
            want, rows = row_count_nearest(pts, centroids)
            assert np.array_equal(labels, want), key
            expected = [pts[rows]] if len(rows) else []
            assert [r.tobytes() for r in rechecked] == [r.tobytes() for r in expected], key
        assert len(row_count_nearest(*boundary)[1]) == 1


class TestD2Draw:
    def test_matches_generator_choice(self):
        """The inverse-CDF draw takes the indices ``Generator.choice`` takes
        for the same weights, from the same stream, with zero weights mixed in."""
        zero_weights = 0
        for trial in range(1200):
            rng = seeded_rng(46, trial)
            n, size = int(rng.integers(1, 301)), int(rng.integers(1, 9))
            w = rng.standard_normal(n) ** 2 * float(rng.uniform(1e-6, 1e6))
            w[rng.random(n) < float(rng.uniform(0.0, 0.95))] = 0.0
            w[int(rng.integers(n))] = float(rng.uniform(0.1, 1.0))
            zero_weights += int((w == 0).any())
            ours, theirs = seeded_rng(47, trial), seeded_rng(47, trial)
            got = _draw_d2(w, w.sum(), size, ours)
            want = theirs.choice(n, size=size, p=w / w.sum())
            assert got.dtype == want.dtype and np.array_equal(got, want), trial
            assert w[got].all(), trial
            assert ours.random() == theirs.random(), trial
        assert zero_weights > 1000


class TestSqDistRows:
    @pytest.mark.parametrize("block", [numerics._SQ_DIST_BLOCK, 500])
    def test_matches_row_sum_bits(self, monkeypatch, block):
        """The blocked kernel gives ``.sum(axis=2)``'s bits for every width:
        d < 8 in sequence, 8-128 through 8 accumulators and a tail, above
        128 split in halves; scales 1e-150 to 1e150, repeated points."""
        monkeypatch.setattr(numerics, "_SQ_DIST_BLOCK", block)
        for d in [*range(1, 141), *range(200, 301)]:
            rng = seeded_rng(48, block, d)
            n = int(rng.integers(1, 25))
            pts = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-150, 150)
            pts = pts[rng.integers(0, n, n)]
            want = ((pts[None] - pts[:, None]) ** 2).sum(axis=2)
            got = numerics._sq_dist_rows(pts)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), d

    @pytest.mark.parametrize("block", [numerics._SQ_DIST_BLOCK, 500, 1])
    def test_exactly_symmetric_with_a_zero_diagonal(self, monkeypatch, block):
        """Every block's mirrored columns equal the ones computed, to the
        bit, at block sizes of many rows, a few rows and one row."""
        monkeypatch.setattr(numerics, "_SQ_DIST_BLOCK", block)
        for trial in range(200):
            rng = seeded_rng(49, block, trial)
            n, d = int(rng.integers(1, 120)), int(rng.integers(1, 40))
            pts = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-100, 100)
            got = numerics._sq_dist_rows(pts[rng.integers(0, n, n)])
            assert got.tobytes() == got.T.copy().tobytes(), trial
            assert not got.diagonal().any(), trial


class TestUnitRows:
    def test_stacked_and_gathered_rows_match_per_slice_bits(self):
        """One call on a (2, N, d) stack, then gathering rows, gives the bits
        of one call per slice and one call per gathered batch: the training
        steps normalise both towers at once and gather their distillation
        targets from one per-round call."""
        for trial in range(300):
            rng = seeded_rng(35, trial)
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 24))
            x = rng.standard_normal((2, n, d)) * float(rng.uniform(0.01, 100.0))
            batch = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            g = rng.standard_normal((len(batch), d))
            stacked = unit_rows(x)
            for t in range(2):
                alone = unit_rows(x[t].copy())
                assert stacked[t].unit.tobytes() == alone.unit.tobytes(), trial
                assert stacked[t].norms.tobytes() == alone.norms.tobytes(), trial
                gathered = unit_rows(x[t][batch])
                rows = stacked[:, batch][t]
                assert rows.unit.tobytes() == gathered.unit.tobytes(), trial
                assert rows.norms.tobytes() == gathered.norms.tobytes(), trial
                assert rows.backward(g).tobytes() == gathered.backward(g).tobytes(), trial

    def test_norms_match_linalg_norm_bits(self):
        for trial, d in enumerate((3, 16, 7312)):
            x = seeded_rng(36, trial).standard_normal((5, d))
            expected = np.linalg.norm(x, axis=1, keepdims=True)
            assert unit_rows(x).norms.tobytes() == expected.tobytes()
            assert unit_rows(x).unit.tobytes() == (x / expected).tobytes()

    def test_backward_matches_finite_differences(self):
        x = seeded_rng(37).standard_normal((4, 3))
        g = seeded_rng(38).standard_normal((4, 3))
        numeric = fd_wrt_arrays(lambda a: float((unit_rows(a).unit * g).sum()), [x])[0]
        assert grad_rel_error(unit_rows(x).backward(g), numeric) < 1e-6

    def test_zero_row_stays_zero_and_non_finite_rows_are_named(self):
        x = np.ones((3, 2))
        x[1] = 0.0
        rows = unit_rows(x, "probe rows")
        assert not rows.unit[1].any() and rows.norms[1, 0] == 1.0
        assert not (rows.unit @ rows.unit.T)[1].any()  # its cosines are 0
        assert np.isfinite(rows.backward(seeded_rng(39).standard_normal((3, 2)))).all()
        x[1] = np.inf
        with pytest.raises(ValueError, match="probe rows contains non-finite"):
            unit_rows(x, "probe rows")


class TestSeededRng:
    def test_same_key_same_stream(self):
        a = seeded_rng(1, "x", 2).standard_normal(5)
        b = seeded_rng(1, "x", 2).standard_normal(5)
        assert np.array_equal(a, b)

    def test_different_purpose_different_stream(self):
        a = seeded_rng(1, "x").standard_normal(5)
        b = seeded_rng(1, "y").standard_normal(5)
        assert not np.array_equal(a, b)
