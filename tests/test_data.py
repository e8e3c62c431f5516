import numpy as np
import pytest

from apromfl.data import (
    SyntheticSpec,
    assign_roles,
    dirichlet_partition,
    generate,
    role_partition,
    role_pools,
    train_eval_split,
)
from apromfl.numerics import seeded_rng


def spec(**kwargs):
    base = dict(
        num_classes=4,
        latent_dim=6,
        image_dim=8,
        text_dim=5,
        samples_per_class=25,
        seed=0,
    )
    base.update(kwargs)
    return SyntheticSpec(**base)


class TestGenerate:
    def test_deterministic(self):
        a, b = generate(spec()), generate(spec())
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.texts, b.texts)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a, b = generate(spec(seed=0)), generate(spec(seed=1))
        assert not np.array_equal(a.images, b.images)

    def test_noiseless_degenerate_views_identical_within_class(self):
        ds = generate(spec(view_noise_sigma=0.0, latent_noise_sigma=0.0))
        for c in range(4):
            views = ds.images[ds.labels == c]
            assert np.allclose(views, views[0])

    def test_nearest_class_mean_separable(self):
        # strong separation, tiny noise: nearest-centroid on views is perfect
        ds = generate(spec(class_sep=8.0, view_noise_sigma=0.01, latent_noise_sigma=0.05))
        centroids = np.stack([ds.images[ds.labels == c].mean(axis=0) for c in range(4)])
        d2 = ((ds.images[:, None, :] - centroids[None]) ** 2).sum(-1)
        predictions = np.argmin(d2, axis=1)
        assert (predictions == ds.labels).mean() == 1.0

    def test_cross_modal_signal(self):
        # fit a text->image linear map on half the data; on the other half,
        # mapped texts must be closer to their own image view than to
        # mismatched ones on average (paired views share a latent point)
        ds = generate(spec(samples_per_class=50))
        half = len(ds.labels) // 2
        w, *_ = np.linalg.lstsq(ds.texts[:half], ds.images[:half], rcond=None)
        mapped = ds.texts[half:] @ w
        imgs = ds.images[half:]
        unit_m = mapped / np.linalg.norm(mapped, axis=1, keepdims=True)
        unit_i = imgs / np.linalg.norm(imgs, axis=1, keepdims=True)
        sims = unit_m @ unit_i.T
        paired = float(np.diag(sims).mean())
        mismatched = float((sims.sum() - np.trace(sims)) / (sims.size - len(sims)))
        assert paired > mismatched

    def test_unresolved_seed_rejected(self):
        with pytest.raises(ValueError):
            generate(SyntheticSpec(seed=None))


class TestTrainEvalSplit:
    def test_fraction_and_disjointness(self):
        ds = generate(spec())
        train, eval_set = train_eval_split(ds, 0.2)
        assert len(train.labels) + len(eval_set.labels) == len(ds.labels)
        for c in range(4):
            assert (eval_set.labels == c).sum() == 5

    def test_zero_fraction(self):
        ds = generate(spec())
        train, eval_set = train_eval_split(ds, 0.0)
        assert len(train.labels) == len(ds.labels) and len(eval_set.labels) == 0


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        labels = generate(spec()).labels
        plan = dirichlet_partition(labels, 1, 0.5, seeded_rng(701))
        assert len(plan.client_indices(0)) == len(labels)

    def test_true_partition(self):
        labels = generate(spec()).labels
        plan = dirichlet_partition(labels, 5, 0.1, seeded_rng(702))
        all_indices = np.sort(np.concatenate([plan.client_indices(i) for i in range(5)]))
        assert all_indices.tolist() == list(range(len(labels)))
        assert all(len(plan.client_indices(i)) > 0 for i in range(5))

    def test_huge_alpha_is_nearly_uniform(self):
        labels = np.repeat(np.arange(5), 100)
        for trial in range(10):
            plan = dirichlet_partition(labels, 4, 1e6, seeded_rng(703, trial))
            for client in range(4):
                share = plan.client_shares[client]
                for c in range(5):
                    assert abs(len(share.get(c, ())) - 25) <= 25 * 0.05 + 1

    def test_low_alpha_more_skewed_than_high(self):
        labels = np.repeat(np.arange(8), 80)

        def mean_entropy(alpha, trial):
            plan = dirichlet_partition(labels, 6, alpha, seeded_rng(704, trial, alpha))
            entropies = []
            for share in plan.client_shares:
                counts = np.array([len(v) for v in share.values()], dtype=float)
                p = counts / counts.sum()
                entropies.append(float(-(p * np.log(p)).sum()))
            return float(np.mean(entropies))

        lows = [mean_entropy(0.1, t) for t in range(10)]
        highs = [mean_entropy(5.0, t) for t in range(10)]
        assert np.mean(lows) < np.mean(highs)


class TestRolePools:
    def test_disjoint_pools_deal_classes_round_robin_across_roles_with_clients(self):
        assert role_pools(range(5), (0, 2, 2), True) == [
            ("image clients", [0, 2, 4], 2),
            ("text clients", [1, 3], 2),
        ]

    def test_shared_pool_holds_every_class_for_all_clients(self):
        assert role_pools(range(3), (1, 2, 3), False) == [("clients", [0, 1, 2], 6)]


class TestAssignRoles:
    def test_structure_and_conservation(self):
        ds = generate(spec())
        plan = role_partition(ds.labels, (2, 2, 1), 0.5, seeded_rng(707))
        roles = assign_roles(plan, (2, 2, 1))
        assert [kind for kind, _ in roles] == ["multimodal", "multimodal", "image", "image", "text"]
        total = sum(len(rows) for _, rows in roles)
        assert total == len(ds.labels)
        for client_id, (_, rows) in enumerate(roles):
            assert np.array_equal(rows, plan.client_indices(client_id))
        every_row = np.sort(np.concatenate([rows for _, rows in roles]))
        assert np.array_equal(every_row, np.arange(len(ds.labels)))

    def test_no_multimodal_clients(self):
        ds = generate(spec())
        plan = role_partition(ds.labels, (0, 2, 2), 0.5, seeded_rng(708))
        roles = assign_roles(plan, (0, 2, 2))
        assert [kind for kind, _ in roles] == ["image", "image", "text", "text"]

    def test_disjoint_role_classes(self):
        ds = generate(spec(num_classes=6))
        plan = role_partition(ds.labels, (1, 1, 1), 0.5, seeded_rng(709), disjoint_classes=True)
        class_sets = [
            {int(ds.labels[i]) for i in plan.client_indices(cid)} for cid in range(3)
        ]
        assert class_sets[0] & class_sets[1] == set()
        assert class_sets[0] & class_sets[2] == set()
        assert class_sets[1] & class_sets[2] == set()
        assert class_sets[0] | class_sets[1] | class_sets[2] == set(range(6))
