"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavyweight comparative runs (criteria 6, 7, 10) reuse the
default desk-scale configuration.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from apromfl.config import ExperimentConfig, finalize_config
from apromfl.data import dirichlet_partition
from apromfl.federation import (
    RelationshipGraph,
    aggregate_modules,
    fediot_aggregate,
    relationship_weights,
    run_training,
)
from apromfl.harness import run, summarize_reports
from apromfl.losses import (
    LN2,
    TransferContext,
    clustering_total_loss,
    cross_entropy_batch,
    gmt_loss_batch,
    gpt_loss_batch,
    gpt_loss_paired_batch,
    inter_modal_total,
    intra_modal_total,
    lmr_loss,
    retrieval_task_loss,
)
from apromfl.metrics import acc_at_k, recall_at_k
from apromfl.nn import (
    backward,
    backward_head,
    flatten_module,
    forward_head,
    forward_map,
    forward_map_trace,
    init_classifier_head,
    init_mapping_module,
)
from apromfl.numerics import (
    ClusterAssignment,
    cosine_similarity,
    kl_divergence,
    kmeans_trace,
    seeded_rng,
)
from apromfl.prototypes import (
    PrototypePair,
    UnimodalPrototype,
    label_guided_prototypes,
    semantic_complete,
)
from oracles import (
    exhaustive_kmeans_sse,
    fd_wrt_modules,
    grad_rel_error,
    min_abs_preact,
)

GRAD_TOL = 1e-4
ORACLE_TOL = 1e-10
ACCEPTANCE_SEEDS = (0, 1, 2, 3, 4)


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


# -- criterion 1: gradient suite ----------------------------------------------


def _instance(depth: int, key: int, two_modules: bool = False):
    """Random module(s) + inputs, redrawn until clear of ReLU kinks and
    zero-norm embeddings."""
    dims = (5, 4) if depth == 1 else (5, 6, 6, 4)
    for attempt in itertools.count():
        rng = seeded_rng(1000, "grad", depth, key, attempt)
        mods = [
            init_mapping_module(dims, seeded_rng(1001, depth, key, attempt, i))
            for i in range(2 if two_modules else 1)
        ]
        xs = [rng.standard_normal((4, 5)) for _ in mods]
        embs = [forward_map(m, x) for m, x in zip(mods, xs)]
        clear = all(min_abs_preact(m, x) > 5e-3 for m, x in zip(mods, xs))
        healthy = all(np.linalg.norm(e, axis=1).min() > 0.1 for e in embs)
        if clear and healthy:
            return mods, xs, rng


def _check(loss_of_modules, analytic_of_modules, modules):
    grads = analytic_of_modules(modules)
    numeric = fd_wrt_modules(loss_of_modules, modules)
    assert grad_rel_error(np.concatenate(grads), numeric) < GRAD_TOL


def _gradient_cases(depth: int, key: int):
    tau = 0.5
    ctx = TransferContext(tau=tau, distill_tau=0.7)
    clusters = ClusterAssignment.from_labels([0, 1, 0, 1])

    mods, xs, rng = _instance(depth, key)
    head = init_classifier_head(4, 3, seeded_rng(1002, depth, key))
    labels = seeded_rng(1003, depth, key).integers(0, 3, 4)

    def ce_loss(ms):
        return cross_entropy_batch(forward_head(head, forward_map(ms[0], xs[0])), labels)[0]

    def ce_analytic(ms):
        emb, trace = forward_map_trace(ms[0], xs[0])
        _, d_logits = cross_entropy_batch(forward_head(head, emb), labels)
        _, d_emb = backward_head(head, emb, d_logits)
        return [backward(ms[0], trace, d_emb)[0]]

    yield "cross-entropy", [mods[0]], ce_loss, ce_analytic

    def single_emb_case(name, value_grad):
        def loss(ms):
            return value_grad(forward_map(ms[0], xs[0]))[0]

        def analytic(ms):
            emb, trace = forward_map_trace(ms[0], xs[0])
            _, grad = value_grad(emb)
            return [backward(ms[0], trace, grad)[0]]

        return name, [mods[0]], loss, analytic

    protos_i = rng.standard_normal((3, 4)) + 0.2
    protos_t = rng.standard_normal((3, 4)) - 0.2
    yield single_emb_case("intra-modal", lambda e: intra_modal_total(e, clusters, tau))
    yield single_emb_case(
        "prototype-transfer", lambda e: gpt_loss_batch(e, protos_i, protos_t, tau)
    )

    for attempt in itertools.count():
        global_module = init_mapping_module(mods[0].dims, seeded_rng(1004, depth, key, attempt))
        global_emb = forward_map(global_module, xs[0])
        if np.linalg.norm(global_emb, axis=1).min() > 0.1:
            break
    yield single_emb_case(
        "model-transfer", lambda e: gmt_loss_batch(e, global_emb, 0.8, 0.5, ctx)
    )

    pair_mods, pair_xs, _ = _instance(depth, key + 7_000, two_modules=True)

    def two_emb_case(name, value_grads):
        def loss(ms):
            return value_grads(forward_map(ms[0], pair_xs[0]), forward_map(ms[1], pair_xs[1]))[0]

        def analytic(ms):
            e0, tr0 = forward_map_trace(ms[0], pair_xs[0])
            e1, tr1 = forward_map_trace(ms[1], pair_xs[1])
            _, g0, g1 = value_grads(e0, e1)
            return [backward(ms[0], tr0, g0)[0], backward(ms[1], tr1, g1)[0]]

        return name, pair_mods, loss, analytic

    yield two_emb_case("retrieval-infonce", lambda a, b: retrieval_task_loss(a, b, tau))
    yield two_emb_case("inter-modal", lambda a, b: inter_modal_total(a, b, clusters, tau))
    yield two_emb_case(
        "clustering-objective", lambda a, b: clustering_total_loss(a, b, clusters, tau)
    )
    yield two_emb_case(
        "paired-prototype-transfer",
        lambda a, b: gpt_loss_paired_batch(a, b, protos_i, protos_t, tau),
    )

    anchor = init_mapping_module(mods[0].dims, seeded_rng(1005, depth, key))

    def lmr_value(ms):
        return lmr_loss(ms[0], anchor, 0.3)[0]

    def lmr_analytic(ms):
        return [lmr_loss(ms[0], anchor, 0.3)[1]]

    yield "module-regulariser", [mods[0]], lmr_value, lmr_analytic


def test_c01_gradient_suite():
    start = time.perf_counter()
    checked = 0
    for depth in (1, 3):
        for key in range(20):
            for name, modules, loss, analytic in _gradient_cases(depth, key):
                _check(loss, analytic, modules)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    report(1, f"{checked} loss/module compositions match finite differences "
              f"(rel err < {GRAD_TOL}) in {elapsed:.1f}s")


# -- criterion 2: oracle equivalence ------------------------------------------


def test_c02_oracle_equivalence():
    start = time.perf_counter()

    for trial in range(100):
        rng = seeded_rng(1100, trial)

        # label-guided prototypes vs accumulate-and-divide
        n, d = int(rng.integers(2, 15)), int(rng.integers(2, 5))
        embs = rng.standard_normal((n, d)) + 0.3
        labels = rng.integers(0, 4, n)
        protos = label_guided_prototypes(embs, labels)
        for p in protos:
            acc, count = np.zeros(d), 0
            for e, y in zip(embs, labels):
                if y == p.class_id:
                    acc, count = acc + e, count + 1
            assert np.abs(p.vector - acc / count).max() < ORACLE_TOL

        # semantic completion vs sort-select-normalise-sum
        m = int(rng.integers(2, 8))
        pairs = [
            PrototypePair(rng.standard_normal(d) + 0.2, rng.standard_normal(d) - 0.2, "multimodal-client")
            for _ in range(m)
        ]
        uni = UnimodalPrototype("image", rng.standard_normal(d) + 0.1, 0, 0)
        top_o = int(rng.integers(1, m + 1))
        completed = semantic_complete(uni, pairs, top_o)
        sims = [cosine_similarity(uni.vector, p.image_vec) for p in pairs]
        order = sorted(range(m), key=lambda j: (-sims[j], j))[:top_o]
        weights = [max(sims[j], 0.0) for j in order]
        total = sum(weights)
        weights = [w / total for w in weights] if total >= 1e-12 else [1 / top_o] * top_o
        expected = sum(w * pairs[j].text_vec for w, j in zip(weights, order))
        assert np.abs(completed.text_vec - expected).max() < ORACLE_TOL

        # relationship weights vs clamp-normalise, aggregation vs weighted sum
        count = int(rng.integers(1, 5))
        mods = [init_mapping_module((3, 4, 2), seeded_rng(1101, trial, i)) for i in range(count)]
        graph = relationship_weights(mods)
        flats = [flatten_module(mm) for mm in mods]
        for i in range(count):
            sims_row = [
                1.0 if i == j else float(flats[i] @ flats[j]) / (np.linalg.norm(flats[i]) * np.linalg.norm(flats[j]))
                for j in range(count)
            ]
            clamped = [max(s, 0.0) for s in sims_row]
            expected_row = np.asarray(clamped) / sum(clamped)
            assert np.abs(graph.weights[i] - expected_row).max() < ORACLE_TOL
        for i, aggregated in enumerate(aggregate_modules(graph, mods)):
            expected_flat = sum(graph.weights[i, j] * flats[j] for j in range(count))
            assert np.abs(flatten_module(aggregated) - expected_flat).max() < ORACLE_TOL

        # accuracy and recall vs full-sort oracles
        nq, classes = int(rng.integers(1, 10)), int(rng.integers(2, 6))
        logits = rng.standard_normal((nq, classes))
        y = rng.integers(0, classes, nq)
        k = int(rng.integers(1, classes + 1))
        hits = 0
        for row, label in zip(logits, y):
            ranked = sorted(range(classes), key=lambda c: (-row[c], c))
            hits += label in ranked[:k]
        assert abs(acc_at_k(logits, y, k) - hits / nq) < ORACLE_TOL

        ng = int(rng.integers(1, 10))
        queries = rng.standard_normal((nq, 3)) + 0.1
        gallery = rng.standard_normal((ng, 3)) + 0.1
        truth = rng.integers(0, ng, nq)
        k = int(rng.integers(1, ng + 1))
        hits = 0
        for q, t in zip(queries, truth):
            sims_q = [
                float(q @ g) / (np.linalg.norm(q) * np.linalg.norm(g)) for g in gallery
            ]
            ranked = sorted(range(ng), key=lambda j: (-sims_q[j], j))
            hits += t in ranked[:k]
        assert abs(recall_at_k(queries, gallery, truth, k) - hits / nq) < ORACLE_TOL

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"
    report(2, f"six operations match brute-force oracles on 100 instances each "
              f"(< {ORACLE_TOL}) in {elapsed:.1f}s")


# -- criterion 3: k-means quality ----------------------------------------------


def test_c03_kmeans_quality():
    optimal = 0
    for trial in range(100):
        rng = seeded_rng(1200, "inst", trial)
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 9))
        d = int(rng.integers(2, 4))
        pts = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 3.0))
        _, _, history = kmeans_trace(pts, k, seeded_rng(1200, "run", trial))
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:])), "SSE increased"
        if abs(history[-1] - exhaustive_kmeans_sse(pts, k)) <= 1e-9:
            optimal += 1
    assert optimal >= 95, f"only {optimal}/100 instances reached the exhaustive optimum"
    report(3, f"kmeans optimal on {optimal}/100 small instances; SSE non-increasing on all")


# -- criterion 4: loss bounds ----------------------------------------------------


def test_c04_loss_bounds():
    for trial in range(1000):
        rng = seeded_rng(1300, trial)
        k, d = int(rng.integers(1, 8)), int(rng.integers(2, 6))
        e = rng.standard_normal(d) + 0.05
        value, _ = gpt_loss_batch(
            e[None, :],
            rng.standard_normal((k, d)) + 0.05,
            rng.standard_normal((k, d)) - 0.05,
            float(rng.uniform(0.05, 4.0)),
        )
        assert 0.0 <= value <= LN2 + 1e-12
        size = int(rng.integers(2, 7))
        p = rng.uniform(0.01, 1.0, size)
        q = rng.uniform(0.01, 1.0, size)
        assert kl_divergence(p / p.sum(), q / q.sum()) >= 0.0
    protos = seeded_rng(1301).standard_normal((5, 4)) + 0.1
    identical, _ = gpt_loss_batch(np.ones((1, 4)), protos, protos.copy(), 0.5)
    assert identical == 0.0
    report(4, "prototype-transfer loss within [0, ln 2] on 1000 inputs, zero on "
              "identical assignments; KL non-negative on 1000 inputs")


# -- criterion 5: aggregation invariants ----------------------------------------


def test_c05_aggregation_invariants():
    base = init_mapping_module((4, 6, 3), seeded_rng(1400))
    identical = [base] * 4
    graph = relationship_weights(identical)
    assert np.abs(graph.weights - 0.25).max() < 1e-12
    for aggregated in aggregate_modules(graph, identical):
        diff = np.abs(flatten_module(aggregated) - flatten_module(base)).max()
        assert diff < 1e-12

    mods = [init_mapping_module((4, 6, 3), seeded_rng(1401, i)) for i in range(3)]
    uniform = RelationshipGraph("image", np.ones((3, 3)), np.full((3, 3), 1.0 / 3.0))
    mean_flat = flatten_module(fediot_aggregate(mods))
    for aggregated in aggregate_modules(uniform, mods):
        assert np.array_equal(flatten_module(aggregated), mean_flat)

    random_graph = relationship_weights(mods)
    row_sums = random_graph.weights.sum(axis=1)
    assert np.abs(row_sums - 1.0).max() < 1e-12
    report(5, "identical modules give uniform weights and fixpoint aggregation; "
              "uniform-mean equality is exact; rows sum to 1 within 1e-12")


# -- criteria 6-10: full-run behaviour -------------------------------------------


def default_config(method="apromfl", seed=0, **kwargs):
    return finalize_config(replace(ExperimentConfig(method=method, seed=seed), **kwargs))


@pytest.fixture(scope="module")
def comparison_runs():
    """5 seeds x 3 methods at the default desk-scale configuration."""
    start = time.perf_counter()
    table = {}
    for seed in ACCEPTANCE_SEEDS:
        for method in ("apromfl", "local", "fediot"):
            result = run_training(default_config(method=method, seed=seed))
            table[(method, seed)] = summarize_reports(result.records[-1].reports)
    return table, time.perf_counter() - start


def test_c06_run_determinism(tmp_path):
    config = default_config()
    start = time.perf_counter()
    first = run(config, tmp_path / "first")
    first_elapsed = time.perf_counter() - start
    second = run(config, tmp_path / "second")
    parallel = run(replace(config, workers=2), tmp_path / "parallel")
    summary = (first / "summary.csv").read_bytes()
    assert summary == (second / "summary.csv").read_bytes()
    assert summary == (parallel / "summary.csv").read_bytes()
    assert first_elapsed < 120.0, f"single run took {first_elapsed:.1f}s"
    report(6, f"byte-identical summaries across reruns and parallel client "
              f"execution; run time {first_elapsed:.1f}s")


def test_c07_directional_reproduction(comparison_runs):
    table, elapsed = comparison_runs
    acc_diffs, r1s_local_diffs, r1s_fediot_diffs = [], [], []
    for seed in ACCEPTANCE_SEEDS:
        acc_diffs.append(table[("apromfl", seed)].acc1_mean - table[("local", seed)].acc1_mean)
        r1s_local_diffs.append(table[("apromfl", seed)].r1_sum - table[("local", seed)].r1_sum)
        r1s_fediot_diffs.append(table[("apromfl", seed)].r1_sum - table[("fediot", seed)].r1_sum)
    mean_acc = float(np.mean(acc_diffs)) * 100
    mean_r1s_local = float(np.mean(r1s_local_diffs)) * 100
    mean_r1s_fediot = float(np.mean(r1s_fediot_diffs)) * 100
    assert mean_acc > 0.0, f"Acc@1 diff vs local {mean_acc:.2f}pp"
    assert mean_r1s_local > 0.0, f"R@1_s diff vs local {mean_r1s_local:.2f}pp"
    assert min(mean_acc, mean_r1s_local, mean_r1s_fediot) >= -0.5, (
        f"worst diff below noise guard: acc {mean_acc:.2f}pp, "
        f"r1s/local {mean_r1s_local:.2f}pp, r1s/fediot {mean_r1s_fediot:.2f}pp"
    )
    assert elapsed < 900.0, f"comparison runs took {elapsed:.1f}s"
    report(7, f"mean diffs over {len(ACCEPTANCE_SEEDS)} seeds: Acc@1 +{mean_acc:.2f}pp, "
              f"R@1_s vs local +{mean_r1s_local:.2f}pp, vs fediot {mean_r1s_fediot:+.2f}pp "
              f"({elapsed:.0f}s)")


def test_c08_round_one_equivalence():
    apromfl = run_training(default_config(method="apromfl", rounds=1))
    local = run_training(default_config(method="local", rounds=1))
    assert apromfl.records[0].client_losses == local.records[0].client_losses
    report(8, "round-1 per-client losses bit-identical between apromfl and local")


def test_c09_dirichlet_heterogeneity():
    labels = np.repeat(np.arange(10), 160)

    def mean_entropy(alpha):
        values = []
        for seed in range(10):
            plan = dirichlet_partition(labels, 9, alpha, seeded_rng(1500, seed, alpha))
            for share in plan.client_shares:
                counts = np.array([len(v) for v in share.values()], dtype=float)
                p = counts / counts.sum()
                values.append(float(-(p * np.log(p)).sum()))
        return float(np.mean(values))

    low, high = mean_entropy(0.1), mean_entropy(5.0)
    assert low < high
    report(9, f"mean class-entropy at alpha=0.1 ({low:.3f}) < alpha=5.0 ({high:.3f})")


def test_c10_prototype_count_robustness():
    # fixed seeds per K value; the range is a property of K, so each K's
    # Acc@1 is the mean over the same small seed set
    seeds = (0, 1, 2)
    per_k = []
    for k in (10, 20, 40, 60, 80):
        accs = [
            summarize_reports(
                run_training(default_config(seed=seed, num_global_prototypes=k)).records[-1].reports
            ).acc1_mean
            for seed in seeds
        ]
        per_k.append(float(np.mean(accs)))
    spread = (max(per_k) - min(per_k)) * 100
    assert spread <= 5.0, f"Acc@1 range across K is {spread:.2f}pp"
    report(10, f"mean Acc@1 range across K in {{10..80}} is {spread:.2f}pp (<= 5pp, "
               f"{len(seeds)} seeds per K)")
