"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Shared expensive artifacts (the 50 blob expansions) are computed
once in a module fixture and reused by the criteria that inspect them.
"""

import json
import time
from importlib.resources import files

import numpy as np
import pytest

from xkmeans.baselines import build_gini_tree
from xkmeans.core import Assignment, CenterSet, DataMatrix, kmeans_cost, load_csv
from xkmeans.exkmc import expand, scan_best_split
from xkmeans.imm import build_imm
from xkmeans.kmeans import KMeansConfig, fit_reference, kmeanspp_seed, lloyd
from xkmeans.synth import SyntheticIISpec, gen_gaussian_blobs, gen_synthetic_i, gen_synthetic_ii

REL = 1e-9


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def non_increasing(values, scale):
    slack = REL * max(1.0, scale)
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def trace_json(trace):
    return "\n".join(json.dumps(step.to_dict()) for step in trace)


@pytest.fixture(scope="module")
def blob_runs():
    """Criterion 2's workload: 50 seeded blob datasets (n=500, d=10, k=5)
    expanded from the IMM base to 4k leaves with jobs=1."""
    runs = []
    started = time.perf_counter()
    for seed in range(50):
        X, _ = gen_gaussian_blobs(5, 500, 10, separation=3.0, seed=seed)
        ref = fit_reference(X, KMeansConfig(k=5, seed=seed))
        base = build_imm(X, ref.centers, ref.assignment)
        result = expand(X, ref.centers, base, 4 * 5, jobs=1)
        runs.append({"X": X, "ref": ref, "base": base, "result": result})
    elapsed = time.perf_counter() - started
    return {"runs": runs, "elapsed": elapsed}


def test_criterion_1_fast_scan_matches_naive_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(2, 41))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, d))
        M = CenterSet(rng.normal(size=(k, d)))
        got = scan_best_split(pts, M)

        rows = []
        for f in range(d):
            for theta in np.unique(pts[:, f])[:-1]:
                mask = pts[:, f] <= theta
                lcosts = [((pts[mask] - c) ** 2).sum() for c in M.centers]
                rcosts = [((pts[~mask] - c) ** 2).sum() for c in M.centers]
                ll, rl = int(np.argmin(lcosts)), int(np.argmin(rcosts))
                rows.append((float(lcosts[ll] + rcosts[rl]), f, float(theta), ll, rl))
        if not rows:
            assert got is None, f"trial {trial}: scan found a split on constant data"
            continue
        lowest = min(r[0] for r in rows)
        cutoff = lowest + 1e-9 * max(1.0, lowest)
        want = min((r for r in rows if r[0] <= cutoff), key=lambda r: (r[1], r[2]))
        assert got is not None, f"trial {trial}: scan returned no split"
        assert (got.feature, got.threshold) == (want[1], want[2]), f"trial {trial}"
        assert (got.left_label, got.right_label) == (want[3], want[4]), f"trial {trial}"
        assert got.post_split_cost == pytest.approx(want[0], rel=1e-9), f"trial {trial}"
    elapsed = time.perf_counter() - started
    report(1, elapsed < 10.0, f"200/200 scans equal exhaustive enumeration in {elapsed:.1f}s (< 10s)")


def test_criterion_2_surrogate_monotone(blob_runs):
    bad = 0
    for run in blob_runs["runs"]:
        result = run["result"]
        costs = [result.initial_surrogate] + [s.surrogate_cost for s in result.trace]
        if not non_increasing(costs, costs[0]):
            bad += 1
    elapsed = blob_runs["elapsed"]
    report(
        2,
        bad == 0 and elapsed < 30.0,
        f"surrogate trace non-increasing on 50/50 blob runs in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_full_budget_matches_reference():
    bad = []
    for seed in range(20):
        X, _ = gen_gaussian_blobs(3, 48, 3, separation=4.0, seed=seed)
        assert np.unique(X.points, axis=0).shape[0] == X.n
        # tol=0 keeps iterating to an exact assignment fixed point, so the
        # returned centers are exactly the means of the returned assignment
        ref = fit_reference(X, KMeansConfig(k=3, seed=seed, tol=0.0))
        base = build_imm(X, ref.centers, ref.assignment)
        result = expand(X, ref.centers, base, X.n)
        induced = result.tree.induced_assignment(X)
        exact = np.array_equal(induced.labels, ref.assignment.labels)
        close = abs(result.final_surrogate - ref.cost) <= REL * max(1.0, ref.cost)
        if not (exact and close):
            bad.append(seed)
    report(3, not bad, f"n-leaf expansion reproduces the reference exactly on 20/20 seeds{bad or ''}")


def test_criterion_4_kmeans_bounded_by_surrogate(blob_runs):
    bad_steps = 0
    bad_final = 0
    for run in blob_runs["runs"]:
        result, ref = run["result"], run["ref"]
        pairs = [(result.initial_kmeans_cost, result.initial_surrogate)] + [
            (s.kmeans_cost, s.surrogate_cost) for s in result.trace
        ]
        for km, sur in pairs:
            if km > sur * (1 + REL) + REL:
                bad_steps += 1
        final_km = pairs[-1][0]
        if final_km > 25 * ref.cost:
            bad_final += 1
    report(
        4,
        bad_steps == 0 and bad_final == 0,
        "kmeans cost <= surrogate at every step of 50 runs; final <= k^2 * reference",
    )


def test_criterion_5_refinement_locality(blob_runs):
    leaks = 0
    for run in blob_runs["runs"]:
        X, result = run["X"], run["result"]
        tree = run["base"].copy()
        before = tree.induced_assignment(X).labels
        for step in result.trace:
            moved = tree.node(step.leaf).point_ids
            tree.split_leaf(step.leaf, step.feature, step.threshold, step.left_label, step.right_label)
            after = tree.induced_assignment(X).labels
            outside = np.setdiff1d(np.arange(X.n), moved)
            if not np.array_equal(before[outside], after[outside]):
                leaks += 1
            before = after
    report(5, leaks == 0, "labels outside the split leaf unchanged at every step of 50 runs")


def _clusters_match(labels, truth, k):
    mapping = {}
    for j in range(k):
        got = np.unique(labels[truth == j])
        if got.size != 1:
            return False
        mapping[j] = int(got[0])
    return len(set(mapping.values())) == k


def test_criterion_6_codeword_dataset_convergence():
    started = time.perf_counter()
    k, d = 8, 1024
    X, codewords, truth = gen_synthetic_ii(SyntheticIISpec(k=k, d=d, seed=0))
    shrunk = codewords.centers * (d - 1) / d
    budget = 10 * k * int(np.ceil(np.log2(k)))
    target = (1 + 1e-6) * d * k

    # seeds with successful recovery share bitwise-identical references up to
    # a label permutation, so the deterministic downstream run is computed
    # once per distinct canonical form
    downstream: dict[bytes, tuple[bool, bool, int]] = {}
    outcomes = []
    for seed in range(10):
        seeds = kmeanspp_seed(X, k, np.random.default_rng(seed))
        one_shot = lloyd(X, seeds, max_iter=1)
        labels = one_shot.assignment.labels
        recovered = _clusters_match(labels, truth.labels, k)
        if recovered:
            for j in range(k):
                lab = int(labels[truth.labels == j][0])
                if not np.allclose(one_shot.centers.centers[lab], shrunk[j], atol=1e-9):
                    recovered = False
                    break
        if not recovered:
            outcomes.append(False)
            continue

        perm = np.lexsort(one_shot.centers.centers.T[::-1])
        canon_centers = one_shot.centers.centers[perm]
        inverse = np.empty(k, dtype=np.int64)
        inverse[perm] = np.arange(k)
        canon_labels = inverse[labels]
        key = canon_centers.tobytes() + canon_labels.tobytes()
        if key not in downstream:
            M = CenterSet(canon_centers)
            reference = Assignment(canon_labels)
            base = build_imm(X, M, reference)
            result = expand(
                X, M, base, budget, stop_condition=lambda s: s.kmeans_cost <= target
            )
            reached = result.stop_reason == "callback" or result.initial_kmeans_cost <= target
            costs = [result.initial_surrogate] + [s.surrogate_cost for s in result.trace]
            downstream[key] = (
                reached,
                non_increasing(costs, costs[0]),
                result.tree.leaf_count,
            )
        reached, monotone, leaves = downstream[key]
        outcomes.append(reached and monotone and leaves <= budget)

    elapsed = time.perf_counter() - started
    good = sum(outcomes)
    report(
        6,
        good >= 8 and elapsed < 120.0,
        f"{good}/10 seeds recover the codeword clusters and reach the optimal cost "
        f"within {budget} leaves in {elapsed:.1f}s (< 2min)",
    )


def test_criterion_7_outlier_dataset_gap():
    started = time.perf_counter()
    k = 3
    X = gen_synthetic_i(seed=0)
    ref = fit_reference(X, KMeansConfig(k=k, seed=0))

    gini_ratios = {}
    for budget in range(k, 4 * k + 1):
        tree = build_gini_tree(X, ref.assignment, budget)
        gini_ratios[budget] = kmeans_cost(X, tree.induced_assignment()) / ref.cost
    gini_ok = all(ratio > 2.0 for ratio in gini_ratios.values())

    base = build_imm(X, ref.centers, ref.assignment)
    result = expand(X, ref.centers, base, 4 * k)
    exkmc_ratio = result.trace[-1].kmeans_cost / ref.cost
    exkmc_ok = exkmc_ratio <= 1.05
    elapsed = time.perf_counter() - started

    lo, hi = min(gini_ratios.values()), max(gini_ratios.values())
    report(
        7,
        gini_ok and exkmc_ok and elapsed < 120.0,
        f"gini ratios in [{lo:.2f}, {hi:.2f}] all > 2.0: {'ok' if gini_ok else 'FAILED'}; "
        f"greedy expansion at 4k leaves = {exkmc_ratio:.4f} <= 1.05: "
        f"{'ok' if exkmc_ok else 'FAILED (greedy plateau at this budget; see README)'}; "
        f"{elapsed:.1f}s (< 2min)",
    )


def test_criterion_8_iris_cost_ratios():
    started = time.perf_counter()
    X = load_csv(files("xkmeans").joinpath("data/iris.csv"))
    assert (X.n, X.d) == (150, 4)
    ref = fit_reference(X, KMeansConfig(k=3, seed=0))
    # 78.851441 pinned from 50-restart runs across five seeds
    assert ref.cost == pytest.approx(78.851441, rel=0.01)

    base = build_imm(X, ref.centers, ref.assignment)
    imm_ratio = kmeans_cost(X, base.induced_assignment()) / ref.cost
    result = expand(X, ref.centers, base, 12)
    exkmc_ratio = result.trace[-1].kmeans_cost / ref.cost
    elapsed = time.perf_counter() - started
    report(
        8,
        exkmc_ratio <= 1.10 and imm_ratio <= 1.35 and elapsed < 5.0,
        f"iris ratios: base tree {imm_ratio:.4f} (<= 1.35), 4k leaves {exkmc_ratio:.4f} (<= 1.10) "
        f"in {elapsed:.1f}s (< 5s)",
    )


def test_criterion_9_parallel_determinism(blob_runs):
    mismatches = 0
    for run in blob_runs["runs"]:
        X, ref, base = run["X"], run["ref"], run["base"]
        parallel = expand(X, ref.centers, base, 4 * 5, jobs=4)
        if trace_json(parallel.trace) != trace_json(run["result"].trace):
            mismatches += 1
    report(9, mismatches == 0, "jobs=1 and jobs=4 traces byte-identical on 50/50 runs")


def test_criterion_10_kmeans_behaviour():
    bad_history = 0
    bad_rows = 0
    for seed in range(50):
        X, _ = gen_gaussian_blobs(4, 200, 5, separation=2.0, seed=seed)
        seeds = kmeanspp_seed(X, 4, np.random.default_rng(seed))
        rows = {tuple(row) for row in X.points}
        if not all(tuple(c) in rows for c in seeds.centers):
            bad_rows += 1
        run = lloyd(X, seeds)
        if not non_increasing(list(run.cost_history), run.cost_history[0]):
            bad_history += 1
    report(
        10,
        bad_history == 0 and bad_rows == 0,
        "seeded centers are dataset rows and Lloyd cost is monotone on 50/50 seeds "
        "(wall-clock timing claims intentionally not reproduced)",
    )
