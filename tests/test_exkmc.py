import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xkmeans import baselines, exkmc
from xkmeans.baselines import _gini_split
from xkmeans.core import (
    Assignment,
    CenterSet,
    DataMatrix,
    best_center,
    cell_stats,
    kmeans_cost,
    surrogate_cost,
)
from xkmeans.exkmc import (
    _REL_TOL,
    _ClusterAggregates,
    expand,
    prefix_scan,
    scan_best_split,
)
from xkmeans.imm import build_imm
from xkmeans.kmeans import KMeansConfig, fit_reference
from xkmeans.synth import gen_gaussian_blobs, gen_synthetic_i
from xkmeans.tree import ThresholdTree

FOUR_POINTS = DataMatrix([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
TWO_CENTERS = CenterSet([[0.0, 0.5], [4.0, 0.5]])


def naive_best_split(points, centers):
    """Exhaustive enumeration of every (feature, point-value threshold) pair
    with costs summed directly; candidates within 1e-9 relative of the best
    cost count as tied and the lowest (feature, threshold) wins."""
    points = np.asarray(points, float)
    m, d = points.shape
    rows = []  # (cost, feature, theta, left_label, right_label)
    for f in range(d):
        for theta in np.unique(points[:, f])[:-1]:
            mask = points[:, f] <= theta
            left, right = points[mask], points[~mask]
            lcosts = [((left - c) ** 2).sum() for c in centers]
            rcosts = [((right - c) ** 2).sum() for c in centers]
            ll = int(np.argmin(lcosts))
            rl = int(np.argmin(rcosts))
            rows.append((float(lcosts[ll] + rcosts[rl]), f, float(theta), ll, rl))
    if not rows:
        return None
    lowest = min(r[0] for r in rows)
    cutoff = lowest + 1e-9 * max(1.0, lowest)
    return min((r for r in rows if r[0] <= cutoff), key=lambda r: (r[1], r[2]))


def split_sides(points, M, feature, threshold):
    """(label, cost) of the best center of each side of a split: how
    `expand` labels and prices the two cells a split makes."""
    mask = points[:, feature] <= threshold
    return best_center(cell_stats(points[mask]), M), best_center(cell_stats(points[~mask]), M)


def side_labels(points, M, split):
    """The labels `expand` gives the two sides of a split the scan returned."""
    (ll, _), (rl, _) = split_sides(points, M, *split[1:])
    return ll, rl


def post_split_cost(points, M, split):
    """The cost a split the scan returned leaves: the cell's cost at its
    cheapest center less the split's gain."""
    return exact_price(points, M) - split[0]


def replay_split(tree, step):
    """Apply one trace step to a tree: the split and its children's labels."""
    left, right = tree.split_leaf(step.leaf, step.feature, step.threshold)
    tree.set_leaf_label(left, step.left_label)
    tree.set_leaf_label(right, step.right_label)


def replay_trace(X, M, base, result):
    """Re-apply a recorded expansion step by step on a fresh copy, checking
    each trace row against recomputation from first principles."""
    tree = base.prefix(base.leaf_count)
    before = tree.induced_assignment(X).labels
    for step in result.trace:
        moved = tree.cells(X)[step.leaf]
        replay_split(tree, step)
        after = tree.induced_assignment(X).labels
        outside = np.setdiff1d(np.arange(X.n), moved)
        assert np.array_equal(before[outside], after[outside]), "labels leaked outside the split leaf"

        partition = list(tree.cells(X).values())
        sur = surrogate_cost(X, partition, M)
        assert sur == pytest.approx(step.surrogate_cost, rel=1e-9, abs=1e-9)
        km = kmeans_cost(X, Assignment(after))
        assert km == pytest.approx(step.kmeans_cost, rel=1e-9, abs=1e-9)
        before = after
    return tree


class TestFindLabels:
    def test_four_point_example(self):
        (ll, _), (rl, _) = split_sides(FOUR_POINTS.points, TWO_CENTERS, 0, 0.0)
        assert (ll, rl) == (0, 1)

    def test_same_label_children_allowed(self):
        M = CenterSet([[0.0, 0.5], [100.0, 0.5]])
        (ll, _), (rl, _) = split_sides(FOUR_POINTS.points, M, 0, 0.0)
        assert (ll, rl) == (0, 0)

    def test_singleton_sides_pick_own_center(self):
        X = np.array([[0.0], [10.0]])
        M = CenterSet([[0.0], [10.0]])
        (ll, _), (rl, _) = split_sides(X, M, 0, 5.0)
        assert (ll, rl) == (0, 1)


class TestSplitCost:
    def test_four_point_example(self):
        (_, lc), (_, rc) = split_sides(FOUR_POINTS.points, TWO_CENTERS, 0, 0.0)
        assert lc + rc == pytest.approx(1.0)

    def test_semantically_empty_split_keeps_cost(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
        M = CenterSet([[0.1, 0.0], [50.0, 0.0]])
        pre = best_center(cell_stats(pts), M)[1]
        (_, lc), (_, rc) = split_sides(pts, M, 0, 0.0)
        assert lc + rc == pytest.approx(pre)

    def test_consistent_with_fixed_center_costs(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = rng.normal(size=(12, 3))
            M = CenterSet(rng.normal(size=(3, 3)))
            f, theta = 1, float(np.median(pts[:, 1]))
            if (pts[:, f] <= theta).all() or not (pts[:, f] <= theta).any():
                continue
            (ll, lc), (rl, rc) = split_sides(pts, M, f, theta)
            mask = pts[:, f] <= theta
            want = ((pts[mask] - M.centers[ll]) ** 2).sum()
            want += ((pts[~mask] - M.centers[rl]) ** 2).sum()
            assert lc + rc == pytest.approx(float(want))


class TestScanBestSplit:
    def test_four_point_candidate(self):
        cand = scan_best_split(FOUR_POINTS.points, TWO_CENTERS, cell_stats(FOUR_POINTS.points))
        assert cand[1:] == (0, 0.0)
        assert side_labels(FOUR_POINTS.points, TWO_CENTERS, cand) == (0, 1)
        assert post_split_cost(FOUR_POINTS.points, TWO_CENTERS, cand) == pytest.approx(1.0, rel=1e-12)
        assert cand[0] == pytest.approx(32.0, rel=1e-12)

    def test_outlier_cell_sides_get_their_own_cheapest_center(self):
        # the outlier makes the cell cost ~1e12, so a tie tolerance taken
        # from the whole cell would call both centers tied on the left side
        # (2.42 against 1.62); the side's own cheapest center is 1
        pts = np.array([[0.1], [0.1], [1e6]])
        M = CenterSet([[-1.0], [1.0]])
        got = scan_best_split(pts, M, cell_stats(pts))
        want = naive_best_split(pts, M.centers)
        assert got[1:] == (want[1], want[2]) == (0, 0.1)
        assert side_labels(pts, M, got) == (want[3], want[4]) == (1, 1)
        assert post_split_cost(pts, M, got) == pytest.approx(want[0], rel=1e-9)
        result = expand(DataMatrix(pts), M, ThresholdTree(), 2)
        assert (result.trace[0].left_label, result.trace[0].right_label) == (1, 1)

    def test_stats_are_computed_when_not_given(self):
        # the two-argument call prices the cell itself, as a caller without
        # its `cell_stats` at hand (such as a scaling probe) makes it
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 3)) + 1e3
        M = CenterSet(rng.normal(size=(3, 3)) + 1e3)
        assert scan_best_split(pts, M) == scan_best_split(pts, M, cell_stats(pts))

    def test_identical_points_no_split(self):
        pts = np.ones((5, 3))
        M = CenterSet([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        assert scan_best_split(pts, M, cell_stats(pts)) is None

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            n = int(rng.integers(2, 41))
            d = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            pts = rng.normal(size=(n, d))
            M = CenterSet(rng.normal(size=(k, d)))
            got = scan_best_split(pts, M, cell_stats(pts))
            want = naive_best_split(pts, M.centers)
            if want is None:
                assert got is None
                continue
            assert got[1:] == (want[1], want[2])
            assert side_labels(pts, M, got) == (want[3], want[4])
            assert post_split_cost(pts, M, got) == pytest.approx(want[0], rel=1e-9)

    def test_every_split_at_most_pre_cost(self):
        # splitting never increases the surrogate: probe random valid splits
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 25))
            d = int(rng.integers(1, 4))
            pts = rng.normal(size=(n, d))
            M = CenterSet(rng.normal(size=(int(rng.integers(1, 4)), d)))
            f = int(rng.integers(0, d))
            vals = np.unique(pts[:, f])
            if vals.size < 2:
                continue
            theta = float(rng.choice(vals[:-1]))
            pre = best_center(cell_stats(pts), M)[1]
            (_, lc), (_, rc) = split_sides(pts, M, f, theta)
            assert lc + rc <= pre * (1 + 1e-9) + 1e-12
            checked += 1


class TestExpand:
    def blob_fit(self, seed, k=3, n=60, d=3):
        X, _ = gen_gaussian_blobs(k, n, d, separation=6.0, seed=seed)
        ref = fit_reference(X, KMeansConfig(k=k, n_init=3, seed=seed))
        return X, ref

    def test_budget_equal_to_base_returns_unchanged(self):
        X, ref = self.blob_fit(0)
        base = build_imm(X, ref.centers, ref.assignment)
        result = expand(X, ref.centers, base, base.leaf_count)
        assert result.trace == ()
        assert result.tree.leaf_count == base.leaf_count
        assert np.array_equal(
            result.tree.induced_assignment(X).labels,
            base.induced_assignment(X).labels,
        )

    def test_leaves_made_at_the_budget_are_not_scanned(self, monkeypatch):
        # the children of the split that reaches the budget are never split:
        # they are labeled and priced, but their scans would be thrown away
        X, ref = self.blob_fit(3)
        base = build_imm(X, ref.centers, ref.assignment)
        scanned = []

        def counting_scan(points, M, stats, **kwargs):
            scanned.append(points.shape[0])
            return scan_best_split(points, M, stats, **kwargs)

        monkeypatch.setattr(exkmc, "scan_best_split", counting_scan)
        assert expand(X, ref.centers, base, base.leaf_count).trace == ()
        assert scanned == []
        result = expand(X, ref.centers, base, 8)
        assert result.stop_reason == "budget" and len(result.trace) == 8 - base.leaf_count
        assert len(scanned) == base.leaf_count + 2 * len(result.trace) - 2

    def test_empty_base_single_step(self):
        base = ThresholdTree()  # single unlabeled root
        result = expand(FOUR_POINTS, TWO_CENTERS, base, 2)
        assert len(result.trace) == 1
        step = result.trace[0]
        assert (step.feature, step.threshold) == (0, 0.0)
        assert (step.left_label, step.right_label) == (0, 1)
        assert step.surrogate_cost == pytest.approx(1.0)
        assert result.tree.induced_assignment(FOUR_POINTS).labels.tolist() == [0, 0, 1, 1]

    def test_budget_below_base_rejected(self):
        X, ref = self.blob_fit(1)
        base = build_imm(X, ref.centers, ref.assignment)
        with pytest.raises(ValueError):
            expand(X, ref.centers, base, base.leaf_count - 1)

    def test_full_budget_reaches_reference(self):
        X, ref = self.blob_fit(2, k=3, n=40)
        base = build_imm(X, ref.centers, ref.assignment)
        result = expand(X, ref.centers, base, X.n)
        assert np.array_equal(
            result.tree.induced_assignment(X).labels, ref.assignment.labels
        )
        assert result.trace[-1].surrogate_cost == pytest.approx(ref.cost, rel=1e-9)

    def test_trace_monotone_and_replay_consistent(self):
        for seed in (3, 4):
            X, ref = self.blob_fit(seed, k=4, n=80, d=4)
            base = build_imm(X, ref.centers, ref.assignment)
            result = expand(X, ref.centers, base, 4 * 4)
            costs = [result.initial_surrogate] + [s.surrogate_cost for s in result.trace]
            for a, b in zip(costs, costs[1:]):
                assert b <= a * (1 + 1e-9) + 1e-12
            replay_trace(X, ref.centers, base, result)

    def test_kmeans_cost_never_exceeds_surrogate(self):
        X, ref = self.blob_fit(5, k=3, n=90)
        base = build_imm(X, ref.centers, ref.assignment)
        result = expand(X, ref.centers, base, 12)
        assert result.initial_kmeans_cost <= result.initial_surrogate * (1 + 1e-9)
        for step in result.trace:
            assert step.kmeans_cost <= step.surrogate_cost * (1 + 1e-9) + 1e-12

    def test_refinement_is_a_fixed_point(self):
        # once every leaf is pure wrt the reference, the induced clustering
        # equals the reference and later splits carry zero gain
        X, ref = self.blob_fit(6, k=2, n=24, d=2)
        base = build_imm(X, ref.centers, ref.assignment)
        result = expand(X, ref.centers, base, X.n)
        purity_step = None
        tree = base.prefix(base.leaf_count)
        for idx, step in enumerate(result.trace):
            replay_split(tree, step)
            pure = all(
                np.unique(ref.assignment.labels[ids]).size <= 1
                for ids in tree.cells(X).values()
            )
            if pure:
                purity_step = idx
                break
        assert purity_step is not None
        assert np.array_equal(tree.induced_assignment(X).labels, ref.assignment.labels)
        for step in result.trace[purity_step + 1 :]:
            assert step.gain <= 1e-9 * max(1.0, result.initial_surrogate)

    def test_stop_condition_halts_expansion(self):
        X, ref = self.blob_fit(8)
        base = build_imm(X, ref.centers, ref.assignment)
        result = expand(
            X, ref.centers, base, X.n, stop_condition=lambda s: s.step >= 2
        )
        assert len(result.trace) == 2
        assert result.stop_reason == "callback"

    def test_no_split_early_stop(self):
        X = DataMatrix(np.ones((6, 2)))
        M = CenterSet([[1.0, 1.0], [5.0, 5.0]])
        base = ThresholdTree()
        result = expand(X, M, base, 4)
        assert result.stop_reason == "no_split"
        assert result.tree.leaf_count == 1


def test_zero_gain_plateau_is_split_in_leaf_id_order():
    # every IMM leaf of well-separated blobs is pure, so every later split
    # keeps its cell's center and gains exactly 0 in exact arithmetic; with
    # round-off counted as no gain the heap takes the lowest leaf id each
    # time, and children outnumber every older id, so the ids only grow
    X, _ = gen_gaussian_blobs(4, 200, 2, separation=8.0, seed=5)
    ref = fit_reference(X, KMeansConfig(k=4, n_init=2, seed=5))
    base = build_imm(X, ref.centers, ref.assignment)
    result = expand(X, ref.centers, base, 40)
    assert len(result.trace) == 40 - base.leaf_count
    assert all(step.gain == 0.0 for step in result.trace)
    leaves = [step.leaf for step in result.trace]
    assert leaves == sorted(set(leaves))


@pytest.mark.parametrize("seed", range(20))
def test_exactly_tied_centers_go_to_the_lowest_index(seed):
    # a cell mirrored across x0 = 0 is exactly as far from a center as from
    # the center's mirror image, whatever the last bits of either sum say
    rng = np.random.default_rng(seed)
    half = rng.normal(size=(3, 2))
    cell = np.vstack([half, half * [-1.0, 1.0]])
    c = rng.normal(size=2)
    M = CenterSet([c * [-1.0, 1.0], c, [0.0, 50.0]])
    assert best_center(cell_stats(cell), M)[0] == 0
    # split from a far group nearest the third center, the cell is a side
    both = np.vstack([cell, cell + [0.0, 50.0]])
    split = scan_best_split(both, M, cell_stats(both))
    assert (split[1], *side_labels(both, M, split)) == (1, 0, 2)


def test_lone_root_is_priced_once(monkeypatch):
    priced = []

    def counting_best_center(stats, M):
        priced.append(stats)
        return best_center(stats, M)

    monkeypatch.setattr(exkmc, "best_center", counting_best_center)
    result = expand(FOUR_POINTS, TWO_CENTERS, ThresholdTree(), 2)
    assert len(priced) == 3  # the whole-X root, then its two children
    assert priced[0][0] == FOUR_POINTS.n
    assert result.tree.nodes[0].label == 0


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 30),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from([0.0, 1e4, 1e6, 1e8]),
    st.integers(0, 10**6),
)
def test_scan_matches_naive_under_a_shared_offset(n, d, k, offset, seed):
    # shifting the points and the centers together changes no cost, so the
    # scan must pick criterion 1's split wherever the cell sits
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d)) + offset
    M = CenterSet(rng.normal(size=(k, d)) + offset)
    got = scan_best_split(pts, M, cell_stats(pts))
    want = naive_best_split(pts, M.centers)
    if want is None:
        assert got is None
        return
    assert got[1:] == (want[1], want[2])
    assert side_labels(pts, M, got) == (want[3], want[4])
    assert post_split_cost(pts, M, got) == pytest.approx(want[0], rel=1e-9)


def test_unlabeled_multi_leaf_base_rejected():
    tree = ThresholdTree()
    tree.split_leaf(0, 0, 0.0)
    with pytest.raises(ValueError, match="unlabeled"):
        expand(FOUR_POINTS, TWO_CENTERS, tree, 4)


def test_base_label_that_is_no_center_index_rejected():
    # from_json takes any non-negative label and set_leaf_label any int, but
    # expand reads a base leaf's label as an index into the centers
    split = {"feature": 0, "threshold": 2.0, "left": 1, "right": 2}
    for nodes, leaf in (([{"label": 5}], 0), ([{"label": 2}], 0), ([split, {"label": 0}, {"label": 7}], 2)):
        base = ThresholdTree.from_json(json.dumps({"nodes": nodes}))
        label = nodes[leaf]["label"]
        with pytest.raises(ValueError, match=f"base leaf {leaf}'s label {label} is not one of the 2 centers"):
            expand(FOUR_POINTS, TWO_CENTERS, base, 4)
    base = ThresholdTree()
    base.set_leaf_label(0, -1)
    with pytest.raises(ValueError, match="base leaf 0's label -1 is not one of the 2 centers"):
        expand(FOUR_POINTS, TWO_CENTERS, base, 4)


@pytest.mark.parametrize("imm_base", [True, False], ids=["imm_base", "root_base"])
def test_expand_resumes_from_a_cut_tree(imm_base):
    # greedy growth is prefix-closed, and expand takes the cells of any
    # labeled tree from routing: growing the first b leaves of a build, cut
    # in memory or loaded from JSON, back to B repeats the build's last steps
    X, _ = gen_gaussian_blobs(4, 120, 3, separation=3.0, seed=12)
    ref = fit_reference(X, KMeansConfig(k=4, n_init=2, seed=12))
    M = ref.centers
    base = build_imm(X, M, ref.assignment) if imm_base else ThresholdTree()
    B = 30
    full = expand(X, M, base, B)
    assert full.tree.leaf_count == B
    for b in (base.leaf_count, 10, 23, B - 1):
        cut = full.tree.prefix(b)
        for start in (cut, ThresholdTree.from_json(cut.to_json())):
            resumed = expand(X, M, start, B)
            assert resumed.tree.to_json() == full.tree.to_json()
            want = full.trace[b - base.leaf_count :]
            assert len(resumed.trace) == len(want)
            for i, (got, exp) in enumerate(zip(resumed.trace, want), start=1):
                # the k-means cost comes from aggregates updated along the
                # path, so the two runs sum it in a different order
                assert got.kmeans_cost == pytest.approx(exp.kmeans_cost, rel=1e-9)
                assert got == replace(exp, step=i, kmeans_cost=got.kmeans_cost)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 10**6),
)
def test_scan_matches_naive_on_tie_heavy_integer_data(n, d, k, seed):
    # small integer grids force exact cost ties between distinct splits,
    # stressing the banded lexicographic tie-break on both routes
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, d)).astype(float)
    M = CenterSet(rng.integers(-2, 3, size=(k, d)).astype(float))
    got = scan_best_split(pts, M, cell_stats(pts))
    want = naive_best_split(pts, M.centers)
    if want is None:
        assert got is None
        return
    assert got[1:] == (want[1], want[2])
    assert post_split_cost(pts, M, got) == pytest.approx(want[0], rel=1e-9, abs=1e-9)
    assert side_labels(pts, M, got) == (want[3], want[4])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 16),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 10**6),
)
def test_full_budget_expansion_reaches_nearest_assignment(n, d, k, seed):
    # with the full leaf budget the tree refines down to (possibly repeated)
    # points; leaves of identical points share a nearest center, so the
    # induced clustering must equal the nearest-center assignment even when
    # the expansion stops early on unsplittable leaves
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, d)).astype(float)
    X = DataMatrix(pts)
    M = CenterSet(rng.integers(-2, 3, size=(k, d)).astype(float))
    d2 = ((pts[:, None, :] - M.centers[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(d2, axis=1)

    result = expand(X, M, ThresholdTree(), n)
    induced = result.tree.induced_assignment(X)
    assert np.array_equal(induced.labels, nearest)
    costs = [result.initial_surrogate] + [s.surrogate_cost for s in result.trace]
    assert costs[-1] == pytest.approx(float(d2[np.arange(n), nearest].sum()), rel=1e-9, abs=1e-9)

    slack = 1e-9 * max(1.0, costs[0]) + 1e-12
    assert all(b <= a + slack for a, b in zip(costs, costs[1:]))
    assert result.initial_kmeans_cost <= result.initial_surrogate + slack
    for step in result.trace:
        assert step.kmeans_cost <= step.surrogate_cost + slack


@pytest.mark.parametrize("offset", [1e8, 1e9])
def test_full_budget_reproduces_the_reference_under_a_shared_offset(offset):
    # the reference fit ranks centers from the data's mean, so far from the
    # origin its assignment is still the nearest-center one that k' = n
    # leaves reproduce
    for seed in range(4):
        X, _ = gen_gaussian_blobs(4, 400, 3, 3.0, seed=seed)
        X = DataMatrix(X.points + offset)
        ref = fit_reference(X, KMeansConfig(k=4, seed=0))
        result = expand(X, ref.centers, build_imm(X, ref.centers, ref.assignment), X.n)
        assert np.array_equal(result.tree.induced_assignment(X).labels, ref.assignment.labels)


def klast_best_split(points, M):
    """Reference for `scan_best_split`: the same scan with the k centers as
    the last axis of each (points x block x k) array, reduced over that axis."""
    points = np.asarray(points, dtype=np.float64)
    m, d = points.shape
    if m < 2:
        return None
    centers = M.centers
    P = points @ centers.T
    m2 = np.einsum("ij,ij->i", centers, centers)
    s_tot = P.sum(axis=0)
    sumsq = float(np.einsum("ij,ij->", points, points))
    pre_score = float((-2.0 * s_tot + m * m2).min())
    tol = _REL_TOL * max(1.0, abs(sumsq + pre_score))
    order = np.argsort(points, axis=0, kind="stable")
    counts = np.arange(1, m, dtype=np.float64)[:, None, None]

    found = []
    for c0 in range(0, d, 64):  # any partition of the features gives the same answer
        cols = np.arange(c0, min(c0 + 64, d))
        ord_blk = order[:, cols]
        sv = np.take_along_axis(points[:, cols], ord_blk, axis=0)
        valid = sv[:-1] < sv[1:]
        if not valid.any():
            continue
        cum = np.cumsum(P[ord_blk], axis=0)[:-1]
        lbest = (-2.0 * cum + counts * m2).min(axis=2)
        rbest = (-2.0 * (s_tot - cum) + (m - counts) * m2).min(axis=2)
        tot = np.where(valid, lbest + rbest, np.inf)
        s_min = tot.min(axis=0)
        t_star = (tot <= s_min + tol).argmax(axis=0)
        width = np.arange(cols.size)
        s_star = tot[t_star, width]
        for w in np.flatnonzero(np.isfinite(s_star)):
            found.append((float(s_star[w]), int(cols[w]), float(sv[int(t_star[w]), w])))
    if not found:
        return None
    cutoff = min(e[0] for e in found) + tol
    score, feature, theta = min((e for e in found if e[0] <= cutoff), key=lambda e: (e[1], e[2]))
    gain = pre_score - score
    if abs(gain) < tol:
        gain = 0.0
    return gain, feature, theta, sumsq + score


def assert_same_split(points, M, got, want):
    """The same split, and the same costs to 1e-12 relative; `want` also
    carries the reference's own post-split cost."""
    if want is None:
        assert got is None
        return
    assert got[1:] == want[1:3]
    cost = exact_price(points, M)  # the cell's
    scale = 1e-12 * max(1.0, cost)
    assert cost - got[0] == pytest.approx(want[3], rel=1e-12, abs=scale)
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=scale)


WIDTHS = [1, 63, 64, 65, 129]  # one column, and either side of the 64-feature block


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(WIDTHS),
    st.integers(2, 40),
    st.integers(1, 4),
    st.integers(0, 10**6),
)
def test_center_major_scan_matches_klast_on_tie_heavy_grids(d, n, k, seed):
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, d)).astype(float)
    M = CenterSet(rng.integers(-2, 3, size=(k, d)).astype(float))
    assert_same_split(pts, M, scan_best_split(pts, M, cell_stats(pts)), klast_best_split(pts, M))


@pytest.mark.parametrize("d", WIDTHS)
def test_center_major_scan_matches_klast_on_outlier_cells(d):
    X = gen_synthetic_i(seed=d, n=400, d=129)
    ref = fit_reference(X, KMeansConfig(k=3, n_init=1, seed=d))
    M = CenterSet(ref.centers.centers[:, :d])
    pts = X.points[:, :d]
    # with and without the two anchors, one cluster, and a 30-point cell
    for cell in (pts, pts[2:], pts[ref.assignment.labels == ref.assignment.labels[2]], pts[:30]):
        assert_same_split(cell, M, scan_best_split(cell, M, cell_stats(cell)), klast_best_split(cell, M))


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("d", [1, 2, 50])
def test_cluster_aggregates_track_kmeans_cost_through_moves(d, offset):
    # blocks move between clusters by signed merges, some of them a whole
    # cluster; the cost must follow the two-pass k-means cost of the labels
    rng = np.random.default_rng(d)
    k, n = 4, 600
    X = DataMatrix(rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d) + offset)
    labels = rng.integers(0, k - 1, size=n)  # cluster k - 1 starts empty
    agg = _ClusterAggregates(k, d)
    for j in range(k):
        agg.merge(cell_stats(X.points[labels == j]), j)
    emptied = 0
    for _ in range(40):
        src, dst = rng.choice(np.unique(labels)), rng.integers(0, k)
        ids = np.flatnonzero(labels == src)
        if src == dst:
            continue
        if rng.random() < 0.2:
            block = ids  # the whole cluster
            emptied += 1
        else:
            block = rng.choice(ids, size=int(rng.integers(1, ids.size + 1)), replace=False)
        stats = cell_stats(X.points[block])
        agg.merge(stats, src, -1)
        agg.merge(stats, dst)
        labels[block] = dst
        assert agg.count.tolist() == np.bincount(labels, minlength=k).tolist()
        assert agg.cost() == pytest.approx(kmeans_cost(X, Assignment(labels)), rel=1e-8)
    assert emptied > 0


def dense_prefix_scan(points, rows, score, tol):
    """Reference for `prefix_scan`: every sorted position of every feature is
    scored, positions inside a tie are masked to inf, each threshold is read
    from the stably sorted values, and the first valid position,
    feature-major, within `tol` of the minimum wins (any, when it is NaN)."""
    left = np.arange(1, points.shape[0], dtype=np.float64)
    found = []
    for c0 in range(0, points.shape[1], 64):  # any partition of the features gives the same answer
        blk = np.ascontiguousarray(points[:, c0 : c0 + 64].T)
        order = np.argsort(blk, axis=1, kind="stable")
        sv = np.take_along_axis(blk, order, axis=1)
        valid = sv[:, :-1] < sv[:, 1:]
        if not valid.any():
            continue
        cums = [np.cumsum(row[order], axis=1)[:, :-1] for row in rows]
        tot = np.where(valid, score(cums, left), np.inf)
        feature = np.repeat(c0 + np.arange(blk.shape[0]), left.size)
        found.append((tot.ravel(), valid.ravel(), feature, sv[:, :-1].ravel()))
    if not found:
        return None
    tot, valid, feature, theta = (np.concatenate(parts) for parts in zip(*found))
    i = int(np.argmax(valid & ~(tot > tot.min() + tol)))
    return float(tot[i]), int(feature[i]), float(theta[i])


def both_scans(pts, M, labels, n_labels):
    """The exkmc and gini splits of a cell, by `prefix_scan` and by the dense oracle."""
    got = (scan_best_split(pts, M), _gini_split(pts, labels, np.bincount(labels, minlength=n_labels)))
    with mock.patch.object(exkmc, "prefix_scan", dense_prefix_scan), mock.patch.object(
        baselines, "prefix_scan", dense_prefix_scan
    ):
        want = (scan_best_split(pts, M), _gini_split(pts, labels, np.bincount(labels, minlength=n_labels)))
    return got, want


def scan_cell(kind, n, d, offset, rng):
    if kind == "grid":
        return rng.integers(-2, 3, size=(n, d)) + offset
    if kind == "binary":
        return rng.integers(0, 2, size=(n, d)) + offset
    if kind == "signed_zero":  # an offset would turn -0.0 into 0.0
        return rng.choice([-0.0, 0.0, 1.0], size=(n, d))
    pts = rng.normal(size=(n, d)) + offset
    if kind == "mixed":  # tied and untied features in one block
        tied = rng.random(d) < 0.5
        pts[:, tied] = rng.integers(0, 2, size=(n, int(tied.sum()))) + offset
    return pts


# scan block widths from one feature to the whole cell; these cells have at
# most 40 rows, so at the default budget every scan would be one block
BLOCK_WIDTHS = [1, 2, 3, 64, 10**6]


def blocks_of(width, n):
    """Patch the scan's row budget so that an n-row cell scans `width` features a block."""
    return mock.patch.object(exkmc, "_BLOCK_FLOATS", width * n)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["grid", "binary", "signed_zero", "normal", "mixed"]),
    st.sampled_from([1, 63, 64, 65, 130]),
    st.integers(2, 40),
    st.integers(1, 4),
    st.sampled_from([0.0, 1e6]),
    st.integers(0, 10**6),
    st.sampled_from(BLOCK_WIDTHS),
)
def test_scan_of_valid_cuts_matches_the_dense_scan(kind, d, n, k, offset, seed, width):
    # scoring only the cuts between distinct values changes no bit of
    # either builder's split, the sign of a zero threshold included, at any
    # block width
    rng = np.random.default_rng(seed)
    pts = scan_cell(kind, n, d, offset, rng)
    M = CenterSet(rng.normal(size=(k, d)) + offset)
    labels = rng.integers(0, k + 1, size=n)
    with blocks_of(width, n):
        got, want = both_scans(pts, M, labels, k + 1)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("zeros, sign", [([0.0, -0.0], "-"), ([-0.0, 0.0], "")])
def test_threshold_is_the_last_tied_value_in_input_order(zeros, sign):
    # -0.0 == 0.0, so a stable sort keeps their input order; np.sort may not
    pts = np.array([[zeros[0]], [zeros[1]], [1.0], [1.0]])
    M = CenterSet([[0.0], [1.0]])
    got, want = both_scans(pts, M, np.array([0, 0, 1, 1]), 2)
    assert repr(got) == repr(want)
    assert repr(got[0][2]) == repr(got[1][2]) == sign + "0.0"


def test_scan_scores_exactly_the_distinct_value_boundaries():
    # a 0/1 cell has one cut per feature, a cell of distinct values m - 1
    binary = gen_synthetic_i(seed=0, n=300, d=130).points
    distinct = np.random.default_rng(0).normal(size=(50, 130))
    for pts, per_feature in ((binary, 1), (distinct, 49)):
        scored = []

        def spy(cums, left):
            assert all(c.shape == left.shape for c in cums)
            scored.append(left.copy())
            return np.zeros(left.size)

        prefix_scan(pts, np.ones((1, pts.shape[0])), spy, 0.0)
        boundaries = [np.cumsum(np.unique(col, return_counts=True)[1])[:-1] for col in pts.T]
        assert np.concatenate(scored).tolist() == np.concatenate(boundaries).tolist()
        assert sum(s.size for s in scored) == per_feature * pts.shape[1]


@pytest.mark.parametrize("n, d", [(8000, 64), (2000, 300)])
def test_scan_working_set_stays_under_twice_the_cell(n, d):
    # blocks sized by the row budget, with the prefix sums handed over one
    # row at a time, keep the traced peak of either scan below twice the
    # cell's own bytes, tall or wide
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(n, d))
    M = CenterSet(rng.normal(size=(4, d)))
    stats = cell_stats(pts)
    labels = rng.integers(0, 4, size=n)
    counts = np.bincount(labels, minlength=4)
    for scan in (lambda: scan_best_split(pts, M, stats), lambda: _gini_split(pts, labels, counts)):
        tracemalloc.start()
        try:
            assert scan() is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * pts.nbytes


def test_a_nan_score_takes_the_features_first_valid_cut():
    # only an overflowing cell scores NaN; then no cut is within tol of the
    # minimum, and the cut taken is the scan's first between distinct
    # values, not sorted position 0 inside the leading tie of 0.0 and -0.0
    pts = np.array([[0.0], [-0.0], [1.0], [2.0]])

    def score(cums, left):
        return np.where(left == 3.0, np.nan, -left)

    assert repr(prefix_scan(pts, np.ones((1, 4)), score, 0.0)) == repr((-2.0, 0, -0.0))


def test_a_nan_score_of_a_later_feature_takes_the_scans_first_cut():
    # feature 0 is finite and best at its last cut, feature 1 scores NaN:
    # the scan's first cut wins, not feature 0's best
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 1.0]])

    def score(cums, left):
        return np.array([-1.0, -2.0, -3.0, np.nan])

    assert repr(prefix_scan(pts, np.ones((1, 4)), score, 0.0)) == repr((-1.0, 0, 0.0))


def test_scores_of_inf_take_the_scans_first_cut():
    # +inf is below no earlier cut, so each block keeps its first cut anyway
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])

    def score(cums, left):
        return np.full(left.size, np.inf)

    assert prefix_scan(pts, np.ones((1, 3)), score, 0.0) == (np.inf, 0, 0.0)


def test_near_ties_do_not_chain_across_features():
    # feature 0 scores 1.5 then 0.6, feature 1 scores 0.0; at tol 1, 0.6 is
    # the first cut within tol of the best, though 1.5 is within tol of 0.6
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])

    def score(cums, left):
        return np.array([1.5, 0.6, 0.0])

    assert prefix_scan(pts, np.ones((1, 3)), score, 1.0) == (0.6, 0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 63, 64, 65, 130]),
    st.integers(2, 12),
    st.integers(0, 10**6),
    st.sampled_from(BLOCK_WIDTHS),
)
def test_scan_takes_the_first_cut_within_tol_of_the_best(d, n, seed, width):
    # scores in steps of 0.6 at tol 1 chain near-ties within and across
    # features and blocks; the scan must match the first (feature, cut)
    # within tol of the minimum, by brute force, at any block width
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    cuts = [(float(v), j) for j in range(d) for v in np.unique(pts[:, j])[:-1]]
    preset = 0.6 * rng.integers(0, 5, size=len(cuts))
    handed = iter(preset)

    def score(cums, left):
        return np.array([next(handed) for _ in range(left.size)])

    with blocks_of(width, n):
        got = prefix_scan(pts, np.ones((1, n)), score, 1.0)
    if not cuts:
        assert got is None
        return
    i = next(i for i, s in enumerate(preset) if s <= preset.min() + 1.0)
    theta, feature = cuts[i]
    assert got == (float(preset[i]), feature, theta)


def naive_expand(X, M, base, k_prime):
    """Reference for `expand`, with no heap and no cached state: at every
    step route X through the tree afresh, find each leaf's split with
    `naive_best_split` and split the leaf of largest gain. A gain within
    1e-9 relative of its leaf's cost is 0, and gains within 1e-9 relative of
    the largest are tied and go to the lowest leaf id. Each new leaf is
    labeled `best_center(cell_stats(cell), M)`. Returns the tree and the
    surrogate cost after each step, summed directly."""
    tree = base.prefix(base.leaf_count)
    if tree.leaf_count == 1 and tree.nodes[tree.root].label is None:
        tree.set_leaf_label(tree.root, best_center(cell_stats(X.points), M)[0])

    def cost(ids):
        return min(float(((X.points[ids] - c) ** 2).sum()) for c in M.centers)

    costs = []
    while tree.leaf_count < k_prime:
        cells = tree.cells(X)
        gains = {}
        for leaf, ids in cells.items():
            split = naive_best_split(X.points[ids], M.centers)
            if split is not None:
                pre = cost(ids)
                gain = pre - split[0]
                gains[leaf] = (0.0 if abs(gain) < 1e-9 * max(1.0, pre) else gain, split)
        if not gains:
            break
        top = max(gain for gain, _ in gains.values())
        leaf = min(leaf for leaf, (gain, _) in gains.items() if gain >= top - 1e-9 * max(1.0, top))
        _, feature, theta, _, _ = gains[leaf][1]
        children = tree.split_leaf(leaf, feature, theta)
        cells = tree.cells(X)
        for child in children:
            tree.set_leaf_label(child, best_center(cell_stats(X.points[cells[child]]), M)[0])
        costs.append(sum(cost(ids) for ids in cells.values()))
    return tree, costs


def oracle_inputs(n, d, k, grid, duplicates, imm_base, offset, seed):
    """Points, centers and a base tree for the naive oracle: an IMM tree over
    the points' nearest centers, or a lone unlabeled root."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, d)).astype(float) if grid else rng.normal(size=(n, d))
    if duplicates:
        pts = pts[rng.integers(0, max(1, n // 3), size=n)]
    X = DataMatrix(pts + offset)
    M = CenterSet(rng.normal(size=(k, d)) + offset)
    if not imm_base:
        return X, M, ThresholdTree()
    nearest = ((X.points[:, None, :] - M.centers[None]) ** 2).sum(axis=2).argmin(axis=1)
    return X, M, build_imm(X, M, Assignment(nearest))


def assert_expand_matches_naive(X, M, base, k_prime, offset):
    result = expand(X, M, base, k_prime)
    tree, costs = naive_expand(X, M, base, k_prime)
    assert result.tree.to_json() == tree.to_json()
    assert [step.surrogate_cost for step in result.trace] == pytest.approx(costs, rel=1e-9, abs=1e-9)
    # the running k-means cost merges cluster means taken at the offset, so
    # there it drifts from the two-pass cost by up to about 6e-9 relative
    rel = 1e-9 if offset == 0.0 else 1e-8
    for step in result.trace:
        km = kmeans_cost(X, result.tree.prefix(base.leaf_count + step.step).induced_assignment(X))
        assert step.kmeans_cost == pytest.approx(km, rel=rel, abs=rel)


_ORACLE_INPUTS = (
    st.integers(1, 24),
    st.integers(1, 3),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.0, 1e6]),
    st.integers(0, 10**6),
)


@settings(max_examples=200, deadline=None)
@given(*_ORACLE_INPUTS, st.data())
def test_expand_matches_naive_whole_build(n, d, k, grid, duplicates, imm_base, offset, seed, data):
    # integer grids and repeated rows tie splits and leave cells
    # unsplittable; an IMM base starts from k labeled leaves, some of them
    # possibly empty, and a lone root is labeled by expand itself
    X, M, base = oracle_inputs(n, d, k, grid, duplicates, imm_base, offset, seed)
    k_prime = data.draw(st.integers(base.leaf_count, max(n, base.leaf_count)))
    assert_expand_matches_naive(X, M, base, k_prime, offset)


@settings(max_examples=150, deadline=None)
@given(*_ORACLE_INPUTS, st.data())
def test_expand_matches_naive_from_a_cut_base(n, d, k, grid, duplicates, imm_base, offset, seed, data):
    # a base grown by expand, cut with prefix at a random size and grown
    # again to a random budget: the cut's leaves keep their pre-split labels,
    # and expand takes their cells from routing, not from the first build.
    # IMM labels only its k leaves, so a cut keeps at least those
    X, M, base = oracle_inputs(n, d, k, grid, duplicates, imm_base, offset, seed)
    built = expand(X, M, base, data.draw(st.integers(base.leaf_count, max(n, base.leaf_count)))).tree
    cut = built.prefix(data.draw(st.integers(base.leaf_count, built.leaf_count)))
    k_prime = data.draw(st.integers(cut.leaf_count, max(n, cut.leaf_count)))
    assert_expand_matches_naive(X, M, cut, k_prime, offset)


def exact_price(points, M):
    """The cheapest center's direct sum of squares over a cell, summed exactly."""
    return min(math.fsum(((points - c) ** 2).ravel()) for c in M.centers)


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8])
def test_trace_gain_is_the_scans_gain_and_exact_at_large_offsets(offset):
    # replayed from a lone root to k' = n: each step records bit for bit the
    # gain its split was ranked by, which the scan takes in the cell's
    # centered frame, so it matches exact prices of the three cells at any
    # offset; `best_center` prices carry the mean's rounding at the offset
    rng = np.random.default_rng(22)
    for _ in range(25):
        n, d, k = int(rng.integers(10, 61)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
        X = DataMatrix(rng.normal(size=(n, d)) + offset)
        M = CenterSet(rng.normal(size=(k, d)) + offset)
        tree = ThresholdTree()
        for step in expand(X, M, tree, n).trace:
            cell = X.points[tree.cells(X)[step.leaf]]
            tree.split_leaf(step.leaf, step.feature, step.threshold)
            left = cell[:, step.feature] <= step.threshold
            parent = exact_price(cell, M)
            exact = parent - exact_price(cell[left], M) - exact_price(cell[~left], M)
            if step.gain == 0.0:  # within the scan's tie tolerance
                assert abs(exact) <= (_REL_TOL + 1e-12) * max(1.0, parent)
            else:
                assert abs(step.gain - exact) <= 1e-12 * parent
            assert (step.gain, step.feature, step.threshold) == scan_best_split(cell, M)
