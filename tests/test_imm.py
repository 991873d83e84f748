from functools import partial
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xkmeans import imm
from xkmeans.core import Assignment, CenterSet, DataMatrix, kmeans_cost, load_csv
from xkmeans.imm import ImmNodeState, best_mistake_split, build_imm
from xkmeans.kmeans import KMeansConfig, fit_reference
from xkmeans.synth import (
    gen_gaussian_blobs,
    gen_synthetic_i,
    gen_synthetic_ii,
)

FOUR_POINTS = DataMatrix([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
TWO_CENTERS = CenterSet([[0.0, 0.5], [4.0, 0.5]])


def brute_best_split(points, labels, centers, center_ids):
    """Definitional enumeration: every distinct point or center value inside
    the center-separating window, mistakes counted pair by pair."""
    points = np.asarray(points, float)
    centers = np.asarray(centers, float)
    m, d = points.shape
    present = set(center_ids)
    best = None
    for f in range(d):
        cvals = centers[list(center_ids), f]
        lo, hi = cvals.min(), cvals.max()
        cand = sorted(set(points[:, f].tolist()) | set(cvals.tolist()))
        for theta in cand:
            if not (lo <= theta < hi):
                continue
            left_pts = int(np.sum(points[:, f] <= theta))
            if left_pts == 0 or left_pts == m:
                continue
            mistakes = 0
            for i in range(m):
                if labels[i] not in present:
                    continue
                p_side = points[i, f] <= theta
                c_side = centers[labels[i], f] <= theta
                mistakes += p_side != c_side
            if best is None or mistakes < best[0]:
                best = (mistakes, f, theta)
    return best


def dense_best_mistake_split(X, M, reference, state):
    """Reference implementation: per feature, a dense (points x candidates)
    boolean matrix of separated pairs, then a second pass over all
    candidates when no split is two-sided."""
    if state.center_ids.size < 2:
        raise ValueError("node must contain at least two centers")
    pts = X.points[state.point_ids]
    labs = reference.labels[state.point_ids]
    elig = np.isin(labs, state.center_ids)
    epts = pts[elig]
    ecenters = M.centers[labs[elig]]
    m = pts.shape[0]
    cvals = M.centers[state.center_ids]
    cmin = cvals.min(axis=0)
    cmax = cvals.max(axis=0)
    pts_t = np.ascontiguousarray(pts.T)
    have_elig = epts.shape[0] > 0
    if have_elig:
        epts_t = np.ascontiguousarray(epts.T)
        ecen_t = np.ascontiguousarray(ecenters.T)

    features = np.flatnonzero(cmin < cmax)

    def candidates_for(f):
        col_c = cvals[:, f]
        in_window = col_c[(col_c >= cmin[f]) & (col_c < cmax[f])]
        col = pts_t[f]
        window_pts = col[(col >= cmin[f]) & (col < cmax[f])]
        return np.unique(np.concatenate([window_pts, in_window]))

    def mistake_counts(f, cand):
        if not have_elig:
            return np.zeros(cand.size, dtype=np.int64)
        sep = (epts_t[f][:, None] <= cand) != (ecen_t[f][:, None] <= cand)
        return sep.sum(axis=0)

    best = None
    for f in features:
        f = int(f)
        cand = candidates_for(f)
        if cand.size == 0 or m == 0:
            continue
        left_counts = (pts_t[f][:, None] <= cand).sum(axis=0)
        two_sided = np.flatnonzero((left_counts > 0) & (left_counts < m))
        if two_sided.size == 0:
            continue
        counts = mistake_counts(f, cand)
        j = two_sided[int(np.argmin(counts[two_sided]))]
        if best is None or counts[j] < best[0]:
            best = (int(counts[j]), f, float(cand[j]))

    fallback = None
    if best is None:
        for f in features:
            f = int(f)
            cand = candidates_for(f)
            if cand.size == 0:
                continue
            counts = mistake_counts(f, cand)
            j = int(np.argmin(counts))
            if fallback is None or counts[j] < fallback[0]:
                fallback = (int(counts[j]), f, float(cand[j]))

    chosen = best if best is not None else fallback
    if chosen is None:
        raise ValueError("centers are identical on every feature; no split exists")
    return chosen[1:]


def count_mistakes(points, labels, centers, feature: int, threshold: float) -> int:
    """Number of points routed to the opposite side of their own center.

    `labels` index rows of `centers`; every labeled center is assumed to
    be present at the node under consideration.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    centers = np.asarray(centers, dtype=np.float64)
    p = points[:, feature] <= threshold
    c = centers[labels, feature] <= threshold
    return int(np.sum(p != c))


def nearest_assignment(X, M):
    d2 = ((X.points[:, None, :] - M.centers[None, :, :]) ** 2).sum(axis=2)
    return Assignment(np.argmin(d2, axis=1))


class TestCountMistakes:
    def test_points_at_their_centers(self):
        pts = np.array([[0.0], [4.0]])
        centers = np.array([[0.0], [4.0]])
        assert count_mistakes(pts, [0, 1], centers, 0, 2.0) == 0

    def test_separated_point(self):
        assert count_mistakes([[3.0]], [0], [[0.0], [4.0]], 0, 2.0) == 1

    def test_all_points_equal_centers_any_split(self):
        pts = np.array([[1.0, 5.0], [2.0, 6.0]])
        for theta in (0.0, 1.5, 9.0):
            assert count_mistakes(pts, [0, 1], pts, 0, theta) == 0

    def test_matches_direct_recount_after_split(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, d, k = 15, 3, 3
            pts = rng.normal(size=(n, d))
            centers = rng.normal(size=(k, d))
            labels = rng.integers(0, k, size=n)
            f = int(rng.integers(0, d))
            theta = float(rng.normal())
            got = count_mistakes(pts, labels, centers, f, theta)
            want = sum(
                (pts[i, f] <= theta) != (centers[labels[i], f] <= theta)
                for i in range(n)
            )
            assert got == want


class TestBestMistakeSplit:
    def test_two_separated_1d_clusters(self):
        X = DataMatrix([[0.0], [0.5], [10.0], [10.5]])
        M = CenterSet([[0.25], [10.25]])
        ref = Assignment([0, 0, 1, 1])
        state = ImmNodeState(np.arange(4), np.arange(2))
        f, theta = best_mistake_split(X, M, ref, state)
        assert count_mistakes(X.points, ref.labels, M.centers, f, theta) == 0
        assert f == 0 and 0.5 <= theta < 10.0

    def test_four_point_example(self):
        ref = Assignment([0, 0, 1, 1])
        state = ImmNodeState(np.arange(4), np.arange(2))
        f, theta = best_mistake_split(FOUR_POINTS, TWO_CENTERS, ref, state)
        assert (f, theta) == (0, 0.0)
        assert count_mistakes(FOUR_POINTS.points, ref.labels, TWO_CENTERS.centers, f, theta) == 0

    def test_spread_cluster_still_splits_cleanly(self):
        # points overshoot their center's coordinate; a candidate at a data
        # value (not a center value) is required for zero mistakes
        X = DataMatrix([[0.0], [2.0], [10.0], [12.0]])
        M = CenterSet([[1.0], [11.0]])
        ref = Assignment([0, 0, 1, 1])
        state = ImmNodeState(np.arange(4), np.arange(2))
        f, theta = best_mistake_split(X, M, ref, state)
        assert count_mistakes(X.points, ref.labels, M.centers, f, theta) == 0 and theta == 2.0

    def test_identical_centers_rejected(self):
        X = DataMatrix([[0.0], [1.0]])
        M = CenterSet([[0.5], [0.5]])
        state = ImmNodeState(np.arange(2), np.arange(2))
        with pytest.raises(ValueError):
            best_mistake_split(X, M, Assignment([0, 1]), state)

    def test_two_sided_split_beats_a_clean_one_sided_split(self):
        # feature 0 has one candidate, 0.0: it keeps both points with their
        # centers but sends no point right. Every two-sided candidate of
        # feature 1 separates both points, as many mistakes as the node has
        # points, and must still rank first.
        X = DataMatrix([[0.0, 9.0], [0.0, 1.0]])
        M = CenterSet([[0.0, 0.0], [0.0, 10.0], [10.0, 5.0]])
        ref = Assignment([0, 1])
        state = ImmNodeState(np.arange(2), np.arange(3))
        assert best_mistake_split(X, M, ref, state) == (1, 1.0)
        assert dense_best_mistake_split(X, M, ref, state) == (1, 1.0)
        assert count_mistakes(X.points, ref.labels, M.centers, 1, 1.0) == 2

    def test_node_without_points_separates_centers(self):
        # every candidate is one-sided and has no mistakes: the lowest
        # feature with a spread, at its lowest center coordinate
        X = DataMatrix([[0.0, 0.0], [1.0, 1.0]])
        M = CenterSet([[2.0, 3.0], [2.0, 1.0], [5.0, 4.0]])
        state = ImmNodeState(np.array([], dtype=np.int64), np.array([0, 1]))
        assert best_mistake_split(X, M, Assignment([0, 1]), state) == (1, 1.0)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(31)
        for trial in range(50):
            n = int(rng.integers(4, 31))
            d = int(rng.integers(1, 5))
            k = int(rng.integers(2, 4))
            pts = np.round(rng.normal(size=(n, d)), 3)
            X = DataMatrix(pts)
            centers = rng.normal(size=(k, d))
            M = CenterSet(centers)
            ref = nearest_assignment(X, M)
            state = ImmNodeState(np.arange(n), np.arange(k))
            got = best_mistake_split(X, M, ref, state)
            want = brute_best_split(pts, ref.labels, centers, list(range(k)))
            assert want is not None
            assert got == (want[1], want[2])
            assert count_mistakes(pts, ref.labels, centers, *got) == want[0]


class TestBuildImm:
    def test_k1_single_leaf(self):
        tree = build_imm(FOUR_POINTS, CenterSet([[1.0, 0.5]]), Assignment([0] * 4))
        assert tree.leaf_count == 1
        assert tree.nodes[tree.root].label == 0

    def test_four_point_tree(self):
        ref = Assignment([0, 0, 1, 1])
        tree = build_imm(FOUR_POINTS, TWO_CENTERS, ref)
        root = tree.nodes[tree.root]
        assert (root.feature, root.threshold) == (0, 0.0)
        assert tree.leaf_count == 2
        assert np.array_equal(tree.induced_assignment(FOUR_POINTS).labels, ref.labels)

    def test_duplicate_centers_rejected(self):
        M = CenterSet([[0.0, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            build_imm(FOUR_POINTS, M, Assignment([0, 0, 1, 1]))

    def test_exactly_k_leaves_and_depth_bound(self):
        for seed in range(8):
            k = 4
            X, _ = gen_gaussian_blobs(k, 80, 3, separation=2.0, seed=seed)
            ref = fit_reference(X, KMeansConfig(k=k, n_init=2, seed=seed))
            tree = build_imm(X, ref.centers, ref.assignment)
            assert tree.leaf_count == k
            assert tree.depth() <= k - 1
            labels = sorted(tree.nodes[i].label for i in tree.leaf_ids())
            assert labels == list(range(k))

    def test_leaf_point_sets_partition_ids(self):
        X, _ = gen_gaussian_blobs(5, 100, 4, separation=3.0, seed=11)
        ref = fit_reference(X, KMeansConfig(k=5, n_init=2, seed=11))
        tree = build_imm(X, ref.centers, ref.assignment)
        ids = np.concatenate(list(tree.cells(X).values()))
        assert np.array_equal(np.sort(ids), np.arange(X.n))

    def test_box_separated_data_reproduced_exactly(self):
        # each cluster lives in its own axis-aligned slab, so a zero-mistake
        # split exists at every node and the tree must match the reference
        rng = np.random.default_rng(7)
        k = 4
        blocks, labels = [], []
        for j in range(k):
            blocks.append(rng.uniform(10 * j, 10 * j + 1, size=(12, 3)))
            labels += [j] * 12
        X = DataMatrix(np.vstack(blocks))
        centers = np.array([b.mean(axis=0) for b in blocks])
        ref = Assignment(labels)
        tree = build_imm(X, CenterSet(centers), ref)
        assert np.array_equal(tree.induced_assignment(X).labels, ref.labels)

    def test_codeword_dataset_cost_ratio_is_modest(self):
        # with the true codewords as reference centers, the ratio vs the
        # per-point-unit codeword cost stays below 2.2 * log2(k) (constant
        # frozen from the first verified run of this builder)
        X, codewords, truth = gen_synthetic_ii(5, 400, seed=0)
        tree = build_imm(X, codewords, truth)
        tree_cost = kmeans_cost(X, tree.induced_assignment(X))
        optimal = float(X.n)
        assert tree_cost / optimal <= 2.2 * np.log2(5)


class TestDegenerateNodes:
    def test_identical_points_with_distinct_centers_still_yields_k_leaves(self):
        # no candidate routes points to both sides, so the build falls back
        # to center separation and one leaf ends up with no points
        X = DataMatrix([[0.0, 0.0]] * 3)
        M = CenterSet([[0.0, 0.0], [5.0, 5.0]])
        ref = Assignment([0, 0, 0])
        tree = build_imm(X, M, ref)
        assert tree.leaf_count == 2
        sizes = sorted(ids.size for ids in tree.cells(X).values())
        assert sizes == [0, 3]
        labels = sorted(tree.nodes[i].label for i in tree.leaf_ids())
        assert labels == [0, 1]
        assert np.array_equal(tree.induced_assignment(X).labels, ref.labels)

    def test_expansion_tolerates_an_empty_leaf(self):
        from xkmeans.exkmc import expand

        X = DataMatrix([[0.0, 0.0]] * 3)
        M = CenterSet([[0.0, 0.0], [5.0, 5.0]])
        tree = build_imm(X, M, Assignment([0, 0, 0]))
        result = expand(X, M, tree, 4)
        assert result.stop_reason == "no_split"  # identical points: nothing to split
        assert not result.trace and result.initial_surrogate == pytest.approx(0.0)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 16),
    st.integers(1, 3),
    st.integers(2, 4),
    st.integers(0, 10**6),
)
def test_build_invariants_on_tie_heavy_integer_data(n, d, k, seed):
    # duplicate-heavy grids exercise empty-side fallbacks, centers without
    # surviving points, and candidate windows that collapse to center values
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, d)).astype(float)
    centers = rng.integers(-4, 5, size=(k, d)).astype(float)
    assume(np.unique(centers, axis=0).shape[0] == k)
    X = DataMatrix(pts)
    M = CenterSet(centers)
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    ref = Assignment(np.argmin(d2, axis=1))

    tree = build_imm(X, M, ref)
    assert tree.leaf_count == k
    assert tree.depth() <= k - 1
    assert sorted(tree.nodes[i].label for i in tree.leaf_ids()) == list(range(k))
    ids = np.concatenate(list(tree.cells(X).values()))
    assert np.array_equal(np.sort(ids), np.arange(n))


def fitted(X, k, seed=0):
    ref = fit_reference(X, KMeansConfig(k=k, n_init=1, seed=seed))
    return X, ref.centers, ref.assignment


def blobs_instance(k, seed):
    X, _ = gen_gaussian_blobs(k, 8000, 10, separation=1.5, seed=seed)
    return fitted(X, k, seed)


ORACLE_INSTANCES = {
    **{f"blobs_k4_s{s}": partial(blobs_instance, 4, s) for s in range(4)},
    "blobs_k8": partial(blobs_instance, 8, 0),
    "codeword": lambda: gen_synthetic_ii(5, 400, seed=0),
    "iris": lambda: fitted(load_csv(files("xkmeans").joinpath("data/iris.csv")), 3),
    "outlier": lambda: fitted(gen_synthetic_i(seed=0, n=1000, d=200), 3),
}


@pytest.mark.parametrize("name", list(ORACLE_INSTANCES))
def test_build_imm_json_matches_dense_oracle(name, monkeypatch):
    X, M, ref = ORACLE_INSTANCES[name]()
    fast = build_imm(X, M, ref).to_json()
    monkeypatch.setattr(imm, "best_mistake_split", dense_best_mistake_split)
    assert build_imm(X, M, ref).to_json() == fast


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(1, 3),
    st.integers(2, 5),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_split_matches_dense_oracle_on_tie_heavy_grids(n, d, k, identical, seed):
    # identical points leave no two-sided candidate (the fallback path);
    # small integer grids make thresholds coincide with pair endpoints, so
    # searchsorted's side at ties decides the counts
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, d)).astype(float)
    if identical:
        pts[:] = pts[0]
    centers = rng.integers(-3, 4, size=(k, d)).astype(float)
    assume(np.unique(centers, axis=0).shape[0] == k)
    X, M = DataMatrix(pts), CenterSet(centers)
    ref = Assignment(rng.integers(0, k, size=n))
    point_ids = np.flatnonzero(rng.random(n) < 0.8)
    center_ids = np.sort(rng.choice(k, size=int(rng.integers(2, k + 1)), replace=False))
    state = ImmNodeState(point_ids, center_ids)
    try:
        want = dense_best_mistake_split(X, M, ref, state)
    except ValueError:
        with pytest.raises(ValueError):
            best_mistake_split(X, M, ref, state)
        return
    assert best_mistake_split(X, M, ref, state) == want
