import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xkmeans.baselines import _gini_split, build_gini_tree, build_kdtree
from xkmeans.core import Assignment, CenterSet, DataMatrix, accuracy, best_center, cell_stats, surrogate_cost
from xkmeans.kmeans import KMeansConfig, fit_reference
from xkmeans.synth import gen_gaussian_blobs
from xkmeans.tree import ThresholdTree

FOUR_POINTS = DataMatrix([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
TWO_CENTERS = CenterSet([[0.0, 0.5], [4.0, 0.5]])


class TestKdTree:
    def test_single_leaf_gets_best_center(self):
        X = DataMatrix([[3.9, 0.4], [4.1, 0.6]])
        tree = build_kdtree(X, TWO_CENTERS, max_leaves=1)
        assert tree.leaf_count == 1
        assert tree.induced_assignment(X).labels.tolist() == [1, 1]

    def test_four_point_example(self):
        tree = build_kdtree(FOUR_POINTS, TWO_CENTERS, max_leaves=2)
        root = tree.nodes[tree.root]
        # feature 0 has variance 4 vs 0.25; lower median of [0,0,4,4] is 0
        assert (root.feature, root.threshold) == (0, 0.0)
        assert tree.induced_assignment(FOUR_POINTS).labels.tolist() == [0, 0, 1, 1]

    def test_power_of_two_points_bisect_to_singletons(self):
        vals = np.arange(8.0).reshape(-1, 1)
        X = DataMatrix(vals)
        M = CenterSet(vals)
        tree = build_kdtree(X, M, max_leaves=8)
        assert tree.leaf_count == 8
        assert tree.depth() == 3
        assert tree.induced_assignment(X).labels.tolist() == list(range(8))

    def test_stops_when_no_distinct_points(self):
        X = DataMatrix([[1.0, 1.0]] * 6)
        tree = build_kdtree(X, TWO_CENTERS, max_leaves=4)
        assert tree.leaf_count == 1

    def test_heavy_upper_tie_still_splits(self):
        X = DataMatrix([[1.0], [5.0], [5.0]])
        tree = build_kdtree(X, CenterSet([[1.0], [5.0]]), max_leaves=2)
        assert tree.leaf_count == 2
        assert tree.induced_assignment(X).labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize(
        "points, max_leaves",
        [
            ([[0.1, 0.0], [0.1, 0.0], [0.1, 1e-17]], 2),
            (np.column_stack([np.full(999, 123456.789), np.random.default_rng(0).integers(0, 2, 999) * 1e-9]), 4),
        ],
        ids=["three_rows", "offset_column"],
    )
    def test_constant_feature_is_never_split(self, points, max_leaves):
        # the constant column's variance is round-off, here larger than the
        # real spread of the other column: splitting it had no cut to take
        X = DataMatrix(points)
        tree = build_kdtree(X, CenterSet(X.points[:2]), max_leaves)
        inner = [node for node in tree.nodes if not node.is_leaf]
        assert inner and all(node.feature == 1 for node in inner)
        assert all(ids.size for ids in tree.cells(X).values())

    def test_leaf_labels_are_surrogate_optimal(self):
        # swapping any single leaf's label to another center never lowers
        # the total fixed-center cost
        for seed in range(5):
            X, _ = gen_gaussian_blobs(3, 60, 4, separation=3.0, seed=seed)
            ref = fit_reference(X, KMeansConfig(k=3, n_init=2, seed=seed))
            tree = build_kdtree(X, ref.centers, max_leaves=6)
            cells = tree.cells(X)
            base = surrogate_cost(X, list(cells.values()), ref.centers)
            for leaf, ids in cells.items():
                chosen = tree.nodes[leaf].label
                chosen_cost = ((X.points[ids] - ref.centers.centers[chosen]) ** 2).sum()
                for other in range(ref.centers.k):
                    other_cost = ((X.points[ids] - ref.centers.centers[other]) ** 2).sum()
                    assert chosen_cost <= other_cost + 1e-9 * max(1.0, base)


def naive_kdtree(X, M, max_leaves):
    """Reference for `build_kdtree`, with no heap and no cached state: at
    every step route X through the tree afresh and split the largest cell
    holding two distinct points (ties: lowest leaf id) on its highest-`np.var`
    feature among those with a spread, at the lower median, stepped down to
    the largest value below the max when the two are equal. Each new leaf is
    labeled `best_center(cell_stats(cell), M)`."""
    tree = ThresholdTree()
    tree.set_leaf_label(tree.root, best_center(cell_stats(X.points), M)[0])
    while tree.leaf_count < max_leaves:
        cells = tree.cells(X)
        sizes = {leaf: ids.size for leaf, ids in cells.items() if np.unique(X.points[ids], axis=0).shape[0] > 1}
        if not sizes:
            break
        leaf = min(sizes, key=lambda leaf: (-sizes[leaf], leaf))
        pts = X.points[cells[leaf]]
        spread = pts.max(axis=0) > pts.min(axis=0)
        feature = int(np.argmax(np.where(spread, pts.var(axis=0), -np.inf)))
        vals = np.sort(pts[:, feature])
        theta = vals[(vals.size - 1) // 2]
        if theta == vals[-1]:
            theta = vals[vals < vals[-1]].max()
        children = tree.split_leaf(leaf, feature, float(theta))
        cells = tree.cells(X)
        for child in children:
            tree.set_leaf_label(child, best_center(cell_stats(X.points[cells[child]]), M)[0])
    return tree


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 24),
    st.integers(1, 3),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.0, 1e6]),
    st.integers(0, 10**6),
    st.data(),
)
def test_kdtree_matches_naive_whole_build(n, d, k, grid, duplicates, offset, seed, data):
    # integer grids tie variances, medians and cell sizes exactly; repeated
    # rows pull the lower median onto the max and leave cells unsplittable
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, d)).astype(float) if grid else rng.normal(size=(n, d))
    if duplicates:
        pts = pts[rng.integers(0, max(1, n // 3), size=n)]
    X = DataMatrix(pts + offset)
    M = CenterSet(rng.normal(size=(k, d)) + offset)
    max_leaves = data.draw(st.integers(1, n))
    assert build_kdtree(X, M, max_leaves).to_json() == naive_kdtree(X, M, max_leaves).to_json()


class TestGiniTree:
    def test_four_point_example(self):
        ref = Assignment([0, 0, 1, 1])
        tree = build_gini_tree(FOUR_POINTS, ref, max_leaves=2)
        root = tree.nodes[tree.root]
        assert (root.feature, root.threshold) == (0, 0.0)
        assert accuracy(ref, tree.induced_assignment(FOUR_POINTS)) == 1.0

    def test_single_feature_separable_labels(self):
        X = DataMatrix(np.arange(9.0).reshape(-1, 1))
        ref = Assignment([0, 0, 0, 1, 1, 1, 2, 2, 2])
        tree = build_gini_tree(X, ref, max_leaves=3)
        assert accuracy(ref, tree.induced_assignment(X)) == 1.0

    def test_purity_reproduces_reference_on_distinct_points(self):
        for seed in range(5):
            X, _ = gen_gaussian_blobs(3, 50, 3, separation=2.0, seed=seed)
            ref = fit_reference(X, KMeansConfig(k=3, n_init=2, seed=seed))
            tree = build_gini_tree(X, ref.assignment, max_leaves=X.n)
            assert accuracy(ref.assignment, tree.induced_assignment(X)) == 1.0

    def test_pure_leaves_stop_growth(self):
        X = DataMatrix([[0.0], [1.0], [10.0], [11.0]])
        ref = Assignment([0, 0, 1, 1])
        tree = build_gini_tree(X, ref, max_leaves=4)
        assert tree.leaf_count == 2  # both children pure after one split

    def test_majority_tie_takes_lowest_label(self):
        X = DataMatrix([[0.0], [0.0]])
        ref = Assignment([1, 0])
        tree = build_gini_tree(X, ref, max_leaves=2)
        assert tree.nodes[tree.root].label == 0

    def test_labels_are_reference_indices(self):
        X, _ = gen_gaussian_blobs(4, 40, 2, separation=5.0, seed=3)
        ref = fit_reference(X, KMeansConfig(k=4, n_init=2, seed=3))
        tree = build_gini_tree(X, ref.assignment, max_leaves=4)
        assert set(np.unique(tree.induced_assignment(X).labels)) <= set(range(4))


def loop_gini_split(points, labels, n_labels):
    """Reference for `_gini_split`: one sort and one impurity scan per
    feature; a strictly larger decrease replaces the best, so ties go to
    the lowest (feature, threshold)."""
    m, d = points.shape
    total_counts = np.bincount(labels, minlength=n_labels).astype(np.float64)
    if (total_counts > 0).sum() <= 1:
        return None
    p = total_counts / m
    parent = m * (1.0 - float((p * p).sum()))

    best = None  # (decrease, feature, theta)
    one_hot = np.zeros((m, n_labels))
    one_hot[np.arange(m), labels] = 1.0
    for f in range(d):
        order = np.argsort(points[:, f], kind="stable")
        sv = points[order, f]
        cuts = np.flatnonzero(sv[:-1] < sv[1:])
        if cuts.size == 0:
            continue
        cum = np.cumsum(one_hot[order], axis=0)
        left = cum[cuts]
        n_left = (cuts + 1).astype(np.float64)
        right = total_counts - left
        n_right = m - n_left
        g_left = n_left - (left * left).sum(axis=1) / n_left
        g_right = n_right - (right * right).sum(axis=1) / n_right
        decrease = parent - g_left - g_right
        j = int(np.argmax(decrease))  # first max: lowest threshold
        if best is None or decrease[j] > best[0]:
            best = (float(decrease[j]), f, float(sv[cuts[j]]))
    return best


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([1, 63, 64, 65, 129]),  # one column, and either side of a scan block
    st.integers(1, 40),
    st.integers(1, 5),
    st.integers(0, 10**6),
)
def test_gini_split_matches_per_feature_loop_on_tie_heavy_grids(d, n, n_labels, seed):
    # small integer grids tie many thresholds and features exactly
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, d)).astype(float)
    labels = rng.integers(0, n_labels, size=n)
    assert _gini_split(pts, labels, np.bincount(labels, minlength=n_labels)) == loop_gini_split(pts, labels, n_labels)


def naive_gini_tree(X, labels, max_leaves):
    """Reference for `build_gini_tree`, with no heap and no cached state: at
    every step route X through the tree afresh and split the leaf whose
    `loop_gini_split` decrease is largest (ties: lowest leaf id). Each leaf
    is labeled with its majority reference label, the lowest on ties."""
    n_labels = int(labels.max()) + 1

    def majority(ids):
        return int(np.argmax(np.bincount(labels[ids], minlength=n_labels)))

    tree = ThresholdTree()
    tree.set_leaf_label(tree.root, majority(np.arange(X.n)))
    while tree.leaf_count < max_leaves:
        cells = tree.cells(X)
        splits = {leaf: loop_gini_split(X.points[ids], labels[ids], n_labels) for leaf, ids in cells.items()}
        splits = {leaf: split for leaf, split in splits.items() if split is not None}
        if not splits:
            break
        leaf = min(splits, key=lambda leaf: (-splits[leaf][0], leaf))
        _, feature, theta = splits[leaf]
        children = tree.split_leaf(leaf, feature, theta)
        cells = tree.cells(X)
        for child in children:
            tree.set_leaf_label(child, majority(cells[child]))
    return tree


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 24),
    st.integers(1, 3),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.0, 1e6]),
    st.integers(0, 10**6),
    st.data(),
)
def test_gini_tree_matches_naive_whole_build(n, d, n_labels, grid, duplicates, offset, seed, data):
    # integer grids tie decreases across features and leaves exactly; repeated
    # rows with mixed labels leave impure cells that cannot split
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, d)).astype(float) if grid else rng.normal(size=(n, d))
    if duplicates:
        pts = pts[rng.integers(0, max(1, n // 3), size=n)]
    X = DataMatrix(pts + offset)
    labels = rng.integers(0, n_labels, size=n)
    max_leaves = data.draw(st.integers(1, n))
    got = build_gini_tree(X, Assignment(labels), max_leaves)
    assert got.to_json() == naive_gini_tree(X, labels, max_leaves).to_json()


@pytest.mark.parametrize(
    "points, labels",
    [
        (np.arange(12.0).reshape(6, 2), [2, 2, 2, 2, 2, 2]),  # pure
        (np.array([[1.0, -1.0]]), [0]),  # one point
        (np.ones((5, 65)), [0, 1, 2, 0, 1]),  # all identical, across two blocks
    ],
    ids=["pure", "single_point", "all_identical"],
)
def test_gini_split_none_on_cells_that_cannot_split(points, labels):
    labels = np.array(labels)
    assert loop_gini_split(points, labels, 3) is None
    assert _gini_split(points, labels, np.bincount(labels, minlength=3)) is None


def test_invalid_leaf_budgets_rejected():
    with pytest.raises(ValueError):
        build_kdtree(FOUR_POINTS, TWO_CENTERS, max_leaves=0)
    with pytest.raises(ValueError):
        build_gini_tree(FOUR_POINTS, Assignment([0, 0, 1, 1]), max_leaves=0)
