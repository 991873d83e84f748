import numpy as np
import pytest

from xkmeans.baselines import build_gini_tree, build_kdtree
from xkmeans.core import Assignment, CenterSet, DataMatrix, accuracy, surrogate_cost
from xkmeans.kmeans import KMeansConfig, fit_reference
from xkmeans.synth import gen_gaussian_blobs

FOUR_POINTS = DataMatrix([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
TWO_CENTERS = CenterSet([[0.0, 0.5], [4.0, 0.5]])


class TestKdTree:
    def test_single_leaf_gets_best_center(self):
        X = DataMatrix([[3.9, 0.4], [4.1, 0.6]])
        tree = build_kdtree(X, TWO_CENTERS, max_leaves=1)
        assert tree.leaf_count == 1
        assert tree.induced_assignment().labels.tolist() == [1, 1]

    def test_four_point_example(self):
        tree = build_kdtree(FOUR_POINTS, TWO_CENTERS, max_leaves=2)
        root = tree.node(tree.root)
        # feature 0 has variance 4 vs 0.25; lower median of [0,0,4,4] is 0
        assert (root.feature, root.threshold) == (0, 0.0)
        assert tree.induced_assignment().labels.tolist() == [0, 0, 1, 1]

    def test_power_of_two_points_bisect_to_singletons(self):
        vals = np.arange(8.0).reshape(-1, 1)
        X = DataMatrix(vals)
        M = CenterSet(vals)
        tree = build_kdtree(X, M, max_leaves=8)
        assert tree.leaf_count == 8
        assert tree.depth() == 3
        assert tree.induced_assignment().labels.tolist() == list(range(8))

    def test_stops_when_no_distinct_points(self):
        X = DataMatrix([[1.0, 1.0]] * 6)
        tree = build_kdtree(X, TWO_CENTERS, max_leaves=4)
        assert tree.leaf_count == 1

    def test_heavy_upper_tie_still_splits(self):
        X = DataMatrix([[1.0], [5.0], [5.0]])
        tree = build_kdtree(X, CenterSet([[1.0], [5.0]]), max_leaves=2)
        assert tree.leaf_count == 2
        assert tree.induced_assignment().labels.tolist() == [0, 1, 1]

    def test_leaf_labels_are_surrogate_optimal(self):
        # swapping any single leaf's label to another center never lowers
        # the total fixed-center cost
        for seed in range(5):
            X, _ = gen_gaussian_blobs(3, 60, 4, separation=3.0, seed=seed)
            ref = fit_reference(X, KMeansConfig(k=3, n_init=2, seed=seed))
            tree = build_kdtree(X, ref.centers, max_leaves=6)
            cells = [tree.node(i).point_ids for i in tree.leaf_ids()]
            base = surrogate_cost(X, cells, ref.centers)
            for leaf in tree.leaf_ids():
                ids = tree.node(leaf).point_ids
                chosen = tree.node(leaf).label
                chosen_cost = ((X.points[ids] - ref.centers.centers[chosen]) ** 2).sum()
                for other in range(ref.centers.k):
                    other_cost = ((X.points[ids] - ref.centers.centers[other]) ** 2).sum()
                    assert chosen_cost <= other_cost + 1e-9 * max(1.0, base)


class TestGiniTree:
    def test_four_point_example(self):
        ref = Assignment([0, 0, 1, 1])
        tree = build_gini_tree(FOUR_POINTS, ref, max_leaves=2)
        root = tree.node(tree.root)
        assert (root.feature, root.threshold) == (0, 0.0)
        assert accuracy(ref, tree.induced_assignment()) == 1.0

    def test_single_feature_separable_labels(self):
        X = DataMatrix(np.arange(9.0).reshape(-1, 1))
        ref = Assignment([0, 0, 0, 1, 1, 1, 2, 2, 2])
        tree = build_gini_tree(X, ref, max_leaves=3)
        assert accuracy(ref, tree.induced_assignment()) == 1.0

    def test_purity_reproduces_reference_on_distinct_points(self):
        for seed in range(5):
            X, _ = gen_gaussian_blobs(3, 50, 3, separation=2.0, seed=seed)
            ref = fit_reference(X, KMeansConfig(k=3, n_init=2, seed=seed))
            tree = build_gini_tree(X, ref.assignment, max_leaves=X.n)
            assert accuracy(ref.assignment, tree.induced_assignment()) == 1.0

    def test_pure_leaves_stop_growth(self):
        X = DataMatrix([[0.0], [1.0], [10.0], [11.0]])
        ref = Assignment([0, 0, 1, 1])
        tree = build_gini_tree(X, ref, max_leaves=4)
        assert tree.leaf_count == 2  # both children pure after one split

    def test_majority_tie_takes_lowest_label(self):
        X = DataMatrix([[0.0], [0.0]])
        ref = Assignment([1, 0])
        tree = build_gini_tree(X, ref, max_leaves=2)
        assert tree.node(tree.root).label == 0

    def test_labels_are_reference_indices(self):
        X, _ = gen_gaussian_blobs(4, 40, 2, separation=5.0, seed=3)
        ref = fit_reference(X, KMeansConfig(k=4, n_init=2, seed=3))
        tree = build_gini_tree(X, ref.assignment, max_leaves=4)
        assert set(np.unique(tree.induced_assignment().labels)) <= set(range(4))


def test_invalid_leaf_budgets_rejected():
    with pytest.raises(ValueError):
        build_kdtree(FOUR_POINTS, TWO_CENTERS, max_leaves=0)
    with pytest.raises(ValueError):
        build_gini_tree(FOUR_POINTS, Assignment([0, 0, 1, 1]), max_leaves=0)
