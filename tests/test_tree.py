import json

import numpy as np
import pytest

from xkmeans.core import DataMatrix
from xkmeans.synth import gen_gaussian_blobs
from xkmeans.tree import ThresholdTree

FOUR_POINTS = DataMatrix([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])


def fig_tree():
    # root: y <= -2.5; right child: x <= 0.5; leaves labeled 0, 1, 2
    X = DataMatrix([[0.0, -3.0], [0.0, 0.0], [1.0, 0.0]])
    tree = ThresholdTree(X)
    _, right = tree.split_leaf(0, feature=1, threshold=-2.5, left_label=0, right_label=None)
    tree.split_leaf(right, feature=0, threshold=0.5, left_label=1, right_label=2)
    return tree, X


class TestRoute:
    def test_single_leaf(self):
        tree = ThresholdTree(FOUR_POINTS, root_label=0)
        for x in [(0, 0), (100, -5)]:
            assert tree.route(x) == 0

    def test_boundary_goes_left(self):
        tree = ThresholdTree(FOUR_POINTS)
        left, right = tree.split_leaf(0, 0, 0.5, 0, 1)
        assert tree.route((0.5, 9.0)) == left
        assert tree.route((0.500001, 9.0)) == right


class TestInducedAssignment:
    def test_constant_labels(self):
        tree = ThresholdTree(FOUR_POINTS)
        l, r = tree.split_leaf(0, 0, 0.0, 0, 0)
        got = tree.induced_assignment()
        assert got.labels.tolist() == [0, 0, 0, 0]

    def test_two_threshold_tree(self):
        tree, X = fig_tree()
        assert tree.induced_assignment(X).labels.tolist() == [0, 1, 2]

    def test_four_point_split(self):
        tree = ThresholdTree(FOUR_POINTS)
        tree.split_leaf(0, 0, 0.0, 0, 1)
        assert tree.induced_assignment().labels.tolist() == [0, 0, 1, 1]

    def test_unlabeled_leaf_rejected(self):
        tree = ThresholdTree(FOUR_POINTS)
        with pytest.raises(ValueError):
            tree.induced_assignment()


class TestSplitLeaf:
    def test_four_point_partition(self):
        tree = ThresholdTree(FOUR_POINTS)
        left, right = tree.split_leaf(0, 0, 0.0, 0, 1)
        assert tree.node(left).point_ids.tolist() == [0, 1]
        assert tree.node(right).point_ids.tolist() == [2, 3]
        assert tree.node(left).label == 0 and tree.node(right).label == 1

    def test_two_point_midpoint(self):
        X = DataMatrix([[0.0], [2.0]])
        tree = ThresholdTree(X)
        l, r = tree.split_leaf(0, 0, 1.0, 0, 1)
        assert tree.node(l).point_ids.tolist() == [0]
        assert tree.node(r).point_ids.tolist() == [1]

    def test_one_sided_split_rejected(self):
        tree = ThresholdTree(FOUR_POINTS)
        with pytest.raises(ValueError):
            tree.split_leaf(0, 0, 4.0, 0, 1)  # threshold at the max value

    def test_leaf_count_tracks_splits(self):
        rng = np.random.default_rng(0)
        X, _ = gen_gaussian_blobs(2, 64, 3, separation=4.0, seed=0)
        tree = ThresholdTree(X)
        splits = 0
        for _ in range(10):
            candidates = [
                i
                for i in tree.leaf_ids()
                if np.unique(X.points[tree.node(i).point_ids, 0]).size > 1
            ]
            if not candidates:
                break
            leaf = candidates[0]
            vals = X.points[tree.node(leaf).point_ids, 0]
            theta = np.median(vals)
            if theta >= vals.max():
                theta = vals.min()
            tree.split_leaf(leaf, 0, theta, 0, 1)
            splits += 1
        assert tree.leaf_count == 1 + splits

    def test_leaves_stay_disjoint_and_complete(self):
        rng = np.random.default_rng(5)
        X, _ = gen_gaussian_blobs(3, 50, 4, separation=3.0, seed=5)
        tree = ThresholdTree(X)
        for _ in range(8):
            leaf = max(tree.leaf_ids(), key=lambda i: tree.node(i).point_ids.size)
            ids = tree.node(leaf).point_ids
            f = int(rng.integers(0, 4))
            vals = X.points[ids, f]
            if np.unique(vals).size < 2:
                continue
            theta = float(np.sort(vals)[(vals.size - 1) // 2])
            if theta >= vals.max():
                theta = float(vals.min())
            tree.split_leaf(leaf, f, theta, 0, 0)
        all_ids = np.concatenate([tree.node(i).point_ids for i in tree.leaf_ids()])
        assert np.array_equal(np.sort(all_ids), np.arange(X.n))


class TestExport:
    def test_text_single_leaf(self):
        tree = ThresholdTree(FOUR_POINTS, root_label=0)
        assert tree.export_text() == "label 0\n"

    def test_text_four_point_tree(self):
        tree = ThresholdTree(FOUR_POINTS)
        tree.split_leaf(0, 0, 0.0, 0, 1)
        assert tree.export_text() == "feature 0 <= 0.0\n  label 0\n  label 1\n"

    def test_text_nested_tree(self):
        tree, _ = fig_tree()
        expected = (
            "feature 1 <= -2.5\n"
            "  label 0\n"
            "  feature 0 <= 0.5\n"
            "    label 1\n"
            "    label 2\n"
        )
        assert tree.export_text() == expected

    def test_dot_contains_all_nodes(self):
        tree, _ = fig_tree()
        dot = tree.export_dot()
        assert dot.startswith("digraph tree {")
        assert 'n0 [label="x1 <= -2.5"];' in dot
        assert dot.count("->") == 4

    def test_json_round_trip_preserves_routing(self):
        X, _ = gen_gaussian_blobs(3, 80, 3, separation=4.0, seed=9)
        tree = ThresholdTree(X)
        rng = np.random.default_rng(9)
        for _ in range(6):
            leaf = max(tree.leaf_ids(), key=lambda i: tree.node(i).point_ids.size)
            ids = tree.node(leaf).point_ids
            f = int(rng.integers(0, 3))
            vals = X.points[ids, f]
            if np.unique(vals).size < 2:
                continue
            theta = float(np.sort(vals)[(vals.size - 1) // 2])
            if theta >= vals.max():
                theta = float(vals.min())
            tree.split_leaf(leaf, f, theta, 0, 0)
        for i in tree.leaf_ids():
            tree.set_leaf_label(i, i % 3)

        restored = ThresholdTree.from_json(tree.to_json())
        a = tree.induced_assignment(X)
        b = restored.induced_assignment(X)
        assert np.array_equal(a.labels, b.labels)
        for row in X.points[:10]:
            assert tree.route(row) == restored.route(row)

    def test_json_schema_field_order(self):
        tree = ThresholdTree(FOUR_POINTS)
        tree.split_leaf(0, 0, 0.0, 0, 1)
        text = tree.to_json()
        assert text == (
            '{"nodes": [{"feature": 0, "threshold": 0.0, "left": 1, "right": 2},'
            ' {"label": 0}, {"label": 1}]}'
        )


class TestPrefix:
    def grown_tree(self):
        # every split keeps its parent's label on the left child
        tree = ThresholdTree(FOUR_POINTS, root_label=0)
        _, right = tree.split_leaf(0, 0, 0.0, 0, 1)
        tree.split_leaf(right, 1, 0.0, 1, 2)
        return tree

    def test_budget_at_or_above_leaf_count_keeps_whole_tree(self):
        tree = self.grown_tree()
        for leaves in (3, 4, 100):
            cut = tree.prefix(leaves)
            assert cut.to_json() == tree.to_json()
            assert cut.export_dot() == tree.export_dot()

    def test_cut_split_becomes_leaf_with_pre_split_label(self):
        tree = self.grown_tree()
        two = ThresholdTree(FOUR_POINTS, root_label=0)
        two.split_leaf(0, 0, 0.0, 0, 1)
        assert tree.prefix(2).to_json() == two.to_json()
        assert tree.prefix(2).induced_assignment(FOUR_POINTS).labels.tolist() == [0, 0, 1, 1]
        assert tree.prefix(1).to_json() == ThresholdTree(FOUR_POINTS, root_label=0).to_json()

    def test_source_tree_is_left_unmodified(self):
        tree = self.grown_tree()
        before = (tree.to_json(), [tree.node(i).point_ids.tolist() for i in tree.leaf_ids()])
        cut = tree.prefix(2)
        cut.set_leaf_label(2, 2)
        after = (tree.to_json(), [tree.node(i).point_ids.tolist() for i in tree.leaf_ids()])
        assert before == after
        assert tree.node(2).feature == 1 and tree.node(2).label == 1

    def test_prefix_carries_no_cell_membership(self):
        cut = self.grown_tree().prefix(2)
        assert all(node.point_ids is None for node in cut.nodes)
        with pytest.raises(ValueError):
            cut.split_leaf(1, 0, 0.0, 0, 1)

    def test_zero_leaves_rejected(self):
        with pytest.raises(ValueError):
            self.grown_tree().prefix(0)


def test_from_json_rejects_empty_node_list():
    with pytest.raises(ValueError):
        ThresholdTree.from_json('{"nodes": []}')


SPLIT = {"feature": 0, "threshold": 0.5, "left": 1, "right": 2}
LEAVES = [{"label": 0}, {"label": 1}]


@pytest.mark.parametrize(
    "nodes",
    [
        [{**SPLIT, "right": 3}, *LEAVES],
        [{k: v for k, v in SPLIT.items() if k != "left"}, *LEAVES],
        [{**SPLIT, "left": 0}, *LEAVES],
        [SPLIT, *LEAVES, {"label": 2}],
        [SPLIT, {"label": 0.5}, {"label": 1}],
        [SPLIT, {"label": "a"}, {"label": 1}],
        [{**SPLIT, "threshold": float("nan")}, *LEAVES],
        [{**SPLIT, "threshold": True}, *LEAVES],
    ],
    ids=["child_out_of_range", "missing_left", "cycle", "unreachable",
         "float_label", "string_label", "nan_threshold", "bool_threshold"],
)
def test_from_json_rejects_malformed_trees(nodes):
    with pytest.raises(ValueError):
        ThresholdTree.from_json(json.dumps({"nodes": nodes}))


def test_deep_chain_walks_without_recursion():
    # k' = n on sorted 1-D data: every split peels off the lowest point
    n = 3000
    tree = ThresholdTree(DataMatrix(np.arange(float(n))[:, None]))
    leaf = tree.root
    for i in range(n - 1):
        _, leaf = tree.split_leaf(leaf, 0, float(i), i, None)
    tree.set_leaf_label(leaf, n - 1)
    assert tree.leaf_count == n
    assert tree.depth() == n - 1
    lines = []
    for i in range(n - 1):
        lines += ["  " * i + f"feature 0 <= {float(i)!r}", "  " * (i + 1) + f"label {i}"]
    lines.append("  " * (n - 1) + f"label {n - 1}")
    assert tree.export_text() == "\n".join(lines) + "\n"
    assert ThresholdTree.from_json(tree.to_json()).to_json() == tree.to_json()
