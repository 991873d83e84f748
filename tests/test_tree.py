import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xkmeans.baselines import build_gini_tree, build_kdtree
from xkmeans.core import Assignment, CenterSet, DataMatrix
from xkmeans.exkmc import expand
from xkmeans.synth import gen_gaussian_blobs
from xkmeans.tree import ThresholdTree, grow

FOUR_POINTS = DataMatrix([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])


def labeled(label):
    """A lone root labeled `label`."""
    tree = ThresholdTree()
    tree.set_leaf_label(tree.root, label)
    return tree


def split(tree, leaf, feature, threshold, *labels):
    """Split a leaf, then label its children with `labels` (None: unlabeled)."""
    children = tree.split_leaf(leaf, feature, threshold)
    for child, label in zip(children, labels):
        if label is not None:
            tree.set_leaf_label(child, label)
    return children


def fig_tree():
    # root: y <= -2.5; right child: x <= 0.5; leaves labeled 0, 1, 2
    X = DataMatrix([[0.0, -3.0], [0.0, 0.0], [1.0, 0.0]])
    tree = ThresholdTree()
    _, right = split(tree, 0, 1, -2.5, 0, None)
    split(tree, right, 0, 0.5, 1, 2)
    return tree, X


class TestRoute:
    def test_single_leaf(self):
        tree = labeled(0)
        cells = tree.cells(DataMatrix([(0, 0), (100, -5)]))
        assert {leaf: ids.tolist() for leaf, ids in cells.items()} == {0: [0, 1]}

    def test_boundary_goes_left(self):
        tree = ThresholdTree()
        left, right = split(tree, 0, 0, 0.5, 0, 1)
        cells = tree.cells(DataMatrix([(0.5, 9.0), (0.500001, 9.0)]))
        assert cells[left].tolist() == [0]
        assert cells[right].tolist() == [1]
        assert tree.decision_path((0.5, 9.0)) == ([(0, 0.5, "left")], left)
        assert tree.decision_path((0.500001, 9.0)) == ([(0, 0.5, "right")], right)


class TestInducedAssignment:
    def test_constant_labels(self):
        tree = ThresholdTree()
        l, r = split(tree, 0, 0, 0.0, 0, 0)
        got = tree.induced_assignment(FOUR_POINTS)
        assert got.labels.tolist() == [0, 0, 0, 0]

    def test_two_threshold_tree(self):
        tree, X = fig_tree()
        assert tree.induced_assignment(X).labels.tolist() == [0, 1, 2]

    def test_four_point_split(self):
        tree = ThresholdTree()
        split(tree, 0, 0, 0.0, 0, 1)
        assert tree.induced_assignment(FOUR_POINTS).labels.tolist() == [0, 0, 1, 1]

    def test_unlabeled_leaf_rejected(self):
        tree = ThresholdTree()
        with pytest.raises(ValueError):
            tree.induced_assignment(FOUR_POINTS)


class TestSplitLeaf:
    def test_children_are_unlabeled_and_the_inner_node_keeps_its_label(self):
        tree = labeled(1)
        left, right = tree.split_leaf(0, 0, 0.0)
        assert tree.nodes[left].label is None and tree.nodes[right].label is None
        assert tree.nodes[0].label == 1 and not tree.nodes[0].is_leaf
        with pytest.raises(ValueError, match="unlabeled"):
            tree.induced_assignment(FOUR_POINTS)

    def test_four_point_partition(self):
        tree = ThresholdTree()
        left, right = split(tree, 0, 0, 0.0, 0, 1)
        cells = tree.cells(FOUR_POINTS)
        assert cells[left].tolist() == [0, 1]
        assert cells[right].tolist() == [2, 3]
        assert tree.nodes[left].label == 0 and tree.nodes[right].label == 1

    def test_two_point_midpoint(self):
        X = DataMatrix([[0.0], [2.0]])
        tree = ThresholdTree()
        l, r = tree.split_leaf(0, 0, 1.0)
        cells = tree.cells(X)
        assert cells[l].tolist() == [0]
        assert cells[r].tolist() == [1]

    def test_leaf_count_tracks_splits(self):
        rng = np.random.default_rng(0)
        X, _ = gen_gaussian_blobs(2, 64, 3, separation=4.0, seed=0)
        tree = ThresholdTree()
        splits = 0
        for _ in range(10):
            cells = tree.cells(X)
            candidates = [i for i in cells if np.unique(X.points[cells[i], 0]).size > 1]
            if not candidates:
                break
            leaf = candidates[0]
            vals = X.points[cells[leaf], 0]
            theta = np.median(vals)
            if theta >= vals.max():
                theta = vals.min()
            tree.split_leaf(leaf, 0, theta)
            splits += 1
        assert tree.leaf_count == 1 + splits
        # the O(1) count holds for cut and loaded trees as well
        trees = [tree, tree.prefix(4), tree.prefix(1), ThresholdTree.from_json(tree.to_json())]
        for t in trees:
            assert t.leaf_count == sum(node.is_leaf for node in t.nodes)
        assert [t.leaf_count for t in trees] == [1 + splits, 4, 1, 1 + splits]

    def test_leaves_stay_disjoint_and_complete(self):
        rng = np.random.default_rng(5)
        X, _ = gen_gaussian_blobs(3, 50, 4, separation=3.0, seed=5)
        tree = ThresholdTree()
        for _ in range(8):
            cells = tree.cells(X)
            leaf = max(cells, key=lambda i: cells[i].size)
            ids = cells[leaf]
            f = int(rng.integers(0, 4))
            vals = X.points[ids, f]
            if np.unique(vals).size < 2:
                continue
            theta = float(np.sort(vals)[(vals.size - 1) // 2])
            if theta >= vals.max():
                theta = float(vals.min())
            tree.split_leaf(leaf, f, theta)
        all_ids = np.concatenate(list(tree.cells(X).values()))
        assert np.array_equal(np.sort(all_ids), np.arange(X.n))


class TestExport:
    def test_text_single_leaf(self):
        tree = labeled(0)
        assert tree.export_text() == "label 0\n"

    def test_text_four_point_tree(self):
        tree = ThresholdTree()
        split(tree, 0, 0, 0.0, 0, 1)
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
        tree = ThresholdTree()
        rng = np.random.default_rng(9)
        for _ in range(6):
            cells = tree.cells(X)
            leaf = max(cells, key=lambda i: cells[i].size)
            ids = cells[leaf]
            f = int(rng.integers(0, 3))
            vals = X.points[ids, f]
            if np.unique(vals).size < 2:
                continue
            theta = float(np.sort(vals)[(vals.size - 1) // 2])
            if theta >= vals.max():
                theta = float(vals.min())
            tree.split_leaf(leaf, f, theta)
        for i in tree.leaf_ids():
            tree.set_leaf_label(i, i % 3)

        restored = ThresholdTree.from_json(tree.to_json())
        a = tree.induced_assignment(X)
        b = restored.induced_assignment(X)
        assert np.array_equal(a.labels, b.labels)
        for row in X.points[:10]:
            assert tree.decision_path(row) == restored.decision_path(row)

    def test_json_schema_field_order(self):
        tree = ThresholdTree()
        split(tree, 0, 0, 0.0, 0, 1)
        text = tree.to_json()
        assert text == (
            '{"nodes": [{"feature": 0, "threshold": 0.0, "left": 1, "right": 2},'
            ' {"label": 0}, {"label": 1}]}'
        )


@pytest.mark.parametrize(
    "max_leaves, splits, searched",
    [
        (1, [], []),  # the budget stops growth before any split
        (3, [0, 1], [0, 1, 2]),  # leaves 3 and 4 come at the budget
        # stops once no cell can split: 8 singletons
        (100, [0, 1, 2, 3, 4, 5, 6], list(range(15))),
    ],
    ids=["budget_one", "budget_three", "until_unsplittable"],
)
def test_grow_splits_best_first_and_visits_each_leaf_once(max_leaves, splits, searched):
    X = DataMatrix(np.arange(8.0)[:, None])
    tree = ThresholdTree()
    visited, searches = [], []

    def propose(leaf, ids, points, splittable):
        visited.append(leaf)
        if ids.size == X.n:
            assert points is X.points  # the whole dataset is never copied
        else:
            assert np.array_equal(points, X.points[ids])
        if not splittable:
            return 0, None
        searches.append(leaf)
        if ids.size < 2:
            return 0, None
        # equal priorities everywhere: the lowest leaf id must go first
        return 0, (1.0, 0, float(points[(ids.size - 1) // 2, 0]))

    steps = grow(X, tree, max_leaves, propose)
    assert visited == [0]  # the starting leaves are proposed before grow returns
    assert list(steps) == [(leaf, 1.0) for leaf in splits]
    assert tree.leaf_count == len(splits) + 1 <= max_leaves
    assert sorted(visited) == list(range(len(tree.nodes)))
    # a leaf made at the budget is labeled but gets no split search
    assert sorted(searches) == searched
    assert all(tree.nodes[i].label == 0 for i in tree.leaf_ids())


@pytest.mark.parametrize("base_label", [None, 2])
def test_grow_labels_every_unlabeled_leaf_and_keeps_a_base_label(base_label):
    tree = ThresholdTree()
    if base_label is not None:
        tree.set_leaf_label(tree.root, base_label)

    def propose(leaf, ids, points, splittable):
        # labels no leaf has yet; only the root splits
        return 10 + leaf, (1.0, 0, 2.0) if leaf == 0 else None

    steps = grow(FOUR_POINTS, tree, 3, propose)
    assert tree.nodes[tree.root].label == (10 if base_label is None else base_label)
    assert list(steps) == [(0, 1.0)]
    assert [tree.nodes[i].label for i in tree.leaf_ids()] == [11, 12]
    # the split root keeps its label, so a prefix reads it back
    assert tree.prefix(1).nodes[0].label == tree.nodes[tree.root].label


def test_grow_yields_each_priority_as_proposed_bit_for_bit():
    # each split peels the lowest point off a line, so every proposed split
    # is taken in turn; signed zeros, subnormals and negatives keep their bits
    priorities = [0.0, -0.0, -1.5, 5e-324, -5e-324, 0.1 + 0.2, -(0.1 + 0.2), 1e308, -1e-300]
    X = DataMatrix(np.arange(len(priorities) + 1, dtype=np.float64)[:, None])
    proposed = {}

    def propose(leaf, ids, points, splittable):
        if ids.size < 2:
            return 0, None
        proposed[leaf] = priorities[len(proposed)]
        return 0, (proposed[leaf], 0, float(points[0, 0]))  # peel off the lowest point

    steps = list(grow(X, ThresholdTree(), X.n, propose))
    assert len(steps) == len(priorities)
    for leaf, priority in steps:
        assert type(priority) is float
        assert np.float64(priority).tobytes() == np.float64(proposed[leaf]).tobytes()


@pytest.mark.parametrize("max_leaves", [0, -1])
def test_grow_rejects_a_budget_below_one_before_proposing(max_leaves):
    def propose(*args):
        raise AssertionError("no leaf may be proposed")

    with pytest.raises(ValueError, match="max_leaves must be at least 1"):
        grow(FOUR_POINTS, ThresholdTree(), max_leaves, propose)


class TestPrefix:
    def grown_tree(self):
        # every split keeps its parent's label on the left child
        tree = labeled(0)
        _, right = split(tree, 0, 0, 0.0, 0, 1)
        split(tree, right, 1, 0.0, 1, 2)
        return tree

    def test_budget_at_or_above_leaf_count_keeps_whole_tree(self):
        tree = self.grown_tree()
        for leaves in (3, 4, 100):
            cut = tree.prefix(leaves)
            assert cut.to_json() == tree.to_json()
            assert cut.export_dot() == tree.export_dot()

    def test_cut_split_becomes_leaf_with_pre_split_label(self):
        tree = self.grown_tree()
        two = labeled(0)
        split(two, 0, 0, 0.0, 0, 1)
        assert tree.prefix(2).to_json() == two.to_json()
        assert tree.prefix(2).induced_assignment(FOUR_POINTS).labels.tolist() == [0, 0, 1, 1]
        assert tree.prefix(1).to_json() == labeled(0).to_json()

    def test_source_tree_is_left_unmodified(self):
        tree = self.grown_tree()
        before = (tree.to_json(), [ids.tolist() for ids in tree.cells(FOUR_POINTS).values()])
        cut = tree.prefix(2)
        cut.set_leaf_label(2, 2)
        after = (tree.to_json(), [ids.tolist() for ids in tree.cells(FOUR_POINTS).values()])
        assert before == after
        assert tree.nodes[2].feature == 1 and tree.nodes[2].label == 1

    def test_zero_leaves_rejected(self):
        with pytest.raises(ValueError):
            self.grown_tree().prefix(0)


def test_from_json_rejects_empty_node_list():
    with pytest.raises(ValueError):
        ThresholdTree.from_json('{"nodes": []}')


SPLIT = {"feature": 0, "threshold": 0.5, "left": 1, "right": 2}
LEAVES = [{"label": 0}, {"label": 1}]
# every node reachable once, but node 0's children are not consecutive, so
# the first 3 nodes are not the tree after its first split
OUT_OF_GROWTH_ORDER = [
    {**SPLIT, "right": 3},
    {"feature": 0, "threshold": 0.2, "left": 2, "right": 4},
    {"label": 0},
    {"label": 1},
    {"label": 0},
]


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
        OUT_OF_GROWTH_ORDER,
    ],
    ids=["child_out_of_range", "missing_left", "cycle", "unreachable",
         "float_label", "string_label", "nan_threshold", "bool_threshold",
         "out_of_growth_order"],
)
def test_from_json_rejects_malformed_trees(nodes):
    with pytest.raises(ValueError):
        ThresholdTree.from_json(json.dumps({"nodes": nodes}))


def in_growth_order(nodes):
    return all(i < n["left"] == n["right"] - 1 for i, n in enumerate(nodes) if "left" in n)


def assert_prefixes_route(tree, X):
    """Every prefix of `tree` puts each row of X in exactly one of its leaves."""
    for b in range(1, tree.leaf_count + 1):
        cut = tree.prefix(b)
        cells = cut.cells(X)
        assert list(cells) == cut.leaf_ids()
        assert np.sort(np.concatenate(list(cells.values()))).tolist() == list(range(X.n))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10**6), st.data())
def test_growth_order_is_kept_through_json_and_checked_on_load(n, seed, data):
    # a tree grown by split_leaf round-trips, and each of its prefixes routes
    # every row into exactly one leaf; renumbering its nodes so that some
    # children are no longer the two nodes appended after their parent keeps
    # every node reachable once, yet the load is refused
    rng = np.random.default_rng(seed)
    X = DataMatrix(rng.integers(-2, 3, size=(n, 3)).astype(float))
    tree = ThresholdTree()
    tree.set_leaf_label(tree.root, 0)
    for _ in range(data.draw(st.integers(0, 10))):
        leaf = data.draw(st.sampled_from(tree.leaf_ids()))
        split(tree, leaf, data.draw(st.integers(0, 2)), data.draw(st.sampled_from([-1.5, -0.5, 0.5, 1.5])),
              data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
    loaded = ThresholdTree.from_json(tree.to_json())
    assert loaded.to_json() == tree.to_json()
    assert_prefixes_route(loaded, X)

    nodes = json.loads(tree.to_json())["nodes"]
    order = [0, *data.draw(st.permutations(range(1, len(nodes))))]  # old id -> new id
    renumbered = [None] * len(nodes)
    for old, node in enumerate(nodes):
        if "left" in node:
            node = {**node, "left": order[node["left"]], "right": order[node["right"]]}
        renumbered[order[old]] = node
    text = json.dumps({"nodes": renumbered})
    if in_growth_order(renumbered):  # the same tree, grown in another order
        assert ThresholdTree.from_json(text).depth() == tree.depth()
        assert_prefixes_route(ThresholdTree.from_json(text), X)
    else:
        with pytest.raises(ValueError, match="tree JSON"):
            ThresholdTree.from_json(text)


def test_deep_chain_walks_without_recursion():
    # k' = n on sorted 1-D data: every split peels off the lowest point
    n = 3000
    tree = ThresholdTree()
    leaf = tree.root
    for i in range(n - 1):
        _, leaf = split(tree, leaf, 0, float(i), i, None)
    tree.set_leaf_label(leaf, n - 1)
    assert tree.leaf_count == n
    assert tree.depth() == n - 1
    lines = []
    for i in range(n - 1):
        lines += ["  " * i + f"feature 0 <= {float(i)!r}", "  " * (i + 1) + f"label {i}"]
    lines.append("  " * (n - 1) + f"label {n - 1}")
    assert tree.export_text() == "\n".join(lines) + "\n"
    assert ThresholdTree.from_json(tree.to_json()).to_json() == tree.to_json()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(["expand", "kdtree", "gini_tree"]),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_decision_path_reaches_the_leaf_that_cells_routes_each_row_to(n, d, k, method, duplicates, seed):
    # thresholds are point values, so on a small integer grid many rows sit
    # exactly at a threshold, and some of its zeros are -0.0
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, d)).astype(float)
    pts[(pts == 0.0) & (rng.random((n, d)) < 0.5)] = -0.0
    if duplicates:
        pts = pts[rng.integers(0, max(1, n // 3), size=n)]
    X = DataMatrix(pts)
    if method == "gini_tree":
        tree = build_gini_tree(X, Assignment(rng.integers(0, k, size=n)), n)
    else:
        M = CenterSet(rng.normal(size=(k, d)))
        tree = expand(X, M, ThresholdTree(), n).tree if method == "expand" else build_kdtree(X, M, n)
    for leaf, ids in tree.cells(X).items():
        for i in ids:
            path, reached = tree.decision_path(X.points[i])
            assert reached == leaf
            assert all((X.points[i, f] <= t) == (side == "left") for f, t, side in path)
