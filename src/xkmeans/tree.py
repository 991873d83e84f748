"""The threshold tree: feature-threshold nodes and the labels of their leaves.

The tree holds structure only. Which points sit in which cell is state of
the builder that grows it, and `grow` is the one growth loop every greedy
builder runs: it keeps the frontier's cells, splits them with `split_cell`
(the mask that routing also applies), and sets each leaf's label, with
`set_leaf_label`, from the builder's callback, which prices the cell by the
builder's own rule and proposes its split. It splits best-first, popping a
heap keyed on (-priority, leaf id); leaf ids only grow, so among equal
priorities the oldest leaf goes first. Any tree, built, cut or loaded, is
in growth order (below): `cells` routes it in one pass.

Routing is fixed everywhere as "x[feature] <= threshold goes left". Node ids
are stable list indices (the root is always node 0) and are never reused;
splitting mutates a leaf into an inner node and appends two children, so the
greedy construction order is preserved in the node list: the tree after its
first b - 1 splits is the first 2b - 1 nodes. An inner node keeps the label
it had as a leaf, so such a prefix is read off without relabeling (`prefix`).
Every tree keeps this growth order, each parent before its two consecutive
children, and `from_json` rejects a tree that does not.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from xkmeans.core import Assignment, DataMatrix

__all__ = ["Node", "ThresholdTree", "split_cell", "grow"]


def split_cell(X: DataMatrix, ids: np.ndarray, feature: int, threshold: float):
    """The point ids of a cell that route left and right, in input order."""
    mask = X.points[ids, feature] <= threshold
    return ids[mask], ids[~mask]


def grow(
    X: DataMatrix,
    tree: ThresholdTree,
    max_leaves: int,
    propose: Callable[[int, np.ndarray, np.ndarray, bool], tuple[int, tuple[float, int, float] | None]],
) -> Iterator[tuple[int, float]]:
    """Grow `tree` best-first toward `max_leaves` leaves.

    `propose(leaf, ids, points, splittable)` is called once for every leaf:
    for each leaf of `tree` as given, before `grow` returns, and for each
    child as it is made, left first. It returns (label, split): `grow` sets
    the label on a leaf that has none (every child, and a bare root), and
    split is (priority, feature, threshold), or None when the cell cannot
    split. `points` are the rows `ids` of X, and `X.points` itself for a
    cell that holds the whole dataset, never a copy. `splittable` is False
    once the tree has `max_leaves` leaves: such a leaf is never split.

    Each item of the returned iterator is one split, of the frontier leaf
    with the highest priority (ties: lowest leaf id): (leaf id, priority as
    proposed), yielded once both children are proposed. Growth ends when
    the tree has `max_leaves` leaves or no leaf can split, or the caller stops.
    """
    if max_leaves < 1:
        raise ValueError("max_leaves must be at least 1")
    frontier = []  # (-priority, leaf id, feature, threshold, point ids)

    def visit(leaf: int, ids: np.ndarray) -> None:
        points = X.points if ids.size == X.n else X.points[ids]
        label, split = propose(leaf, ids, points, tree.leaf_count < max_leaves)
        if tree.nodes[leaf].label is None:
            tree.set_leaf_label(leaf, label)
        if split is not None:
            priority, feature, threshold = split
            heapq.heappush(frontier, (-priority, leaf, feature, threshold, ids))

    for leaf, ids in tree.cells(X).items():
        visit(leaf, ids)

    def splits() -> Iterator[tuple[int, float]]:
        while frontier and tree.leaf_count < max_leaves:
            key, leaf, feature, threshold, ids = heapq.heappop(frontier)
            children = tree.split_leaf(leaf, feature, threshold)
            for child, child_ids in zip(children, split_cell(X, ids, feature, threshold)):
                visit(child, child_ids)
            yield leaf, -key

    return splits()


@dataclass
class Node:
    feature: int | None = None
    threshold: float | None = None
    left: int | None = None
    right: int | None = None
    label: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class ThresholdTree:
    """Full binary threshold tree; leaves carry cluster labels."""

    def __init__(self):
        self.nodes: list[Node] = [Node()]
        self.root = 0

    # -- construction -----------------------------------------------------

    def leaf_ids(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.is_leaf]

    @property
    def leaf_count(self) -> int:
        # every split turns one leaf into two, so the tree is full binary
        return (len(self.nodes) + 1) // 2

    def depth(self) -> int:
        depth = [0] * len(self.nodes)
        for i, node in enumerate(self.nodes):  # every parent comes before its children
            if not node.is_leaf:
                depth[node.left] = depth[node.right] = depth[i] + 1
        return max(depth)

    def set_leaf_label(self, leaf_id: int, label: int) -> None:
        node = self.nodes[leaf_id]
        if not node.is_leaf:
            raise ValueError(f"node {leaf_id} is not a leaf")
        node.label = int(label)

    def split_leaf(self, leaf_id: int, feature: int, threshold: float) -> tuple[int, int]:
        """Turn a leaf into an inner node that keeps its label; returns the
        ids of the two new leaves, which are unlabeled."""
        node = self.nodes[leaf_id]
        if not node.is_leaf:
            raise ValueError(f"node {leaf_id} is not a leaf")
        if feature < 0:
            raise ValueError(f"feature {feature} out of range")
        left_id = len(self.nodes)
        right_id = left_id + 1
        self.nodes += [Node(), Node()]
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left = left_id
        node.right = right_id
        return left_id, right_id

    def prefix(self, leaves: int) -> "ThresholdTree":
        """A new tree, this one as it stood with `leaves` leaves (a copy of
        all of it at `leaf_count` or more): a split whose children fall past
        the cut becomes a leaf again, under its pre-split label."""
        if leaves < 1:
            raise ValueError("a tree prefix needs at least one leaf")
        keep = 2 * min(leaves, self.leaf_count) - 1
        tree = ThresholdTree()
        tree.nodes = [
            Node(label=n.label) if n.is_leaf or n.left >= keep else replace(n)
            for n in self.nodes[:keep]
        ]
        return tree

    # -- routing -----------------------------------------------------------

    def _check_dim(self, d: int) -> None:
        """Reject points of fewer dimensions than the tree's tests route on."""
        need = max((n.feature + 1 for n in self.nodes if not n.is_leaf), default=0)
        if d < need:
            raise ValueError(f"point has dimension {d}, tree tests feature {need - 1}")

    def decision_path(self, x) -> tuple[list[tuple[int, float, str]], int]:
        """Root-to-leaf conditions for one point, plus the id of its leaf."""
        x = np.asarray(x, dtype=np.float64)
        self._check_dim(x.shape[-1] if x.ndim else 0)
        if not np.all(np.isfinite(x)):
            raise ValueError("point contains NaN or Inf entries")
        path, leaf = [], self.root
        while not self.nodes[leaf].is_leaf:
            node = self.nodes[leaf]
            left = x[node.feature] <= node.threshold
            path.append((node.feature, node.threshold, "left" if left else "right"))
            leaf = node.left if left else node.right
        return path, leaf

    def cells(self, X: DataMatrix) -> dict[int, np.ndarray]:
        """Ascending ids of the rows of X in each leaf, keyed by leaf id in
        ascending order (vectorized routing)."""
        self._check_dim(X.d)
        cells = {self.root: np.arange(X.n)}
        for i, node in enumerate(self.nodes):  # every parent comes before its children
            if not node.is_leaf:
                cells[node.left], cells[node.right] = split_cell(
                    X, cells.pop(i), node.feature, node.threshold
                )
        return dict(sorted(cells.items()))

    def induced_assignment(self, X: DataMatrix, cells: dict | None = None) -> Assignment:
        """Cluster label per row of X, via the leaf labeling of `cells`, which
        routes X when not given (pass `cells(X)` to route only once)."""
        labels = np.empty(X.n, dtype=np.int64)
        for leaf, ids in (self.cells(X) if cells is None else cells).items():
            if self.nodes[leaf].label is None:
                raise ValueError(f"leaf {leaf} is unlabeled")
            labels[ids] = self.nodes[leaf].label
        return Assignment(labels)

    # -- export ------------------------------------------------------------

    def export_text(self) -> str:
        lines: list[str] = []
        stack = [(self.root, 0)]  # preorder: left subtree printed before right
        while stack:
            i, depth = stack.pop()
            node = self.nodes[i]
            pad = "  " * depth
            if node.is_leaf:
                lines.append(f"{pad}label {node.label}")
            else:
                lines.append(f"{pad}feature {node.feature} <= {node.threshold!r}")
                stack += [(node.right, depth + 1), (node.left, depth + 1)]
        return "\n".join(lines) + "\n"

    def export_dot(self) -> str:
        lines = ["digraph tree {"]
        for i, node in enumerate(self.nodes):
            if node.is_leaf:
                lines.append(f'  n{i} [shape=box, label="{node.label}"];')
            else:
                lines.append(f'  n{i} [label="x{node.feature} <= {node.threshold!r}"];')
        for i, node in enumerate(self.nodes):
            if not node.is_leaf:
                lines.append(f'  n{i} -> n{node.left} [label="<="];')
                lines.append(f'  n{i} -> n{node.right} [label=">"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        nodes = []
        for node in self.nodes:
            if node.is_leaf:
                nodes.append({"label": node.label})
            else:
                nodes.append(
                    {
                        "feature": node.feature,
                        "threshold": node.threshold,
                        "left": node.left,
                        "right": node.right,
                    }
                )
        return json.dumps({"nodes": nodes})

    @classmethod
    def from_json(cls, text: str) -> "ThresholdTree":
        """Load a tree written by `to_json`.

        Raises ValueError unless the nodes are in growth order (each inner
        node's children are two consecutive nodes after it, and every node
        but node 0 is a child exactly once), every feature and child index is
        an integer, every threshold a finite number, and every label an
        integer (or null, for an unlabeled leaf).
        """
        try:
            payload = json.loads(text)
        except RecursionError:  # the parser recurses once per nesting level
            raise ValueError("tree JSON is nested too deeply to parse") from None
        raw = payload.get("nodes") if isinstance(payload, dict) else None
        if not isinstance(raw, list) or not raw:
            raise ValueError("tree JSON has no nodes")
        tree = cls()
        tree.nodes = []
        for i, entry in enumerate(raw):
            try:
                if "label" in entry:
                    node = Node(label=_json_int(entry["label"], allow_null=True))
                else:
                    threshold = entry["threshold"]
                    if isinstance(threshold, bool) or not np.isfinite(threshold):
                        raise ValueError(f"threshold {threshold!r} is not a finite number")
                    node = Node(
                        feature=_json_int(entry["feature"]),
                        threshold=float(threshold),
                        left=_json_int(entry["left"]),
                        right=_json_int(entry["right"]),
                    )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"tree JSON node {i} is malformed: {exc!r}") from None
            if not node.is_leaf and not i < node.left == node.right - 1:
                raise ValueError(f"tree JSON node {i}'s children are not two consecutive later ones")
            tree.nodes.append(node)
        # so each node but the root has one parent, before it: all are reachable
        children = sorted(c for n in tree.nodes if not n.is_leaf for c in (n.left, n.right))
        if children != list(range(1, len(tree.nodes))):
            raise ValueError("tree JSON children are not nodes 1 to the last, each once")
        return tree


def _json_int(value, allow_null: bool = False) -> int | None:
    """A non-negative JSON integer (bools and floats are rejected)."""
    if value is None and allow_null:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value
