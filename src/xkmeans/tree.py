"""The threshold tree: an arena of feature-threshold nodes over a dataset.

Routing is fixed everywhere as "x[feature] <= threshold goes left". Node ids
are stable arena indices (the root is always node 0) and are never reused;
splitting mutates a leaf into an inner node and appends two children, so the
greedy construction order is preserved in the arena: the tree after its
first b - 1 splits is the first 2b - 1 nodes. An inner node keeps the label
it had as a leaf, so such a prefix is read off without relabeling (`prefix`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from xkmeans.core import Assignment, DataMatrix

__all__ = ["Node", "ThresholdTree"]


@dataclass
class Node:
    feature: int | None = None
    threshold: float | None = None
    left: int | None = None
    right: int | None = None
    label: int | None = None
    point_ids: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class ThresholdTree:
    """Binary threshold tree; leaves carry cluster labels and, during
    construction, the ids of the points routed to them."""

    def __init__(self, data: DataMatrix | None = None, root_label: int | None = None):
        self._data = data
        ids = np.arange(data.n) if data is not None else None
        self.nodes: list[Node] = [Node(label=root_label, point_ids=ids)]
        self.root = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def _empty(cls) -> "ThresholdTree":
        tree = cls.__new__(cls)
        tree._data = None
        tree.nodes = []
        tree.root = 0
        return tree

    def copy(self) -> "ThresholdTree":
        tree = ThresholdTree._empty()
        tree._data = self._data
        tree.nodes = [replace(n) for n in self.nodes]
        return tree

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def leaf_ids(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.is_leaf]

    @property
    def leaf_count(self) -> int:
        return sum(1 for n in self.nodes if n.is_leaf)

    def depth(self) -> int:
        deepest = 0
        stack = [(self.root, 0)]
        while stack:
            i, depth = stack.pop()
            node = self.nodes[i]
            if node.is_leaf:
                deepest = max(deepest, depth)
            else:
                stack += [(node.left, depth + 1), (node.right, depth + 1)]
        return deepest

    def set_leaf_label(self, leaf_id: int, label: int) -> None:
        node = self.nodes[leaf_id]
        if not node.is_leaf:
            raise ValueError(f"node {leaf_id} is not a leaf")
        node.label = int(label)

    def split_leaf(
        self,
        leaf_id: int,
        feature: int,
        threshold: float,
        left_label: int | None,
        right_label: int | None,
        allow_empty_side: bool = False,
    ) -> tuple[int, int]:
        """Turn a leaf into an inner node; returns the two new leaf ids.

        By default a split that leaves one side empty is rejected; center-
        driven builders that legitimately need one-sided point routing can
        opt out.
        """
        if self._data is None:
            raise ValueError("tree was not built over a dataset; cannot split")
        node = self.nodes[leaf_id]
        if not node.is_leaf:
            raise ValueError(f"node {leaf_id} is not a leaf")
        if not 0 <= feature < self._data.d:
            raise ValueError(f"feature {feature} out of range")
        ids = node.point_ids
        vals = self._data.points[ids, feature]
        mask = vals <= threshold
        left_ids = ids[mask]
        right_ids = ids[~mask]
        if not allow_empty_side and (left_ids.size == 0 or right_ids.size == 0):
            raise ValueError(
                f"split on feature {feature} at {threshold} leaves one side empty"
            )
        left_id = len(self.nodes)
        right_id = left_id + 1
        self.nodes.append(Node(label=left_label, point_ids=left_ids))
        self.nodes.append(Node(label=right_label, point_ids=right_ids))
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left = left_id
        node.right = right_id
        node.point_ids = None
        return left_id, right_id

    def prefix(self, leaves: int) -> "ThresholdTree":
        """The tree as it stood with `leaves` leaves (all of it, if it has
        fewer): a split whose children fall past the cut becomes a leaf again,
        under its pre-split label. The copy carries no cell membership."""
        if leaves < 1:
            raise ValueError("a tree prefix needs at least one leaf")
        keep = 2 * min(leaves, self.leaf_count) - 1
        tree = ThresholdTree._empty()
        tree.nodes = [
            Node(label=n.label) if n.is_leaf or n.left >= keep else replace(n, point_ids=None)
            for n in self.nodes[:keep]
        ]
        return tree

    # -- routing -----------------------------------------------------------

    def required_dim(self) -> int:
        """Smallest point dimension the tree's tests can route."""
        features = [n.feature for n in self.nodes if not n.is_leaf]
        return max(features) + 1 if features else 0

    def _check_dim(self, d: int) -> None:
        need = self.required_dim()
        if d < need:
            raise ValueError(f"point has dimension {d}, tree tests feature {need - 1}")

    def route(self, x) -> int:
        """Leaf id a single point lands in; boundary values go left."""
        x = np.asarray(x, dtype=np.float64)
        self._check_dim(x.shape[-1] if x.ndim else 0)
        i = self.root
        node = self.nodes[i]
        while not node.is_leaf:
            i = node.left if x[node.feature] <= node.threshold else node.right
            node = self.nodes[i]
        return i

    def decision_path(self, x) -> tuple[list[tuple[int, float, str]], int | None]:
        """Root-to-leaf conditions for one point, plus the leaf label."""
        x = np.asarray(x, dtype=np.float64)
        self._check_dim(x.shape[-1] if x.ndim else 0)
        path = []
        node = self.nodes[self.root]
        while not node.is_leaf:
            left = x[node.feature] <= node.threshold
            path.append((node.feature, node.threshold, "left" if left else "right"))
            node = self.nodes[node.left if left else node.right]
        return path, node.label

    def leaf_of_points(self, X: DataMatrix) -> np.ndarray:
        """Leaf id per row of X (vectorized routing)."""
        self._check_dim(X.d)
        out = np.empty(X.n, dtype=np.int64)
        stack = [(self.root, np.arange(X.n))]
        while stack:
            node_id, ids = stack.pop()
            node = self.nodes[node_id]
            if node.is_leaf:
                out[ids] = node_id
                continue
            mask = X.points[ids, node.feature] <= node.threshold
            stack.append((node.left, ids[mask]))
            stack.append((node.right, ids[~mask]))
        return out

    def induced_assignment(self, X: DataMatrix | None = None) -> Assignment:
        """Cluster label per point, via routing and the leaf labeling."""
        if X is None:
            X = self._data
        if X is None:
            raise ValueError("no dataset to assign; pass X explicitly")
        for i in self.leaf_ids():
            if self.nodes[i].label is None:
                raise ValueError(f"leaf {i} is unlabeled")
        leaf = self.leaf_of_points(X)
        label_of = np.full(len(self.nodes), -1, dtype=np.int64)
        for i in self.leaf_ids():
            label_of[i] = self.nodes[i].label
        return Assignment(label_of[leaf])

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
    def from_json(cls, text: str, data: DataMatrix | None = None) -> "ThresholdTree":
        """Load a tree written by `to_json`.

        Raises ValueError unless every node is reachable from node 0 exactly
        once, every feature and child index is an in-range integer, every
        threshold is a finite number, and every label is an integer (or null,
        for an unlabeled leaf).
        """
        payload = json.loads(text)
        raw = payload.get("nodes") if isinstance(payload, dict) else None
        if not isinstance(raw, list) or not raw:
            raise ValueError("tree JSON has no nodes")
        tree = cls._empty()
        tree._data = data
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
            tree.nodes.append(node)

        seen = [False] * len(tree.nodes)
        seen[0] = True
        stack = [0]
        while stack:
            node = tree.nodes[stack.pop()]
            if node.is_leaf:
                continue
            for child in (node.left, node.right):
                if child >= len(tree.nodes) or seen[child]:
                    raise ValueError(
                        f"tree JSON child {child} is out of range or reached twice"
                    )
                seen[child] = True
                stack.append(child)
        if not all(seen):
            raise ValueError(f"tree JSON node {seen.index(False)} is unreachable from node 0")
        return tree


def _json_int(value, allow_null: bool = False) -> int | None:
    """A non-negative JSON integer (bools and floats are rejected)."""
    if value is None and allow_null:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value
