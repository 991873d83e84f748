"""Comparison tree builders: a kd-style variance/median splitter and a
gini-impurity classification tree trained on the reference labels.

Both share the threshold-tree routing rule and the value-anchored candidate
canon used by the expansion scan (distinct point values, excluding each
feature's max), so their clusterings are directly comparable.
"""

from __future__ import annotations

import numpy as np

from xkmeans.core import Assignment, CenterSet, DataMatrix, best_center
from xkmeans.tree import ThresholdTree

__all__ = ["build_kdtree", "build_gini_tree"]


def _lower_median(values: np.ndarray) -> float:
    return float(np.sort(values)[(values.size - 1) // 2])


def _kd_split(points: np.ndarray) -> tuple[int, float] | None:
    """Highest-variance feature at its lower-median value; None when the
    leaf has fewer than two distinct points."""
    spread = points.max(axis=0) - points.min(axis=0)
    if not (spread > 0).any():
        return None
    feature = int(np.argmax(points.var(axis=0)))
    vals = points[:, feature]
    theta = _lower_median(vals)
    if theta >= vals.max():
        # a heavy upper tie can pull the lower median onto the max; step
        # down to keep both sides nonempty
        theta = float(vals[vals < vals.max()].max())
    return feature, theta


def build_kdtree(X: DataMatrix, M: CenterSet, max_leaves: int) -> ThresholdTree:
    """Grow best-first by leaf population, labeling each cell with its
    cheapest reference center as it is made."""
    if max_leaves < 1:
        raise ValueError("max_leaves must be at least 1")
    tree = ThresholdTree(X, root_label=best_center(X, np.arange(X.n), M)[0])
    splittable: dict[int, tuple[int, float]] = {}
    split = _kd_split(X.points)
    if split is not None:
        splittable[tree.root] = split

    while tree.leaf_count < max_leaves and splittable:
        leaf = max(splittable, key=lambda i: (tree.node(i).point_ids.size, -i))
        feature, theta = splittable.pop(leaf)
        left, right = tree.split_leaf(leaf, feature, theta, None, None)
        for child in (left, right):
            ids = tree.node(child).point_ids
            tree.set_leaf_label(child, best_center(X, ids, M)[0])
            child_split = _kd_split(X.points[ids])
            if child_split is not None:
                splittable[child] = child_split
    return tree


def _gini_of_counts(counts: np.ndarray, total: int) -> float:
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float((p * p).sum())


def _gini_split(points: np.ndarray, labels: np.ndarray, n_labels: int):
    """Count-weighted impurity decrease of the best split, or None for a
    pure or unsplittable leaf. Ties go to the lowest (feature, threshold)."""
    m, d = points.shape
    total_counts = np.bincount(labels, minlength=n_labels).astype(np.float64)
    if (total_counts > 0).sum() <= 1:
        return None
    parent = m * _gini_of_counts(total_counts, m)

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


def _majority(labels: np.ndarray, n_labels: int) -> int:
    return int(np.argmax(np.bincount(labels, minlength=n_labels)))


def build_gini_tree(X: DataMatrix, reference: Assignment, max_leaves: int) -> ThresholdTree:
    """Best-first classification tree on the reference labels: at each step
    split the frontier leaf with the largest count-weighted gini decrease."""
    if max_leaves < 1:
        raise ValueError("max_leaves must be at least 1")
    if reference.n != X.n:
        raise ValueError("reference assignment does not match the dataset")
    labels = reference.labels
    n_labels = int(labels.max()) + 1 if labels.size else 1

    tree = ThresholdTree(X, root_label=_majority(labels, n_labels))
    frontier: dict[int, tuple[float, int, float]] = {}
    split = _gini_split(X.points, labels, n_labels)
    if split is not None:
        frontier[tree.root] = split

    while tree.leaf_count < max_leaves and frontier:
        leaf = max(frontier, key=lambda i: (frontier[i][0], -i))
        _, feature, theta = frontier.pop(leaf)
        left, right = tree.split_leaf(leaf, feature, theta, None, None)
        for child in (left, right):
            ids = tree.node(child).point_ids
            tree.set_leaf_label(child, _majority(labels[ids], n_labels))
            child_split = _gini_split(X.points[ids], labels[ids], n_labels)
            if child_split is not None:
                frontier[child] = child_split
    return tree
