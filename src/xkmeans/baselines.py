"""Comparison tree builders: a kd-style variance/median splitter and a
gini-impurity classification tree trained on the reference labels.

Both share the threshold-tree routing rule and the value-anchored candidate
canon used by the expansion scan (distinct point values, excluding each
feature's max), so their clusterings are directly comparable. Both grow
best-first through `tree.grow`, as the expansion does: kd by cell size,
gini by impurity decrease, searched with the expansion's `prefix_scan`.
"""

from __future__ import annotations

import numpy as np

from xkmeans.core import Assignment, CenterSet, DataMatrix, best_center, cell_stats
from xkmeans.exkmc import prefix_scan
from xkmeans.tree import ThresholdTree, grow

__all__ = ["build_kdtree", "build_gini_tree"]


def _kd_split(points: np.ndarray, stats) -> tuple[int, float] | None:
    """Highest-variance feature (from the cell's `cell_stats`) among features
    with a spread (a constant one's variance is round-off), at the lesser of
    its lower median and its largest value below the max, so both sides get
    points; None when the leaf has fewer than two distinct points."""
    spread = points.max(axis=0) - points.min(axis=0)
    if not (spread > 0).any():
        return None
    m, _, ss = stats
    feature = int(np.argmax(np.where(spread > 0, ss / m, -np.inf)))  # ss / m is np.var, bit for bit
    vals = np.sort(points[:, feature])
    return feature, float(min(vals[(m - 1) // 2], vals[np.searchsorted(vals, vals[-1]) - 1]))


def build_kdtree(X: DataMatrix, M: CenterSet, max_leaves: int) -> ThresholdTree:
    """Grow best-first by leaf population, labeling each cell with its
    cheapest reference center as it is made."""
    tree = ThresholdTree()

    def propose(leaf, ids, points, splittable):
        stats = cell_stats(points)
        split = _kd_split(points, stats) if splittable else None
        return best_center(stats, M)[0], None if split is None else (ids.size, *split)

    for _ in grow(X, tree, max_leaves, propose):
        pass
    return tree


def _gini_split(points: np.ndarray, labels: np.ndarray, counts: np.ndarray):
    """Count-weighted impurity decrease of the best split, or None for a
    pure or unsplittable leaf, given the cell's `counts` of each label.
    Ties go to the lowest (feature, threshold)."""
    m = points.shape[0]
    total_counts = counts.astype(np.float64)
    present = np.flatnonzero(total_counts)
    if present.size <= 1:
        return None
    p = total_counts / m
    parent = m * (1.0 - float((p * p).sum()))

    def negative_decrease(cums, n_left):
        # integer label counts, one label at a time: the sums of squares are exact in any order
        n_right = m - n_left
        left = right = 0
        for t, c in zip(total_counts[present], cums):
            left = left + c * c
            right = right + (t - c) * (t - c)
        return -(parent - (n_left - left / n_left) - (n_right - right / n_right))

    # one boolean row per label in the cell, cumsummed as integer counts
    rows = labels == present[:, None]
    found = prefix_scan(points, rows, negative_decrease, 0.0)
    return None if found is None else (-found[0], found[1], found[2])


def build_gini_tree(X: DataMatrix, reference: Assignment, max_leaves: int) -> ThresholdTree:
    """Best-first classification tree on the reference labels: at each step
    split the frontier leaf with the largest count-weighted gini decrease."""
    if reference.n != X.n:
        raise ValueError("reference assignment does not match the dataset")
    labels = reference.labels
    n_labels = int(labels.max()) + 1 if labels.size else 1

    tree = ThresholdTree()

    def propose(leaf, ids, points, splittable):
        cell_labels = labels[ids]
        counts = np.bincount(cell_labels, minlength=n_labels)  # the majority ties to the lowest label
        split = _gini_split(points, cell_labels, counts) if splittable else None
        return int(np.argmax(counts)), split

    for _ in grow(X, tree, max_leaves, propose):
        pass
    return tree
