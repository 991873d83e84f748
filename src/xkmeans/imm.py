"""Base tree with exactly k leaves, built by iterative mistake minimization.

Each node is split by the feature-threshold pair separating the fewest
points from their own reference center, subject to sending at least one
center to each side; recursion stops when a node holds a single center,
which becomes the leaf's label. Points already separated from their center
higher up ride along for leaf membership but cannot be separated again, so
they are excluded from the mistake counts below that node.

A (point, center) pair is separated by threshold t exactly when
lo <= t < hi, with lo = min(p_i, c_i) and hi = max(p_i, c_i). Hence the
mistake count at t is #{lo <= t} - #{hi <= t}: two prefix counts over the
sorted endpoints, read for every candidate with `searchsorted` (Dasgupta,
Frost, Moshkovitz & Rashtchian, ICML 2020, section 3). Candidate thresholds
are the distinct point and center coordinate values inside
[min center coord, max center coord); restricting to center coordinates
alone can miss splits with strictly fewer mistakes. Every candidate is
ranked by one key, mistakes + (m + 1) * one_sided for a node with m points,
where a one-sided candidate routes no point to one side (every candidate of
a node without points is one). A node never has more than m mistakes, so a
split that sends points both ways wins whenever one exists, and center
separation alone decides otherwise; equal keys go to the lowest feature,
then the lowest threshold. A node costs O(d m log m) time, and O(m) extra
memory, since features are handled one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xkmeans.core import Assignment, CenterSet, DataMatrix
from xkmeans.tree import ThresholdTree, split_cell

__all__ = ["ImmNodeState", "best_mistake_split", "build_imm"]


@dataclass(frozen=True)
class ImmNodeState:
    """Points and centers alive at one node during construction."""

    point_ids: np.ndarray
    center_ids: np.ndarray


def best_mistake_split(
    X: DataMatrix, M: CenterSet, reference: Assignment, state: ImmNodeState
) -> tuple[int, float]:
    """The (feature, threshold) of a node with the least key, mistakes +
    (m + 1) * one_sided for a node with m points (tie: lowest feature, lowest
    threshold). A one-sided candidate leaves one side without points, so it
    ranks after every two-sided one."""
    if state.center_ids.size < 2:
        raise ValueError("node must contain at least two centers")
    ids = state.point_ids
    labs = reference.labels[ids]
    elig = np.isin(labs, state.center_ids)
    elig_labs = labs[elig]
    cvals = M.centers[state.center_ids]
    cmin = cvals.min(axis=0)
    cmax = cvals.max(axis=0)

    best = None  # (key, feature, theta)
    for f in np.flatnonzero(cmin < cmax):
        f = int(f)
        col = X.points[ids, f]
        both = np.concatenate([col, cvals[:, f]])
        cand = np.unique(both[(both >= cmin[f]) & (both < cmax[f])])
        p = col[elig]
        c = M.centers[elig_labs, f]
        lo = np.minimum(p, c)
        hi = np.maximum(p, c)
        lo.sort()
        hi.sort()
        counts = np.searchsorted(lo, cand, "right") - np.searchsorted(hi, cand, "right")
        # points on both sides exactly when min(col) <= theta < max(col); a
        # node with no points has no such candidate
        one_sided = (cand < col.min(initial=np.inf)) | (cand >= col.max(initial=-np.inf))
        key = counts + (ids.size + 1) * one_sided
        j = int(np.argmin(key))
        if best is None or key[j] < best[0]:
            best = (int(key[j]), f, float(cand[j]))

    if best is None:
        raise ValueError("centers are identical on every feature; no split exists")
    return best[1:]


def build_imm(X: DataMatrix, M: CenterSet, reference: Assignment) -> ThresholdTree:
    """Recursively split until every leaf holds one center; k leaves total."""
    if M.d != X.d:
        raise ValueError("centers and data disagree on dimension")
    if reference.n != X.n:
        raise ValueError("reference assignment does not match the dataset")
    if np.unique(M.centers, axis=0).shape[0] != M.k:
        raise ValueError("reference centers must be distinct")
    if reference.labels.size and reference.labels.max() >= M.k:
        raise ValueError("reference label out of range")

    tree = ThresholdTree()
    stack = [(tree.root, ImmNodeState(np.arange(X.n), np.arange(M.k)))]
    while stack:
        leaf_id, state = stack.pop()
        if state.center_ids.size == 1:
            tree.set_leaf_label(leaf_id, int(state.center_ids[0]))
            continue
        feature, theta = best_mistake_split(X, M, reference, state)
        # a side may get centers but no points (a one-sided split)
        left_ids, right_ids = split_cell(X, state.point_ids, feature, theta)
        side = M.centers[state.center_ids, feature] <= theta
        left_id, right_id = tree.split_leaf(leaf_id, feature, theta)
        stack.append((right_id, ImmNodeState(right_ids, state.center_ids[~side])))
        stack.append((left_id, ImmNodeState(left_ids, state.center_ids[side])))
    return tree
