"""Greedy tree expansion under a fixed-center surrogate cost.

The expansion repeatedly splits the leaf whose best split buys the
largest drop in surrogate cost, relabels the two children with their best
reference centers, and rescans only those children. Because the centers
never move, the per-leaf costs are independent and the whole loop needs no
global recomputation. The loop itself is `tree.grow`, with the scan gain as
each leaf's priority; `expand` prices and labels each new cell and records
each step in the trace.

The split scan avoids evaluating every (threshold, center) pair from
scratch. For a cell C and center mu,

    sum_{x in C} |x - mu|^2 = sum |x|^2 - 2 <sum_{x in C} x, mu> + |C| |mu|^2,

and the first term does not depend on the split, so ranking splits only
needs running inner products <x, mu> accumulated in sorted feature order.
One sort per feature plus an O(k) update per threshold gives
O(d k n + d n log n) per scanned leaf. The scan runs center-major: for a
block of features, each center's products are cumsummed in sorted order as
one (block, n) array, and the k centers are folded with an elementwise min.
That search, `prefix_scan`, is also the gini baseline's, on label counts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from xkmeans.core import CenterSet, DataMatrix, best_center, cluster_sums
from xkmeans.tree import ThresholdTree, grow

__all__ = [
    "SplitCandidate",
    "TraceStep",
    "ExpandResult",
    "scan_best_split",
    "expand",
]

_REL_TOL = 1e-9
_BLOCK = 64  # features vectorized together in the scan


@dataclass(frozen=True)
class SplitCandidate:
    feature: int
    threshold: float
    left_label: int
    right_label: int
    post_split_cost: float
    gain: float


@dataclass(frozen=True)
class TraceStep:
    step: int
    leaf: int
    feature: int
    threshold: float
    left_label: int
    right_label: int
    gain: float
    surrogate_cost: float
    kmeans_cost: float

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "leaf": self.leaf,
            "feature": self.feature,
            "threshold": self.threshold,
            "left_label": self.left_label,
            "right_label": self.right_label,
            "gain": self.gain,
            "surrogate_cost": self.surrogate_cost,
            "kmeans_cost": self.kmeans_cost,
        }


@dataclass(frozen=True)
class ExpandResult:
    tree: ThresholdTree
    trace: tuple[TraceStep, ...]
    initial_surrogate: float
    initial_kmeans_cost: float
    stop_reason: str  # "budget", "no_split", or "callback"

    @property
    def final_surrogate(self) -> float:
        return self.trace[-1].surrogate_cost if self.trace else self.initial_surrogate


def prefix_scan(points: np.ndarray, rows: np.ndarray, score: Callable, tol: float, jobs: int = 1):
    """Lowest-scoring threshold split of a cell, by prefix sums in sorted order.

    Each 64-feature block of `points` (m, d) is copied feature-major and
    stably sorted, and the r per-point statistics `rows` (r, m) are
    cumsummed in that order. `score(cums)` maps the r (width, m - 1) prefix
    sums to the score of cutting after each sorted point; only cuts between
    distinct values count. Each feature keeps its first cut within `tol` of
    its best, and the lowest feature within `tol` of the best of those
    wins, at any `jobs` (at most one thread per block). Returns (score,
    feature, threshold, points left of the cut, the r prefix sums there),
    or None.
    """
    starts = range(0, points.shape[1], _BLOCK)

    def scan_block(c0):
        blk = np.ascontiguousarray(points[:, c0 : c0 + _BLOCK].T)
        order = np.argsort(blk, axis=1, kind="stable")
        sv = np.take_along_axis(blk, order, axis=1)
        valid = sv[:, :-1] < sv[:, 1:]
        if not valid.any():
            return None
        cums = [np.cumsum(row[order], axis=1)[:, :-1] for row in rows]
        tot = np.where(valid, score(cums), np.inf)
        t_star = (tot <= tot.min(axis=1, keepdims=True) + tol).argmax(axis=1)  # first near-tie
        width = np.arange(blk.shape[0])
        sums = np.stack([cum[width, t_star] for cum in cums], axis=1)
        return tot[width, t_star], c0 + width, sv[width, t_star], t_star + 1, sums

    workers = min(jobs, len(starts))
    if workers <= 1:
        blocks = [scan_block(c0) for c0 in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(scan_block, starts))
    found = [b for b in blocks if b is not None]
    if not found:
        return None
    best, feature, theta, n_left, sums = (np.concatenate(parts) for parts in zip(*found))
    i = int(np.argmax(best <= best.min() + tol))  # features in ascending order
    return float(best[i]), int(feature[i]), float(theta[i]), int(n_left[i]), sums[i]


def scan_best_split(points, M: CenterSet, *, jobs: int = 1) -> SplitCandidate | None:
    """Best candidate over all (feature, point-value threshold) pairs.

    Thresholds sit at distinct point values, excluding each feature's max so
    both sides stay nonempty. Returns None when no feature has two distinct
    values. Candidates within 1e-9 relative of the best cost are treated as
    tied and resolved to the lowest (feature, threshold); distinct splits
    can have algebraically identical costs (any split whose sides keep the
    parent's center does), so an exact-equality tie-break would be at the
    mercy of summation order. The result does not depend on `jobs`.
    """
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    centers = M.centers
    P = points @ centers.T
    m2 = np.einsum("ij,ij->i", centers, centers)
    s_tot = P.sum(axis=0)
    sumsq = float(np.einsum("ij,ij->", points, points))
    pre_score = float((-2.0 * s_tot + m * m2).min())
    tol = _REL_TOL * max(1.0, abs(sumsq + pre_score))
    counts = np.arange(1, m, dtype=np.float64)
    lm2, rm2 = np.outer(m2, counts), np.outer(m2, m - counts)  # (k, m - 1) side size terms

    def side_costs(cums):
        # one (width, m - 1) block per center, folded with np.minimum
        lbest = reduce(np.minimum, (-2.0 * c + lm2[j] for j, c in enumerate(cums)))
        rbest = reduce(np.minimum, (-2.0 * (s_tot[j] - c) + rm2[j] for j, c in enumerate(cums)))
        return lbest + rbest

    # center-major: one contiguous row of inner products per center
    found = prefix_scan(points, np.ascontiguousarray(P.T), side_costs, tol, jobs)
    if found is None:
        return None
    score, feature, theta, n_left, cum = found
    ll = int((-2.0 * cum + lm2[:, n_left - 1]).argmin())
    rl = int((-2.0 * (s_tot - cum) + rm2[:, n_left - 1]).argmin())

    post_cost = sumsq + score
    gain = pre_score - score
    if -tol < gain < 0.0:
        gain = 0.0
    if -tol < post_cost < 0.0:
        post_cost = 0.0
    return SplitCandidate(feature, theta, ll, rl, post_cost, gain)


class _ClusterAggregates:
    """Per-cluster count / sum / sum-of-squares, for O(kd) induced-cost updates."""

    def __init__(self, pts: np.ndarray, labels: np.ndarray, k: int):
        self.count = np.bincount(labels, minlength=k).astype(np.int64)
        self.sums = cluster_sums(pts, labels, k)
        # bincount adds in row order; a masked 1-D sum would be pairwise
        self.sumsq = np.bincount(labels, weights=np.einsum("ij,ij->i", pts, pts), minlength=k)

    def move(self, block: np.ndarray, src: int, dst: int) -> None:
        """Move the points of `block` (rows) from cluster src to dst."""
        if block.shape[0] == 0 or src == dst:
            return
        s = block.sum(axis=0)
        q = float(np.einsum("ij,ij->", block, block))
        self.sums[src] -= s
        self.sums[dst] += s
        self.sumsq[src] -= q
        self.sumsq[dst] += q
        self.count[src] -= block.shape[0]
        self.count[dst] += block.shape[0]

    def cost(self) -> float:
        nz = self.count > 0
        per = self.sumsq[nz] - np.einsum(
            "ij,ij->i", self.sums[nz], self.sums[nz]
        ) / self.count[nz]
        return float(np.maximum(per, 0.0).sum())


def expand(
    X: DataMatrix,
    M: CenterSet,
    base: ThresholdTree,
    k_prime: int,
    jobs: int = 1,
    stop_condition: Callable[[TraceStep], bool] | None = None,
) -> ExpandResult:
    """Grow `base` to k_prime leaves by repeatedly taking the max-gain split.

    Zero-gain splits are taken as long as a valid split exists; a leaf whose
    points are all identical is skipped, and the loop ends early once every
    leaf is unsplittable. Ties on gain go to the lowest leaf id. Leaves made
    by the split that reaches k_prime are priced but not scanned. `base` may
    be any tree whose leaves are labeled (a lone unlabeled root gets the best
    center): built, cut with `prefix` or loaded with `from_json`, since its
    cells come from routing X. The input tree is not modified.
    `stop_condition`, when given, sees each step as it is taken and ends the
    expansion early when it returns True.
    """
    if M.d != X.d:
        raise ValueError("centers and data disagree on dimension")
    if k_prime < base.leaf_count:
        raise ValueError(f"budget {k_prime} is below the base leaf count {base.leaf_count}")
    tree = base.copy()
    leaves = tree.leaf_ids()
    if len(leaves) == 1 and tree.node(leaves[0]).label is None:
        tree.set_leaf_label(leaves[0], best_center(X.points, M)[0])
    for i in leaves:
        if tree.node(i).label is None:
            raise ValueError(f"base leaf {i} is unlabeled")

    leaf_cost: dict[int, float] = {}
    labels = np.empty(X.n, dtype=np.int64)

    def propose(leaf, ids, points, splittable):
        label, leaf_cost[leaf] = best_center(points, M)
        parent = tree.node(leaf).label
        if parent is None:  # a new child, whose points all carry the parent's label
            parent = labels[ids[0]]
            tree.set_leaf_label(leaf, label)
            if label != parent:
                agg.move(points, parent, label)
                labels[ids] = label
        else:
            labels[ids] = parent
        cand = scan_best_split(points, M, jobs=jobs) if splittable else None
        return None if cand is None else (cand.gain, cand.feature, cand.threshold)

    splits = grow(X, tree, k_prime, propose)
    # grow proposed every base leaf before returning, so `labels` is complete
    agg = _ClusterAggregates(X.points, labels, M.k)
    initial_surrogate = float(sum(leaf_cost.values()))
    initial_kmeans = agg.cost()

    trace: list[TraceStep] = []
    for leaf in splits:
        node = tree.node(leaf)
        lc, rc = leaf_cost[node.left], leaf_cost[node.right]
        prev_cost = leaf_cost.pop(leaf)
        gain = prev_cost - (lc + rc)
        if -_REL_TOL * max(1.0, abs(prev_cost)) < gain < 0.0:
            gain = 0.0
        step = TraceStep(
            len(trace) + 1, leaf, node.feature, node.threshold,
            tree.node(node.left).label, tree.node(node.right).label,
            gain, float(sum(leaf_cost.values())), agg.cost(),
        )
        trace.append(step)
        if stop_condition is not None and stop_condition(step):
            stop_reason = "callback"
            break
    else:
        stop_reason = "budget" if tree.leaf_count >= k_prime else "no_split"

    return ExpandResult(tree, tuple(trace), initial_surrogate, initial_kmeans, stop_reason)
