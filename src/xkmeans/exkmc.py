"""Greedy tree expansion under a fixed-center surrogate cost.

The expansion repeatedly splits the leaf whose best split buys the
largest drop in surrogate cost, labels the two children with their best
reference centers, and rescans only those children. Because the centers
never move, the per-leaf costs are independent and the whole loop needs no
global recomputation. The loop itself is `tree.grow`: `expand` prices each
new cell with `best_center`, its one labeling rule, and ranks its split by
the scan's gain, which `grow` hands back as that step's gain in the trace.

The split scan avoids evaluating every (threshold, center) pair from
scratch. For a side S of the cell and a center mu,

    sum_{x in S} |x - mu|^2 = sum |x|^2 - 2 <sum_{x in S} x, mu> + |S| |mu|^2,

and the first term, summed over both sides, does not depend on the split,
so ranking splits only needs running inner products <x, mu> accumulated in
sorted feature order. x and mu are measured from the cell's mean: then
every term is the size of the cell's spread, not of its distance from the
origin, as in the parallel-axis pricing of `core.best_center`. The
products are formed center-major by `np.einsum`, one contiguous row per
center, whose sums no BLAS thread count changes.
One sort per feature plus an O(k) update per threshold gives
O(d k n + d n log n) per scanned leaf. The scan runs center-major on
blocks of `core._BLOCK_FLOATS // n` features, as many values as a row block
of the deviation passes, and scores only the cuts a split can take, one
at each boundary between two distinct values of a feature: each center's
products are cumsummed in sorted order as one (block, n) array, read at
those cuts, and folded into the elementwise min over the centers one
center at a time. A feature of two distinct values thus costs one score,
not n - 1.
Each block is argsorted stably, so that ties keep input order.
That search, `prefix_scan`, is also the gini baseline's, on label counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from xkmeans.core import _BLOCK_FLOATS, _REL_TOL, CenterSet, DataMatrix, _total, best_center, cell_stats
from xkmeans.tree import ThresholdTree, grow

__all__ = [
    "TraceStep",
    "ExpandResult",
    "scan_best_split",
    "expand",
]

@dataclass(frozen=True)
class TraceStep:
    """One split of `expand`; `gain` is the scan gain it was ranked by."""

    step: int
    leaf: int
    feature: int
    threshold: float
    left_label: int
    right_label: int
    gain: float
    surrogate_cost: float
    kmeans_cost: float


@dataclass(frozen=True)
class ExpandResult:
    tree: ThresholdTree
    trace: tuple[TraceStep, ...]
    initial_surrogate: float
    initial_kmeans_cost: float
    stop_reason: str  # "budget", "no_split", or "callback"


def prefix_scan(points: np.ndarray, rows: np.ndarray, score: Callable, tol: float):
    """Lowest-scoring threshold split of a cell, by prefix sums in sorted order.

    `points` (m, d) is scanned in blocks of `_BLOCK_FLOATS // m` features
    (at least one), so the scan's working set stays a few blocks of that
    many values. Each block is copied feature-major, sorted, and argsorted
    stably, so ties keep input order. Only the cuts between distinct values
    are scored: each of the r per-point statistics `rows` (r, m) is
    cumsummed in sorted order up to the block's last such cut, and
    `score(cums, left)` maps an iterator over those r prefix sums at the
    cuts, one row at a time, with `left` points left of each cut, to each
    cut's score. The first cut, feature by feature, within `tol` of the best
    of all wins, never one reached through a chain of near-ties; each block
    keeps only its first cut and the cuts below every earlier one, so the
    winner is kept whatever the block width. A NaN score (only from an
    overflowing cell) makes the scan's first cut win.
    Returns (score, feature, threshold), or None.
    """
    m, d = points.shape
    width = max(1, _BLOCK_FLOATS // m)
    found = []
    for c0 in range(0, d, width):
        blk = np.ascontiguousarray(points[:, c0 : c0 + width].T)
        sv = np.sort(blk, axis=1)
        valid = sv[:, :-1] < sv[:, 1:]
        ends = np.flatnonzero(valid.any(axis=0))
        if ends.size == 0:
            continue
        last = ends[-1] + 1  # every cut of the block lies before sorted position `last`
        cuts = valid[:, :last]
        at = np.flatnonzero(cuts)  # each cut's place in a (width, last) array, feature-major
        left = np.broadcast_to(np.arange(1.0, last + 1.0), cuts.shape)[cuts]
        order = np.argsort(blk, axis=1, kind="stable")[:, :last]
        tot = score((np.cumsum(row[order], axis=1).ravel()[at] for row in rows), left)
        # the block's first cut, even at +inf, and each cut below every earlier one; a NaN is kept
        low = np.flatnonzero(np.concatenate(([True], ~(tot[1:] >= np.minimum.accumulate(tot[:-1])))))
        f, t = np.divmod(at[low], last)  # thresholds via the order: np.sort may swap a tie of -0.0 and 0.0
        found.append((tot[low], c0 + f, blk[f, order[f, t]]))
    if not found:
        return None
    best, feature, theta = (np.concatenate(parts) for parts in zip(*found))
    i = int(np.argmax(best <= best.min() + tol))  # cuts in scan order
    return float(best[i]), int(feature[i]), float(theta[i])


def scan_best_split(points, M: CenterSet, stats=None) -> tuple[float, int, float] | None:
    """Best (gain, feature, threshold) over all point-value thresholds; the
    gain is the cell's cost at its best center less both sides' at theirs.

    Thresholds sit at distinct point values, excluding each feature's max so
    both sides stay nonempty. Returns None when no feature has two distinct
    values. Candidates within 1e-9 relative of the best cost are treated as
    tied and resolved to the lowest (feature, threshold); distinct splits
    can have algebraically identical costs (any split whose sides keep the
    parent's center does), so an exact-equality tie-break would be at the
    mercy of summation order. A smaller gain, of either sign, is 0.0. The
    sides get no labels here: `expand` labels every cell with `best_center`.
    `stats` is the cell's `cell_stats`, computed here when not given.
    """
    points = np.asarray(points, dtype=np.float64)
    m, mean, ss = cell_stats(points) if stats is None else stats
    if m < 2:
        return None
    # centered, the identity's terms are the size of the cell's spread
    centers = M.centers - mean
    # einsum, not BLAS: its sums do not depend on the BLAS thread count
    P = np.einsum("ij,kj->ki", points - mean, centers)
    m2 = np.einsum("ij,ij->i", centers, centers)
    s_tot = P.sum(axis=1)
    pre_score = float((-2.0 * s_tot + m * m2).min())
    tol = _REL_TOL * max(1.0, abs(float(ss.sum()) + pre_score))

    def side_costs(cums, left):
        # each center's row of prefix sums folded into both sides' np.minimum
        right = m - left
        lbest = rbest = np.inf
        for j, c in enumerate(cums):
            lbest = np.minimum(lbest, -2.0 * c + m2[j] * left)
            rbest = np.minimum(rbest, -2.0 * (s_tot[j] - c) + m2[j] * right)
        return lbest + rbest

    found = prefix_scan(points, P, side_costs, tol)
    if found is None:
        return None
    score, feature, theta = found
    gain = pre_score - score
    if abs(gain) < tol:  # round-off of either sign is no gain
        gain = 0.0
    return gain, feature, theta


class _ClusterAggregates:
    """Count, mean and within-cluster sum of squares W of each cluster,
    moved cell by cell in O(d) by the merge formula of Chan, Golub & LeVeque
    ("Algorithms for Computing the Sample Variance", Am. Stat. 1983)."""

    def __init__(self, k: int, d: int):
        self.count = np.zeros(k, dtype=np.int64)
        self.mean = np.zeros((k, d))
        self.W = np.zeros(k)

    def merge(self, stats, j: int, sign: int = 1) -> None:
        """Add a cell's `cell_stats` to cluster j, or with sign -1 remove them."""
        m, mean, ss = stats
        n_old = int(self.count[j])
        n = n_old + sign * m
        if n == 0:  # emptied: no stale mean for the next merge
            self.count[j], self.mean[j], self.W[j] = 0, 0.0, 0.0
            return
        delta = mean - self.mean[j]
        self.W[j] += sign * (ss.sum() + n_old * m / n * float(np.einsum("i,i->", delta, delta)))
        self.mean[j] += sign * m / n * delta
        self.count[j] = n

    def cost(self) -> float:
        return float(np.maximum(self.W, 0.0).sum())


def expand(
    X: DataMatrix,
    M: CenterSet,
    base: ThresholdTree,
    k_prime: int,
    stop_condition: Callable[[TraceStep], bool] | None = None,
) -> ExpandResult:
    """Grow `base` to k_prime leaves by repeatedly taking the max-gain split.

    Zero-gain splits are taken as long as a valid split exists; a leaf whose
    points are all identical is skipped, and the loop ends early once every
    leaf is unsplittable. Ties on gain go to the lowest leaf id; a step's gain
    is the scan's, round-off counting as zero. Leaves made by the split that
    reaches k_prime are priced but not scanned. `base` may be any tree whose
    leaves are labeled with indices of M's centers (a lone unlabeled root
    gets its best center): built, cut with `prefix` or loaded with
    `from_json`, since its cells come from routing X. The input tree is not
    modified.
    `stop_condition`, when given, sees each step as it is taken and ends the
    expansion early when it returns True.
    """
    if M.d != X.d:
        raise ValueError("centers and data disagree on dimension")
    if k_prime < base.leaf_count:
        raise ValueError(f"budget {k_prime} is below the base leaf count {base.leaf_count}")
    tree = base.prefix(base.leaf_count)
    for i in tree.leaf_ids():
        label = tree.nodes[i].label
        if label is None and tree.leaf_count > 1:
            raise ValueError(f"base leaf {i} is unlabeled")
        if label is not None and not 0 <= label < M.k:
            raise ValueError(f"base leaf {i}'s label {label} is not one of the {M.k} centers")

    leaf_cost: dict[int, float] = {}
    fresh: dict[int, tuple] = {}  # cell stats of the leaves not yet in `agg`

    def propose(leaf, ids, points, splittable):
        fresh[leaf] = stats = cell_stats(points)
        label, leaf_cost[leaf] = best_center(stats, M)
        return label, scan_best_split(points, M, stats) if splittable else None

    splits = grow(X, tree, k_prime, propose)
    agg = _ClusterAggregates(M.k, X.d)  # grow proposed every base leaf already
    for leaf in tree.leaf_ids():
        agg.merge(fresh.pop(leaf), tree.nodes[leaf].label)
    initial_surrogate = _total(leaf_cost.values())
    initial_kmeans = agg.cost()

    trace: list[TraceStep] = []
    for leaf, gain in splits:
        node = tree.nodes[leaf]
        for child in (node.left, node.right):  # its points leave the parent's cluster
            stats, label = fresh.pop(child), tree.nodes[child].label
            if label != node.label:
                agg.merge(stats, node.label, -1)
                agg.merge(stats, label)
        del leaf_cost[leaf]
        step = TraceStep(
            len(trace) + 1, leaf, node.feature, node.threshold,
            tree.nodes[node.left].label, tree.nodes[node.right].label,
            gain, _total(leaf_cost.values()), agg.cost(),
        )
        trace.append(step)
        if stop_condition is not None and stop_condition(step):
            stop_reason = "callback"
            break
    else:
        stop_reason = "budget" if tree.leaf_count >= k_prime else "no_split"

    return ExpandResult(tree, tuple(trace), initial_surrogate, initial_kmeans, stop_reason)
