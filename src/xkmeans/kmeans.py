"""Reference clustering: k-means++ seeding followed by Lloyd refinement.

The seeding step samples each new center proportionally to the squared
distance from the already-chosen set, using cumulative-sum inversion of a
single uniform draw per center so that runs are reproducible bit-for-bit.
Each restart has its own seed stream, so restarts may run on threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xkmeans.core import _BLOCK_FLOATS, _REL_TOL, Assignment, CenterSet, DataMatrix, _cluster_pass, thread_map

__all__ = ["KMeansConfig", "KMeansResult", "kmeanspp_seed", "lloyd", "fit_reference"]


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    n_init: int = 10
    max_iter: int = 300
    tol: float = 1e-4
    seed: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.n_init < 1 or self.max_iter < 1:
            raise ValueError("n_init and max_iter must be at least 1")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")


@dataclass(frozen=True)
class KMeansResult:
    centers: CenterSet
    assignment: Assignment
    cost: float
    cost_history: tuple[float, ...]
    n_iter: int


def _sq_dists_to(points: np.ndarray, center: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Each row's squared distance to `center`, via `buf` one row block at a time."""
    out = np.empty(points.shape[0])
    for r0 in range(0, points.shape[0], buf.shape[0]):
        diff = np.subtract(points[r0 : r0 + buf.shape[0]], center, out=buf[: points.shape[0] - r0])
        np.einsum("ij,ij->i", diff, diff, out=out[r0 : r0 + diff.shape[0]])
    return out


def _nearest(points: np.ndarray, mu: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ranks |x - c|^2 - |x - mu|^2 = -2 x.(c - mu) + 2 mu.(c - mu) + |c - mu|^2 (mu: the data's
    # mean), whose terms scale with the data's spread, not a shared offset. argmin ties go to
    # the lowest center; doubling the products is exact bar subnormals, and copies no (n, d)
    c = centers - mu
    d2 = -2.0 * (points @ c.T) + (2.0 * (mu @ c.T) + np.einsum("ij,ij->i", c, c))
    return np.argmin(d2, axis=1)


def kmeanspp_seed(X: DataMatrix, k: int, rng: np.random.Generator) -> CenterSet:
    """Draw k seed centers from the rows of X by squared-distance sampling."""
    pts = X.points
    n = X.n
    if k > n:
        raise ValueError(f"cannot seed {k} centers from {n} points")

    chosen = np.empty(k, dtype=np.int64)
    buf = np.empty((min(n, max(1, _BLOCK_FLOATS // X.d)), X.d))
    for i in range(k):
        weights = np.ones(n) if i == 0 else d2
        cum = np.cumsum(weights)
        if cum[-1] <= 0.0:
            # remaining mass is zero only when every unchosen point duplicates
            # a chosen one
            raise ValueError(
                f"cannot seed {k} distinct centers: only {i} distinct points"
            )
        u = rng.random() * cum[-1]
        idx = int(np.searchsorted(cum, u, side="right"))
        if idx >= n:
            # u rounded up onto the total mass; take the last weighted point
            idx = int(np.flatnonzero(weights > 0)[-1])
        chosen[i] = idx
        if i + 1 < k:  # the last center's distances weigh no further draw
            nd2 = _sq_dists_to(pts, pts[idx], buf)
            d2 = nd2 if i == 0 else np.minimum(d2, nd2)
    return CenterSet(pts[chosen])


def _update_means(pts: np.ndarray, assign: np.ndarray, counts: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Next centers: `means`, with each empty cluster's row set (in place) to
    the point farthest from its own cluster's mean."""
    empties = np.flatnonzero(counts == 0)
    if empties.size:
        dev = pts - means[assign]
        dist = np.einsum("ij,ij->i", dev, dev)
        for j in empties:
            p = int(np.argmax(dist))
            means[j] = pts[p]
            dist[p] = -1.0
    return means


def lloyd(X: DataMatrix, init: CenterSet, max_iter: int = 300, tol: float = 1e-4) -> KMeansResult:
    """Alternate nearest-center assignment and mean updates.

    Stops on an exact assignment fixed point (so the returned centers are
    exactly the means of the returned assignment), on small relative center
    movement, or at max_iter. The recorded cost history is non-increasing.
    """
    pts = X.points
    if init.d != X.d:
        raise ValueError("init centers and data disagree on dimension")
    k = init.k
    centers = np.array(init.centers)
    mu = pts.mean(axis=0)
    assign = _nearest(pts, mu, centers)
    counts, means, cost = _cluster_pass(pts, assign, k)
    history = [cost]

    it = 0
    for it in range(1, max_iter + 1):
        new_centers = _update_means(pts, assign, counts, means)
        movement = float(
            np.max(np.linalg.norm(new_centers - centers, axis=1) / (1.0 + np.linalg.norm(centers, axis=1)))
        )
        centers = new_centers
        new_assign = _nearest(pts, mu, centers)
        stable = np.array_equal(new_assign, assign)
        if not stable:
            counts, means, cost = _cluster_pass(pts, new_assign, k)
        history.append(cost)  # a stable assignment repeats the previous cost
        assign = new_assign
        if stable or movement < tol:
            break

    return KMeansResult(
        centers=CenterSet(centers),
        assignment=Assignment(assign),
        cost=history[-1],
        cost_history=tuple(history),
        n_iter=it,
    )


def fit_reference(X: DataMatrix, config: KMeansConfig, jobs: int = 1) -> KMeansResult:
    """Best of n_init seeded runs by final cost: the lowest restart index
    within 1e-9 relative of the cheapest, as `best_center` picks centers.
    The restarts run through `thread_map`; any `jobs` keeps the same one."""
    if config.k > X.n:
        raise ValueError(f"k={config.k} exceeds dataset size n={X.n}")

    def restart(stream):
        seeds = kmeanspp_seed(X, config.k, np.random.default_rng(stream))
        return lloyd(X, seeds, max_iter=config.max_iter, tol=config.tol)

    runs = thread_map(restart, np.random.SeedSequence(config.seed).spawn(config.n_init), jobs)
    costs = np.array([run.cost for run in runs])
    return runs[int(np.argmax(costs <= costs.min() * (1.0 + _REL_TOL)))]
