"""Reference clustering: k-means++ seeding followed by Lloyd refinement.

The seeding step samples each new center proportionally to the squared
distance from the already-chosen set, using cumulative-sum inversion of a
single uniform draw per center so that runs are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xkmeans.core import Assignment, CenterSet, DataMatrix, cluster_sums, kmeans_cost

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


def _sq_dists_to(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    diff = points - center
    return np.einsum("ij,ij->i", diff, diff)


def _nearest(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ties resolved to the lowest center index by argmin
    d2 = (
        np.einsum("ij,ij->i", points, points)[:, None]
        - 2.0 * points @ centers.T
        + np.einsum("ij,ij->i", centers, centers)[None, :]
    )
    return np.argmin(d2, axis=1)


def kmeanspp_seed(X: DataMatrix, k: int, rng: np.random.Generator) -> CenterSet:
    """Draw k seed centers from the rows of X by squared-distance sampling."""
    pts = X.points
    n = X.n
    if k > n:
        raise ValueError(f"cannot seed {k} centers from {n} points")

    chosen = np.empty(k, dtype=np.int64)
    d2 = np.empty(n)
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
        nd2 = _sq_dists_to(pts, pts[idx])
        d2 = nd2 if i == 0 else np.minimum(d2, nd2)
    return CenterSet(pts[chosen], source="kmeans++")


def _update_means(pts: np.ndarray, assign: np.ndarray, k: int, old: np.ndarray) -> np.ndarray:
    sums = cluster_sums(pts, assign, k)
    counts = np.bincount(assign, minlength=k)
    centers = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], old)

    empties = np.flatnonzero(counts == 0)
    if empties.size:
        # reseed an empty cluster to the point farthest from its current center
        dist = np.einsum("ij,ij->i", pts - centers[assign], pts - centers[assign])
        for j in empties:
            p = int(np.argmax(dist))
            centers[j] = pts[p]
            dist[p] = -1.0
    return centers


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
    assign = _nearest(pts, centers)
    history = [kmeans_cost(X, Assignment(assign))]

    it = 0
    for it in range(1, max_iter + 1):
        new_centers = _update_means(pts, assign, k, centers)
        movement = float(
            np.max(np.linalg.norm(new_centers - centers, axis=1) / (1.0 + np.linalg.norm(centers, axis=1)))
        )
        centers = new_centers
        new_assign = _nearest(pts, centers)
        history.append(kmeans_cost(X, Assignment(new_assign)))
        stable = np.array_equal(new_assign, assign)
        assign = new_assign
        if stable or movement < tol:
            break

    result_centers = CenterSet(centers, seed=init.seed, source=init.source)
    return KMeansResult(
        centers=result_centers,
        assignment=Assignment(assign),
        cost=history[-1],
        cost_history=tuple(history),
        n_iter=it,
    )


def fit_reference(X: DataMatrix, config: KMeansConfig) -> KMeansResult:
    """Best of n_init seeded runs by final cost (tie: lowest restart index)."""
    if config.k > X.n:
        raise ValueError(f"k={config.k} exceeds dataset size n={X.n}")
    streams = np.random.SeedSequence(config.seed).spawn(config.n_init)
    best: KMeansResult | None = None
    for stream in streams:
        rng = np.random.default_rng(stream)
        seeds = kmeanspp_seed(X, config.k, rng)
        run = lloyd(X, seeds, max_iter=config.max_iter, tol=config.tol)
        if best is None or run.cost < best.cost:
            best = run
    assert best is not None
    tagged = CenterSet(best.centers.centers, seed=config.seed, source="kmeans++")
    return KMeansResult(tagged, best.assignment, best.cost, best.cost_history, best.n_iter)
