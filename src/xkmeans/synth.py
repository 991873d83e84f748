"""Synthetic dataset generators: two adversarial constructions and a blob toy.

The codeword dataset places k clusters that are globally far apart but
locally identical in shape: each cluster is one random sign vector with a
single coordinate zeroed, repeated for every coordinate. The outlier
dataset hides two extreme points inside two large near-binary clouds.
"""

from __future__ import annotations

import numpy as np

from xkmeans.core import Assignment, CenterSet, DataMatrix

__all__ = [
    "gen_synthetic_ii",
    "points_from_codewords",
    "gen_synthetic_i",
    "gen_gaussian_blobs",
]

_CODEWORD_RETRIES = 100


def points_from_codewords(codewords: np.ndarray) -> tuple[DataMatrix, CenterSet, Assignment]:
    """Expand codewords into their clusters: one point per zeroed coordinate."""
    codewords = np.asarray(codewords, dtype=np.float64)
    k, d = codewords.shape
    blocks = []
    for i in range(k):
        block = np.tile(codewords[i], (d, 1))
        block[np.arange(d), np.arange(d)] = 0.0
        blocks.append(block)
    X = DataMatrix(np.vstack(blocks))
    labels = Assignment(np.repeat(np.arange(k), d))
    return X, CenterSet(codewords), labels


def _min_pairwise_sq(rows: np.ndarray) -> float:
    k = rows.shape[0]
    if k < 2:
        return float("inf")
    best = float("inf")
    for i in range(k - 1):
        diff = rows[i + 1:] - rows[i]
        best = min(best, float(np.einsum("ij,ij->i", diff, diff).min()))
    return best


def gen_synthetic_ii(k: int, d: int, seed: int | None = None) -> tuple[DataMatrix, CenterSet, Assignment]:
    """Sample k codewords in {-1, 1}^d (d > k^2), rejecting sets closer than
    d/4 in squared distance, and expand them into the full dataset of k*d
    points in {-1, 0, 1}^d."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if d <= k**2:
        raise ValueError(f"need d > k^2 = {k ** 2}, got d={d}")
    rng = np.random.default_rng(seed)
    floor = d / 4.0
    achieved = -np.inf
    for _ in range(_CODEWORD_RETRIES):
        codewords = rng.choice([-1.0, 1.0], size=(k, d))
        achieved = _min_pairwise_sq(codewords)
        if achieved >= floor:
            return points_from_codewords(codewords)
    raise RuntimeError(
        f"could not sample codewords with min pairwise squared distance >= {floor}"
        f" (best achieved {achieved})"
    )


def gen_synthetic_i(
    seed: int | None = None, n: int = 5000, d: int = 1000, nu: float = 1000.0
) -> DataMatrix:
    """Two extreme anchor points hidden among two large near-binary clouds.

    Rows 0 and 1 are (nu, 1, ..., 1) and (nu, 0, ..., 0). Of the rest, half
    are mostly-ones with 100 random features zeroed, half are mostly-zeros
    with 100 random features set to one; feature 0 is 0 for all of them.
    """
    if n < 2 or d < 102:
        raise ValueError("need n >= 2 and d >= 102")
    rng = np.random.default_rng(seed)
    data = np.zeros((n, d))
    data[0] = 1.0
    data[0, 0] = nu
    data[1, 0] = nu

    ones_end = 2 + (n - 2) // 2
    data[2:ones_end, 1:] = 1.0
    for row in range(2, n):  # one draw per row, in row order
        flip = rng.choice(np.arange(1, d), size=100, replace=False)
        data[row, flip] = 0.0 if row < ones_end else 1.0
    return DataMatrix(data)


def gen_gaussian_blobs(
    k: int, n: int, d: int, separation: float, seed: int | None = None
) -> tuple[DataMatrix, Assignment]:
    """k unit-variance isotropic blobs with centers at least `separation` apart."""
    if k < 1 or n < k or d < 1:
        raise ValueError("need k >= 1, n >= k, d >= 1")
    rng = np.random.default_rng(seed)

    scale = max(separation, 1.0) * k
    for _ in range(200):
        if not np.isfinite(2 * scale):  # the width of [-scale, scale]
            raise ValueError(f"blob separation {separation!r} leaves no finite box for the centers")
        centers = rng.uniform(-scale, scale, size=(k, d))
        if np.sqrt(_min_pairwise_sq(centers)) >= separation:  # inf for one center
            break
        scale *= 1.5
    else:
        raise RuntimeError("could not place blob centers with requested separation")

    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    points = np.vstack(
        [centers[i] + rng.standard_normal((sizes[i], d)) for i in range(k)]
    )
    labels = np.repeat(np.arange(k), sizes)
    return DataMatrix(points), Assignment(labels)
