"""Scaling probe: how IMM and the split scan grow with the number of points.

Calls `build_imm` and `scan_best_split` directly on nested strided subsets
(n/4, n/2, n) of one dataset and fits log(time) against log(n). The README
claims O(d k n + d n log n) per scanned leaf, a slope near 1; IMM's dense
candidate matrix is measured to be quadratic or worse, a slope of 2 or more.
"""

from __future__ import annotations

import math
import time

import numpy as np

from xkmeans.core import Assignment, DataMatrix
from xkmeans.exkmc import scan_best_split
from xkmeans.imm import build_imm
from xkmeans.kmeans import KMeansConfig, fit_reference

_MIN_TIMED_S = 0.3  # repeat a call until this much time is spent; keep the fastest


def _fastest(call) -> float:
    best, spent = math.inf, 0.0
    while spent < _MIN_TIMED_S:
        started = time.perf_counter()
        call()
        elapsed = time.perf_counter() - started
        best, spent = min(best, elapsed), spent + elapsed
    return best


def _slope(sizes: list[int], seconds: list[float]) -> float:
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def scaling_probe(points: np.ndarray, k: int, seed: int) -> dict[str, float]:
    X = DataMatrix(points)
    reference = fit_reference(X, KMeansConfig(k=k, seed=seed))
    sizes, imm_s, scan_s = [], [], []
    for stride in (4, 2, 1):
        # strided, so every cluster of the blob layout keeps its share
        ids = np.arange(0, X.n, stride)
        sub = DataMatrix(X.points[ids])
        labels = Assignment(reference.assignment.labels[ids])
        sizes.append(ids.size)
        imm_s.append(_fastest(lambda: build_imm(sub, reference.centers, labels)))
        scan_s.append(_fastest(lambda: scan_best_split(sub.points, reference.centers)))
    return {"imm.n_exponent": _slope(sizes, imm_s), "exkmc.scan_n_exponent": _slope(sizes, scan_s)}
