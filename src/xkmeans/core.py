"""Dataset containers and the two clustering cost functions.

Everything downstream (tree builders, the expansion loop, the benchmark
runner) is measured through `kmeans_cost` and `surrogate_cost`. The cost of
a cell against a fixed center uses squared Euclidean distance throughout;
no other metric is supported. `best_center` prices a cell from its
`cell_stats` against its cheapest fixed center, wherever a cell is priced.
`thread_map` runs every task that `jobs` spreads over threads.
"""

from __future__ import annotations

import contextvars
import csv
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DataMatrix",
    "CenterSet",
    "Assignment",
    "kmeans_cost",
    "surrogate_cost",
    "cell_stats",
    "best_center",
    "accuracy",
    "load_csv",
    "thread_map",
]

_REL_TOL = 1e-9  # costs this close, relative, count as tied
_BLOCK_FLOATS = 1 << 15  # 256 KiB: one row block of a deviation or distance pass


def _frozen_array(values, dtype=np.float64, ndim=None) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """n points in d dimensions; the row index is the point id."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points, ndim=2)
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("dataset needs at least one point and one feature")
        if not np.all(np.isfinite(pts)):
            raise ValueError("dataset contains NaN or Inf entries")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class CenterSet:
    """k fixed centers."""

    centers: np.ndarray

    def __post_init__(self):
        ctr = _frozen_array(self.centers, ndim=2)
        if ctr.shape[0] < 1:
            raise ValueError("need at least one center")
        if not np.all(np.isfinite(ctr)):
            raise ValueError("centers contain NaN or Inf entries")
        object.__setattr__(self, "centers", ctr)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True)
class Assignment:
    """Cluster label per point id."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if labels.size and not np.issubdtype(labels.dtype, np.integer):
            as_int = labels.astype(np.int64)
            if not np.array_equal(as_int, labels):
                raise ValueError("labels must be integers")
            labels = as_int
        labels = _frozen_array(labels, dtype=np.int64, ndim=1)
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.shape[0]


def kmeans_cost(X: DataMatrix, a: Assignment) -> float:
    """Sum of squared distances of each point to its cluster mean.

    Empty clusters contribute zero. Labels are taken as opaque cluster ids;
    multiple tree leaves may share one.
    """
    if a.n != X.n:
        raise ValueError(f"assignment covers {a.n} points, dataset has {X.n}")
    return _cluster_pass(X.points, a.labels, int(a.labels.max()) + 1)[2]


def _cluster_pass(pts: np.ndarray, assign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Counts, means and k-means cost of an assignment from one gather of each
    nonempty cluster, its rows in ascending id order."""
    counts = np.bincount(assign, minlength=k)
    means = np.zeros((k, pts.shape[1]))
    cost = 0.0
    for j in np.flatnonzero(counts):
        cluster = pts[assign == j]
        means[j] = cluster.mean(axis=0)
        cluster -= means[j]
        cluster *= cluster
        cost += float(cluster.sum())
    return counts, means, cost


def cell_stats(points: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(m, mean, ss) of an (m, d) cell: ss is each feature's sum of squared
    deviations from the mean, and `ss / m` is `np.var` bit for bit."""
    m, d = points.shape
    mean = points.sum(axis=0) / max(m, 1)  # np.mean's sum and division; 0 when empty
    step = max(1, _BLOCK_FLOATS // d)
    if m <= step or d == 1:
        dev = points - mean  # one block: a lone column's sum is pairwise
        dev *= dev
        return m, mean, dev.sum(axis=0)
    # row blocks, each with the running sum as its row 0: for d >= 2 an axis-0
    # sum of C-ordered rows adds them one by one, so ss keeps its bits
    block = np.zeros((step + 1, d))
    for r0 in range(0, m, step):
        dev = np.subtract(points[r0 : r0 + step], mean, out=block[1 : m - r0 + 1])
        dev *= dev
        block[0] = block[: dev.shape[0] + 1].sum(axis=0)
    return m, mean, block[0].copy()


def best_center(stats, M: CenterSet) -> tuple[int, float]:
    """Index and cost of the cheapest fixed center for a cell given by its
    `cell_stats` (an empty cell costs 0), by the parallel-axis identity
    sum_{x in C} |x - mu|^2 = ss.sum() + m |mean - mu|^2, in O(k d). Under a
    shared shift s the second term inherits the mean's rounding (|s| 1e-16),
    so at s = 1e8 a price can be 1e-7 relative off the direct sum. Ties go
    to the lowest index within 1e-9 relative of the cheapest."""
    m, mean, ss = stats
    diff = M.centers - mean
    costs = ss.sum() + m * np.einsum("ij,ij->i", diff, diff)
    j = int(np.argmax(costs <= costs.min() * (1.0 + _REL_TOL)))
    return j, float(costs[j])


def surrogate_cost(X: DataMatrix, leaf_partition: Sequence, M: CenterSet) -> float:
    """Cost of a leaf partition when every cell uses its single best fixed center.

    The partition must cover every point id exactly once; empty cells are
    allowed and contribute zero.
    """
    if M.d != X.d:
        raise ValueError("centers and data disagree on dimension")
    cells = [np.asarray(cell, dtype=np.int64) for cell in leaf_partition]
    covered = np.concatenate([c for c in cells if c.size] or [np.empty(0, np.int64)])
    if covered.size != X.n or not np.array_equal(np.sort(covered), np.arange(X.n)):
        raise ValueError("leaf partition must cover each point id exactly once")
    return _total(best_center(cell_stats(X.points[cell]), M)[1] for cell in cells)


def _total(costs) -> float:
    """The costs added left to right in float64. The builtin `sum` adds
    floats with compensation from CPython 3.12 on, which moves output bits."""
    total = 0.0
    for cost in costs:
        total += cost
    return total


def accuracy(reference: Assignment, induced: Assignment) -> float:
    """Fraction of points whose induced label matches the reference label."""
    if reference.n != induced.n:
        raise ValueError("assignments have different lengths")
    if reference.n == 0:
        return 1.0
    return float(np.mean(reference.labels == induced.labels))


def thread_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """`fn` over `items`, in item order, on min(jobs, len(items)) threads;
    when that is one, on the calling thread. Each task runs in a copy of the
    caller's context, so settings kept there, such as `np.errstate`, hold."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    context = contextvars.copy_context()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda item: context.copy().run(fn, item), items))


def _looks_numeric(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_csv(path, columns: Sequence[int] | None = None) -> DataMatrix:
    """Read a comma-separated dataset with an optional header row.

    The header is detected by attempting to parse the first row as floats.
    `columns` selects a subset by original column index. Columns containing
    any non-numeric value are dropped with a warning. A UTF-8 BOM is skipped.
    One `np.loadtxt` pass reads the file, or a row-by-row parse where they could differ.
    """
    path = Path(path)
    try:
        data = _loadtxt(path, columns)
    except (ValueError, csv.Error):
        data = None  # read again below, outside this handler
    return DataMatrix(_load_rows(path, columns) if data is None else data)


def _loadtxt(path: Path, columns) -> np.ndarray:
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        first = next(filter(None, reader), None)
        header = first is not None and not all(_looks_numeric(tok) for tok in first)
        skip = reader.line_num if header else 0
        if first is None or header and next(filter(None, reader), None) is None:
            raise ValueError("no data rows")
    raw = path.read_bytes()
    if any(sep in raw for sep in b"\x1c\x1d\x1e\x1f"):
        raise ValueError("loadtxt strips these separators as whitespace, float() does not")
    # every column: with usecols, loadtxt skips its ragged-row check
    data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, encoding="utf-8-sig", skiprows=skip)
    if columns is not None and not (len(columns) and all(0 <= c < data.shape[1] for c in columns)):
        raise ValueError("no columns, or one out of range")
    return data if columns is None else data[:, list(columns)]


def _load_rows(path: Path, columns) -> np.ndarray:
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            rows = [row for row in csv.reader(fh) if row]
        except csv.Error as exc:  # such as a field over the csv module's size limit
            raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path} is empty")

    header = None
    if not all(_looks_numeric(tok) for tok in rows[0]):
        header = rows[0]
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path} has a header but no data rows")

    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError(f"{path} has ragged rows")

    keep = list(range(width)) if columns is None else list(columns)
    for c in keep:
        if not 0 <= c < width:
            raise ValueError(f"column index {c} out of range for {width} columns")

    numeric, dropped = [], []
    for c in keep:
        if all(_looks_numeric(row[c]) for row in rows):
            numeric.append(c)
        else:
            dropped.append(c)
    if dropped:
        # a header narrower than the rows has no name for the last columns
        names = [header[c] if c < len(header or ()) else str(c) for c in dropped]
        warnings.warn(f"dropping non-numeric columns: {', '.join(names)}")
    if not numeric:
        raise ValueError(f"{path} has no numeric columns to load")

    return np.array([[float(row[c]) for c in numeric] for row in rows])
