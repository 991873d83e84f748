"""The benchmark's workloads: the CSV each one generates from the seed, and
the `xkmeans run` flags it is measured with.

Every workload stresses a different layer, so that a later change to one
layer has a workload where that layer does most of the work and another
where it does little:

- outlier_wide: the criterion-7 outlier set (5000 x 1000). Wide cells make
  CSV parsing, high-d Lloyd, the exkmc split scan and the gini scan
  dominate, while the IMM base tree has only two inner nodes. It is the
  only workload on the threaded scan path (jobs 2), and its exkmc_imm ratio
  at 4k leaves is criterion 7's 1.0799 at seed 0.
- blobs_tall: many points over few features. IMM's dense per-node
  (points x candidate thresholds) matrix sets both the run time and the
  peak memory, while the scan and the load stay small. k is 4, not 8:
  with 8 centers the IMM tree's balance, and with it IMM's time, changes by
  +-25% from seed to seed, while with 4 it stays within a few percent.
- blobs_deep: 2-D blobs grown to k' = n. Thousands of tiny scans and
  split_leaf calls, the expansion's selection loop, kd best-first selection
  and 1500-leaf scoring and export dominate. Budgets 500 and 1500 rebuild
  the same prefix, and at k' = n the tree must reproduce the reference.
  BENCHMARK.json does not list it, so it runs only by hand: its thousands
  of small interpreted steps slow and speed up with the shared host far
  more than the other two workloads do.

Sizes are chosen so that one repetition takes a few seconds (outlier_wide
about 16 s), which lets a run of the benchmark take several repetitions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from xkmeans.cli import METHODS, parse_budgets
from xkmeans.synth import gen_gaussian_blobs, gen_synthetic_i


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], np.ndarray]  # seed -> points
    k: int
    leaves: str
    jobs: int
    methods: tuple[str, ...] = METHODS
    # seed -> exkmc_imm cost ratio at the largest budget, to 4 d.p.
    pinned_ratio: dict[int, float] = field(default_factory=dict)

    @property
    def budgets(self) -> list[int]:
        return parse_budgets(self.leaves, self.k)

    def run_args(self, csv_path: Path, out_dir: Path, seed: int, jobs: int) -> list[str]:
        return [
            "run", "--data", str(csv_path), "--k", str(self.k), "--leaves", self.leaves,
            "--methods", ",".join(self.methods), "--seed", str(seed), "--jobs", str(jobs),
            "--out", str(out_dir),
        ]


def _blobs(k: int, n: int, d: int, separation: float) -> Callable[[int], np.ndarray]:
    return lambda seed: gen_gaussian_blobs(k, n, d, separation, seed=seed)[0].points


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "outlier_wide",
            lambda seed: gen_synthetic_i(seed=seed).points,
            k=3,
            leaves="k,4k",
            jobs=2,
            methods=("exkmc_imm", "imm", "kdtree", "gini_tree"),
            pinned_ratio={0: 1.0799},
        ),
        Workload("blobs_tall", _blobs(4, 8000, 10, 1.5), k=4, leaves="k,2k,4k", jobs=1),
        Workload("blobs_deep", _blobs(4, 1500, 2, 3.0), k=4, leaves="4,500,1500", jobs=1),
    )
}


def write_csv(points: np.ndarray, path: Path) -> tuple[int, str]:
    """Write points so that they parse back bit-for-bit; returns (bytes, sha256)."""
    np.savetxt(path, points, delimiter=",", fmt="%.17g")
    data = path.read_bytes()
    return len(data), hashlib.sha256(data).hexdigest()
