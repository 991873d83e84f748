"""Checks on the files one `xkmeans run` wrote, and a digest of them.

The digest covers every output file, with results.csv's wall_time_ms
column dropped, so two runs of the same configuration must digest equal.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import Workload

_REL_TOL = 1e-9
_CHEAPEST_CENTER_LABELS = {"reference", "exkmc", "kdtree"}


def read_results(out_dir: Path) -> list[dict]:
    with (out_dir / "results.csv").open(newline="") as fh:
        return list(csv.DictReader(fh))


def largest_budget_ratio(rows: list[dict], budget: int) -> float:
    """Cost ratio of the exkmc_imm tree at the given budget."""
    for row in rows:
        if row["method"] == "exkmc_imm" and int(row["k_prime"]) == budget:
            return float(row["cost_ratio"])
    raise KeyError(f"no exkmc_imm row at budget {budget}")


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        if path.name == "results.csv":
            for line in path.read_text().splitlines():
                h.update(line.rsplit(",", 1)[0].encode() + b"\n")
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def _within(lower: float, upper: float) -> bool:
    return lower <= upper + _REL_TOL * max(1.0, abs(upper))


def check_outputs(out_dir: Path, workload: Workload, n: int, seed: int) -> list[str]:
    """Problems found in one run's outputs; an empty list means it passed."""
    try:
        rows = read_results(out_dir)
    except OSError as exc:
        return [f"results.csv unreadable: {exc}"]
    problems = []
    expected = {("reference", workload.k)} | {
        (m, b) for m in workload.methods for b in workload.budgets
    }
    found = [(row["method"], int(row["k_prime"])) for row in rows]
    if sorted(found) != sorted(expected):
        problems.append(f"result rows {sorted(found)} != expected {sorted(expected)}")

    for row in rows:
        key = f"{row['method']} k{row['k_prime']}"
        # the surrogate prices each leaf at its cheapest center, so it bounds
        # the k-means cost only where that center is also the leaf's label;
        # IMM and gini leaves carry other labels
        if row["method"] in _CHEAPEST_CENTER_LABELS and not _within(
            float(row["kmeans_cost"]), float(row["surrogate_cost"])
        ):
            problems.append(f"{key}: kmeans_cost exceeds surrogate_cost")
        if row["method"] == "exkmc_imm" and int(row["k_prime"]) == n and float(row["accuracy"]) != 1.0:
            problems.append(f"{key}: a tree with k' = n leaves must reproduce the reference")
        if row["method"] == "reference":
            continue
        stem = f"{row['method']}_k{row['k_prime']}"
        if not (out_dir / f"tree_{stem}.json").is_file():
            problems.append(f"{key}: tree_{stem}.json missing")
        if row["method"].startswith("exkmc"):
            trace = out_dir / f"trace_{stem}.jsonl"
            if not trace.is_file():
                problems.append(f"{key}: {trace.name} missing")
                continue
            costs = [json.loads(line)["surrogate_cost"] for line in trace.read_text().splitlines()]
            if not all(_within(b, a) for a, b in zip(costs, costs[1:])):
                problems.append(f"{key}: surrogate_cost increases along the trace")

    if seed in workload.pinned_ratio and not problems:
        ratio = largest_budget_ratio(rows, workload.budgets[-1])
        if round(ratio, 4) != workload.pinned_ratio[seed]:
            problems.append(
                f"exkmc_imm ratio {ratio:.4f} at seed {seed}, expected {workload.pinned_ratio[seed]}"
            )
    return problems
