"""Experiment runner and command-line surface.

`run` fits one reference clustering per configuration, builds every
requested method once at the largest leaf budget, reads each smaller
budget's tree off that build as a prefix, and writes a results.csv plus a
trace file per expansion budget and JSON/DOT exports per tree. `explain`
prints the root-to-leaf decision path of a point through an exported tree.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from xkmeans.baselines import build_gini_tree, build_kdtree
from xkmeans.core import CostReport, DataMatrix, accuracy, kmeans_cost, load_csv, surrogate_cost
from xkmeans.exkmc import expand, root_tree
from xkmeans.imm import build_imm
from xkmeans.kmeans import KMeansConfig, fit_reference
from xkmeans.synth import SyntheticIISpec, gen_gaussian_blobs, gen_synthetic_i, gen_synthetic_ii
from xkmeans.tree import ThresholdTree

METHODS = ("exkmc", "exkmc_imm", "imm", "kdtree", "gini_tree")

RESULT_COLUMNS = (
    "method",
    "k_prime",
    "kmeans_cost",
    "surrogate_cost",
    "cost_ratio",
    "accuracy",
    "leaves",
    "wall_time_ms",  # last: benchmarks/check.py drops it before digesting
)


@dataclass
class ExperimentConfig:
    k: int
    data: str | None = None
    columns: list[int] | None = None
    synth: str | None = None
    synth_d: int = 1024
    synth_n: int = 500
    separation: float = 5.0
    budgets: list[int] = field(default_factory=list)
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    kmeans: KMeansConfig | None = None
    out: str = "results"
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if (self.data is None) == (self.synth is None):
            raise ValueError("exactly one of a csv path or a synthetic spec is required")
        if not self.budgets:
            self.budgets = [self.k * m for m in (1, 2, 3, 4)]
        if self.budgets[0] < 1 or any(a >= b for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValueError("leaf budgets must be at least 1 and strictly ascending")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {', '.join(unknown)}; choose from {', '.join(METHODS)}")
        if self.kmeans is None:
            self.kmeans = KMeansConfig(k=self.k, seed=self.seed)


def parse_budgets(text: str, k: int) -> list[int]:
    """Comma list of leaf budgets; a token like '3k' means 3 * k."""
    budgets = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token.endswith("k"):
            factor = token[:-1] or "1"
            budgets.append(int(factor) * k)
        else:
            budgets.append(int(token))
    if not budgets:
        raise ValueError("no leaf budgets given")
    return budgets


def _load_dataset(config: ExperimentConfig) -> DataMatrix:
    if config.data is not None:
        return load_csv(config.data, columns=config.columns)
    name = config.synth
    if name == "synthetic1":
        return gen_synthetic_i(seed=config.seed)
    if name == "synthetic2":
        spec = SyntheticIISpec(k=config.k, d=config.synth_d, seed=config.seed)
        X, _, _ = gen_synthetic_ii(spec)
        return X
    if name == "blobs":
        X, _ = gen_gaussian_blobs(
            config.k, config.synth_n, config.synth_d, config.separation, seed=config.seed
        )
        return X
    raise ValueError(f"unknown synthetic dataset {name!r}; choose synthetic1, synthetic2, or blobs")


def _score(X, tree, reference) -> CostReport:
    """Costs of a tree's clustering; cells come from routing, so a tree
    needs no build-time cell membership to be scored."""
    assignment = tree.induced_assignment(X)
    leaf = tree.leaf_of_points(X)
    order = np.argsort(leaf, kind="stable")
    sizes = np.bincount(leaf, minlength=len(tree.nodes))[tree.leaf_ids()]
    cells = np.split(order, np.cumsum(sizes)[:-1])
    return CostReport.build(
        kmeans_cost=kmeans_cost(X, assignment),
        surrogate_cost=surrogate_cost(X, cells, reference.centers),
        leaf_count=tree.leaf_count,
        reference_cost=reference.cost,
        accuracy=accuracy(reference.assignment, assignment),
    )


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one configuration; returns the output paths and result rows."""
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    X = _load_dataset(config)
    if config.k > X.n:
        raise ValueError(f"k={config.k} exceeds dataset size n={X.n}")

    reference = fit_reference(X, config.kmeans)
    rows: list[dict] = [
        {
            "method": "reference",
            "k_prime": config.k,
            "kmeans_cost": reference.cost,
            "surrogate_cost": reference.cost,
            "cost_ratio": 1.0,
            "accuracy": 1.0,
            "leaves": config.k,
            "wall_time_ms": 0.0,
        }
    ]
    paths: dict[str, Path] = {}

    imm_base = None
    base_ms = 0.0
    if any(m in config.methods for m in ("imm", "exkmc_imm")):
        base_started = time.perf_counter()
        imm_base = build_imm(X, reference.centers, reference.assignment)
        base_ms = (time.perf_counter() - base_started) * 1000.0

    largest = config.budgets[-1]
    for method in config.methods:
        started = time.perf_counter()
        trace, base_leaves = None, 1
        if method == "imm":
            full = imm_base
        elif method in ("exkmc", "exkmc_imm"):
            base = imm_base if method == "exkmc_imm" else root_tree(X, reference.centers)
            base_leaves = base.leaf_count
            if config.budgets[0] < base_leaves:
                raise ValueError(
                    f"budget {config.budgets[0]} is below the base tree's {base_leaves} leaves"
                )
            result = expand(X, reference.centers, base, largest, jobs=config.jobs)
            full, trace = result.tree, result.trace
        elif method == "kdtree":
            full = build_kdtree(X, reference.centers, largest)
        else:  # gini_tree
            full = build_gini_tree(X, reference.assignment, largest)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if method in ("imm", "exkmc_imm"):
            # the shared base build is part of these methods' construction
            elapsed_ms += base_ms

        for budget in config.budgets:
            # greedy growth is prefix-closed: the tree at a smaller budget is
            # the first splits of the largest build; imm has one k-leaf tree
            tree = full if method == "imm" else full.prefix(budget)
            report = _score(X, tree, reference)
            rows.append(
                {
                    "method": method,
                    "k_prime": budget,
                    "kmeans_cost": report.kmeans_cost,
                    "surrogate_cost": report.surrogate_cost,
                    "cost_ratio": report.cost_ratio,
                    "accuracy": report.accuracy,
                    "leaves": report.leaf_count,
                    "wall_time_ms": elapsed_ms,
                }
            )

            stem = f"{method}_k{budget}"
            (out_dir / f"tree_{stem}.json").write_text(tree.to_json() + "\n")
            (out_dir / f"tree_{stem}.dot").write_text(tree.export_dot())
            paths[f"tree_{stem}"] = out_dir / f"tree_{stem}.json"
            if trace is not None:
                trace_path = out_dir / f"trace_{stem}.jsonl"
                with trace_path.open("w") as fh:
                    fh.writelines(json.dumps(s.to_dict()) + "\n" for s in trace[: budget - base_leaves])
                paths[f"trace_{stem}"] = trace_path

    results_path = out_dir / "results.csv"
    with results_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow(
                [row[c] if c in ("method", "k_prime", "leaves") else repr(float(row[c]))
                 for c in RESULT_COLUMNS]
            )
    paths["results"] = results_path
    return {"paths": paths, "rows": rows, "reference_cost": reference.cost}


def explain_point(tree_path, point) -> tuple[list[tuple[int, float, str]], int | None]:
    """Decision path of one point through an exported tree."""
    tree = ThresholdTree.from_json(Path(tree_path).read_text())
    return tree.decision_path(np.asarray(point, dtype=np.float64))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xkmeans", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark configuration")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="csv dataset path")
    source.add_argument("--synth", choices=("synthetic1", "synthetic2", "blobs"))
    run.add_argument("--columns", help="comma list of csv column indices to keep")
    run.add_argument("--k", type=int, required=True, help="number of clusters")
    run.add_argument("--leaves", default="k,2k,3k,4k", help="comma list of budgets; '3k' scales k")
    run.add_argument("--methods", default=",".join(METHODS), help="comma list of methods")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--jobs", type=int, default=1, help="feature-parallel scan workers")
    run.add_argument("--out", default="results", help="output directory")
    run.add_argument("--d", type=int, default=1024, help="synthetic dimensionality")
    run.add_argument("--n", type=int, default=500, help="blob dataset size")
    run.add_argument("--separation", type=float, default=5.0, help="blob center separation")

    explain = sub.add_parser("explain", help="explain one point's cluster assignment")
    explain.add_argument("--tree", required=True, help="tree json produced by run")
    explain.add_argument("--point", required=True, help="comma list of feature values")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = ExperimentConfig(
                k=args.k,
                data=args.data,
                columns=[int(c) for c in args.columns.split(",")] if args.columns else None,
                synth=args.synth,
                synth_d=args.d,
                synth_n=args.n,
                separation=args.separation,
                budgets=parse_budgets(args.leaves, args.k),
                methods=[m.strip() for m in args.methods.split(",") if m.strip()],
                out=args.out,
                seed=args.seed,
                jobs=args.jobs,
            )
            outcome = run_experiment(config)
            print(f"wrote {outcome['paths']['results']}")
            return 0
        path, label = explain_point(args.tree, [float(v) for v in args.point.split(",")])
        for feature, threshold, direction in path:
            comparison = "<=" if direction == "left" else ">"
            print(f"feature {feature} {comparison} {threshold!r}")
        print(f"label {label}")
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
