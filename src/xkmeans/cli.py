"""Experiment runner and command-line surface.

`run` fits one reference clustering per configuration, builds every
requested method once at the largest leaf budget, reads each smaller
budget's tree off that build as a prefix, and writes a results.csv plus a
trace file per expansion budget and JSON/DOT exports per tree; its flags
are `ExperimentConfig`'s fields, which hold the defaults. `explain` prints
the root-to-leaf decision path of a point through an exported tree.
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
from xkmeans.core import accuracy, kmeans_cost, load_csv, surrogate_cost, thread_map
from xkmeans.exkmc import expand
from xkmeans.imm import build_imm
from xkmeans.kmeans import KMeansConfig, fit_reference
from xkmeans.synth import gen_gaussian_blobs, gen_synthetic_i, gen_synthetic_ii
from xkmeans.tree import ThresholdTree

METHODS = ("exkmc", "exkmc_imm", "imm", "kdtree", "gini_tree")
_IMM_FAMILY = ("imm", "exkmc_imm")  # one build group: both use the IMM base tree

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
# each data source (None: a csv file): the fields it reads, with their defaults, and how its
# data is made; the maker looks its function up on this module when called
_SOURCES = {
    None: ({"columns": None}, lambda c: load_csv(c.data, columns=c.columns)),
    "synthetic1": ({}, lambda c: gen_synthetic_i(seed=c.seed)),
    "synthetic2": ({"synth_d": 1024}, lambda c: gen_synthetic_ii(c.k, c.synth_d, seed=c.seed)[0]),
    "blobs": ({"synth_d": 1024, "synth_n": 500, "separation": 5.0},
              lambda c: gen_gaussian_blobs(c.k, c.synth_n, c.synth_d, c.separation, seed=c.seed)[0]),
}
_FLAGS = {"columns": "--columns", "synth_d": "--d", "synth_n": "--n", "separation": "--separation"}


@dataclass
class ExperimentConfig:
    k: int
    data: str | None = None
    columns: list[int] | None = None
    synth: str | None = None
    # None takes the source's default; a source that does not read a field rejects a value
    synth_d: int | None = None
    synth_n: int | None = None
    separation: float | None = None
    budgets: list[int] = field(default_factory=list)
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    out: str = "results"
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if (self.data is None) == (self.synth is None):
            raise ValueError("exactly one of a csv path or a synthetic spec is required")
        if self.synth not in _SOURCES:
            names = ", ".join(filter(None, _SOURCES))
            raise ValueError(f"unknown synthetic dataset {self.synth!r}; choose from {names}")
        reads = _SOURCES[self.synth][0]
        for name, flag in _FLAGS.items():
            if getattr(self, name) is None:
                setattr(self, name, reads.get(name))
            elif name not in reads:
                source = "--data" if self.synth is None else f"--synth {self.synth}"
                raise ValueError(f"{source} does not read {flag}")
        if self.columns == []:
            raise ValueError("--columns names no column")
        if not self.budgets:
            self.budgets = [self.k * m for m in (1, 2, 3, 4)]
        if self.budgets[0] < 1 or any(a >= b for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValueError("leaf budgets must be at least 1 and strictly ascending")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {', '.join(unknown)}; choose from {', '.join(METHODS)}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError("each method may be listed only once")
        if "exkmc_imm" in self.methods and self.budgets[0] < self.k:
            # the IMM base tree always has exactly k leaves
            raise ValueError(f"budget {self.budgets[0]} is below the base tree's {self.k} leaves")


def _token(flag: str, token: str, parse, kind: str):
    """One token of a comma-list flag, parsed; a token `parse` rejects names the flag."""
    token = token.strip()
    try:
        return parse(token)
    except ValueError:
        raise ValueError(f"{flag}: {token!r} is not {kind}") from None


def parse_budgets(text: str, k: int) -> list[int]:
    """Comma list of leaf budgets; a token like '3k' means 3 * k."""
    def budget(token):
        return int(token[:-1] or "1") * k if token.lower().endswith("k") else int(token)

    kind = "an integer or a multiple of k"
    budgets = [_token("--leaves", t, budget, kind) for t in text.split(",") if t.strip()]
    if not budgets:
        raise ValueError("no leaf budgets given")
    return budgets


def _check_finite(*costs) -> None:
    if not np.isfinite(costs).all():
        raise ValueError("a cost overflows float64; scale the data down")


def _score(X, tree, reference) -> list:
    """A tree's results.csv values from kmeans_cost to leaves, each float as its
    repr, over the cells routing X gives; the ratio is nan at a 0-cost reference."""
    cells = tree.cells(X)
    assignment = tree.induced_assignment(X, cells)
    cost = kmeans_cost(X, assignment)
    surrogate = surrogate_cost(X, list(cells.values()), reference.centers)
    _check_finite(cost, surrogate)
    ratio = cost / reference.cost if reference.cost > 0 else float("nan")
    floats = (cost, surrogate, ratio, accuracy(reference.assignment, assignment))
    return [*(repr(float(v)) for v in floats), tree.leaf_count]


def _build_group(X, reference, methods, budgets) -> dict:
    """Build a group's methods at the largest budget, scoring each distinct tree
    JSON once, and finish every budget's output: method -> [(results.csv row,
    {file name: text})] in budget order."""
    started, imm_base = time.perf_counter(), None
    if any(m in _IMM_FAMILY for m in methods):
        imm_base = build_imm(X, reference.centers, reference.assignment)
    base_s = time.perf_counter() - started

    built, scored = {}, {}  # formatted scores by tree JSON: imm's tree is exkmc_imm's at k
    for method in methods:
        # the shared base build is part of imm's and exkmc_imm's construction
        started = time.perf_counter() - (base_s if method in _IMM_FAMILY else 0.0)
        trace, base_leaves = None, 1
        if method == "imm":
            full = imm_base
        elif method in ("exkmc", "exkmc_imm"):
            base = imm_base if method == "exkmc_imm" else ThresholdTree()
            base_leaves = base.leaf_count
            result = expand(X, reference.centers, base, budgets[-1])
            full, trace = result.tree, result.trace
            _check_finite(*(c for t in trace for c in (t.gain, t.surrogate_cost, t.kmeans_cost)))
        elif method == "kdtree":
            full = build_kdtree(X, reference.centers, budgets[-1])
        else:  # gini_tree
            full = build_gini_tree(X, reference.assignment, budgets[-1])
        ms = repr((time.perf_counter() - started) * 1000.0)
        steps = [json.dumps(vars(s)) + "\n" for s in trace or ()]  # each budget's trace is a prefix

        outputs = []
        for budget in budgets:
            # greedy growth is prefix-closed: the tree at a smaller budget is
            # the first splits of the largest build; imm has one k-leaf tree
            tree = full if method == "imm" else full.prefix(budget)
            text = tree.to_json()
            if text not in scored:
                scored[text] = _score(X, tree, reference)
            stem = f"{method}_k{budget}"
            files = {f"tree_{stem}.json": text + "\n", f"tree_{stem}.dot": tree.export_dot()}
            if trace is not None:
                files[f"trace_{stem}.jsonl"] = "".join(steps[: budget - base_leaves])
            outputs.append(([method, budget, *scored[text], ms], files))
        built[method] = outputs
    return built


def run_experiment(config: ExperimentConfig) -> Path:
    """Execute one configuration; returns the results.csv path.

    The reference fit's restarts, then the methods as independent groups (imm
    and exkmc_imm share the IMM base), run through `thread_map` on `jobs`; no
    build starts a thread. Each group returns its rows and file texts; once
    every group has returned, `out` is made and they are written in method
    order, so a failed run leaves no directory. A cost that overflows float64
    raises where it is made, the reference's before any build."""
    X = _SOURCES[config.synth][1](config)
    reference = fit_reference(X, KMeansConfig(k=config.k, seed=config.seed), jobs=config.jobs)
    _check_finite(reference.cost)

    imm_group = [m for m in config.methods if m in _IMM_FAMILY]
    groups = [imm_group] * bool(imm_group) + [[m] for m in config.methods if m not in imm_group]
    built = thread_map(lambda g: _build_group(X, reference, g, config.budgets), groups, config.jobs)
    by_method = {method: out for group in built for method, out in group.items()}

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    with results_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        cost = repr(float(reference.cost))
        writer.writerow(["reference", config.k, cost, cost, "1.0", "1.0", config.k, "0.0"])
        for method in config.methods:
            for row, files in by_method[method]:
                writer.writerow(row)
                for name, text in files.items():
                    (out_dir / name).write_text(text)
    return results_path


def explain_point(tree_path, point) -> tuple[list[tuple[int, float, str]], int]:
    """Decision path of one point through an exported tree, and the label of
    the leaf it reaches, which must have one."""
    tree = ThresholdTree.from_json(Path(tree_path).read_text())
    path, leaf = tree.decision_path(np.asarray(point, dtype=np.float64))
    label = tree.nodes[leaf].label
    if label is None:
        raise ValueError(f"the point reaches leaf {leaf} of the tree JSON, which is unlabeled")
    return path, label


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xkmeans", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark configuration")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="csv dataset path")
    source.add_argument("--synth", choices=[name for name in _SOURCES if name])
    run.add_argument("--columns", help="comma list of csv column indices to keep")
    run.add_argument("--k", type=int, required=True, help="number of clusters")
    run.add_argument("--leaves", dest="budgets", metavar="LEAVES", help="comma list of budgets; '3k' scales k")
    run.add_argument("--methods", help="comma list of methods")
    run.add_argument("--seed", type=int)
    run.add_argument("--jobs", type=int, help="worker threads: k-means restarts, then method builds")
    run.add_argument("--out", help="output directory")
    blobs = _SOURCES["blobs"][0]
    run.add_argument("--d", dest="synth_d", metavar="D", type=int,
                     help=f"dimensionality of synthetic2 and blobs (default {blobs['synth_d']})")
    run.add_argument("--n", dest="synth_n", metavar="N", type=int,
                     help=f"blob dataset size (default {blobs['synth_n']})")
    run.add_argument("--separation", type=float, help=f"blob center separation (default {blobs['separation']})")

    explain = sub.add_parser("explain", help="explain one point's cluster assignment")
    explain.add_argument("--tree", required=True, help="tree json produced by run")
    explain.add_argument("--point", required=True, help="comma list of feature values")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            given = {name: v for name, v in vars(args).items() if v is not None and name != "command"}
            if args.columns is not None:
                given["columns"] = [_token("--columns", c, int, "an integer")
                                    for c in args.columns.split(",") if c.strip()]
            if args.budgets is not None:
                given["budgets"] = parse_budgets(args.budgets, args.k)
            if args.methods is not None:
                given["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
            with np.errstate(all="ignore"):  # the finite checks report an overflow, once
                print(f"wrote {run_experiment(ExperimentConfig(**given))}")
            return 0
        point = [_token("--point", v, float, "a number") for v in args.point.split(",")]
        path, label = explain_point(args.tree, point)
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
