"""Timing spans around xkmeans' public functions, and the per-layer metrics
drawn from them.

Run as a script, this installs the wrappers in its own process only, runs
the xkmeans CLI with the remaining arguments, and writes the spans as JSON
when the run ends:

    python3 benchmarks/tracer.py SPANS.json run --data data.csv --k 3 ...

The program itself is not edited: spans wrap the names `xkmeans.cli`
imports, `cli.run_experiment`, the inner calls named in `_INNER`, and the
ThresholdTree methods. Counters come from call arguments and return values.
Every wrapped function runs on the main thread (the threaded scan workers
run an unwrapped inner function), so one stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute) looked up at call time by other xkmeans functions
_INNER = (
    ("exkmc", "scan_best_split"),
    ("imm", "best_mistake_split"),
    ("kmeans", "lloyd"),
    ("kmeans", "kmeanspp_seed"),
)

# O(1) accessors: kd best-first selection calls `node` once per frontier leaf
# per step, about a million times a run, so a span would outweigh the call.
_UNTRACED_TREE_METHODS = {"node", "set_leaf_label"}

# span name -> counters from (args, result)
_COUNTERS = {
    "core.load_csv": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "kmeans.lloyd": lambda args, result: {"iters": result.n_iter},
    "imm.best_mistake_split": lambda args, result: {"points": int(args[3].point_ids.size)},
    "exkmc.scan_best_split": lambda args, result: {"cell_entries": args[0].shape[0] * args[0].shape[1]},
    "exkmc.expand": lambda args, result: {
        "steps": len(result.trace),
        "base_leaves": args[2].leaf_count,
    },
}


class Tracer:
    """Spans in memory as [name, start, end, parent index or -1, counters or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        count = _COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        from xkmeans import cli
        from xkmeans.tree import ThresholdTree

        for attr, value in list(vars(cli).items()):
            module = getattr(value, "__module__", "")
            if inspect.isfunction(value) and module.startswith("xkmeans.") and module != cli.__name__:
                setattr(cli, attr, self.wrap(value))
        cli.run_experiment = self.wrap(cli.run_experiment)
        for module_name, attr in _INNER:
            module = importlib.import_module(f"xkmeans.{module_name}")
            setattr(module, attr, self.wrap(getattr(module, attr)))
        for attr, value in list(vars(ThresholdTree).items()):
            if attr.startswith("_") or attr in _UNTRACED_TREE_METHODS:
                continue
            if isinstance(value, classmethod):
                setattr(ThresholdTree, attr, classmethod(self.wrap(value.__func__)))
            elif inspect.isfunction(value):
                setattr(ThresholdTree, attr, self.wrap(value))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals from one traced run's spans.

    `<span>.s` sums the span's durations, `<span>.calls` counts them and
    `<span>.self_s` subtracts the time its child spans cover.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    covered = defaultdict(float)
    counts = defaultdict(int)
    steps_by_base = defaultdict(list)
    for name, start, end, parent, counters in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            covered[spans[parent][0]] += end - start
        for key, value in (counters or {}).items():
            counts[f"{name}.{key}"] += value
        if name == "exkmc.expand":
            steps_by_base[counters["base_leaves"]].append(counters["steps"])

    def self_s(name):
        return total[name] - covered[name]

    steps = counts["exkmc.expand.steps"]
    # one expansion per method (grouped by base tree) at its largest budget
    # would produce every step the run needs
    needed = sum(max(group) for group in steps_by_base.values())
    return {
        "core.load_csv.s": total["core.load_csv"],
        "core.load_csv.bytes": counts["core.load_csv.bytes"],
        "kmeans.fit_reference.s": total["kmeans.fit_reference"],
        "kmeans.kmeanspp_seed.s": total["kmeans.kmeanspp_seed"],
        "kmeans.lloyd.s": total["kmeans.lloyd"],
        "kmeans.lloyd.iters": counts["kmeans.lloyd.iters"],
        "imm.build_imm.s": total["imm.build_imm"],
        "imm.best_mistake_split.calls": calls["imm.best_mistake_split"],
        "imm.best_mistake_split.s": total["imm.best_mistake_split"],
        "imm.node_points": counts["imm.best_mistake_split.points"],
        "exkmc.scan_best_split.calls": calls["exkmc.scan_best_split"],
        "exkmc.scan_best_split.s": total["exkmc.scan_best_split"],
        "exkmc.scan.cell_entries": counts["exkmc.scan_best_split.cell_entries"],
        "exkmc.expand.calls": calls["exkmc.expand"],
        "exkmc.expand.s": total["exkmc.expand"],
        "exkmc.expand.self_s": self_s("exkmc.expand"),
        "exkmc.steps": steps,
        "exkmc.step_reuse_ratio": needed / steps if steps else 1.0,
        "baselines.build_gini_tree.s": total["baselines.build_gini_tree"],
        "baselines.build_kdtree.s": total["baselines.build_kdtree"],
        "core.kmeans_cost.s": total["core.kmeans_cost"],
        "core.surrogate_cost.s": total["core.surrogate_cost"],
        "tree.split_leaf.calls": calls["tree.split_leaf"],
        "tree.split_leaf.s": total["tree.split_leaf"],
        "tree.induced_assignment.s": total["tree.induced_assignment"],
        "tree.export.s": total["tree.to_json"] + total["tree.export_dot"] + total["tree.export_text"],
        "cli.run_experiment.s": total["cli.run_experiment"],
        "cli.run_experiment.self_s": self_s("cli.run_experiment"),
    }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from xkmeans import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
