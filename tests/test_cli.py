import csv
import json
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from xkmeans.cli import (
    RESULT_COLUMNS,
    ExperimentConfig,
    explain_point,
    main,
    parse_budgets,
    run_experiment,
)
from xkmeans.core import DataMatrix
from xkmeans.synth import gen_gaussian_blobs
from xkmeans.tree import ThresholdTree

IRIS = files("xkmeans").joinpath("data/iris.csv")


def write_blob_csv(path, k=3, n=30, d=3, seed=0):
    X, _ = gen_gaussian_blobs(k, n, d, separation=8.0, seed=seed)
    with open(path, "w") as fh:
        for row in X.points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return X


def read_results(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParseBudgets:
    def test_macros(self):
        assert parse_budgets("k,2k,3k,4k", 3) == [3, 6, 9, 12]

    def test_plain_and_mixed(self):
        assert parse_budgets("5, 2k, 11", 4) == [5, 8, 11]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_budgets(" , ", 3)


class TestRunExperiment:
    def test_single_method_single_budget(self, tmp_path):
        data = tmp_path / "blobs.csv"
        write_blob_csv(data)
        config = ExperimentConfig(
            k=3, data=str(data), budgets=[3], methods=["exkmc_imm"], out=str(tmp_path / "out"), seed=1
        )
        outcome = run_experiment(config)
        rows = read_results(outcome["paths"]["results"])
        assert [r["method"] for r in rows] == ["reference", "exkmc_imm"]
        tree = ThresholdTree.from_json(
            (tmp_path / "out" / "tree_exkmc_imm_k3.json").read_text()
        )
        assert tree.leaf_count == 3

    def test_reference_row_is_exact(self, tmp_path):
        data = tmp_path / "blobs.csv"
        write_blob_csv(data, seed=3)
        config = ExperimentConfig(
            k=2, data=str(data), budgets=[2], methods=["kdtree"], out=str(tmp_path / "out"), seed=3
        )
        rows = read_results(run_experiment(config)["paths"]["results"])
        ref = rows[0]
        assert ref["method"] == "reference"
        assert float(ref["cost_ratio"]) == 1.0
        assert float(ref["accuracy"]) == 1.0

    def test_column_order(self, tmp_path):
        data = tmp_path / "blobs.csv"
        write_blob_csv(data)
        config = ExperimentConfig(
            k=2, data=str(data), budgets=[2], methods=["imm"], out=str(tmp_path / "out"), seed=0
        )
        path = run_experiment(config)["paths"]["results"]
        header = Path(path).read_text().splitlines()[0]
        assert header == "method,k_prime,kmeans_cost,surrogate_cost,cost_ratio,accuracy,leaves,wall_time_ms"

    def test_full_budget_matches_reference(self, tmp_path):
        data = tmp_path / "blobs.csv"
        X = write_blob_csv(data, k=2, n=20, d=2, seed=5)
        config = ExperimentConfig(
            k=2, data=str(data), budgets=[20], methods=["exkmc_imm"], out=str(tmp_path / "out"), seed=5
        )
        rows = read_results(run_experiment(config)["paths"]["results"])
        row = rows[1]
        assert float(row["accuracy"]) == 1.0
        assert float(row["cost_ratio"]) == pytest.approx(1.0, rel=1e-9)

    def test_surrogate_trace_is_written_and_monotone(self, tmp_path):
        config = ExperimentConfig(
            k=3,
            data=str(IRIS),
            budgets=[6, 12],
            methods=["exkmc_imm"],
            out=str(tmp_path / "out"),
            seed=0,
        )
        outcome = run_experiment(config)
        for budget in (6, 12):
            lines = (
                (tmp_path / "out" / f"trace_exkmc_imm_k{budget}.jsonl").read_text().splitlines()
            )
            steps = [json.loads(line) for line in lines]
            assert list(steps[0].keys()) == [
                "step", "leaf", "feature", "threshold", "left_label",
                "right_label", "gain", "surrogate_cost", "kmeans_cost",
            ]
            costs = [s["surrogate_cost"] for s in steps]
            assert all(b <= a * (1 + 1e-9) for a, b in zip(costs, costs[1:]))

    def test_reproducible_modulo_wall_time(self, tmp_path):
        data = tmp_path / "blobs.csv"
        write_blob_csv(data, seed=7)
        kwargs = dict(k=3, data=str(data), budgets=[3, 6], methods=["exkmc", "gini_tree"], seed=7)
        a = run_experiment(ExperimentConfig(out=str(tmp_path / "a"), **kwargs))
        b = run_experiment(ExperimentConfig(out=str(tmp_path / "b"), **kwargs))

        def strip_times(path):
            rows = Path(path).read_text().splitlines()
            return [",".join(line.split(",")[:-1]) for line in rows]

        assert strip_times(a["paths"]["results"]) == strip_times(b["paths"]["results"])

    def test_unknown_method_rejected(self, tmp_path):
        data = tmp_path / "blobs.csv"
        write_blob_csv(data)
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentConfig(k=2, data=str(data), methods=["magic"], out=str(tmp_path / "out"))

    def test_synthetic_source(self, tmp_path):
        config = ExperimentConfig(
            k=3, synth="blobs", synth_n=30, synth_d=2, budgets=[3],
            methods=["kdtree"], out=str(tmp_path / "out"), seed=2,
        )
        rows = read_results(run_experiment(config)["paths"]["results"])
        assert len(rows) == 2


class TestCliEntry:
    def test_run_exit_codes(self, tmp_path, capsys):
        data = tmp_path / "blobs.csv"
        write_blob_csv(data)
        code = main(
            [
                "run", "--data", str(data), "--k", "2", "--leaves", "k",
                "--methods", "imm", "--out", str(tmp_path / "out"), "--seed", "0",
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_unknown_method_exit_code(self, tmp_path, capsys):
        data = tmp_path / "blobs.csv"
        write_blob_csv(data)
        code = main(["run", "--data", str(data), "--k", "2", "--methods", "nope", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "unknown methods" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(["run", "--data", str(tmp_path / "absent.csv"), "--k", "2", "--out", str(tmp_path / "out")])
        assert code == 1


class TestExplain:
    def fig_tree_file(self, tmp_path):
        X = DataMatrix([[0.0, -3.0], [0.0, 0.0], [1.0, 0.0]])
        tree = ThresholdTree(X)
        _, right = tree.split_leaf(0, 1, -2.5, 0, None)
        tree.split_leaf(right, 0, 0.5, 1, 2)
        path = tmp_path / "tree.json"
        path.write_text(tree.to_json())
        return path

    def test_single_leaf_has_empty_path(self, tmp_path):
        X = DataMatrix([[1.0]])
        tree = ThresholdTree(X, root_label=0)
        path = tmp_path / "t.json"
        path.write_text(tree.to_json())
        steps, label = explain_point(path, [4.2])
        assert steps == [] and label == 0

    def test_two_level_tree_paths(self, tmp_path):
        tree_file = self.fig_tree_file(tmp_path)
        steps, label = explain_point(tree_file, [0.0, -3.0])
        assert steps == [(1, -2.5, "left")] and label == 0
        steps, label = explain_point(tree_file, [1.0, 0.0])
        assert steps == [(1, -2.5, "right"), (0, 0.5, "right")] and label == 2

    def test_path_never_exceeds_depth(self, tmp_path):
        tree_file = self.fig_tree_file(tmp_path)
        tree = ThresholdTree.from_json(tree_file.read_text())
        rng = np.random.default_rng(0)
        for _ in range(20):
            steps, _ = explain_point(tree_file, rng.normal(size=2))
            assert len(steps) <= tree.depth()

    def test_cli_explain_output(self, tmp_path, capsys):
        tree_file = self.fig_tree_file(tmp_path)
        code = main(["explain", "--tree", str(tree_file), "--point", "0,-3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "feature 1 <= -2.5" in out and "label 0" in out


def test_cross_budget_surrogate_is_non_increasing(tmp_path):
    # larger budgets extend the same greedy prefix, so the final surrogate
    # cost can only drop as the budget grows
    config = ExperimentConfig(
        k=3, data=str(IRIS), budgets=[3, 6, 9, 12], methods=["exkmc_imm"],
        out=str(tmp_path / "out"), seed=0,
    )
    run_experiment(config)
    finals = []
    for budget in (6, 9, 12):
        lines = (tmp_path / "out" / f"trace_exkmc_imm_k{budget}.jsonl").read_text().splitlines()
        finals.append(json.loads(lines[-1])["surrogate_cost"])
    assert all(b <= a * (1 + 1e-9) for a, b in zip(finals, finals[1:]))


def test_budget_below_base_leaves_fails_cleanly(tmp_path, capsys):
    data = tmp_path / "blobs.csv"
    write_blob_csv(data, k=3)
    code = main(
        ["run", "--data", str(data), "--k", "3", "--leaves", "2",
         "--methods", "exkmc_imm", "--out", str(tmp_path / "out")]
    )
    assert code == 1
    assert "below the base tree" in capsys.readouterr().err


@pytest.mark.parametrize(
    "leaves, k", [("0,3", "3"), ("3,k", "3")], ids=["below_one", "repeated"]
)
def test_bad_budgets_exit_code(tmp_path, capsys, leaves, k):
    data = tmp_path / "blobs.csv"
    write_blob_csv(data, k=3)
    code = main(
        ["run", "--data", str(data), "--k", k, "--leaves", leaves,
         "--methods", "imm", "--out", str(tmp_path / "out")]
    )
    assert code == 1
    assert "leaf budgets must be at least 1 and strictly ascending" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_leaves_column_reports_early_stop(tmp_path):
    # three distinct points: no tree can have more than three leaves
    data = tmp_path / "dups.csv"
    data.write_text("0,0\n0,0\n1,1\n1,1\n5,5\n")
    code = main(
        ["run", "--data", str(data), "--k", "2", "--leaves", "2,5",
         "--methods", "exkmc,exkmc_imm,kdtree", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    rows = read_results(tmp_path / "out" / "results.csv")
    assert [(r["method"], r["k_prime"], r["leaves"]) for r in rows] == [
        ("reference", "2", "2"),
        ("exkmc", "2", "2"),
        ("exkmc", "5", "3"),
        ("exkmc_imm", "2", "2"),
        ("exkmc_imm", "5", "3"),
        ("kdtree", "2", "2"),
        ("kdtree", "5", "3"),
    ]


def _run_files(out_dir):
    return {
        p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir()) if p.name != "results.csv"
    }


def _rows_without_time(out_dir):
    return [row[:-1] for row in csv.reader((Path(out_dir) / "results.csv").read_text().splitlines())]


@pytest.mark.parametrize("source", ["iris", "blobs"])
def test_one_build_matches_separate_builds_per_budget(tmp_path, source):
    if source == "iris":
        data, k = str(IRIS), 3
    else:
        data, k = tmp_path / "blobs.csv", 3
        write_blob_csv(data, k=k, n=60, d=3, seed=4)
    budgets = [k, 2 * k, 4 * k]
    kwargs = dict(k=k, data=str(data), seed=0)
    run_experiment(ExperimentConfig(budgets=budgets, out=str(tmp_path / "all"), **kwargs))
    together = _run_files(tmp_path / "all")
    together_rows = _rows_without_time(tmp_path / "all")

    separate, separate_rows = {}, {}
    for b in budgets:
        out = tmp_path / f"k{b}"
        run_experiment(ExperimentConfig(budgets=[b], out=str(out), **kwargs))
        separate.update(_run_files(out))
        for row in _rows_without_time(out)[2:]:
            separate_rows[(row[0], row[1])] = row
    assert together == separate
    assert len(together) == 5 * 2 * len(budgets) + 2 * len(budgets)
    header, reference, *rest = together_rows
    assert header == list(RESULT_COLUMNS[:-1])
    assert reference == _rows_without_time(tmp_path / f"k{k}")[1]
    assert rest == [separate_rows[(row[0], row[1])] for row in rest]
    assert sorted(separate_rows) == sorted((r[0], r[1]) for r in rest)


def test_prefix_rows_agree_with_trace_costs(tmp_path):
    # each row is scored by routing the points through its prefix tree; the
    # last trace step priced the same leaves while the tree was grown
    config = ExperimentConfig(
        k=3, data=str(IRIS), budgets=[4, 7, 12], methods=["exkmc", "exkmc_imm"],
        out=str(tmp_path / "out"), seed=0,
    )
    for row in read_results(run_experiment(config)["paths"]["results"])[1:]:
        lines = (tmp_path / "out" / f"trace_{row['method']}_k{row['k_prime']}.jsonl").read_text().splitlines()
        last = json.loads(lines[-1])
        assert float(row["surrogate_cost"]) == pytest.approx(last["surrogate_cost"], rel=1e-9)
        assert float(row["kmeans_cost"]) == pytest.approx(last["kmeans_cost"], rel=1e-9)


def test_column_selection_flag(tmp_path):
    f = tmp_path / "wide.csv"
    f.write_text("\n".join(f"{i},{i*2},{i*3}" for i in range(12)) + "\n")
    code = main(
        ["run", "--data", str(f), "--columns", "0,2", "--k", "2",
         "--leaves", "k", "--methods", "kdtree", "--out", str(tmp_path / "out")]
    )
    assert code == 0


def test_synthetic2_via_cli(tmp_path):
    code = main(
        ["run", "--synth", "synthetic2", "--k", "4", "--d", "20", "--seed", "0",
         "--leaves", "k,2k", "--methods", "exkmc_imm,imm", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    rows = read_results(tmp_path / "out" / "results.csv")
    assert [r["method"] for r in rows] == ["reference", "exkmc_imm", "exkmc_imm", "imm", "imm"]


def test_explain_dimension_mismatch_exit_code(tmp_path, capsys):
    X = DataMatrix([[0.0, -3.0], [0.0, 0.0], [1.0, 0.0]])
    tree = ThresholdTree(X)
    tree.split_leaf(0, 1, -2.5, 0, 1)
    tree_file = tmp_path / "t.json"
    tree_file.write_text(tree.to_json())
    code = main(["explain", "--tree", str(tree_file), "--point", "0.5"])
    assert code == 1
    assert "dimension" in capsys.readouterr().err


@pytest.mark.parametrize(
    "nodes",
    [
        [{"feature": 0, "threshold": 0.5, "left": 1, "right": 7}, {"label": 0}, {"label": 1}],
        [{"feature": 0, "threshold": 0.5, "right": 2}, {"label": 0}, {"label": 1}],
        [{"feature": 0, "threshold": 0.5, "left": 0, "right": 2}, {"label": 0}, {"label": 1}],
    ],
    ids=["child_out_of_range", "missing_left", "cycle"],
)
def test_explain_malformed_tree_exit_code(tmp_path, capsys, nodes):
    tree_file = tmp_path / "t.json"
    tree_file.write_text(json.dumps({"nodes": nodes}))
    code = main(["explain", "--tree", str(tree_file), "--point", "0.0"])
    assert code == 1
    assert "tree JSON" in capsys.readouterr().err

def test_console_script_runs_are_reproducible(tmp_path):
    import os
    import subprocess
    import sys

    import xkmeans

    # the child imports the same xkmeans as this process, installed or not
    src = str(Path(xkmeans.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    data = tmp_path / "blobs.csv"
    write_blob_csv(data, k=3, n=36, d=3, seed=11)
    argv = [
        sys.executable, "-m", "xkmeans.cli", "run", "--data", str(data),
        "--k", "3", "--leaves", "k,2k", "--methods", "exkmc_imm", "--seed", "11",
    ]
    for out in ("run_a", "run_b"):
        proc = subprocess.run(
            argv + ["--out", str(tmp_path / out)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr

    def stable_part(name):
        rows = (tmp_path / name / "results.csv").read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in rows]

    assert stable_part("run_a") == stable_part("run_b")
    trace_a = (tmp_path / "run_a" / "trace_exkmc_imm_k6.jsonl").read_bytes()
    trace_b = (tmp_path / "run_b" / "trace_exkmc_imm_k6.jsonl").read_bytes()
    assert trace_a == trace_b
