import contextlib
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xkmeans
from xkmeans import cli
from xkmeans.cli import (
    METHODS,
    RESULT_COLUMNS,
    ExperimentConfig,
    explain_point,
    main,
    parse_budgets,
    run_experiment,
)
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
        rows = read_results(run_experiment(config))
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
        rows = read_results(run_experiment(config))
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
        path = run_experiment(config)
        header = Path(path).read_text().splitlines()[0]
        assert header == "method,k_prime,kmeans_cost,surrogate_cost,cost_ratio,accuracy,leaves,wall_time_ms"

    def test_full_budget_matches_reference(self, tmp_path):
        data = tmp_path / "blobs.csv"
        X = write_blob_csv(data, k=2, n=20, d=2, seed=5)
        config = ExperimentConfig(
            k=2, data=str(data), budgets=[20], methods=["exkmc_imm"], out=str(tmp_path / "out"), seed=5
        )
        rows = read_results(run_experiment(config))
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

        assert strip_times(a) == strip_times(b)

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
        rows = read_results(run_experiment(config))
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

    def test_repeated_method_exits_1_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--data", str(IRIS), "--k", "3", "--methods", "kdtree,imm,kdtree", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, flag",
        [
            ("synthetic1", "--d"),
            ("synthetic1", "--n"),
            ("synthetic1", "--separation"),
            ("synthetic2", "--n"),
            ("synthetic2", "--separation"),
            ("blobs", "--columns"),
            (None, "--d"),  # a csv file
        ],
    )
    def test_a_flag_the_source_does_not_read_exits_1_before_any_output(self, tmp_path, capsys, source, flag):
        out = tmp_path / "out"
        given = ["--data", str(IRIS)] if source is None else ["--synth", source]
        assert main(["run", *given, "--k", "3", flag, "2", "--leaves", "k", "--out", str(out)]) == 1
        named = "--data" if source is None else f"--synth {source}"
        assert capsys.readouterr().err == f"error: {named} does not read {flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, err",
        [("blobs", "error: --synth blobs does not read --columns\n"), (None, "error: --columns names no column\n")],
    )
    def test_an_empty_columns_flag_is_given_and_exits_1_before_any_output(self, tmp_path, capsys, source, err):
        # `--columns=` is given, not absent: a synthetic source does not read
        # it, and a csv file cannot keep no column
        out = tmp_path / "out"
        given = ["--data", str(IRIS)] if source is None else ["--synth", source, "--n", "20", "--d", "2"]
        argv = ["run", *given, "--k", "2", "--columns=", "--leaves", "k", "--methods", "imm", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_zero_cost_reference_gives_nan_ratios(self, tmp_path):
        # three distinct points at k = 3: the reference costs 0, so no
        # method's cost can be put as a ratio of it
        data = tmp_path / "three.csv"
        data.write_text("0,0\n1,0\n0,5\n")
        out = tmp_path / "out"
        assert main(["run", "--data", str(data), "--k", "3", "--out", str(out)]) == 0
        reference, *rows = read_results(out / "results.csv")
        assert (reference["kmeans_cost"], reference["cost_ratio"]) == ("0.0", "1.0")
        assert len(rows) == len(METHODS) * 4
        assert all(row["cost_ratio"] == "nan" for row in rows)


class TestExplain:
    def fig_tree_file(self, tmp_path):
        tree = ThresholdTree()
        left, right = tree.split_leaf(0, 1, -2.5)
        for leaf, label in zip((left, *tree.split_leaf(right, 0, 0.5)), (0, 1, 2)):
            tree.set_leaf_label(leaf, label)
        path = tmp_path / "tree.json"
        path.write_text(tree.to_json())
        return path

    def test_single_leaf_has_empty_path(self, tmp_path):
        tree = ThresholdTree()
        tree.set_leaf_label(tree.root, 0)
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
    # default methods: exkmc runs before exkmc_imm, and must write nothing
    data = tmp_path / "blobs.csv"
    write_blob_csv(data, k=3)
    out = tmp_path / "out"
    code = main(["run", "--data", str(data), "--k", "3", "--leaves", "2,4", "--out", str(out)])
    assert code == 1
    assert "below the base tree" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("separation", ["nan", "inf", "1e308"])
def test_non_finite_blob_box_exit_code(tmp_path, capsys, separation):
    out = tmp_path / "out"
    code = main(
        ["run", "--synth", "blobs", "--k", "3", "--d", "2", "--n", "30",
         "--separation", separation, "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "results.csv").exists()


def _rows_near_1e153():
    centers = np.repeat([[1e153, 1e153], [-1e153, -1e153]], 500, axis=0)
    points = centers + 1e140 * np.random.default_rng(0).normal(size=(1000, 2))
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in points)


@pytest.mark.parametrize(
    "text, builds",
    # the reference cost overflows, and no method is built; then a finite
    # reference with an exkmc split whose costs overflow (inf cost, nan gain
    # in its trace)
    [("1.7e308,0\n-1.7e308,1\n0,2\n", False), (_rows_near_1e153(), True)],
    ids=["reference", "exkmc_trace"],
)
def test_overflowing_costs_exit_1_before_any_output(tmp_path, capsys, monkeypatch, text, builds):
    built = []
    for name in ("build_imm", "expand", "build_kdtree", "build_gini_tree"):
        def spy(*args, _real=getattr(cli, name), _name=name, **kwargs):
            built.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    data = tmp_path / "big.csv"
    data.write_text(text)
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--data", str(data), "--k", "2", "--leaves", "k,2k", "--jobs", jobs, "--out", str(out)])
        assert code == 1
        # one line on stderr: no floating-point warning on any thread
        assert capsys.readouterr().err == "error: a cost overflows float64; scale the data down\n"
        assert [str(w.message) for w in caught] == []
        assert list(out.iterdir()) == []  # no results.csv, tree or trace file
    assert bool(built) == builds


BAD_BUDGETS = "leaf budgets must be at least 1 and strictly ascending"


@pytest.mark.parametrize(
    "leaves, jobs, message",
    [("0,3", "1", BAD_BUDGETS), ("3,k", "1", BAD_BUDGETS),
     ("k", "0", "jobs must be at least 1"), ("k", "-1", "jobs must be at least 1")],
    ids=["below_one", "repeated", "zero_jobs", "negative_jobs"],
)
def test_bad_budgets_exit_code(tmp_path, capsys, leaves, jobs, message):
    data = tmp_path / "blobs.csv"
    write_blob_csv(data, k=3)
    code = main(
        ["run", "--data", str(data), "--k", "3", "--leaves", leaves, "--jobs", jobs,
         "--methods", "imm", "--out", str(tmp_path / "out")]
    )
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize(
    "argv, err",
    [
        (["run", "--data", str(IRIS), "--k", "3", "--leaves", "k,1.5k"],
         "error: --leaves: '1.5k' is not an integer or a multiple of k\n"),
        (["run", "--data", str(IRIS), "--k", "3", "--columns", "0, a"], "error: --columns: 'a' is not an integer\n"),
        (["explain", "--tree", "tree.json", "--point", "1,x"], "error: --point: 'x' is not a number\n"),
    ],
    ids=["leaves", "columns", "point"],
)
def test_a_malformed_list_token_names_its_flag(tmp_path, capsys, monkeypatch, argv, err):
    monkeypatch.chdir(tmp_path)
    tree = ThresholdTree()
    tree.set_leaf_label(tree.root, 0)
    (tmp_path / "tree.json").write_text(tree.to_json())
    out = ["--out", str(tmp_path / "out")] if argv[0] == "run" else []
    assert main([*argv, *out]) == 1
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out").exists()


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


def test_jobs_do_not_change_any_output(tmp_path):
    # the restarts run on 2, 3 or 8 threads, and the four build groups share
    # 2 or 3, or take 4 at 8; each scan runs on its group's thread
    args = ["run", "--synth", "synthetic2", "--k", "3", "--d", "130", "--leaves", "k,4k"]
    for jobs in ("1", "2", "3", "8"):
        assert main([*args, "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    serial = _run_files(tmp_path / "1")
    assert len(serial) == 5 * 2 * 2 + 2 * 2
    for jobs in ("2", "3", "8"):
        assert _run_files(tmp_path / jobs) == serial, jobs
        assert _rows_without_time(tmp_path / jobs) == _rows_without_time(tmp_path / "1"), jobs


@pytest.mark.parametrize("method", ["gini_tree", "exkmc_imm", "imm"])
def test_one_build_group_does_not_depend_on_jobs(tmp_path, method):
    args = ["run", "--synth", "synthetic2", "--k", "3", "--d", "130", "--leaves", "k,4k", "--methods", method]
    for jobs in ("1", "3"):
        assert main([*args, "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    assert _run_files(tmp_path / "3") == _run_files(tmp_path / "1")
    assert _rows_without_time(tmp_path / "3") == _rows_without_time(tmp_path / "1")


@pytest.mark.parametrize("jobs, on_main", [(1, True), (2, False), (8, False)])
def test_build_groups_run_on_workers(tmp_path, monkeypatch, jobs, on_main):
    seen = set()
    for name in ("expand", "build_kdtree", "build_gini_tree"):
        def spy(*args, _real=getattr(cli, name), _name=name, **kwargs):
            seen.add((_name, threading.current_thread() is threading.main_thread()))
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    config = ExperimentConfig(k=3, data=str(IRIS), budgets=[3, 6], out=str(tmp_path / "out"), jobs=jobs)
    run_experiment(config)  # four groups: imm with exkmc_imm, exkmc, kdtree, gini_tree
    assert seen == {("expand", on_main), ("build_kdtree", on_main), ("build_gini_tree", on_main)}


def test_error_inside_a_build_group_exits_1(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("kd build failed")

    monkeypatch.setattr(cli, "build_kdtree", broken)
    out = tmp_path / "out"
    code = main(["run", "--data", str(IRIS), "--k", "3", "--leaves", "k,2k", "--jobs", "2", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: kd build failed\n"
    assert list(out.iterdir()) == []  # not even the other groups' files


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_empty_method_list_writes_the_reference_row_only(tmp_path, jobs):
    out = tmp_path / "out"
    assert main(["run", "--data", str(IRIS), "--k", "3", "--methods", ",", "--jobs", jobs, "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["results.csv"]
    assert [row["method"] for row in read_results(out / "results.csv")] == ["reference"]


def test_each_distinct_tree_is_scored_once(tmp_path, monkeypatch):
    scored = []
    real = cli._score
    monkeypatch.setattr(cli, "_score", lambda X, tree, ref: scored.append(tree.leaf_count) or real(X, tree, ref))
    # three distinct points: the expansions stop at 3 leaves, so budgets 5 and 6 share one tree
    data = tmp_path / "dups.csv"
    data.write_text("0,0\n0,0\n1,1\n1,1\n5,5\n")
    for methods, leaf_counts in [
        ("imm,exkmc", [2, 2, 3]),  # imm once, exkmc at 2 and 3 leaves
        ("imm,exkmc_imm", [2, 3]),  # exkmc_imm's 2-leaf prefix is imm's tree
    ]:
        scored.clear()
        out = tmp_path / methods
        argv = ["run", "--data", str(data), "--k", "2", "--leaves", "2,5,6", "--methods", methods, "--out", str(out)]
        assert main(argv) == 0
        assert scored == leaf_counts
        rows = [row[2:] for row in _rows_without_time(out)[2:]]
        assert rows[0] == rows[1] == rows[2] and rows[4] == rows[5] != rows[3]
    # the last run's exkmc_imm row and tree at 2 leaves are imm's
    assert rows[3] == rows[0]
    assert (out / "tree_exkmc_imm_k2.json").read_bytes() == (out / "tree_imm_k2.json").read_bytes()


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
    for row in read_results(run_experiment(config))[1:]:
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
    tree = ThresholdTree()
    tree.split_leaf(0, 1, -2.5)
    tree_file = tmp_path / "t.json"
    tree_file.write_text(tree.to_json())
    code = main(["explain", "--tree", str(tree_file), "--point", "0.5"])
    assert code == 1
    assert "dimension" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["nan,nan", "inf,0", "0,-inf"])
def test_explain_non_finite_point_exit_code(tmp_path, capsys, point):
    # NaN compares false both ways, so no path through the tree is true of it
    tree = ThresholdTree()
    tree.split_leaf(0, 0, 0.5)
    tree_file = tmp_path / "t.json"
    tree_file.write_text(tree.to_json())
    code = main(["explain", "--tree", str(tree_file), "--point", point])
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and out.err.count("\n") == 1


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


@pytest.mark.parametrize(
    "nodes, point, leaf",
    [
        ([{"label": None}], "0.3", 0),
        ([{"feature": 0, "threshold": 0.5, "left": 1, "right": 2}, {"label": 0}, {"label": None}], "0.7", 2),
    ],
    ids=["lone_root", "right_leaf"],
)
def test_explain_through_an_unlabeled_leaf_exits_1(tmp_path, capsys, nodes, point, leaf):
    # from_json takes such a tree (expand grows an unlabeled lone root), but
    # a point that reaches an unlabeled leaf has no cluster to explain
    tree_file = tmp_path / "t.json"
    tree_file.write_text(json.dumps({"nodes": nodes}))
    assert main(["explain", "--tree", str(tree_file), "--point", point]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: the point reaches leaf {leaf} of the tree JSON, which is unlabeled\n"
    tree = ThresholdTree.from_json(tree_file.read_text())
    assert tree.decision_path([float(point)])[1] == leaf
    assert tree.nodes[leaf].label is None

def test_explain_rejects_a_tree_out_of_growth_order(tmp_path, capsys):
    # every node is reachable once, but node 0's children are 1 and 3, so
    # the tree's first split is not its first three nodes; run never writes it
    nodes = [
        {"feature": 0, "threshold": 0.5, "left": 1, "right": 3},
        {"feature": 0, "threshold": 0.2, "left": 2, "right": 4},
        {"label": 0},
        {"label": 1},
        {"label": 0},
    ]
    tree_file = tmp_path / "t.json"
    tree_file.write_text(json.dumps({"nodes": nodes}))
    assert main(["explain", "--tree", str(tree_file), "--point", "0.3"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: tree JSON") and out.err.count("\n") == 1


def test_explain_rejects_deeply_nested_json(tmp_path, capsys):
    # the JSON parser recurses once per level, past Python's recursion limit
    tree_file = tmp_path / "t.json"
    tree_file.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["explain", "--tree", str(tree_file), "--point", "0.3"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: tree JSON") and out.err.count("\n") == 1


def exits_cleanly(argv, files):
    """Run `main` on `argv` in a fresh directory holding `files` (name ->
    text), where "{dir}" in an argument names that directory. It must exit 0
    with no error line, or 1 with exactly one, and never raise."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a dropped column warns; only errors count here
        for name, text in files.items():
            Path(tmp, name).write_bytes(text.encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.replace("{dir}", tmp) for arg in argv])
    lines = err.getvalue().splitlines()
    assert code in (0, 1)
    assert sum(line.startswith("error:") for line in lines) == code
    assert "Traceback" not in err.getvalue()


_TOKENS = st.sampled_from(
    ["0", "1", "-2.5", "3e2", " 4 ", "inf", "-inf", "nan", "1e999", "5e-324",
     "", "x", "0x10", "1_0", "\ufeff1"]
)


@st.composite
def csv_texts(draw):
    """Small CSV files: rows of one width (one row may run long) under an
    optional header row of any width."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_TOKENS, min_size=width, max_size=width), max_size=8))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))].append(draw(_TOKENS))
    header = draw(st.none() | st.lists(st.sampled_from(["a", "b", "x y", "#c"]), min_size=1, max_size=5))
    lines = [",".join(row) for row in ([header] if header else []) + rows]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


@settings(max_examples=200, deadline=None)
@given(
    csv_texts(),
    st.none() | st.sampled_from(["0", "1,0", "0,0", "3", "-1", "a"]),
    st.integers(1, 3),
    st.sampled_from(["k", "k,2k", "1,5"]),
    st.sampled_from(["exkmc", "exkmc,kdtree", "imm,gini_tree"]),
    st.integers(1, 4),
)
# a header narrower than its rows, over a non-numeric column it does not name
@example("a,b\n1,2,x\n3,4,y\n", None, 1, "k", "exkmc", 1)
# a field over the csv module's 131,072-character limit, in the first row
# (met by the one-pass parse) and in a later one (by the row-by-row parse)
@example("1," + "1" * 200_000 + "\n1,2\n", None, 1, "k", "exkmc", 1)
@example("1,2\n1," + "x" * 200_000 + "\n", None, 1, "k", "exkmc", 1)
def test_fuzzed_csv_exits_0_or_1_with_one_error_line(text, columns, k, leaves, methods, jobs):
    argv = ["run", "--data={dir}/d.csv", "--out={dir}/out", f"--k={k}", f"--leaves={leaves}",
            f"--methods={methods}", f"--jobs={jobs}"]
    exits_cleanly(argv + ([] if columns is None else [f"--columns={columns}"]), {"d.csv": text})


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["blobs", "synthetic2"]),
    st.integers(-1, 4),
    st.integers(0, 40),
    st.integers(0, 20),
    st.sampled_from(["0", "1.5", "-3", "nan", "inf", "1e300"]),
    st.none() | st.sampled_from(["k", "1", "2,1", "k,2k", "0", "3k", "k,k", " , ", "5,9", "x"]),
    st.none() | st.lists(st.sampled_from([*METHODS, "bogus"]), min_size=1, max_size=3).map(",".join),
    st.integers(0, 3),
    st.integers(1, 4),
)
def test_fuzzed_flags_exit_0_or_1_with_one_error_line(synth, k, n, d, separation, leaves, methods, seed, jobs):
    # synthetic sets of at most 80 points, so that no example is slow or large;
    # each source gets only the flags it reads
    argv = ["run", f"--synth={synth}", "--out={dir}/out", f"--k={k}", f"--d={d}", f"--seed={seed}", f"--jobs={jobs}"]
    argv += [f"--n={n}", f"--separation={separation}"] if synth == "blobs" else []
    argv += [] if leaves is None else [f"--leaves={leaves}"]
    exits_cleanly(argv + ([] if methods is None else [f"--methods={methods}"]), {})


_JSON_VALUES = (
    st.none() | st.booleans() | st.integers(-2, 10) | st.floats() | st.text(max_size=3) | st.just([])
)


@st.composite
def tree_texts(draw):
    """JSON of trees grown by `split_leaf`, as `run` writes them, then maybe
    renumbered out of growth order, given a bad field or key, or cut short."""
    tree = ThresholdTree()
    tree.set_leaf_label(tree.root, 0)
    for _ in range(draw(st.integers(0, 5))):
        leaf = draw(st.sampled_from(tree.leaf_ids()))
        for child in tree.split_leaf(leaf, draw(st.integers(0, 2)), draw(st.sampled_from([-1.0, 0.0, 0.5]))):
            tree.set_leaf_label(child, draw(st.integers(0, 3)))
    nodes = json.loads(tree.to_json())["nodes"]
    change = draw(st.sampled_from(["none", "renumber", "field", "drop", "cut"]))
    if change == "renumber":
        order = [0, *draw(st.permutations(range(1, len(nodes))))]  # old id -> new id
        renumbered = [None] * len(nodes)
        for old, node in enumerate(nodes):
            if "left" in node:
                node = {**node, "left": order[node["left"]], "right": order[node["right"]]}
            renumbered[order[old]] = node
        nodes = renumbered
    elif change in ("field", "drop"):
        node = draw(st.sampled_from(nodes))
        key = draw(st.sampled_from(["feature", "threshold", "left", "right", "label"]))
        if change == "field":
            node[key] = draw(_JSON_VALUES)
        else:
            node.pop(key, None)
    text = json.dumps({"nodes": nodes})
    return text[: draw(st.integers(0, len(text)))] if change == "cut" else text


@settings(max_examples=300, deadline=None)
@given(
    tree_texts(),
    st.lists(st.sampled_from(["0", "0.5", "-1", "2", "nan", "inf", "", "x"]), min_size=1, max_size=4),
)
def test_fuzzed_explain_exits_0_or_1_with_one_error_line(text, point):
    exits_cleanly(["explain", "--tree={dir}/t.json", f"--point={','.join(point)}"], {"t.json": text})


def _child_env():
    """Environment in which a child process imports the same xkmeans as
    this process, installed or not."""
    src = str(Path(xkmeans.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_script_runs_are_reproducible(tmp_path):
    env = _child_env()
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


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 400 features: a threaded BLAS splits products this long across its
    # threads, and so sums them in an order that depends on their count
    argv = [sys.executable, "-m", "xkmeans.cli", "run", "--synth", "synthetic2", "--k", "4", "--d", "400",
            "--leaves", "k,4k"]
    for threads in ("1", "2"):
        env = {**_child_env(), "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run(argv + ["--out", str(tmp_path / threads)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    assert _rows_without_time(tmp_path / "1") == _rows_without_time(tmp_path / "2")
    assert _run_files(tmp_path / "1") == _run_files(tmp_path / "2")


def test_tracer_reports_layer_counters(tmp_path):
    # the benchmark's traced run reads builder arguments (the IMM node
    # state's point ids, the scanned cell) and wraps every public tree
    # method; a refactor that breaks either shows up here, not only in a
    # benchmark run
    tracer_path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(tracer_path), str(spans), "run", "--data", str(IRIS),
         "--k", "3", "--leaves", "k,2k", "--methods", ",".join(METHODS),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    metrics = tracer.layer_metrics(json.loads(spans.read_text())["spans"])
    for name in ("imm.node_points", "exkmc.scan.cell_entries", "tree.split_leaf.calls"):
        assert metrics[name] > 0, name
