import ast
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xkmeans import core
from xkmeans.core import (
    Assignment,
    CenterSet,
    DataMatrix,
    accuracy,
    best_center,
    cell_stats,
    kmeans_cost,
    load_csv,
    surrogate_cost,
    thread_map,
)

FOUR_POINTS = DataMatrix([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
TWO_CENTERS = CenterSet([[0.0, 0.5], [4.0, 0.5]])


def brute_kmeans_cost(points, labels):
    # independent re-derivation with plain python loops
    total = 0.0
    for lab in set(labels):
        cluster = [p for p, l in zip(points, labels) if l == lab]
        mu = [sum(col) / len(cluster) for col in zip(*cluster)]
        for p in cluster:
            total += sum((a - b) ** 2 for a, b in zip(p, mu))
    return total


def fixed_center_cost(X, subset, mu):
    """Sum of squared distances from the points `subset` of X to one center."""
    diff = X.points[np.asarray(subset, dtype=np.int64)] - np.asarray(mu, dtype=np.float64)
    return float((diff**2).sum())


def brute_surrogate(points, cells, centers):
    total = 0.0
    for cell in cells:
        if not cell:
            continue
        best = min(
            sum(sum((points[i][t] - c[t]) ** 2 for t in range(len(c))) for i in cell)
            for c in centers
        )
        total += best
    return total


class TestKMeansCost:
    def test_four_point_example(self):
        a = Assignment([0, 0, 1, 1])
        expected = brute_kmeans_cost(FOUR_POINTS.points.tolist(), [0, 0, 1, 1])
        assert expected == 1.0
        assert kmeans_cost(FOUR_POINTS, a) == pytest.approx(1.0, abs=1e-12)

    def test_singleton_cluster_contributes_zero(self):
        X = DataMatrix([[5.0, 5.0], [0.0, 0.0], [0.0, 2.0]])
        a = Assignment([0, 1, 1])
        assert kmeans_cost(X, a) == pytest.approx(2.0)

    def test_identical_points_one_cluster(self):
        X = DataMatrix([[1.0, 1.0]] * 4)
        assert kmeans_cost(X, Assignment([0, 0, 0, 0])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kmeans_cost(FOUR_POINTS, Assignment([0, 0, 1]))

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            Assignment([0, -1, 1, 1])

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            d = int(rng.integers(1, 4))
            X = DataMatrix(rng.normal(size=(n, d)))
            labels = rng.integers(0, 3, size=n)
            got = kmeans_cost(X, Assignment(labels))
            want = brute_kmeans_cost(X.points.tolist(), labels.tolist())
            assert got == pytest.approx(want, rel=1e-12)


class TestFixedCenterCost:
    def test_direct_evaluation(self):
        assert fixed_center_cost(FOUR_POINTS, [0, 1], (0, 0.5)) == pytest.approx(0.5)

    def test_empty_subset(self):
        assert fixed_center_cost(FOUR_POINTS, [], (0, 0.5)) == 0.0

    def test_far_center(self):
        assert fixed_center_cost(FOUR_POINTS, [2, 3], (0, 0.5)) == pytest.approx(32.5)

    def test_mean_is_optimal_among_random_centers(self):
        rng = np.random.default_rng(11)
        X = DataMatrix(rng.normal(size=(12, 3)))
        ids = np.arange(8)
        mu = X.points[ids].mean(axis=0)
        at_mean = fixed_center_cost(X, ids, mu)
        for _ in range(100):
            other = rng.normal(scale=3.0, size=3)
            assert at_mean <= fixed_center_cost(X, ids, other) + 1e-12


class TestSurrogateCost:
    def test_single_leaf(self):
        got = surrogate_cost(FOUR_POINTS, [np.arange(4)], TWO_CENTERS)
        want = brute_surrogate(
            FOUR_POINTS.points.tolist(), [[0, 1, 2, 3]], TWO_CENTERS.centers.tolist()
        )
        assert want == 33.0
        assert got == pytest.approx(33.0, rel=1e-12)

    def test_two_leaves(self):
        got = surrogate_cost(FOUR_POINTS, [[0, 1], [2, 3]], TWO_CENTERS)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_singleton_leaves_with_matching_centers(self):
        X = DataMatrix([[0.0], [1.0], [2.0]])
        M = CenterSet([[0.0], [1.0], [2.0]])
        assert surrogate_cost(X, [[0], [1], [2]], M) == 0.0

    def test_incomplete_partition_rejected(self):
        with pytest.raises(ValueError):
            surrogate_cost(FOUR_POINTS, [[0, 1]], TWO_CENTERS)

    def test_overlapping_partition_rejected(self):
        with pytest.raises(ValueError):
            surrogate_cost(FOUR_POINTS, [[0, 1, 2], [2, 3]], TWO_CENTERS)

    def test_empty_cell_allowed(self):
        got = surrogate_cost(FOUR_POINTS, [[0, 1], [], [2, 3]], TWO_CENTERS)
        assert got == pytest.approx(1.0)

    def test_best_center_tie_breaks_low_index(self):
        X = DataMatrix([[0.0]])
        M = CenterSet([[1.0], [-1.0]])
        label, cost = best_center(cell_stats(X.points[[0]]), M)
        assert label == 0 and cost == pytest.approx(1.0)


@pytest.mark.parametrize("d", [1, 3, 130])
def test_cell_stats_variance_is_np_var_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for m in (1, 7, 500):
        pts = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-3, 6) + rng.choice([0.0, 1e6])
        n, mean, ss = cell_stats(pts)
        assert n == m and mean.tobytes() == pts.mean(axis=0).tobytes()
        assert (ss / m).tobytes() == pts.var(axis=0).tobytes()
    n, mean, ss = cell_stats(np.empty((0, d)))
    assert n == 0 and mean.shape == ss.shape == (d,) and not mean.any() and not ss.any()


@pytest.mark.parametrize("d", [1, 2, 1000])
def test_cell_stats_blocks_match_one_deviation_array_bit_for_bit(d):
    # the one-pass formula: one (m, d) deviation array summed over axis 0;
    # the row counts straddle one block of the blocked sum
    block = max(1, core._BLOCK_FLOATS // d)
    rng = np.random.default_rng(d)
    for m in (0, 1, block - 1, block, block + 1, 3 * block + 2):
        pts = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-3, 6) + rng.choice([0.0, 1e6])
        dev = pts - pts.sum(axis=0) / max(m, 1)
        n, mean, ss = cell_stats(pts)
        assert n == m and ss.tobytes() == (dev * dev).sum(axis=0).tobytes(), m


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_best_center_prices_by_parallel_axes(offset):
    # W + m |mean - mu|^2 against the direct sum of squared differences
    rng = np.random.default_rng(7)
    for m in (1, 5, 200):
        pts = rng.normal(size=(m, 3)) + offset
        M = CenterSet(rng.normal(size=(4, 3)) * 2.0 + offset)
        direct = [float(((pts - c) ** 2).sum()) for c in M.centers]
        j, cost = best_center(cell_stats(pts), M)
        assert j == int(np.argmin(direct))
        assert cost == pytest.approx(min(direct), rel=1e-9)


class TestAccuracy:
    def test_identical(self):
        a = Assignment([0, 1, 2, 1])
        assert accuracy(a, a) == 1.0

    def test_complementary(self):
        assert accuracy(Assignment([0, 0, 1, 1]), Assignment([1, 1, 0, 0])) == 0.0

    def test_one_disagreement(self):
        assert accuracy(Assignment([0, 0, 1, 1]), Assignment([0, 1, 1, 1])) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(Assignment([0, 1]), Assignment([0, 1, 1]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 20),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
def test_surrogate_upper_bounds_kmeans(n, d, cells, k, seed):
    """Means beat any fixed centers: merging leaves by best-center label and
    re-centering on the means can only lower the cost."""
    rng = np.random.default_rng(seed)
    X = DataMatrix(rng.normal(size=(n, d)))
    M = CenterSet(rng.normal(size=(k, d)))
    cell_of = rng.integers(0, cells, size=n)
    partition = [np.flatnonzero(cell_of == c) for c in range(cells)]
    sur = surrogate_cost(X, partition, M)

    merged = np.zeros(n, dtype=np.int64)
    for cell in partition:
        if cell.size:
            merged[cell] = best_center(cell_stats(X.points[cell]), M)[0]
    km = kmeans_cost(X, Assignment(merged))
    assert km <= sur * (1 + 1e-9) + 1e-12


class TestDataValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DataMatrix([[0.0, np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DataMatrix(np.empty((0, 3)))

    def test_points_are_readonly(self):
        X = DataMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            X.points[0, 0] = 5.0

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Assignment([0.0, 1.5]), "labels must be integers"),
            (lambda: Assignment([[0, 1]]), "labels must be one-dimensional"),
            (lambda: CenterSet(np.empty((0, 2))), "need at least one center"),
            (lambda: CenterSet([[0.0, np.nan]]), "centers contain NaN or Inf entries"),
            (lambda: CenterSet([[np.inf, 0.0]]), "centers contain NaN or Inf entries"),
            (lambda: DataMatrix([1.0, 2.0]), r"expected 2-d array, got shape \(2,\)"),
            (lambda: CenterSet([1.0, 2.0]), r"expected 2-d array, got shape \(2,\)"),
        ],
        ids=["fractional_labels", "2d_labels", "no_center", "nan_center", "inf_center", "1d_points", "1d_centers"],
    )
    def test_containers_reject_malformed_input(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_integer_valued_float_labels_become_readonly_int64(self):
        a = Assignment(np.array([2.0, 0.0, 1.0]))
        assert a.labels.dtype == np.int64 and a.labels.tolist() == [2, 0, 1]
        with pytest.raises(ValueError):
            a.labels[0] = 5


class TestLoadCsv:
    def test_with_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        X = load_csv(f)
        assert X.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_without_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0\n3.5,4.0\n")
        assert load_csv(f).n == 2

    def test_column_selection(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2,3\n4,5,6\n")
        X = load_csv(f, columns=[2, 0])
        assert X.points.tolist() == [[3.0, 1.0], [6.0, 4.0]]

    def test_non_numeric_columns_dropped_with_warning(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,species,y\n1.0,setosa,2.0\n3.0,virginica,4.0\n")
        with pytest.warns(UserWarning, match="species"):
            X = load_csv(f)
        assert X.d == 2

    def test_all_non_numeric_is_error(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("name\nfoo\nbar\n")
        with pytest.raises(ValueError), pytest.warns(UserWarning):
            load_csv(f)


def test_surrogate_of_reference_partition_is_reference_fixed_cost():
    # for a nearest-center assignment, every cluster's own center is its
    # cheapest center, so the partition's surrogate cost collapses to the
    # plain fixed-center cost of the reference clustering
    from xkmeans.kmeans import KMeansConfig, fit_reference
    from xkmeans.synth import gen_gaussian_blobs

    for seed in range(5):
        X, _ = gen_gaussian_blobs(3, 60, 4, separation=3.0, seed=seed)
        ref = fit_reference(X, KMeansConfig(k=3, n_init=2, seed=seed))
        cells = [np.flatnonzero(ref.assignment.labels == j) for j in range(3)]
        direct = sum(
            fixed_center_cost(X, cells[j], ref.centers.centers[j]) for j in range(3)
        )
        got = surrogate_cost(X, cells, ref.centers)
        assert got == pytest.approx(direct, rel=1e-12)


def test_load_csv_rejects_empty_and_ragged_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="ragged"):
        load_csv(ragged)

    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(header_only)


# -- the one-pass CSV parse against the row-by-row parse ----------------------


def load_both_ways(path, columns=None):
    """(outcome, warnings) of `load_csv` and of the row-by-row parse alone,
    where an outcome is the array's bytes and shape or the error's type and
    text."""
    results = []
    for load in (load_csv, lambda p, c: DataMatrix(core._load_rows(Path(p), c))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                pts = load(path, columns).points
                outcome = ("ok", pts.shape, pts.tobytes())
            except ValueError as exc:
                outcome = (type(exc).__name__, str(exc))
        results.append((outcome, [(w.category, str(w.message)) for w in caught]))
    return results


_reprs = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_decimals = st.from_regex(r"[+-]?[0-9]{1,22}(\.[0-9]{0,22})?([eE][+-]?[0-9]{1,3})?", fullmatch=True)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda d: st.lists(st.lists(_reprs | _decimals, min_size=d, max_size=d), min_size=1, max_size=8)
    ),
    st.booleans(),
    st.none() | st.lists(st.integers(0, 5), min_size=1, max_size=4),
)
def test_loadtxt_matches_row_parse(rows, header, columns):
    d = len(rows[0])
    if columns is not None:
        columns = [c % d for c in columns]
    text = ("x" + ",y" * (d - 1) + "\n" if header else "") + "".join(",".join(r) + "\n" for r in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text)
        fast = core._loadtxt(path, columns)  # well-formed: the one-pass parse must accept it
        slow = core._load_rows(path, columns)
    assert fast.shape == slow.shape and fast.tobytes() == slow.tobytes()


# name -> (file text, columns, whether the one-pass parse reads it)
EDGE_FILES = {
    "blank_lines": ("1,2\n\n3,4\n\n", None, True),
    "blank_line_before_header": ("\n\na,b\n1,2\n3,4\n", None, True),
    "whitespace_only_line": ("1,2\n   \n3,4\n", None, False),
    "whitespace_only_line_one_column": ("1\n \n3\n", None, False),
    "whitespace_only_first_line": ("  \n1,2\n3,4\n", None, True),
    "hash_row": ("a,b\n1,2\n# note,3\n", None, False),
    "hash_header": ("# a,b\n1,2\n", None, True),
    "quoted_numbers": ('"1","2"\n"3","4"\n', None, False),
    "quoted_header_with_newline": ('"a\nb",c\n1,2\n3,4\n', None, True),
    "trailing_comma": ("1,2,\n3,4,\n", None, False),
    "crlf": ("a,b\r\n1,2\r\n3,4\r\n", None, True),
    "cr_only": ("a,b\r1,2\r3,4\r", None, True),
    "padded_tokens": (" 1 , 2\n3 ,\t4 \n", None, True),
    "nan_and_inf": ("1,nan\n2,inf\n", None, True),
    "nan_outside_columns": ("1,nan\n2,-inf\n", [0], True),
    "duplicate_columns": ("1,2,3\n4,5,6\n", [2, 0, 2], True),
    "header_only": ("a,b\n", None, False),
    "header_then_blank_lines": ("a,b\n\n\n", None, False),
    "empty": ("", None, False),
    "blank_only": ("\n\n", None, False),
    "header_wider_than_data": ("a,b,c\n1,2\n3,4\n", None, True),
    "header_narrower_than_data": ("a,b\n1,2,x\n3,4,y\n", None, False),
    "ragged_longer_row": ("1,2\n3,4,5\n", None, False),
    "ragged_shorter_row": ("1,2,3\n4,5\n", [0, 1], False),
    "column_out_of_range": ("1,2\n3,4\n", [5], False),
    "negative_column": ("1,2\n3,4\n", [-1], False),
    "no_columns": ("1,2\n3,4\n", [], False),
    "underscore_digits": ("1_0,2\n3,4\n", None, False),
    "non_ascii_digits": ("١,2\n3,4\n", None, False),
    "information_separator": ("1\x1c,2\n3,4\n", None, False),
    "non_numeric_column": ("x,species\n1,setosa\n2,virginica\n", None, False),
    "bom_header": ("﻿a,b\n1,2\n", None, True),
    "bom_no_header": ("﻿1.5,2\n3,4\n", None, True),
}


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_edge_files_load_the_same_both_ways(name, tmp_path):
    text, columns, one_pass = EDGE_FILES[name]
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    got, want = load_both_ways(path, columns)
    assert got == want
    try:
        core._loadtxt(path, columns)
        read = True
    except ValueError:
        read = False
    assert read == one_pass


def test_leading_bom_is_not_a_header(tmp_path):
    # a BOM glued to the first token made it non-numeric, so the first data
    # row was taken for a header and lost
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1.5,2\n3,4\n5,6\n")
    assert load_csv(path).points.tolist() == [[1.5, 2.0], [3.0, 4.0], [5.0, 6.0]]
    path.write_bytes(b"\xef\xbb\xbf1.5,2\n3,\n5,6\n")  # read row by row
    with pytest.warns(UserWarning, match="dropping non-numeric columns: 1"):
        assert load_csv(path).points.tolist() == [[1.5], [3.0], [5.0]]


def test_thread_map_keeps_item_order_and_uses_the_caller_for_one_worker():
    caller = threading.current_thread()

    def where(item):
        return item, threading.current_thread()

    for jobs, items in [(1, range(5)), (4, range(1)), (3, range(0))]:
        got = thread_map(where, items, jobs)
        assert [item for item, _ in got] == list(items)
        assert all(thread is caller for _, thread in got)
    got = thread_map(where, range(20), 3)
    assert [item for item, _ in got] == list(range(20))
    threads = {thread for _, thread in got}
    assert caller not in threads and len(threads) <= 3
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            thread_map(where, [], jobs)


def test_only_core_makes_a_thread_pool():
    # every task that --jobs spreads over threads goes through core.thread_map
    sources = Path(core.__file__).parent.glob("*.py")
    assert sorted(p.name for p in sources if "ThreadPoolExecutor" in p.read_text()) == ["core.py"]


def test_threads_have_one_level():
    # thread_map runs only the restarts and the build groups, which start no
    # threads of their own: each call's innermost enclosing function
    callers = {}
    for path in Path(core.__file__).parent.glob("*.py"):
        module = ast.parse(path.read_text())
        scopes = [module, *(n for n in ast.walk(module) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))]
        for scope in scopes:  # breadth first: an inner function comes after the one it is in
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and "thread_map" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    callers[id(node)] = f"{path.stem}.{getattr(scope, 'name', '<module>')}"
    assert sorted(callers.values()) == ["cli.run_experiment", "kmeans.fit_reference"]
