import numpy as np
import pytest

from xkmeans.core import Assignment, kmeans_cost
from xkmeans.kmeans import KMeansConfig, fit_reference
from xkmeans.synth import (
    gen_gaussian_blobs,
    gen_synthetic_i,
    gen_synthetic_ii,
    points_from_codewords,
)


class TestCodewordDataset:
    def test_forced_codewords_expand_literally(self):
        codewords = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0]])
        X, centers, labels = points_from_codewords(codewords)
        cluster1 = X.points[:4]
        assert cluster1.tolist() == [
            [0.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 1.0],
            [1.0, 1.0, 1.0, 0.0],
        ]
        assert labels.labels.tolist() == [0] * 4 + [1] * 4

    def test_requires_d_above_k_squared(self):
        with pytest.raises(ValueError):
            gen_synthetic_ii(3, 9, seed=0)

    def test_each_point_zeroes_exactly_one_codeword_coordinate(self):
        X, centers, labels = gen_synthetic_ii(4, 20, seed=5)
        for i in range(X.n):
            cw = centers.centers[labels.labels[i]]
            diff = np.flatnonzero(X.points[i] != cw)
            assert diff.size == 1
            assert X.points[i, diff[0]] == 0.0

    def test_invariants_over_many_seeds(self):
        for seed in range(100):
            X, centers, labels = gen_synthetic_ii(5, 26, seed=seed)
            assert X.n == 5 * 26 and X.d == 26
            assert set(np.unique(X.points)) <= {-1.0, 0.0, 1.0}
            assert set(np.abs(centers.centers).ravel()) == {1.0}
            diff = centers.centers[:, None, :] - centers.centers[None, :, :]
            sq = (diff**2).sum(axis=2)[~np.eye(5, dtype=bool)]
            assert sq.min() >= 26 / 4
            counts = np.bincount(labels.labels, minlength=5)
            assert counts.tolist() == [26] * 5

    def test_codeword_cost_is_exactly_n(self):
        X, centers, labels = gen_synthetic_ii(4, 30, seed=1)
        total = 0.0
        for j in range(4):
            ids = np.flatnonzero(labels.labels == j)
            total += float(((X.points[ids] - centers.centers[j]) ** 2).sum())
        assert total == float(X.n)  # each point sits at squared distance 1

    def test_mean_cost_is_k_times_d_minus_one(self):
        X, centers, labels = gen_synthetic_ii(3, 12, seed=2)
        assert kmeans_cost(X, labels) == pytest.approx(3 * (12 - 1), rel=1e-12)


@pytest.fixture(scope="module")
def default_data():
    return gen_synthetic_i(seed=0)


class TestOutlierDataset:
    def test_shape_and_anchor_rows(self, default_data):
        X = default_data
        assert (X.n, X.d) == (5000, 1000)
        assert np.flatnonzero(X.points[:, 0] == 1000.0).tolist() == [0, 1]
        assert X.points[0, 1:].tolist() == [1.0] * 999
        assert X.points[1, 1:].tolist() == [0.0] * 999

    def test_mostly_one_half_counts(self, default_data):
        X = default_data
        block = X.points[2:2501]
        ones = (block == 1.0).sum(axis=1)
        zeros = (block == 0.0).sum(axis=1)
        assert np.all(ones == 899) and np.all(zeros == 101)
        assert np.all(block[:, 0] == 0.0)

    def test_mostly_zero_half_counts(self, default_data):
        X = default_data
        block = X.points[2501:]
        assert block.shape[0] == 2499
        assert np.all((block == 1.0).sum(axis=1) == 100)
        assert np.all(block[:, 0] == 0.0)

    def test_column_sums_match_construction(self, default_data):
        X = default_data
        col0 = X.points[:, 0].sum()
        assert col0 == 2000.0  # two anchors at nu, everything else 0
        total_ones = (X.points[2:] == 1.0).sum()
        assert total_ones == 2499 * 899 + 2499 * 100


class TestBlobs:
    def test_single_blob(self):
        X, labels = gen_gaussian_blobs(1, 30, 4, separation=1.0, seed=0)
        assert X.n == 30 and set(labels.labels) == {0}

    def test_divisible_n_gives_equal_sizes(self):
        _, labels = gen_gaussian_blobs(4, 80, 3, separation=5.0, seed=1)
        assert np.bincount(labels.labels).tolist() == [20] * 4

    def test_fit_recovers_centers_of_separated_blobs(self):
        separation = 40.0
        X, truth = gen_gaussian_blobs(3, 120, 4, separation=separation, seed=7)
        ref = fit_reference(X, KMeansConfig(k=3, seed=7))
        true_means = np.array(
            [X.points[truth.labels == j].mean(axis=0) for j in range(3)]
        )
        for c in ref.centers.centers:
            gap = np.sqrt(((true_means - c) ** 2).sum(axis=1).min())
            assert gap <= separation / 4
