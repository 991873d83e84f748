import numpy as np
import pytest

from xkmeans.core import Assignment, CenterSet, DataMatrix, kmeans_cost
from xkmeans import kmeans
from xkmeans.kmeans import (
    KMeansConfig,
    KMeansResult,
    _cluster_pass,
    _update_means,
    fit_reference,
    kmeanspp_seed,
    lloyd,
)
from xkmeans.synth import gen_gaussian_blobs, gen_synthetic_ii

FOUR_POINTS = DataMatrix([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])


def rows_of(X, centers):
    return [any(np.array_equal(c, row) for row in X.points) for c in centers]


class TestSeeding:
    def test_k_equals_n_returns_permutation(self):
        rng = np.random.default_rng(0)
        X = DataMatrix(np.arange(12.0).reshape(6, 2))
        seeds = kmeanspp_seed(X, 6, rng)
        got = np.sort(seeds.centers, axis=0)
        assert np.array_equal(got, np.sort(X.points, axis=0))

    def test_two_far_points_both_chosen(self):
        X = DataMatrix([[0.0, 0.0], [10.0, 0.0]])
        for seed in range(5):
            seeds = kmeanspp_seed(X, 2, np.random.default_rng(seed))
            assert {tuple(c) for c in seeds.centers} == {(0.0, 0.0), (10.0, 0.0)}

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeanspp_seed(FOUR_POINTS, 5, np.random.default_rng(0))

    def test_k_larger_than_distinct_rejected(self):
        X = DataMatrix([[1.0, 1.0]] * 5)
        with pytest.raises(ValueError):
            kmeanspp_seed(X, 2, np.random.default_rng(0))

    def test_seeded_centers_are_dataset_rows(self):
        for seed in range(10):
            X, _ = gen_gaussian_blobs(3, 40, 4, separation=6.0, seed=seed)
            seeds = kmeanspp_seed(X, 3, np.random.default_rng(seed))
            assert all(rows_of(X, seeds.centers))

    def test_determinism(self):
        X, _ = gen_gaussian_blobs(3, 50, 4, separation=6.0, seed=1)
        a = kmeanspp_seed(X, 3, np.random.default_rng(42))
        b = kmeanspp_seed(X, 3, np.random.default_rng(42))
        assert np.array_equal(a.centers, b.centers)

    def test_last_center_needs_no_distance_pass(self, monkeypatch):
        passes = []
        real = kmeans._sq_dists_to
        monkeypatch.setattr(kmeans, "_sq_dists_to", lambda *args: passes.append(1) or real(*args))
        kmeanspp_seed(FOUR_POINTS, 3, np.random.default_rng(0))
        assert len(passes) == 2

    @pytest.mark.parametrize("d", [1, 2, 1000])
    def test_blocked_distances_match_one_difference_array_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        pts = rng.normal(size=(301, d)) * 1e3 + 1e6
        diff = pts - pts[17]
        whole = np.einsum("ij,ij->i", diff, diff)
        for rows in (1, 7, 300, 301):
            got = kmeans._sq_dists_to(pts, pts[17], np.empty((rows, d)))
            assert got.tobytes() == whole.tobytes(), rows

    def test_codeword_dataset_one_seed_per_cluster(self):
        # the far-apart codeword clusters make the squared-distance sampling
        # pick one point from each cluster on almost every seed
        hits = 0
        for seed in range(10):
            X, _, truth = gen_synthetic_ii(5, 400, seed=0)
            seeds = kmeanspp_seed(X, 5, np.random.default_rng(seed))
            picked = []
            for c in seeds.centers:
                idx = int(np.flatnonzero((X.points == c).all(axis=1))[0])
                picked.append(int(truth.labels[idx]))
            hits += len(set(picked)) == 5
        assert hits >= 9


class TestLloyd:
    def test_fixed_point_converges_immediately(self):
        init = CenterSet([[0.0, 0.5], [4.0, 0.5]])
        res = lloyd(FOUR_POINTS, init)
        assert res.n_iter == 1
        assert np.array_equal(res.assignment.labels, [0, 0, 1, 1])
        assert np.array_equal(res.centers.centers, init.centers)

    def test_four_point_single_step(self):
        res = lloyd(FOUR_POINTS, CenterSet([[0.0, 0.0], [4.0, 1.0]]))
        assert np.allclose(res.centers.centers, [[0.0, 0.5], [4.0, 0.5]])
        assert res.cost == pytest.approx(1.0)

    def test_k1_center_is_global_mean(self):
        rng = np.random.default_rng(3)
        X = DataMatrix(rng.normal(size=(20, 3)))
        res = lloyd(X, CenterSet([X.points[0]]))
        assert np.allclose(res.centers.centers[0], X.points.mean(axis=0))
        assert res.cost == pytest.approx(((X.points - X.points.mean(0)) ** 2).sum())

    def test_cost_history_non_increasing(self):
        for seed in range(10):
            X, _ = gen_gaussian_blobs(4, 120, 5, separation=3.0, seed=seed)
            seeds = kmeanspp_seed(X, 4, np.random.default_rng(seed))
            res = lloyd(X, seeds)
            h = np.array(res.cost_history)
            assert np.all(h[1:] <= h[:-1] * (1 + 1e-9) + 1e-12)

    def test_empty_cluster_repaired_not_raised(self):
        X = DataMatrix([[0.0], [0.1], [1.0], [1.1]])
        init = CenterSet([[0.05], [1.05], [50.0]])  # third center captures nothing
        res = lloyd(X, init)
        assert res.centers.k == 3
        assert np.all(np.isfinite(res.centers.centers))
        h = np.array(res.cost_history)
        assert np.all(h[1:] <= h[:-1] * (1 + 1e-9) + 1e-12)

    def test_final_centers_are_means_of_final_assignment(self):
        X, _ = gen_gaussian_blobs(3, 60, 2, separation=8.0, seed=5)
        res = lloyd(X, kmeanspp_seed(X, 3, np.random.default_rng(5)))
        for j in range(3):
            ids = np.flatnonzero(res.assignment.labels == j)
            assert np.allclose(res.centers.centers[j], X.points[ids].mean(axis=0))


    def test_stable_final_iteration_repeats_the_previous_cost(self):
        res = lloyd(FOUR_POINTS, CenterSet([[0.0, 0.5], [4.0, 0.5]]))
        assert res.cost_history == (1.0, 1.0)
        for seed in range(10):
            X, _ = gen_gaussian_blobs(3, 90, 4, separation=3.0, seed=seed)
            res = lloyd(X, kmeanspp_seed(X, 3, np.random.default_rng(seed)), tol=0.0)
            # tol 0 stops only on a stable assignment, whose cost is carried over
            assert res.cost_history[-1] == res.cost_history[-2] == res.cost
            assert res.cost == kmeans_cost(X, res.assignment)

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8, 1e9])
    def test_assignment_is_nearest_center_under_a_shared_offset(self, offset):
        # the returned assignment must be the naive argmin over direct
        # differences to the returned centers wherever the data sits
        for seed in range(4):
            X, _ = gen_gaussian_blobs(4, 400, 3, 3.0, seed=seed)
            X = DataMatrix(X.points + offset)
            res = fit_reference(X, KMeansConfig(k=4, seed=0))
            diff = X.points[:, None, :] - res.centers.centers[None, :, :]
            nearest = np.argmin((diff * diff).sum(axis=2), axis=1)
            assert np.array_equal(res.assignment.labels, nearest), f"data seed {seed}"


class TestFitReference:
    def test_n_init_one_equals_single_run(self):
        X, _ = gen_gaussian_blobs(3, 60, 3, separation=6.0, seed=2)
        cfg = KMeansConfig(k=3, n_init=1, seed=9)
        ref = fit_reference(X, cfg)
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
        manual = lloyd(X, kmeanspp_seed(X, 3, rng), max_iter=cfg.max_iter, tol=cfg.tol)
        assert np.array_equal(ref.centers.centers, manual.centers.centers)
        assert ref.cost == manual.cost

    def test_more_restarts_never_worse(self):
        X, _ = gen_gaussian_blobs(4, 80, 3, separation=2.0, seed=3)
        one = fit_reference(X, KMeansConfig(k=4, n_init=1, seed=17))
        ten = fit_reference(X, KMeansConfig(k=4, n_init=10, seed=17))
        assert ten.cost <= one.cost + 1e-12

    def test_determinism_bit_for_bit(self):
        X, _ = gen_gaussian_blobs(3, 70, 4, separation=4.0, seed=4)
        a = fit_reference(X, KMeansConfig(k=3, seed=123))
        b = fit_reference(X, KMeansConfig(k=3, seed=123))
        assert np.array_equal(a.centers.centers, b.centers.centers)
        assert a.cost == b.cost

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            fit_reference(FOUR_POINTS, KMeansConfig(k=5, seed=0))


    def test_seeding_error_and_bad_jobs_rejected_at_any_jobs(self):
        X = DataMatrix([[1.0, 1.0]] * 5)
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="only 1 distinct points"):
                fit_reference(X, KMeansConfig(k=2, seed=0), jobs=jobs)
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                fit_reference(FOUR_POINTS, KMeansConfig(k=2, seed=0), jobs=jobs)


@pytest.mark.parametrize("d", [1, 2, 1000])
@pytest.mark.parametrize("offset", [0.0, 1e9])
def test_fit_reference_does_not_depend_on_jobs(monkeypatch, d, offset):
    # every restart's last seed sits past the data's bounding box in every
    # coordinate, so no point is nearest it: its cluster starts empty and is
    # reseeded, and the reseed path runs under the jobs check at each offset
    reseeded = []
    update = kmeans._update_means
    seed = kmeans.kmeanspp_seed

    def spy(pts, assign, counts, means):
        reseeded.append(int((counts == 0).sum()))
        return update(pts, assign, counts, means)

    def far_last_seed(X, k, rng):
        centers = seed(X, k, rng).centers.copy()
        hi, lo = X.points.max(axis=0), X.points.min(axis=0)
        centers[-1] = hi + (hi - lo) + 1.0
        return CenterSet(centers)

    monkeypatch.setattr(kmeans, "_update_means", spy)
    monkeypatch.setattr(kmeans, "kmeanspp_seed", far_last_seed)
    X, _ = gen_gaussian_blobs(4, 120, d, separation=2.0, seed=d)
    X = DataMatrix(X.points + offset)
    cfg = KMeansConfig(k=4, seed=d)
    want = fit_reference(X, cfg)
    assert sum(reseeded) >= cfg.n_init
    for jobs in (2, 3, 11):  # 11 is more workers than restarts
        got = fit_reference(X, cfg, jobs=jobs)
        assert got.centers.centers.tobytes() == want.centers.centers.tobytes()
        assert np.array_equal(got.assignment.labels, want.assignment.labels)
        assert (got.cost, got.cost_history, got.n_iter) == (want.cost, want.cost_history, want.n_iter)

@pytest.mark.parametrize(
    "costs, kept",
    [
        ([1.0 + 2e-12, 1.0 + 1e-12, 1.0, 1.0, 1.0 - 1e-12], 0),  # all within 1e-9: the first
        ([3.0, 1.0 + 1e-12, 1.0, 1.0 - 1e-12, 2.0], 1),
        ([1.0 + 1e-6, 1.0 + 1e-12, 1.0, 1.0], 1),
        ([1.0 + 1e-6, 1.0 + 1e-7, 1.0, 1.0], 2),
    ],
)
@pytest.mark.parametrize("jobs", [1, 3])
def test_restart_ties_go_to_the_lowest_index(monkeypatch, costs, kept, jobs):
    # each stubbed restart is known by its stream's first draw, so the stubs
    # give every restart its cost in whatever order the restarts run
    X = FOUR_POINTS
    streams = np.random.SeedSequence(5).spawn(len(costs))
    index = {np.random.default_rng(s).random(): i for i, s in enumerate(streams)}

    def seed(X, k, rng):
        return CenterSet([[rng.random(), 0.0]])

    def restart(X, init, max_iter, tol):
        i = index[float(init.centers[0, 0])]
        labels = np.full(X.n, i % 2)
        return KMeansResult(init, Assignment(labels), costs[i], (costs[i],), i + 1)

    monkeypatch.setattr(kmeans, "kmeanspp_seed", seed)
    monkeypatch.setattr(kmeans, "lloyd", restart)
    ref = fit_reference(X, KMeansConfig(k=1, n_init=len(costs), seed=5), jobs=jobs)
    assert ref.n_iter == kept + 1 and ref.cost == costs[kept]


def add_at_update_means(pts, assign, k, old):
    """The mean update as a scatter-add: the reference for `_update_means`.
    A single column is summed pairwise, as `np.mean` sums a 1-d cluster."""
    sums = np.zeros((k, pts.shape[1]))
    if pts.shape[1] == 1:
        for j in range(k):
            sums[j, 0] = np.sum(pts[assign == j, 0])
    else:
        np.add.at(sums, assign, pts)
    counts = np.bincount(assign, minlength=k)
    centers = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], old)
    empties = np.flatnonzero(counts == 0)
    if empties.size:
        dist = np.einsum("ij,ij->i", pts - centers[assign], pts - centers[assign])
        for j in empties:
            p = int(np.argmax(dist))
            centers[j] = pts[p]
            dist[p] = -1.0
    return centers


@pytest.mark.parametrize("d", [1, 2, 1000])
@pytest.mark.parametrize("empty", [False, True])
def test_update_means_matches_add_at_bit_for_bit(d, empty):
    # from d = 2 on, a cluster's mean adds its rows in order, as the
    # scatter-add does; a single column is summed pairwise, as np.sum does
    rng = np.random.default_rng(d)
    k = 4
    for n in (5, 300, 1500):
        pts = rng.normal(size=(n, d)) * 1e3 + rng.choice([0.0, 1e7])
        assign = rng.integers(0, k, size=n)
        if empty:
            assign[assign >= 2] = 0  # clusters 2 and 3 are empty and get reseeded
        old = rng.normal(size=(k, d))
        counts, means, _ = _cluster_pass(pts, assign, k)
        got = _update_means(pts, assign, counts, means)
        assert got.tobytes() == add_at_update_means(pts, assign, k, old).tobytes()


@pytest.mark.parametrize("d", [1, 2, 1000])
def test_cluster_pass_matches_kmeans_cost_and_np_mean_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for n, k in [(1, 1), (7, 3), (500, 4), (2000, 2)]:
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 6) + rng.choice([0.0, 1e6])
        labels = rng.integers(0, k, size=n)
        if k > 1:
            labels[labels == k - 1] = 0  # cluster k - 1 is empty
        counts, means, cost = _cluster_pass(pts, labels, k)
        assert cost == kmeans_cost(DataMatrix(pts), Assignment(labels))
        assert np.array_equal(counts, np.bincount(labels, minlength=k))
        for j in np.flatnonzero(counts):
            assert means[j].tobytes() == np.mean(pts[labels == j], axis=0).tobytes()
