import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from langprofile import clustering
from langprofile.clustering import (
    _pairwise_distances,
    _silhouette_from_distances,
    _t_two_sided_p,
    ami,
    ari,
    best_mapping_accuracy,
    boundary_cases,
    cluster_profiles,
    compare_features,
    dbscan,
    detect_outliers,
    kmeans,
    silhouette,
    silhouette_sweep,
    ward_linkage,
    welch_cohen,
)
from langprofile.errors import (
    DegenerateInput,
    LengthMismatch,
    SingleCluster,
    TinyCluster,
)
from langprofile.pipeline import _auto_eps
from langprofile.synthetic import two_blobs
from tests.oracles import (
    argmin_ward,
    fifo_dbscan,
    gram_pairwise_distances,
    lgamma_expected_mi,
    lloyd,
    loop_silhouette_from_distances,
    permutation_mapping_accuracy,
    plus_plus_init,
    serial_kmeans,
    sorted_auto_eps,
    stdtr_two_sided,
)

FOUR = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


def brute_silhouette(X, labels):
    """Direct double-loop evaluation of the silhouette formula."""
    X = np.asarray(X, dtype=float)
    n = len(X)
    labs = sorted(set(labels))
    total = 0.0
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            continue
        a = sum(math.dist(X[i], X[j]) for j in same) / len(same)
        b = math.inf
        for lab in labs:
            if lab == labels[i]:
                continue
            others = [j for j in range(n) if labels[j] == lab]
            b = min(b, sum(math.dist(X[i], X[j]) for j in others) / len(others))
        denom = max(a, b)
        if denom > 0:
            total += (b - a) / denom
    return total / n


def brute_optimal_inertia(X, k):
    """Exhaustive search over all surjective assignments."""
    X = np.asarray(X, dtype=float)
    n = len(X)
    best = math.inf
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) < k:
            continue
        inertia = 0.0
        for c in range(k):
            members = X[[i for i in range(n) if assign[i] == c]]
            mu = members.mean(axis=0)
            inertia += float(((members - mu) ** 2).sum())
        best = min(best, inertia)
    return best


class TestKMeans:
    def test_two_pair_fixture(self):
        res = kmeans(FOUR, 2, seed=0)
        assert res.assignments[0] == res.assignments[1]
        assert res.assignments[2] == res.assignments[3]
        assert res.assignments[0] != res.assignments[2]
        got = sorted(map(tuple, np.round(res.centroids, 12).tolist()))
        assert got == [(0.0, 0.5), (10.0, 0.5)]
        assert abs(res.inertia - 1.0) < 1e-12  # four points 0.5 from centroids

    def test_k_equals_one(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        res = kmeans(X, 1, seed=0)
        assert np.allclose(res.centroids[0], X.mean(axis=0))
        assert abs(res.inertia - ((X - X.mean(0)) ** 2).sum()) < 1e-9

    def test_matches_exhaustive_optimum(self):
        rng = np.random.default_rng(2)
        hits = 0
        for trial in range(20):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, 4))
            X = rng.normal(size=(n, 2))
            res = kmeans(X, k, seed=trial, n_init=32)
            opt = brute_optimal_inertia(X, k)
            if res.inertia <= opt * (1 + 1e-9) + 1e-12:
                hits += 1
        assert hits >= 19

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            kmeans(FOUR, 5, seed=0)

    def test_no_restarts_is_a_value_error(self):
        with pytest.raises(ValueError, match="n_init"):
            kmeans(FOUR, 2, 0, n_init=0)

    def test_deterministic(self):
        X, _ = two_blobs(120, seed=3)
        a = kmeans(X, 2, seed=11)
        b = kmeans(X, 2, seed=11)
        assert (a.assignments == b.assignments).all()
        assert a.inertia == b.inertia

    def test_lloyd_inertia_non_increasing(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 2))
        history = []
        lloyd(X, 3, np.random.default_rng(0), history=history)
        assert all(x >= y - 1e-9 for x, y in zip(history, history[1:]))

    def test_every_cluster_non_empty(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        res = kmeans(X, 6, seed=9)
        assert set(res.assignments) == set(range(6))

    @pytest.mark.parametrize("case", range(56))
    def test_batched_restarts_equal_serial_oracle(self, case):
        rng = np.random.default_rng(case)
        d = (1, 2, 3, 7, 8, 10)[case % 6]
        n_init = (1, 4, 9, 32)[case // 6 % 4]
        n = int(rng.integers(2, 160))
        k = (1, n, int(rng.integers(1, min(n, 10) + 1)))[rng.integers(3)]
        max_iter = (1, 2, 300)[rng.integers(3)]
        X = rng.normal(size=(n, d)) * rng.uniform(0.01, 100)
        if case % 4 == 0:
            # rounded, duplicated points can leave clusters empty (the repair)
            X = np.round(X, 0)
            X[rng.integers(n, size=n // 2)] = X[0]
        if case >= 48:
            # from d = 8 on np.sum's order follows X's memory layout
            d = (3, 8, 10, 12)[case % 4]
            wide = rng.normal(size=(2 * n, d + 2)) * rng.uniform(0.01, 100)
            X = np.asfortranarray(wide[:n, :d]) if case >= 52 else wide[::2, 1:d + 1]
        got = kmeans(X, k, case, n_init, max_iter)
        want = serial_kmeans(X, k, case, n_init, max_iter)
        assert np.array_equal(got.assignments, want.assignments)
        assert got.assignments.dtype == want.assignments.dtype
        assert np.array_equal(got.centroids, want.centroids)
        assert got.inertia == want.inertia

    @pytest.mark.parametrize("k", [1, 2, 10, 255, 256, 257, 300])
    @pytest.mark.parametrize("restarts", [1, 3, 8])
    def test_nearest_equals_argmin_on_exact_ties(self, k, restarts):
        # from k = 256 the weights no longer fit in uint8
        rng = np.random.default_rng(k * 10 + restarts)
        n = 40
        d2 = np.round(rng.uniform(0, 4, size=(restarts, k, n)))  # few values: many ties
        d2[:, :, :3] = 7.0  # rows of equal values
        d2[:, :, 3] = 0.0
        d2[:, -1, 4] = d2[:, 0, 4] = -1.0  # first and last cluster tie at the minimum
        d2[0, k // 2, 5] = -2.0
        got = clustering._nearest(d2)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argmin(d2, axis=1))
        assert (got[:, :5] == 0).all()

    @pytest.mark.parametrize("k", [1, 2, 7, 256, 300])
    def test_nearest_on_duplicate_centroids_equals_argmin(self, k):
        rng = np.random.default_rng(k)
        X = np.round(rng.normal(size=(300, 3)), 0)
        C = np.stack([X[rng.integers(300, size=k)] for _ in range(2)])
        C[:, k // 2:] = C[:, :1]  # the first centroid, again and again
        d2, scratch = np.empty((2, 2, k, 300))
        clustering._batch_distances(X, np.ascontiguousarray(X.T), C, d2, scratch)
        assert np.array_equal(clustering._nearest(d2), np.argmin(d2, axis=1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_nearest_equals_argmin_on_random_buffers(self, data):
        shape = (data.draw(st.integers(1, 9)),
                 data.draw(st.integers(1, 12) | st.sampled_from([255, 256, 300])),
                 data.draw(st.integers(1, 30)))
        values = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(allow_nan=False,
                                                              allow_infinity=False)
        d2 = data.draw(arrays(np.float64, shape, elements=values))
        assert np.array_equal(clustering._nearest(d2), np.argmin(d2, axis=1))

    @pytest.mark.parametrize("case", range(40))
    def test_batched_seeding_equals_serial_oracle(self, case):
        rng = np.random.default_rng(case)
        d = case % 10 + 1
        n = int(rng.integers(2, 300))
        k = (1, n, int(rng.integers(1, n + 1)), int(rng.integers(1, min(n, 10) + 1)))[case % 4]
        X = rng.normal(size=(n, d)) * rng.uniform(0.01, 100)
        if case % 5 == 1:
            X = np.round(X, 0)
            X[rng.integers(n, size=n // 2)] = X[0]
        elif case % 5 == 2:
            X = np.full((n, d), 2.5)  # every distance 0: uniform draws
        elif case % 5 == 3:
            X = np.asfortranarray(X)
        elif case % 5 == 4:
            X = rng.normal(size=(2 * n, d + 2))[::2, 1:d + 1]
        children = np.random.SeedSequence(case).spawn(int(rng.integers(1, 9)))
        got = clustering._batch_init(X, k, [np.random.default_rng(c) for c in children])
        want = np.stack([plus_plus_init(X, k, np.random.default_rng(c)) for c in children])
        assert np.array_equal(got, want)
        # a last-bit change in a distance rarely moves a draw: compare the distances too
        first = want[:, :1]
        got_d2, scratch = np.empty((2, len(first), 1, n))
        clustering._batch_distances(X, np.ascontiguousarray(X.T), first, got_d2, scratch)
        assert np.array_equal(got_d2[:, 0],
                              np.stack([np.sum((X - c) ** 2, axis=1) for c in first[:, 0]]))

    @pytest.mark.parametrize("case", range(12))
    def test_seeding_at_a_larger_k_starts_with_the_smaller_ks_centres(self, case):
        # the sweep seeds once at its largest k and starts each k from a prefix
        rng = np.random.default_rng(case)
        d = (1, 2, 3, 8, 10, 12)[case % 6]
        n = int(rng.integers(2, 120))
        X = rng.normal(size=(n, d)) * rng.uniform(0.01, 100)
        if case % 3 == 0:
            X = np.round(X, 0)
            X[rng.integers(n, size=n // 2)] = X[0]
        kmax = (n, int(rng.integers(1, n + 1)))[case % 2]
        children = np.random.SeedSequence(case).spawn(int(rng.integers(1, 9)))
        full = clustering._batch_init(X, kmax, [np.random.default_rng(c) for c in children])
        for k in {k for k in (1, 2, kmax // 2, kmax) if 1 <= k <= kmax}:
            alone = clustering._batch_init(X, k, [np.random.default_rng(c) for c in children])
            assert np.array_equal(full[:, :k], alone)

    @pytest.mark.parametrize("value, shown", [(np.nan, "nan"), (np.inf, "inf"),
                                              (-np.inf, "-inf")])
    def test_non_finite_point_is_named(self, value, shown):
        X = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        X[2, 1] = value
        with pytest.raises(DegenerateInput, match=f"point 2 holds {shown} in column 1"):
            kmeans(X, 2, seed=0)

    def test_point_whose_square_overflows_is_refused(self):
        X = np.array([[0.0, 1.0], [1e300, 3.0], [4.0, 5.0]])
        with pytest.raises(DegenerateInput, match=r"1e\+300 .* overflows"):
            kmeans(X, 2, seed=0)
        assert kmeans(X / 1e160, 2, seed=0).inertia > 0.0

    def test_fits_past_255_clusters_equal_serial_oracle(self):
        # one block seeded at k = 300 and run at 256 and 300, on few distinct points
        rng = np.random.default_rng(8)
        X = np.round(rng.normal(size=(320, 2)) * 8.0, 0)
        fits = clustering._fits(X, (256, 300), 3, 2, 300)
        for k, fit in fits.items():
            want = serial_kmeans(X, k, 3, 2)
            assert np.array_equal(fit.assignments, want.assignments)
            assert np.array_equal(fit.centroids, want.centroids)
            assert fit.inertia == want.inertia

    def test_empty_cluster_repair_equals_serial_oracle(self):
        # seven distinct points and k = 8: k-means++ seeds a duplicate
        # centroid in every restart, so its cluster starts empty
        X = np.vstack([np.repeat([[0.0, 0.0], [5.0, 1.0], [9.0, 9.0]], 10, axis=0),
                       [[1.0, 0.5], [6.0, 2.0], [8.0, 9.5]]])
        for seed in range(6):
            got = kmeans(X, 8, seed, n_init=9)
            want = serial_kmeans(X, 8, seed, n_init=9)
            assert np.array_equal(got.assignments, want.assignments)
            assert np.array_equal(got.centroids, want.centroids)
            assert got.inertia == want.inertia

    def test_result_arrays_own_their_memory(self):
        X, _ = two_blobs(80, seed=2)
        a = kmeans(X, 3, seed=4, n_init=9)
        b = kmeans(X, 3, seed=4, n_init=9)
        arrays = (a.assignments, a.centroids, b.assignments, b.centroids)
        for i, x in enumerate(arrays):
            assert x.base is None
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)


class TestSilhouette:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            X = rng.normal(size=(int(rng.integers(4, 9)), 2))
            labels = rng.integers(0, 3, size=len(X))
            if len(set(labels.tolist())) < 2:
                continue
            assert abs(silhouette(X, labels) - brute_silhouette(X, labels)) < 1e-12

    def test_four_point_fixture(self):
        labels = [0, 0, 1, 1]
        assert abs(silhouette(FOUR, labels) - brute_silhouette(FOUR, labels)) < 1e-12
        assert silhouette(FOUR, labels) > 0.8  # tight, far-apart pairs

    def test_identical_points_score_zero(self):
        X = np.zeros((6, 2))
        assert silhouette(X, [0, 0, 0, 1, 1, 1]) == 0.0

    def test_single_cluster_raises(self):
        with pytest.raises(SingleCluster):
            silhouette(FOUR, [0, 0, 0, 0])

    def test_range_and_permutation_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 2))
        labels = rng.integers(0, 4, size=40)
        s = silhouette(X, labels)
        assert -1.0 <= s <= 1.0
        perm = rng.permutation(40)
        assert abs(silhouette(X[perm], labels[perm]) - s) < 1e-9

    def test_sweep_peaks_at_two_for_two_blobs(self):
        X, _ = two_blobs(200, seed=8)
        sweep = silhouette_sweep(X, _pairwise_distances(X), range(2, 8), seed=0, n_init=8)
        scores = {k: s for k, s, _ in sweep}
        assert max(scores, key=scores.get) == 2

    def test_sweep_rejects_repeated_k_before_any_fit(self, monkeypatch):
        X, _ = two_blobs(120, seed=3)
        calls = []
        monkeypatch.setattr(clustering, "_fits", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=r"repeats k \[3\]"):
            silhouette_sweep(X, _pairwise_distances(X), (3, 3, 2), seed=1, n_init=4)
        assert calls == []

    def test_sweep_fits_equal_fresh_kmeans(self):
        X, _ = two_blobs(120, seed=3, dims=3)
        sweep = silhouette_sweep(X, _pairwise_distances(X), (2, 3, 5), seed=11, n_init=4)
        assert [k for k, _, _ in sweep] == [2, 3, 5]
        for k, _, fit in sweep:
            fresh = kmeans(X, k, 11, 4)
            assert fit.k == k
            assert np.array_equal(fit.assignments, fresh.assignments)
            assert np.array_equal(fit.centroids, fresh.centroids)
            assert fit.inertia == fresh.inertia
            assert (fit.seed, fit.n_init) == (11, 4)

    def test_sweep_checks_every_k_and_n_init_before_any_fit(self, monkeypatch):
        X = np.random.default_rng(4).normal(size=(10, 2))
        D = _pairwise_distances(X)
        calls = []
        monkeypatch.setattr(clustering, "_lloyd_block", lambda *a: calls.append(a))
        with pytest.raises(DegenerateInput, match=r"need n >= k >= 1, got n=10 k=12"):
            silhouette_sweep(X, D, (2, 12), seed=1, n_init=4)
        with pytest.raises(ValueError, match="n_init must be at least 1, got 0"):
            silhouette_sweep(X, D, (2, 3), seed=1, n_init=0)
        assert calls == []

    @pytest.mark.parametrize("case", ["unsorted", "n_init_17", "k_is_n", "duplicates",
                                      "d8", "d10_fortran"])
    def test_sweep_fits_equal_serial_oracle(self, case):
        rng = np.random.default_rng(3)
        k_range, n_init = (5, 2, 3), 11
        if case in ("unsorted", "n_init_17"):
            X, _ = two_blobs(90, seed=3, dims=3)
            if case == "n_init_17":
                k_range, n_init = (4, 2, 7), 17
        elif case == "k_is_n":
            X = rng.normal(size=(9, 2))
            k_range = (9, 2, 5)
        elif case == "duplicates":
            # seven distinct points: every restart at k = 8 repairs an empty cluster
            X = np.vstack([np.repeat([[0.0, 0.0], [5.0, 1.0], [9.0, 9.0]], 10, axis=0),
                           [[1.0, 0.5], [6.0, 2.0], [8.0, 9.5]]])
            k_range = (8, 2, 3)
        elif case == "d8":
            X = rng.normal(size=(70, 8)) * 3.0
        else:
            X = np.asfortranarray(rng.normal(size=(60, 10)))
        D = _pairwise_distances(X)
        sweep = silhouette_sweep(X, D, k_range, seed=7, n_init=n_init)
        assert [k for k, _, _ in sweep] == list(k_range)
        for k, s, fit in sweep:
            want = serial_kmeans(X, k, 7, n_init)
            assert np.array_equal(fit.assignments, want.assignments)
            assert np.array_equal(fit.centroids, want.centroids)
            assert fit.inertia == want.inertia
            assert (fit.k, fit.seed, fit.n_init) == (k, 7, n_init)
            assert s == _silhouette_from_distances(D, want.assignments)

    @pytest.mark.parametrize("seed", range(40))
    def test_array_silhouette_equals_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 90))
        X = rng.normal(size=(n, int(rng.integers(1, 4)))) * rng.uniform(0.01, 100)
        if seed % 3 == 0:
            X[rng.integers(n, size=n // 2)] = X[0]  # duplicate points
        n_labels = int(rng.integers(2, min(n, 12) + 1))
        # label gaps and negative labels; small n gives singleton clusters
        labels = rng.integers(0, n_labels, size=n) * int(rng.integers(1, 4)) - 1
        labels[:2] = [labels[0], labels[0] + 1]  # at least two clusters
        D = _pairwise_distances(X)
        assert _silhouette_from_distances(D, labels) \
            == loop_silhouette_from_distances(D, labels)


class TestWard:
    def test_two_pair_fixture_matches_kmeans(self):
        labels = ward_linkage(_pairwise_distances(FOUR), 2)
        km = kmeans(FOUR, 2, seed=0)
        assert ari(labels, km.assignments) == 1.0

    def test_hand_traced_merge_order(self):
        # 1-D points 0,1,5,6,20,30: Lance-Williams updates give the merge
        # sequence {0,1}, {5,6}, {01,56}, {20,30}; cutting at k=2 therefore
        # separates the first four points from the last two, and k=3 keeps
        # 20 and 30 apart
        X = np.array([[0.0], [1.0], [5.0], [6.0], [20.0], [30.0]])
        k2 = ward_linkage(_pairwise_distances(X), 2)
        assert len(set(k2[:4].tolist())) == 1
        assert k2[4] == k2[5] and k2[4] != k2[0]
        k3 = ward_linkage(_pairwise_distances(X), 3)
        assert len(set(k3[:4].tolist())) == 1
        assert k3[4] != k3[5] and k3[4] != k3[0] and k3[5] != k3[0]

    @pytest.mark.parametrize("k", [2, 3])
    def test_huge_distances_raise_or_match_oracle(self, k):
        # 2 n^2 max(D)^2 is finite at 30e150 and overflows at 30e160
        X = np.array([[0.0], [1.0], [5.0], [6.0], [20.0], [30.0]])
        D = _pairwise_distances(X)
        assert np.array_equal(ward_linkage(D * 1e150, k), argmin_ward(D * 1e150, k))
        assert np.array_equal(ward_linkage(D * 1e150, k), ward_linkage(D, k))
        with pytest.raises(DegenerateInput, match="largest distance 3e\\+161"):
            ward_linkage(D * 1e160, k)

    def test_labels_are_contiguous(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(25, 3))
        labels = ward_linkage(_pairwise_distances(X), 4)
        assert set(labels.tolist()) == {0, 1, 2, 3}

    def test_recovers_blobs(self):
        X, truth = two_blobs(80, seed=10)
        assert ari(ward_linkage(_pairwise_distances(X), 2), truth) == 1.0

    @pytest.mark.parametrize("seed", range(40))
    def test_row_minima_equal_argmin_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 60))
        X = rng.normal(size=(n, int(rng.integers(1, 6))))
        if seed % 4 == 0:
            X = np.round(X)  # tied distances
        if seed % 4 == 1:
            X[rng.integers(n, size=n // 2)] = X[0]  # duplicate points
        D = _pairwise_distances(X)
        if seed % 5 == 2:
            D = np.asfortranarray(D)
        if seed % 5 == 3:
            D = _pairwise_distances(np.repeat(X, 2, axis=0))[::2, ::2]  # strided view
        for k in range(1, n + 1):
            assert np.array_equal(ward_linkage(D, k), argmin_ward(D, k))

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_all_distances_tied_equal_argmin_oracle(self, n):
        D = _pairwise_distances(np.ones((n, 2)))
        for k in range(1, n + 1):
            assert np.array_equal(ward_linkage(D, k), argmin_ward(D, k))

    def test_near_ties_equal_argmin_oracle(self):
        # entries an ulp apart make the rounded Lance-Williams updates tie or
        # undercut other rows' cached minima, which exact Euclidean inputs
        # almost never do; odd seeds are symmetric, even ones are not
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 30))
            x = float(rng.uniform(0.1, 10))
            near = [x, np.nextafter(x, np.inf), np.nextafter(x, 0.0)]
            D = rng.choice(near, size=(n, n), p=[0.8, 0.1, 0.1])
            if seed % 2:
                D = np.triu(D, 1) + np.triu(D, 1).T
            for k in range(1, n + 1):
                assert np.array_equal(ward_linkage(D, k), argmin_ward(D, k)), (seed, k)

    def test_large_n_equals_argmin_oracle(self):
        X, _ = two_blobs(520, seed=13, dims=3)
        X[::7] = np.round(X[::7], 1)
        D = _pairwise_distances(X)
        for k in (1, 2, 5, 519):
            assert np.array_equal(ward_linkage(D, k), argmin_ward(D, k))


class TestDbscan:
    def test_all_noise_when_eps_too_small(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 2)) * 10
        min_gap = min(math.dist(X[i], X[j])
                      for i in range(12) for j in range(i + 1, 12))
        labels = dbscan(_pairwise_distances(X), eps=min_gap * 0.5, min_pts=2)
        assert (labels == -1).all()

    def test_two_pair_fixture(self):
        labels = dbscan(_pairwise_distances(FOUR), eps=1.5, min_pts=2)
        assert labels[0] == labels[1] != labels[2] == labels[3]
        assert (labels >= 0).all()

    def test_border_and_noise(self):
        # chain 0,1,2 with a far singleton: the singleton is noise
        X = np.array([[0.0], [1.0], [2.0], [50.0]])
        labels = dbscan(_pairwise_distances(X), eps=1.0, min_pts=2)
        assert labels[3] == -1
        assert labels[0] == labels[1] == labels[2] >= 0

    def test_domain(self):
        with pytest.raises(DegenerateInput):
            dbscan(_pairwise_distances(FOUR), eps=0.0, min_pts=2)

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_fifo_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        if seed % 4 == 0:
            X = np.round(X, 1)  # tied distances
        if seed % 4 == 1:
            X[rng.integers(n, size=n // 2)] = X[0]  # duplicate points
        D = _pairwise_distances(X)
        if seed % 4 == 3:
            D = D * rng.uniform(0.8, 1.2, size=D.shape)  # asymmetric neighbourhoods
        gaps = D[D > 0]
        smallest = float(gaps.min()) if gaps.size else 1.0
        diameter = float(D.max())
        for eps in (smallest / 2, smallest, float(np.median(D)), diameter, diameter * 2 + 1):
            if eps <= 0.0:  # one point: the median and the diameter are 0
                continue
            for min_pts in sorted({1, 2, 3, max(1, n // 2), n}):
                assert np.array_equal(dbscan(D, eps, min_pts),
                                      fifo_dbscan(D, eps, min_pts)), (eps, min_pts)



class TestSharedDistances:
    """The sweep, Ward, DBSCAN and auto-eps read one precomputed matrix."""

    CONSUMERS = {
        "sweep": lambda X, D: silhouette_sweep(X, D, (2, 3), seed=0, n_init=2),
        "ward": lambda X, D: ward_linkage(D, 3),
        "dbscan": lambda X, D: dbscan(D, eps=1.0, min_pts=3),
        "auto_eps": lambda X, D: _auto_eps(D, 5),
    }

    @pytest.mark.parametrize("consumer", sorted(CONSUMERS))
    def test_leaves_the_matrix_unchanged(self, consumer):
        X, _ = two_blobs(60, seed=12, dims=3)
        D = _pairwise_distances(X)
        before = D.copy()
        self.CONSUMERS[consumer](X, D)
        assert np.array_equal(D, before)

    @pytest.mark.parametrize("consumer", sorted(CONSUMERS))
    def test_reads_a_read_only_matrix(self, consumer):
        # DBSCAN (six clusters and noise here) builds its neighbour matrix
        # from D, and Ward squares a copy: no consumer writes to D at all
        X, _ = two_blobs(60, seed=12, dims=3)
        D = _pairwise_distances(X)
        expected = self.CONSUMERS[consumer](X, D.copy())
        D.setflags(write=False)
        got = self.CONSUMERS[consumer](X, D)
        if consumer == "sweep":
            got, expected = [fit[:2] for fit in got], [fit[:2] for fit in expected]
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shape", [(59, 59), (60, 59), (59, 60), (60,), ()])
    def test_sweep_rejects_wrong_shape(self, shape):
        X, _ = two_blobs(60, seed=12, dims=3)
        with pytest.raises(LengthMismatch):
            silhouette_sweep(X, np.zeros(shape), (2,), seed=0, n_init=1)

    @pytest.mark.parametrize("check", [lambda D: ward_linkage(D, 2),
                                       lambda D: dbscan(D, eps=1.0, min_pts=2)],
                             ids=["ward", "dbscan"])
    @pytest.mark.parametrize("shape", [(4, 3), (4,)])
    def test_cross_checks_reject_non_square(self, check, shape):
        with pytest.raises(LengthMismatch):
            check(np.zeros(shape))

    @pytest.mark.parametrize("consumer", ["sweep", "ward", "dbscan"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_distance_named(self, consumer, value):
        X, _ = two_blobs(8, seed=12, dims=3)
        D = _pairwise_distances(X)
        D[5, 2] = D[2, 5] = value
        with pytest.raises(DegenerateInput, match=rf"{value} at row 2, column 5"):
            self.CONSUMERS[consumer](X, D)

    @pytest.mark.parametrize("seed", range(12))
    def test_auto_eps_equals_sorting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        if seed % 3 == 0:
            X[rng.integers(n, size=n // 2)] = X[0]  # tied distances
        for min_pts in (1, 2, 5, n - 1, n, n + 3):
            assert _auto_eps(_pairwise_distances(X), min_pts) \
                == sorted_auto_eps(X, min_pts)


# rows per block in the tests that shrink the blocks
BLOCK = 8
# at the default 512 KB, one block of a 256 x 256 matrix holds all 256 rows
DEFAULT_BLOCK = 256


class TestRowBlocks:
    """The readers that work in row blocks give the floats and labels of
    their whole-matrix oracles: for n around the rows of one block, with
    blocks shrunk to ``BLOCK`` rows and at the default block size."""

    @staticmethod
    def check(n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3)) * 4.0
        X[::3] = np.round(X[::3])  # tied distances
        X[1::7] = X[0]  # duplicate points
        D = _pairwise_distances(X)
        assert D.tobytes() == gram_pairwise_distances(X).tobytes()
        if n >= 2:
            for n_labels in (2, 5):
                labels = np.arange(n) % n_labels
                rng.shuffle(labels)
                assert _silhouette_from_distances(D, labels) \
                    == loop_silhouette_from_distances(D, labels)
        for min_pts in sorted({1, 2, 5, max(1, n - 1), n}):
            assert _auto_eps(D, min_pts) == sorted_auto_eps(X, min_pts)
        positive = D[D > 0]
        for eps in (float(np.median(positive)) if positive.size else 1.0, 1.0, 4.0):
            for min_pts in sorted({1, 3, max(1, n // 2)}):
                assert np.array_equal(dbscan(D, eps, min_pts), fifo_dbscan(D, eps, min_pts))
        for k in sorted({1, 2, max(1, n // 3), n} & set(range(1, n + 1))):
            squared = D.copy()
            labels = ward_linkage(squared, k, overwrite=True)
            assert np.array_equal(labels, argmin_ward(D, k)), k
            assert n == 1 or not np.array_equal(squared, D)  # squared in place

    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_small_blocks_equal_whole_matrix_oracles(self, n, monkeypatch):
        monkeypatch.setattr(clustering, "_BLOCK_BYTES", 8 * n * BLOCK)
        assert len(clustering._blocks(n, n)) == -(-n // BLOCK)
        self.check(n)

    @pytest.mark.parametrize("n, blocks", [(DEFAULT_BLOCK - 1, 1), (DEFAULT_BLOCK, 1),
                                           (DEFAULT_BLOCK + 1, 2), (446, 4)])
    def test_default_blocks_equal_whole_matrix_oracles(self, n, blocks):
        # 446 rows: three blocks of 146 and one of 8
        assert len(clustering._blocks(n, n)) == blocks
        self.check(n)

    def test_dbscan_frontiers_larger_than_a_block(self, monkeypatch):
        # one blob: the first core point's frontier holds every other point
        X = np.random.default_rng(2).normal(size=(3 * BLOCK + 5, 2)) * 0.1
        D = _pairwise_distances(X)
        monkeypatch.setattr(clustering, "_BLOCK_BYTES", 8 * len(X) * BLOCK)
        assert np.array_equal(dbscan(D, 10.0, 3), np.zeros(len(X), dtype=int))
        assert np.array_equal(dbscan(D, 0.05, 3), fifo_dbscan(D, 0.05, 3))


class TestBoundary:
    def test_equidistant_point_always_flagged(self):
        pts = np.array([[5.0, 0.0], [1.0, 0.0], [9.0, 0.0]])
        cents = np.array([[0.0, 0.0], [10.0, 0.0]])
        rep = boundary_cases(pts, cents, percentile=5)
        assert 0 in rep.indices
        assert rep.deltas[0] == 0.0

    def test_ties_at_threshold_included(self):
        # three identical zero deltas tie at the 5th-percentile threshold
        pts = np.array([[5.0], [5.0], [5.0], [1.0], [9.5]])
        cents = np.array([[0.0], [10.0]])
        rep = boundary_cases(pts, cents, percentile=5)
        assert set(rep.indices) >= {0, 1, 2}

    def test_flag_count_and_ordering(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(400, 2)) * 3
        cents = np.array([[-4.0, 0.0], [4.0, 0.0]])
        rep = boundary_cases(pts, cents, percentile=10)
        flagged = np.zeros(400, dtype=bool)
        flagged[list(rep.indices)] = True
        assert rep.deltas[flagged].max() <= rep.deltas[~flagged].min()
        assert abs(len(rep.indices) - 40) <= 1

    @pytest.mark.parametrize("n", [19, 20, 21, 40, 400])
    def test_flags_ceil_of_percentile_fraction(self, n):
        rng = np.random.default_rng(n)
        pts = np.column_stack([rng.uniform(-4, 4, size=n), rng.normal(size=n)])
        cents = np.array([[-5.0, 0.0], [5.0, 0.0]])
        rep = boundary_cases(pts, cents, percentile=5)
        assert len(rep.indices) == math.ceil(5 * n / 100)

    def test_outcome_ratio(self):
        pts = np.array([[5.0], [1.0], [9.0], [5.1]])
        cents = np.array([[0.0], [10.0]])
        outcomes = np.array([1.0, 0.0, 0.0, 0.0])
        rep = boundary_cases(pts, cents, outcomes, percentile=30)
        assert 0 in rep.indices
        assert 0.0 <= rep.outcome_ratio <= 1.0

    def test_needs_two_centroids(self):
        with pytest.raises(DegenerateInput):
            boundary_cases(FOUR, np.array([[0.0, 0.0]]))


class TestOutliers:
    def test_single_far_point(self):
        rng = np.random.default_rng(13)
        X = np.vstack([rng.normal(size=(50, 2)) * 0.1, [[25.0, 25.0]]])
        cents = np.array([[0.0, 0.0]])
        got = detect_outliers(X, cents)
        assert got.tolist() == [50]

    def test_equidistant_points_not_flagged(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        cents = np.array([[0.0, 0.0]])
        assert detect_outliers(X, cents).size == 0

    def test_gaussian_tail_fraction(self):
        # in high dimension the centroid distance is nearly normal, so
        # the mean + 3 sd cut flags roughly the 0.1-0.2% upper tail
        rng = np.random.default_rng(14)
        X = rng.normal(size=(10000, 64))
        cents = np.zeros((1, 64))
        frac = detect_outliers(X, cents).size / 10000
        assert 0.0008 <= frac <= 0.0025


class TestAgreement:
    def test_identical_labelings_exact(self):
        labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        assert ari(labels, labels) == 1.0
        assert ami(labels, labels) == 1.0
        assert best_mapping_accuracy(labels, labels) == 1.0

    def test_permutation_invariance_exact(self):
        a = np.array([0, 0, 1, 1, 0, 1])
        b = 1 - a
        assert ari(a, b) == 1.0
        assert ami(a, b) == 1.0
        assert best_mapping_accuracy(a, b) == 1.0

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(15)
        a = rng.integers(0, 2, size=1000)
        b = rng.integers(0, 2, size=1000)
        assert abs(ari(a, b)) < 0.05
        assert abs(ami(a, b)) < 0.05

    def test_symmetry(self):
        rng = np.random.default_rng(16)
        a = rng.integers(0, 3, size=200)
        b = rng.integers(0, 4, size=200)
        assert ari(a, b) == ari(b, a)
        assert abs(ami(a, b) - ami(b, a)) < 1e-12

    def test_against_reference_implementation(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.integers(0, 3, size=120)
            b = rng.integers(0, 3, size=120)
            assert abs(ari(a, b) - sklearn_metrics.adjusted_rand_score(a, b)) < 1e-10
            ref = sklearn_metrics.adjusted_mutual_info_score(a, b,
                                                             average_method="max")
            assert abs(ami(a, b) - ref) < 1e-8

    def test_entropy_adds_left_to_right(self):
        # for these cluster sizes the running sum of the terms and their
        # exact sum, as builtin sum gives from Python 3.12, differ in the last bit
        sizes, n = (1, 2, 11), 14
        terms = [(c / n) * math.log(n / c) for c in sizes]
        running = 0.0
        for term in terms:
            running += term
        assert running != math.fsum(terms)
        assert clustering._entropy(np.array(sizes), n) == running

    @pytest.mark.parametrize("seed", range(30))
    def test_expected_mi_equals_lgamma_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 501))
        ka = 1 if seed % 5 == 0 else int(rng.integers(1, min(n, 12) + 1))
        kb = int(rng.integers(1, min(n, 12) + 1))
        a = rng.integers(0, ka, size=n)
        b = rng.integers(0, kb, size=n)
        _, rows, cols = clustering._contingency(a, b)
        assert clustering._expected_mi(rows, cols, n) == lgamma_expected_mi(rows, cols, n)

    @pytest.mark.parametrize("n", [2, 3, 500])
    def test_expected_mi_at_the_extremes_equals_lgamma_oracle(self, n):
        # one label against singletons, and one label on both sides
        for rows, cols in (([n], [1] * n), ([n], [n]), ([1] * n, [1] * n),
                           ([1, n - 1], [n - 1, 1])):
            rows, cols = np.array(rows), np.array(cols)
            assert clustering._expected_mi(rows, cols, n) == \
                lgamma_expected_mi(rows, cols, n)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ari([0, 1], [0, 1, 2])

    def test_best_mapping_partial(self):
        a = [0, 0, 1, 1]
        b = [1, 1, 0, 2]
        # map b: 1->0, 0->1, 2->? ; 3 of 4 match at best
        assert best_mapping_accuracy(a, b) == 0.75

    def test_best_mapping_matches_permutation_oracle(self):
        rng = np.random.default_rng(18)
        for ka in range(1, 7):
            for kb in range(1, 7):
                for n in (ka + kb, 37):
                    a = rng.integers(0, ka, size=n)
                    b = rng.integers(0, kb, size=n)
                    assert best_mapping_accuracy(a, b) == \
                        permutation_mapping_accuracy(a, b)

    @pytest.mark.parametrize("k", [7, 8, 9, 10])
    def test_best_mapping_beyond_six_labels(self, k):
        rng = np.random.default_rng(k)
        a = rng.integers(0, k, size=300)
        for noise in (0, 60, 300):
            b = rng.permutation(k)[a]
            hit = rng.choice(300, size=noise, replace=False)
            b[hit] = rng.integers(0, k, size=noise)
            C = np.zeros((k, k), dtype=int)
            np.add.at(C, (a, b), 1)
            # best total over one-to-one maps, by dynamic programming over
            # the set of columns already taken by rows 0..i-1
            best = {0: 0}
            for i in range(k):
                nxt = {}
                for taken, total in best.items():
                    for j in range(k):
                        if not taken >> j & 1:
                            key = taken | 1 << j
                            nxt[key] = max(nxt.get(key, -1), total + int(C[i, j]))
                best = nxt
            expected = best[(1 << k) - 1] / 300
            assert best_mapping_accuracy(a, b) == expected
            if noise == 0:
                assert expected == 1.0


class TestProfilesAndEffects:
    def test_profiles(self):
        scores = np.array([[1.0, 0.0, 0.0], [3.0, 2.0, 0.0],
                           [-1.0, 0.0, 1.0], [-3.0, -2.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        outcomes = np.array([1.0, 1.0, 0.0, 1.0])
        profs = cluster_profiles(labels, scores, outcomes)
        assert [p.size for p in profs] == [2, 2]
        assert sum(p.size for p in profs) == 4
        assert profs[0].pc_means == (2.0, 1.0, 0.0)
        assert profs[0].outcome_ratio == 1.0  # all-SLI cluster
        assert profs[1].outcome_ratio == 0.5

    def test_identical_groups(self):
        p, d = welch_cohen([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert p == 1.0 and d == 0.0

    def test_hand_computed_fixture(self):
        # groups [2,4] vs [0,2]: t = sqrt(2), Welch df = 2, pooled sd =
        # sqrt(2), d = 2/sqrt(2); the df=2 CDF is 1/2 + t/(2 sqrt(2+t^2)),
        # so the two-sided p is 2(1 - (1/2 + sqrt(2)/4)) = 1 - sqrt(2)/2
        p, d = welch_cohen([2.0, 4.0], [0.0, 2.0])
        assert abs(d - math.sqrt(2)) < 1e-12
        assert abs(p - (1 - math.sqrt(2) / 2)) < 1e-12

    def test_against_high_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(18)
        cases = [(rng.normal(0, 1, size=int(rng.integers(4, 20))),
                  rng.normal(0.5, 2, size=int(rng.integers(4, 20)))) for _ in range(5)]
        # p below 1e-30, down to a paper-scale cohort (n = 1163, d about 3)
        # near the smallest normal double
        cases += [(rng.normal(0, 1, size=40), rng.normal(5, 1, size=45)),
                  (rng.normal(0, 1, size=434), rng.normal(3, 1, size=729))]
        ps = []
        for x0, x1 in cases:
            p, _ = welch_cohen(x0, x1)
            n0, n1 = len(x0), len(x1)
            v0, v1 = x0.var(ddof=1), x1.var(ddof=1)
            se2 = v0 / n0 + v1 / n1
            t = (x0.mean() - x1.mean()) / math.sqrt(se2)
            df = se2 ** 2 / ((v0 / n0) ** 2 / (n0 - 1) + (v1 / n1) ** 2 / (n1 - 1))
            # two-sided p via the regularized incomplete beta function
            with mp.workdps(40):
                dfm = mp.mpf(float(df))
                ref = mp.betainc(dfm / 2, mp.mpf(1) / 2, 0, dfm / (dfm + mp.mpf(float(t)) ** 2),
                                 regularized=True)
                assert abs(p - ref) <= 1e-12 * ref, (p, ref)
            ps.append(p)
        assert sum(p < 1e-30 for p in ps) == 2 and 0.0 < min(ps) < 1e-200

    def test_t_tail_matches_scipy_on_a_grid(self):
        """``_t_two_sided_p`` against ``scipy.special.stdtr``, which it
        replaced, over non-integer df from 1 to 5000 and |t| from 0 to 60.
        The largest relative difference on this grid is 4.5e-13, at df
        4999.7 and t 1.98; below the smallest normal double either side
        may underflow first, so there both need only be that small."""
        pytest.importorskip("scipy.special")
        bound = 1e-12
        for df in np.geomspace(1.03, 4999.7, 80):
            for t in np.concatenate(([0.0], np.geomspace(1e-4, 60.0, 200))):
                p = _t_two_sided_p(float(t), float(df))
                ref = stdtr_two_sided(float(t), float(df))
                if ref >= sys.float_info.min:
                    assert abs(p - ref) <= bound * ref, (df, t, p, ref)
                else:
                    assert p < 2.3e-308, (df, t, p, ref)

    def test_t_tail_edges_return_values(self):
        for df in (0.5, 1.0, 7.3, 1e6):
            assert _t_two_sided_p(0.0, df) == 1.0
            assert _t_two_sided_p(-0.0, df) == 1.0
            # t^2 overflows, so x = df / (df + t^2) is 0.0
            assert _t_two_sided_p(1e200, df) == 0.0
            assert _t_two_sided_p(-1e200, df) == 0.0

    def test_welch_edges_return_values(self):
        # equal means with spread: t is exactly 0
        assert welch_cohen([1.0, 2.0, 3.0], [0.0, 2.0, 4.0]) == (1.0, 0.0)
        # t is -2e157, whose square overflows; Welch df is 1
        p, d = welch_cohen([0.0, 1e-77], [1e80, 1e80])
        assert p == 0.0 and math.isfinite(d) and d < 0.0
        # n = 2 with a wide spread against 1000 tight values: Welch df is
        # within 1e-6 of 1, where the tail is Cauchy's
        x0 = np.array([0.0, 100.0])
        x1 = np.random.default_rng(20).normal(0.0, 1.0, size=1000)
        p, _ = welch_cohen(x0, x1)
        se2 = x0.var(ddof=1) / 2 + x1.var(ddof=1) / 1000
        t = (x0.mean() - x1.mean()) / math.sqrt(se2)
        assert abs(p - 2.0 / math.pi * math.atan(1.0 / abs(t))) < 1e-6
        assert 0.0 < p < 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(19)
        x0 = rng.normal(size=12)
        x1 = rng.normal(1.0, size=15)
        p1, d1 = welch_cohen(x0, x1)
        p2, d2 = welch_cohen(x0 * 7.5, x1 * 7.5)
        assert abs(p1 - p2) < 1e-12
        assert abs(d1 - d2) < 1e-12

    def test_tiny_cluster(self):
        with pytest.raises(TinyCluster):
            welch_cohen([1.0], [1.0, 2.0])

    def test_compare_features(self):
        values = np.array([[2.0, 9.0], [4.0, 9.0], [0.0, 9.0], [2.0, 9.0]])
        labels = np.array([0, 0, 1, 1])
        stats = compare_features(values, ("a", "b"), labels, ["a", "b"])
        assert stats[0].feature == "a"
        assert abs(stats[0].cohens_d - math.sqrt(2)) < 1e-12
        assert stats[0].mean0 == 3.0 and stats[0].mean1 == 1.0
        assert stats[1].cohens_d == 0.0 and stats[1].p_value == 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_d_sign_matches_mean_difference(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(rng.uniform(-2, 2), 1.0, size=10)
        x1 = rng.normal(rng.uniform(-2, 2), 1.0, size=10)
        _, d = welch_cohen(x0, x1)
        diff = x0.mean() - x1.mean()
        assert d == 0.0 if diff == 0.0 else math.copysign(1, d) == math.copysign(1, diff)
