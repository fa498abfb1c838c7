import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from langprofile.errors import (
    AllConstant,
    DegenerateInput,
    NoConvergence,
    NotSymmetric,
    TooFewComponents,
    ZeroTotal,
)
from langprofile.numerics import (
    FeatureMatrix,
    component_stats,
    eig_sym,
    elbow_count,
    explained_variance,
    impute_missing,
    kaiser_count,
    loadings_report,
    pca_fit,
    pca_project,
    prune_correlated,
    standardize,
)
from tests.oracles import pairwise_prune_correlated, split_eig_sym


def fm(values, names=None):
    values = np.asarray(values, dtype=float)
    names = tuple(names or (f"f{j}" for j in range(values.shape[1])))
    return FeatureMatrix(values, names, tuple(f"r{i}" for i in range(values.shape[0])))


class TestStandardize:
    def test_two_point_column(self):
        # mean 2, sample sd sqrt(2) -> +/- 1/sqrt(2)
        out, _ = standardize(fm([[1.0], [3.0]]))
        assert abs(out.values[0, 0] + 1 / math.sqrt(2)) < 1e-12
        assert abs(out.values[1, 0] - 1 / math.sqrt(2)) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        m = fm(rng.normal(size=(50, 4)))
        once, _ = standardize(m)
        twice, _ = standardize(once)
        assert np.max(np.abs(twice.values - once.values)) < 1e-12

    def test_constant_column_dropped(self):
        out, dropped = standardize(fm([[1.0, 7.0], [2.0, 7.0]], names=("a", "b")))
        assert out.col_names == ("a",)
        assert dropped == ("b",)

    def test_all_constant_raises(self):
        with pytest.raises(AllConstant):
            standardize(fm([[1.0], [1.0]]))

    def test_moments(self):
        rng = np.random.default_rng(1)
        out, _ = standardize(fm(rng.uniform(0, 100, size=(200, 6))))
        assert np.max(np.abs(out.values.mean(axis=0))) < 1e-12
        assert np.max(np.abs(out.values.std(axis=0, ddof=1) - 1)) < 1e-12


class TestImpute:
    def test_column_mean_fill(self):
        m = fm([[1.0, 5.0], [np.nan, 7.0], [3.0, np.nan]])
        out, n = impute_missing(m)
        assert n == 2
        assert out.values[1, 0] == 2.0
        assert out.values[2, 1] == 6.0

    def test_no_missing_is_noop(self):
        m = fm([[1.0], [2.0]])
        out, n = impute_missing(m)
        assert n == 0
        assert (out.values == m.values).all()


class TestPrune:
    def test_identical_column_dropped(self):
        m = fm([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], names=("a", "b"))
        assert prune_correlated(m, 0.95) == (0,)

    def test_independent_columns_retained(self):
        rng = np.random.default_rng(42)
        values = rng.normal(size=(400, 6))
        # oracle: confirm the fixture really is below threshold
        r = np.corrcoef(values, rowvar=False)
        off = np.abs(r - np.eye(6))
        assert off.max() < 0.95
        assert prune_correlated(fm(values), 0.95) == tuple(range(6))

    def test_greedy_keeps_earliest(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=300)
        b = a * 2.0 + 1e-6 * rng.normal(size=300)
        c = rng.normal(size=300)
        m = fm(np.column_stack([a, b, c]), names=("a", "b", "c"))
        assert prune_correlated(m, 0.95) == (0, 2)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        m = fm(rng.normal(size=(100, 8)))
        assert prune_correlated(m, 0.9) == prune_correlated(m, 0.9)

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            prune_correlated(fm([[1.0], [2.0]]), 0.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(3, 60)), int(rng.integers(1, 40))
        values = rng.normal(size=(n, p))
        for j in rng.integers(0, p, size=p // 2):
            source = int(rng.integers(0, p))
            if seed % 3 == 0:
                values[:, j] = values[:, source]  # duplicated column
            elif seed % 3 == 1:
                values[:, j] = -2.0 * values[:, source] + 1.0  # perfectly correlated
            else:
                values[:, j] = values[:, source] + 0.3 * rng.normal(size=n)
        m = fm(values)
        for threshold in (0.05, 0.5, 0.9, 0.95, 0.999, 1.0):
            assert prune_correlated(m, threshold) == pairwise_prune_correlated(m, threshold)


class TestEigSym:
    def test_diagonal(self):
        w, V = eig_sym(np.diag([2.0, 1.0]))
        assert np.allclose(w, [2.0, 1.0])
        assert np.allclose(V, np.eye(2))

    def test_two_by_two_hand_case(self):
        # characteristic polynomial: (1-l)^2 - 0.25 -> l in {1.5, 0.5}
        w, V = eig_sym([[1.0, 0.5], [0.5, 1.0]])
        assert np.max(np.abs(w - np.array([1.5, 0.5]))) < 1e-10

    @pytest.mark.parametrize("eig", [eig_sym, split_eig_sym])
    def test_convergence_is_checked_after_the_last_sweep(self, eig):
        # one rotation leaves the 2x2 case exactly diagonal
        w, _ = eig([[1.0, 0.5], [0.5, 1.0]], max_sweeps=1)
        assert w.tolist() == [1.5, 0.5]
        w, V = eig(np.diag([2.0, 3.0, 1.0]), max_sweeps=0)
        assert w.tolist() == [3.0, 2.0, 1.0]
        assert V.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(NoConvergence, match="in 0 sweeps"):
            eig([[1.0, 0.5], [0.5, 1.0]], max_sweeps=0)
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6))
        with pytest.raises(NoConvergence, match="in 1 sweeps"):
            eig(A + A.T, max_sweeps=1)

    def test_trace_identity(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(5, 5))
        S = (A + A.T) / 2
        w, _ = eig_sym(S)
        assert abs(w.sum() - np.trace(S)) < 1e-8

    def test_residuals_and_orthonormality(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 8, 16, 33, 64):
            A = rng.normal(size=(n, n))
            S = (A + A.T) / 2
            w, V = eig_sym(S)
            assert np.max(np.abs(S @ V - V * w)) < 1e-8
            assert np.max(np.abs(V.T @ V - np.eye(n))) < 1e-8
            assert (np.diff(w) <= 1e-12).all()

    def test_sign_convention_reproducible(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(10, 10))
        S = (A + A.T) / 2
        w1, V1 = eig_sym(S)
        w2, V2 = eig_sym(S.copy())
        assert (V1 == V2).all()
        for j in range(10):
            assert V1[np.argmax(np.abs(V1[:, j])), j] > 0

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            eig_sym([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NotSymmetric):
            eig_sym(np.ones((2, 3)))

    @pytest.mark.parametrize("S, named", [
        ([[math.nan, 0.0], [0.0, 1.0]], "nan in row 0, column 0"),
        ([[1.0, math.inf], [math.inf, 1.0]], "inf in row 0, column 1"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, math.nan], [0.0, math.nan, 1.0]],
         "nan in row 1, column 2"),
        ([[-math.inf]], "-inf in row 0, column 0"),
        ([[1.0, math.inf], [0.0, 1.0]], "inf in row 0, column 1"),
    ])
    def test_non_finite_entry_is_named_before_any_sweep(self, S, named):
        with pytest.raises(DegenerateInput, match=named):
            eig_sym(S, max_sweeps=0)


def _eig_outcome(eig, S, max_sweeps):
    """What ``eig`` gives for ``S``: the message of its ``NoConvergence``,
    or the bytes of ``w`` and ``V`` with ``V``'s strides and contiguity."""
    try:
        w, V = eig(S, max_sweeps=max_sweeps)
    except NoConvergence as exc:
        return str(exc)
    return (w.tobytes(), V.tobytes(), V.strides, V.flags.f_contiguous,
            V.flags.c_contiguous)


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices of order 0-70 whose rounds are full, partial
    (exact zeros, off-diagonals on either side of the skip threshold) or
    empty, with ties, repeated eigenvalues or low rank."""
    n = draw(st.integers(0, 70) | st.sampled_from((63, 64, 65, 70)))
    kind = draw(st.sampled_from(("dense", "integer", "sparse", "near_skip", "repeated",
                                 "diagonal", "rank_deficient")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)
    S = A + A.T
    if kind == "integer":  # equal diagonals and exact zeros: tau of +-0
        S = np.round(S)
    elif kind == "sparse":  # few live pairs: most rounds are empty
        S[np.triu(rng.random((n, n)) > 2.0 / max(n, 1), 1)] = 0.0
        S = np.triu(S) + np.triu(S, 1).T
    elif kind == "near_skip":
        skip = 0.25 * 1e-12 / max(n, 1)
        levels = np.array([0.0, 0.5 * skip, skip, 2.0 * skip, 1.0])
        S = np.triu(S, 1) * rng.choice(levels, size=(n, n)) * rng.choice((-1.0, 1.0), (n, n))
        S = S + S.T + np.diag(rng.normal(size=n))
    elif kind == "repeated":
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        S = (Q * rng.choice((-1.0, 0.0, 2.0, 2.0, 5.0), size=n)) @ Q.T
        S = (S + S.T) / 2.0
    elif kind == "diagonal":
        S = np.diag(rng.choice((0.0, 1.0, 1.0, rng.normal()), size=n))
    elif kind == "rank_deficient":
        B = rng.normal(size=(n, int(rng.integers(0, n // 2 + 1))))
        S = B @ B.T
    return S


class TestEigSymOracle:
    """``eig_sym`` against ``split_eig_sym``, the round it replaced: the
    same bytes, the same layout of ``V`` and the same ``NoConvergence``."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(symmetric_matrices(), st.sampled_from((1, 2, 3, 100)))
    def test_equals_oracle(self, S, max_sweeps):
        assert _eig_outcome(eig_sym, S, max_sweeps) == _eig_outcome(split_eig_sym, S,
                                                                    max_sweeps)


class TestPca:
    def _standard(self, n=100, p=20, seed=8):
        rng = np.random.default_rng(seed)
        m, _ = standardize(fm(rng.normal(size=(n, p))))
        return m

    def test_collinear_pair(self):
        x = np.arange(10, dtype=float)
        m, _ = standardize(fm(np.column_stack([x, x]), names=("a", "b")))
        model = pca_fit(m)
        assert abs(model.eigenvalues[0] - 2.0) < 1e-10
        assert abs(model.eigenvalues[1]) < 1e-10
        assert np.allclose(np.abs(model.components[:, 0]),
                           [1 / math.sqrt(2)] * 2, atol=1e-10)

    def test_eigenvalue_sum_is_feature_count(self):
        m = self._standard()
        model = pca_fit(m)
        assert abs(model.eigenvalues.sum() - 20.0) < 1e-6

    def test_score_variance_equals_eigenvalue(self):
        m = self._standard()
        model = pca_fit(m)
        scores = pca_project(model, m)
        v = scores.var(axis=0, ddof=1)
        assert np.max(np.abs(v - model.eigenvalues)) < 1e-6

    def test_reconstruction(self):
        m = self._standard()
        model = pca_fit(m)
        scores = pca_project(model, m)
        assert np.max(np.abs(scores @ model.components.T - m.values)) < 1e-8

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_raise(self, rows):
        m = fm(np.ones((rows, 3)))
        with pytest.raises(DegenerateInput, match=f"at least 2 rows, got {rows}"):
            pca_fit(m)

    def test_score_means_near_zero(self):
        m = self._standard()
        scores = pca_project(pca_fit(m), m)
        assert np.max(np.abs(scores.mean(axis=0))) < 1e-10


class TestVarianceCriteria:
    def test_explained_variance_simple(self):
        ratios, cum = explained_variance([3.0, 1.0])
        assert np.allclose(ratios, [75.0, 25.0])
        assert np.allclose(cum, [75.0, 100.0])

    def test_cumulative_reaches_100(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(0.1, 5.0, size=12)
        _, cum = explained_variance(w)
        assert abs(cum[-1] - 100.0) < 1e-9

    def test_zero_total(self):
        with pytest.raises(ZeroTotal):
            explained_variance([0.0, 0.0])

    def test_cumulative_of_ratios(self):
        _, cum = explained_variance([28.35, 13.23, 6.87], total=100.0)
        assert np.allclose(cum, [28.35, 41.58, 48.45])

    def test_kaiser(self):
        assert kaiser_count([3.97, 1.85, 0.96, 0.79]) == 2
        assert kaiser_count([5.0, 1.1, 1.05, 0.9]) == 3
        assert kaiser_count([0.5]) == 0

    def test_elbow_hand_case(self):
        # second differences: i=2 -> 10-4+1.5=7.5, i=3 -> 2-3+1.2=0.2
        assert elbow_count([10.0, 2.0, 1.5, 1.2]) == 2

    def test_elbow_needs_three(self):
        with pytest.raises(TooFewComponents):
            elbow_count([2.0, 1.0])


class TestReports:
    def test_loadings_top_feature_is_duplicated_one(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=60)
        c = rng.normal(size=60)
        m, _ = standardize(fm(np.column_stack([a, a, c]), names=("a", "b", "c")))
        model = pca_fit(m)
        rows = loadings_report(model, top_k=1, n_components=1)
        assert rows[0]["feature"] in ("a", "b")

    def test_component_stats_shape_and_order(self):
        rng = np.random.default_rng(11)
        m, _ = standardize(fm(rng.normal(size=(80, 6))))
        model = pca_fit(m)
        scores = pca_project(model, m)
        stats = component_stats(scores)
        assert [s["component"] for s in stats] == [f"PC{j}" for j in range(1, 7)]
        sds = [s["sd"] for s in stats]
        assert all(x >= y - 1e-12 for x, y in zip(sds, sds[1:]))
        assert all(abs(s["mean"]) < 1e-10 for s in stats)
        for s in stats:
            assert s["min"] <= s["p25"] <= s["median"] <= s["p75"] <= s["max"]
