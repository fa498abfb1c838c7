"""Standardization, correlation pruning, symmetric eigendecomposition,
and PCA with component-selection criteria.

Conventions that keep the algebra exactly self-consistent:

* sample statistics everywhere (n-1 denominators), so the eigenvalues of
  the covariance of standardized data sum to the number of features
* eigenvector sign fixed so the largest-magnitude entry is positive
* left-to-right summation order (plain numpy reductions); results are
  bitwise stable for fixed inputs
* each Jacobi round turns all its live pairs at once, with one gather
  per side: the columns, the rows and the eigenvector rows
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllConstant,
    DegenerateInput,
    NoConvergence,
    NotSymmetric,
    TooFewComponents,
    ZeroTotal,
)


@dataclass(frozen=True)
class FeatureMatrix:
    """Rectangular children x features matrix with names attached."""

    values: np.ndarray
    col_names: tuple[str, ...]
    row_ids: tuple[str, ...]

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise ValueError("values must be 2-D")
        if v.shape != (len(self.row_ids), len(self.col_names)):
            raise ValueError("shape does not match row_ids / col_names")
        if len(set(self.col_names)) != len(self.col_names):
            raise ValueError("duplicate column names")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def select(self, indices) -> "FeatureMatrix":
        idx = list(indices)
        return FeatureMatrix(self.values[:, idx].copy(),
                             tuple(self.col_names[i] for i in idx),
                             self.row_ids)


def impute_missing(m: FeatureMatrix) -> tuple[FeatureMatrix, int]:
    """Replace NaN cells by their column mean; returns the fill count."""
    v = m.values.copy()
    mask = np.isnan(v)
    n_filled = int(mask.sum())
    if n_filled:
        for j in range(v.shape[1]):
            col_mask = mask[:, j]
            if not col_mask.any():
                continue
            good = v[~col_mask, j]
            if good.size == 0:
                raise AllConstant(f"column {m.col_names[j]!r} has no observed values")
            v[col_mask, j] = good.mean()
    return FeatureMatrix(v, m.col_names, m.row_ids), n_filled


def standardize(m: FeatureMatrix) -> tuple[FeatureMatrix, tuple[str, ...]]:
    """Column-wise zero mean, unit sample sd; constant columns dropped.

    Returns the standardized matrix and the names of the dropped columns.
    """
    v = m.values
    means = v.mean(axis=0)
    sds = v.std(axis=0, ddof=1) if v.shape[0] > 1 else np.zeros(v.shape[1])
    keep = sds > 0.0
    if not keep.any():
        raise AllConstant("every column is constant")
    dropped = tuple(name for name, k in zip(m.col_names, keep) if not k)
    out = (v[:, keep] - means[keep]) / sds[keep]
    retained = tuple(name for name, k in zip(m.col_names, keep) if k)
    return FeatureMatrix(out, retained, m.row_ids), dropped


def check_threshold(threshold: float) -> None:
    """Raise ``ValueError`` unless the pruning threshold is in (0, 1]."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")


def prune_correlated(m: FeatureMatrix, threshold: float = 0.95) -> tuple[int, ...]:
    """Greedy multicollinearity pruning in column order.

    Scanning columns left to right, any later column whose |Pearson r|
    with a retained earlier column exceeds the threshold is dropped: each
    retained column marks its later neighbours in one array step.
    Returns the retained column indices.
    """
    check_threshold(threshold)
    v = m.values
    r = np.corrcoef(v, rowvar=False)
    if r.ndim == 0:  # single column
        return (0,)
    dropped = np.zeros(v.shape[1], dtype=bool)
    for j in range(v.shape[1]):
        if not dropped[j]:
            dropped[j + 1:] |= np.abs(r[j, j + 1:]) > threshold
    return tuple(int(i) for i in np.flatnonzero(~dropped))


# -- symmetric eigendecomposition (cyclic Jacobi) --------------------------

def eig_sym(S, tol: float = 1e-12, max_sweeps: int = 100
            ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors (columns).

    Cyclic Jacobi rotations until the off-diagonal Frobenius norm falls
    below ``tol``.  Sign convention: the largest-magnitude entry of each
    eigenvector is positive.  A round gathers the columns, then the rows,
    of its live pairs stacked as ``[p..., q...]``; the eigenvectors are
    kept as rows, so they turn with the rows, and returned transposed.
    Raises ``DegenerateInput`` for a non-finite entry.
    """
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric("matrix is not square")
    if not np.isfinite(A).all():
        row, col = np.argwhere(~np.isfinite(A))[0]
        raise DegenerateInput(f"matrix holds {A[row, col]} in row {row}, column {col}")
    if A.size and np.max(np.abs(A - A.T)) > 1e-10:
        raise NotSymmetric("matrix is not symmetric within 1e-10")
    n = A.shape[0]
    A = (A + A.T) / 2.0
    if n < 2:
        return A.diagonal().copy(), np.eye(n)
    Vt = np.eye(n)

    # elements below this cannot keep the off-norm above tol
    skip = 0.25 * tol / n

    # round-robin sweep schedule: disjoint index pairs per round, every
    # pair visited exactly once per sweep, so rotations within a round
    # touch independent rows/columns and can be applied in one batch
    m = n + (n % 2)
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        ps = np.array(players[:m // 2])
        qs = np.array(players[m - 1:m // 2 - 1:-1])
        real = (ps < n) & (qs < n)
        ps, qs = ps[real], qs[real]
        rounds.append((ps, qs, _stacked(ps, qs, n)))
        players = [players[0], players[-1]] + players[1:-1]

    # the off-norm is checked before each sweep and after the last one
    for sweep in range(max(max_sweeps, 0) + 1):
        # summing the off-diagonal entries directly avoids the
        # cancellation floor of a frobenius-minus-diagonal formula
        off_sq = A * A
        np.fill_diagonal(off_sq, 0.0)
        off = math.sqrt(float(off_sq.sum()))
        if off <= tol:
            break
        if sweep >= max_sweeps:
            raise NoConvergence(f"Jacobi did not converge in {max_sweeps} sweeps")
        for ps, qs, (pq, P, PP, PQ) in rounds:
            apq = A.take(pq)
            live = np.abs(apq) > skip
            k = np.count_nonzero(live)
            if k == 0:
                continue
            if k < ps.size:
                apq = apq[live]
                _, P, PP, PQ = _stacked(ps[live], qs[live], n)
            d = A.take(PP)
            app, aqq = d[:k], d[k:]
            tau = (aqq - app) / (2.0 * apq)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            # one multiplier for all three turns: [c|s] and [s|c], each
            # value repeated along a row
            M = np.repeat(np.concatenate((c, s, s, c)), n).reshape(2, 2 * k, n)
            # columns first (A J), then rows (J^T A J), then exact corners;
            # a gather of columns comes out F-ordered, so its transpose
            # turns as rows too
            A[:, P] = _turn(A[:, P].T, M, k).T
            A[P] = _turn(A.take(P, axis=0), M, k)
            ta = t * apq  # aqq - (-ta) rounds as aqq + ta
            A.put(PP, d - np.concatenate((ta, -ta)))
            A.put(PQ, 0.0)
            Vt[P] = _turn(Vt.take(P, axis=0), M, k)

    w = A.diagonal().copy()
    order = np.argsort(-w, kind="stable")
    w = w[order]
    Vt = Vt[order]
    top = np.abs(Vt).argmax(axis=1)
    flip = Vt[np.arange(n), top] < 0
    Vt[flip] = -Vt[flip]
    return w, Vt.T


def _stacked(p, q, n):
    """Flat indices into an n x n array of ``[p, q]``, and the stacked
    pairs ``P = [p..., q...]`` with flat indices of ``[P, P]`` and of
    ``[P, Q]`` for ``Q = [q..., p...]``."""
    P = np.concatenate((p, q))
    return p * n + q, P, P * (n + 1), P * n + np.concatenate((q, p))


def _turn(R, M, k):
    """Rows ``[p..., q...]`` of ``R`` turned in place by a round's rotations,
    ``c*p - s*q`` and ``s*p + c*q``, with ``M`` holding ``[c|s]`` and
    ``[s|c]``."""
    X = R * M
    np.subtract(X[0, :k], X[0, k:], out=R[:k])
    np.add(X[1, :k], X[1, k:], out=R[k:])
    return R


# -- PCA --------------------------------------------------------------------

@dataclass(frozen=True)
class PcaModel:
    eigenvalues: np.ndarray       # descending
    components: np.ndarray        # columns are loading vectors
    retained_features: tuple[str, ...]


def pca_fit(m: FeatureMatrix) -> PcaModel:
    """Fit PCA on an already-standardized matrix; ``pca_project`` takes
    standardized rows with the same columns."""
    X = m.values
    if X.shape[0] < 2:
        raise DegenerateInput(f"PCA needs at least 2 rows, got {X.shape[0]}")
    cov = X.T @ X / (X.shape[0] - 1)
    w, V = eig_sym(cov)
    w = np.where((w < 0) & (w > -1e-10), 0.0, w)  # clip fp noise on PSD input
    return PcaModel(w, V, m.col_names)


def pca_project(model: PcaModel, m: FeatureMatrix) -> np.ndarray:
    if m.col_names != model.retained_features:
        raise ValueError("matrix columns do not match the fitted features")
    return m.values @ model.components


def explained_variance(eigenvalues, total: float | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Per-component variance percentages and their running cumulative.

    ``total`` overrides the variance denominator (useful when only the
    leading eigenvalues of a larger spectrum are available).
    """
    w = np.asarray(eigenvalues, dtype=float)
    if total is None:
        total = float(w.sum())
    if total == 0.0:
        raise ZeroTotal("total variance is zero")
    ratios = w / total * 100.0
    return ratios, np.cumsum(ratios)


def kaiser_count(eigenvalues) -> int:
    """Number of components with eigenvalue above 1."""
    w = np.asarray(eigenvalues, dtype=float)
    return int(np.sum(w > 1.0))


def elbow_count(eigenvalues) -> int:
    """1-indexed position maximizing the scree second difference."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.size < 3:
        raise TooFewComponents("elbow criterion needs at least 3 eigenvalues")
    second = w[:-2] - 2.0 * w[1:-1] + w[2:]
    return int(np.argmax(second)) + 2


def loadings_report(model: PcaModel, top_k: int = 5,
                    n_components: int | None = None) -> list[dict]:
    """Per-component top-k features by |loading|."""
    p = model.components.shape[1]
    n_components = min(n_components or p, p)
    rows = []
    for j in range(n_components):
        loadings = model.components[:, j]
        top = sorted(range(len(loadings)), key=lambda i: (-abs(loadings[i]), i))[:top_k]
        for i in top:
            rows.append({"component": f"PC{j + 1}",
                         "feature": model.retained_features[i],
                         "loading": float(loadings[i])})
    return rows


def component_stats(scores: np.ndarray, n_components: int | None = None) -> list[dict]:
    """Descriptive statistics (mean/sd/min/quartiles/max) per score column."""
    p = scores.shape[1]
    n_components = min(n_components or p, p)
    rows = []
    for j in range(n_components):
        col = scores[:, j]
        rows.append({
            "component": f"PC{j + 1}",
            "mean": float(col.mean()),
            "sd": float(col.std(ddof=1)) if col.size > 1 else 0.0,
            "min": float(col.min()),
            "p25": float(np.percentile(col, 25)),
            "median": float(np.percentile(col, 50)),
            "p75": float(np.percentile(col, 75)),
            "max": float(col.max()),
        })
    return rows
