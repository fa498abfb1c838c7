"""K-means over component scores plus the validation toolkit around it:
silhouette model selection, Ward / DBSCAN cross-checks, boundary-case and
outlier detection, chance-corrected agreement metrics, and per-cluster
effect statistics.

The silhouette sweep and the Ward and DBSCAN cross-checks all read one
precomputed ``_pairwise_distances(points)`` matrix; each rejects a matrix
holding a NaN or inf. They read it in row blocks of about 512 KB, so the
matrix is the only n x n array they hold. Each leaves it unchanged, but
for ``ward_linkage(..., overwrite=True)``, which squares the caller's
matrix in place and leaves it holding no distances: a caller passes that
only as the matrix's last reader.

Determinism contract: every stochastic routine takes an explicit seed.
k-means draws each restart from its own ``SeedSequence(seed).spawn``
child. It seeds a block of restarts together, then runs their Lloyd loops
as one batch on (restart, cluster, point) arrays, reading X's columns
from one column-major copy when d < 8. A silhouette sweep seeds each
block once, at its largest k, and starts every k from the first k of
those centres. Its results are ``==`` to running the restarts one at a
time, k by k.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import (
    DegenerateInput,
    LengthMismatch,
    SingleCluster,
    TinyCluster,
)


def _as_points(points) -> np.ndarray:
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


# bytes of float64 that one row block of an n x n pass reads
_BLOCK_BYTES = 1 << 19


def _blocks(count: int, width: int) -> list[slice]:
    """``range(count)`` as slices of as many rows of ``width`` float64s as
    fill ``_BLOCK_BYTES``, at least one row each."""
    step = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
    return [slice(start, start + step) for start in range(0, count, step)]


def _pairwise_distances(X: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of X, from the Gram matrix.

    The matrix is built in the buffer of ``X @ X.T``: each row block
    becomes ``|x|^2 + |y|^2 - 2 x.y`` in place, with the operations of the
    whole-array expression in its order, so it holds the same floats and
    is the only n x n array made."""
    sq = np.sum(X * X, axis=1)
    D = X @ X.T
    D *= 2.0
    for rows in _blocks(len(X), len(X)):
        np.subtract(sq[rows, None] + sq[None, :], D[rows], out=D[rows])
    np.maximum(D, 0.0, out=D)
    np.fill_diagonal(D, 0.0)
    return np.sqrt(D, out=D)


def _as_distances(distances, n: int | None = None) -> np.ndarray:
    D = np.asarray(distances, dtype=float)
    size = n if n is not None else (D.shape[0] if D.ndim else 0)
    if D.shape != (size, size):
        raise LengthMismatch(f"distance matrix has shape {D.shape}, "
                             f"expected ({size}, {size})")
    # min and max both return NaN when any entry is NaN, and need no n x n mask
    if D.size and not (np.isfinite(D.min()) and np.isfinite(D.max())):
        row, col = np.argwhere(~np.isfinite(D))[0]
        raise DegenerateInput(f"distance matrix holds {D[row, col]} "
                              f"at row {row}, column {col}")
    return D


# -- k-means ----------------------------------------------------------------

# restarts per batched block: the (restarts, k, n) buffers grow with it,
# and past a few restarts the per-iteration interpreter cost is shared
_BLOCK = 8
_MAX_ITER = 300  # Lloyd iterations per restart, for kmeans and the sweep


@dataclass(frozen=True)
class ClusterResult:
    k: int
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    seed: int
    n_init: int


def _assign(X: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1), d2


def _batch_distances(X: np.ndarray, cols: np.ndarray, C: np.ndarray, d2: np.ndarray,
                     diff: np.ndarray) -> np.ndarray:
    """``_assign``'s squared distances for every restart's centroids ``C``
    (R, k, d) at once, written into and returned as ``d2`` (R, k, n), with
    ``diff`` as scratch.

    Below 8 dimensions ``_assign``'s ``np.sum`` adds the terms one by one,
    and so does this, from X's columns ``cols`` (d, n). From 8 on it adds
    them pairwise, in an order that follows X's memory layout, so each
    restart calls ``_assign`` on X itself. With k = 1 these are the
    distances ``np.sum((X - c) ** 2, axis=1)`` to each restart's c."""
    if X.shape[1] < 8:
        np.subtract(cols[0], C[:, :, 0, None], out=d2)
        np.square(d2, out=d2)
        for j in range(1, X.shape[1]):
            np.subtract(cols[j], C[:, :, j, None], out=diff)
            np.square(diff, out=diff)
            d2 += diff
    else:
        for r in range(len(C)):
            d2[r] = _assign(X, C[r])[1].T
    return d2


def _batch_init(X: np.ndarray, k: int, rngs: list[np.random.Generator],
                cols: np.ndarray | None = None) -> np.ndarray:
    """k-means++ seeding for a block of restarts, one generator each: the
    centroids (R, k, d).

    Each restart draws from its own generator in k-means++'s order: the
    first centre from ``rng.integers(n)``, every later one from one
    ``rng.random()`` against the cumulative distribution of the squared
    distances to the nearest centre so far (uniform when they are all 0),
    divided by its last entry.  The index is the count of entries <= the
    draw, so each centre is the one ``rng.choice(n, p=...)`` picks.
    ``cols`` holds X's columns as rows (default ``X.T``)."""
    n, d = X.shape
    cols = X.T if cols is None else cols
    C = np.empty((len(rngs), k, d))
    d2, new, diff = np.empty((3, len(rngs), 1, n))
    nearest = d2[:, 0]  # (R, n): each point's squared distance to its nearest centre
    C[:, 0] = X[[rng.integers(n) for rng in rngs]]
    _batch_distances(X, cols, C[:, :1], d2, diff)
    for j in range(1, k):
        u = np.array([rng.random() for rng in rngs])
        total = nearest.sum(axis=1)
        empty = total == 0.0
        probs = nearest / np.where(empty, 1.0, total)[:, None]
        probs[empty] = 1.0 / n
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]
        C[:, j] = X[np.count_nonzero(cdf <= u[:, None], axis=1)]
        np.minimum(d2, _batch_distances(X, cols, C[:, j:j + 1], new, diff), out=d2)
    return C


def _lloyd_block(X: np.ndarray, C: np.ndarray, max_iter: int, d2_buf: np.ndarray,
                 diff_buf: np.ndarray, weights: np.ndarray
                 ) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Lloyd runs from the seeded centroids ``C`` (R, k, d), all at once.

    A restart leaves the block when its assignment stops changing.
    ``d2_buf`` and ``diff_buf`` are ``_batch_distances``' (R, k, n) buffers
    for R restarts, and ``weights[j]`` repeats ``X[:, j]`` once per
    restart, so ``weights[:, :n]`` holds X's columns.  Returns
    ``(assignments, centroids, inertia)`` per restart, in order."""
    n, d = X.shape
    k = C.shape[1]
    rows = np.arange(n)
    cols = weights[:, :n]
    runs: list = [None] * len(C)
    live = np.arange(len(C))  # block positions of the restarts still running
    assign = np.argmin(_batch_distances(X, cols, C, d2_buf[:live.size],
                                        diff_buf[:live.size]), axis=1)

    def finish(i: int, d2: np.ndarray) -> None:
        runs[live[i]] = (assign[i].copy(), C[i].copy(),
                         float(d2[i][assign[i], rows].sum()))

    for _ in range(max_iter):
        a = live.size
        d2 = d2_buf[:a]
        bins = (np.arange(a)[:, None] * k + assign).ravel()
        counts = np.bincount(bins, minlength=a * k).reshape(a, k)
        filled = counts > 0
        if d == 1:
            # numpy sums a 1-D column pairwise: keep the per-cluster mean
            for i, j in zip(*np.nonzero(filled)):
                C[i, j] = X[assign[i] == j].mean(axis=0)
        else:
            # bincount adds in point order, as X[members].mean(axis=0) does
            for j in range(d):
                sums = np.bincount(bins, weights=weights[j, :a * n], minlength=a * k)
                np.divide(sums.reshape(a, k), counts, out=C[:, :, j], where=filled)
        for i in np.flatnonzero(~filled.all(axis=1)):
            # reseed empty clusters to the points farthest from their centroids
            empty = np.flatnonzero(~filled[i])
            order = np.argsort(-d2[i][assign[i], rows], kind="stable")
            C[i, empty] = X[order[:empty.size]]
        new_assign = np.argmin(_batch_distances(X, cols, C, d2, diff_buf[:a]), axis=1)
        done = (new_assign == assign).all(axis=1)
        assign = new_assign
        if done.any():
            for i in np.flatnonzero(done):
                finish(i, d2)
            keep = ~done
            live, assign, C = live[keep], assign[keep], C[keep]
            d2_buf[:live.size] = d2[keep]
            if not live.size:
                break
    for i in range(live.size):
        finish(i, d2_buf)
    return runs


def _check_points(X: np.ndarray) -> None:
    """Raise ``DegenerateInput`` for a non-finite point, naming its row and
    column, or for points so large that 4 d n max|x|^2 overflows: below
    that bound no centroid sum or squared distance can."""
    n, d = X.shape
    top = float(np.abs(X).max())
    if not math.isfinite(top):  # max returns NaN when any entry is NaN
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise DegenerateInput(f"point {row} holds {X[row, col]} in column {col}")
    if not math.isfinite(4.0 * d * n * top * top):
        raise DegenerateInput(f"largest coordinate {top!r} is too large for k-means "
                              f"with n={n}, d={d}: 4 d n max|x|^2 overflows")


def _fits(X: np.ndarray, ks: tuple[int, ...], seed: int, n_init: int,
          max_iter: int) -> dict[int, ClusterResult]:
    """``kmeans``'s fit at each k in ``ks``, from one seeding per block.

    k-means++ draws centre j from centres 0..j-1 alone, so each block of
    restarts is seeded once at ``max(ks)`` and every k starts Lloyd from
    the first k of those centres: the centres a seeding at k would draw.
    The (restart, cluster, point) buffers are allocated once for
    ``max(ks)``, and each k runs on a contiguous prefix of them."""
    n = X.shape[0]
    for k in ks:
        if k < 1 or n < k:
            raise DegenerateInput(f"need n >= k >= 1, got n={n} k={k}")
    if n_init < 1:
        raise ValueError(f"n_init must be at least 1, got {n_init}")
    _check_points(X)
    if not ks:
        return {}
    kmax = max(ks)
    size = min(n_init, _BLOCK)
    d2_flat, diff_flat = np.empty((2, size * kmax * n))
    weights = np.tile(X.T, size)
    cols = weights[:, :n]
    children = np.random.SeedSequence(seed).spawn(n_init)
    best: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
    for start in range(0, n_init, _BLOCK):
        rngs = [np.random.default_rng(child) for child in children[start:start + _BLOCK]]
        seeded = _batch_init(X, kmax, rngs, cols)
        for k in ks:
            d2_buf = d2_flat[:size * k * n].reshape(size, k, n)
            diff_buf = diff_flat[:size * k * n].reshape(size, k, n)
            for run in _lloyd_block(X, seeded[:, :k].copy(), max_iter, d2_buf, diff_buf,
                                    weights):
                if k not in best or run[2] < best[k][2]:
                    best[k] = run
    return {k: ClusterResult(k, *best[k], seed, n_init) for k in ks}


def kmeans(points, k: int, seed: int, n_init: int = 32,
           max_iter: int = _MAX_ITER) -> ClusterResult:
    """Best-of-``n_init`` k-means++ / Lloyd runs, selected by inertia
    (the first restart wins ties).

    Each restart draws from its own ``SeedSequence(seed).spawn`` stream.
    Blocks of ``_BLOCK`` restarts are seeded together (``_batch_init``),
    then run Lloyd as one batch on (restart, cluster, point) arrays, so
    each ufunc's inner loop runs over the n points. Every float equals a
    one-at-a-time run. For d < 8 the distances add their d terms one by
    one, as ``np.sum`` does, from one column-major copy of X; for d >= 8
    each restart's distances come from ``np.sum`` over X itself. For
    d >= 2 the centroids are per-cluster ``bincount`` sums, added in point
    order, over the counts; for d = 1 they are per-cluster means. A
    non-finite point, or points whose squares could overflow, raise
    ``DegenerateInput`` before any fit."""
    return _fits(_as_points(points), (k,), seed, n_init, max_iter)[k]


# -- silhouette ---------------------------------------------------------------

def _silhouette_from_distances(D: np.ndarray, assignments: np.ndarray) -> float:
    labels = np.unique(assignments)
    if labels.size < 2:
        raise SingleCluster("silhouette needs at least 2 clusters")
    n = D.shape[0]
    members = [np.flatnonzero(assignments == lab) for lab in labels]
    # each row's per-label sum, over row blocks: the floats of D[:, cols].sum(axis=1)
    sums = np.empty((n, labels.size))
    for rows in _blocks(n, n):
        block = D[rows]
        for j, cols in enumerate(members):
            sums[rows, j] = block[:, cols].sum(axis=1)
    sizes = np.array([cols.size for cols in members])
    rows = np.arange(n)
    own = np.searchsorted(labels, assignments)
    means = sums / sizes
    means[rows, own] = np.inf
    kept = sizes[own] > 1  # singleton convention: s = 0
    a = sums[rows, own][kept] / (sizes[own][kept] - 1)
    b = means.min(axis=1)[kept]
    denom = np.maximum(a, b)
    scored = denom > 0.0
    terms = (b - a)[scored] / denom[scored]
    # a running sum in row order; np.sum's pairwise order would change the last bits
    total = np.cumsum(terms)[-1] if terms.size else 0.0
    return total / n


def silhouette(points, assignments) -> float:
    """Mean per-point silhouette ((b - a) / max(a, b))."""
    X = _as_points(points)
    assignments = np.asarray(assignments)
    if len(assignments) != len(X):
        raise LengthMismatch("assignments length does not match points")
    return _silhouette_from_distances(_pairwise_distances(X), assignments)


def check_k_range(k_range: tuple[int, ...]) -> None:
    """Raise ``ValueError`` naming every k that ``k_range`` repeats."""
    repeated = sorted(k for k, c in Counter(k_range).items() if c > 1)
    if repeated:
        raise ValueError(f"k_range repeats k {repeated}")


def silhouette_sweep(points, distances, k_range, seed: int, n_init: int = 32
                     ) -> list[tuple[int, float, ClusterResult]]:
    """``(k, mean silhouette, fit)`` for a k-means fit at each k (fixed
    seed), equal to ``kmeans(points, k, seed, n_init)``; callers take the
    fit at their chosen k from here. Each block of restarts is seeded once,
    at the largest k. ``distances`` is ``_pairwise_distances(points)``. A
    repeated k raises ``ValueError`` before any fit."""
    k_range = tuple(k_range)
    check_k_range(k_range)
    X = _as_points(points)
    D = _as_distances(distances, len(X))
    fits = _fits(X, k_range, seed, n_init, _MAX_ITER)
    return [(k, _silhouette_from_distances(D, fits[k].assignments), fits[k]) for k in k_range]


# -- hierarchical (Ward) and DBSCAN cross-checks ------------------------------

def ward_linkage(distances, k: int, *, overwrite: bool = False) -> np.ndarray:
    """Agglomerative Ward clustering, from a distance matrix, cut at k clusters.

    Lance-Williams recurrence on squared Euclidean distances. Each merge
    takes the first minimum of the matrix in row-major order, so the
    smallest row, then the smallest column, and the final clusters are
    numbered by their first member index.

    The minimum is read from a row-minimum cache: ``nn[r]`` is the first
    column holding row r's minimum and ``nd[r]`` that minimum, so the pair
    is ``(argmin(nd), nn[argmin(nd)])``. A merged-away row keeps
    ``nd = inf`` and ``nn = -1``. After a merge only the merged row, and
    the rows whose ``nn`` was one of the merged pair, rescan; every other
    row compares its one updated entry with ``nd``.

    Each merge computes the Lance-Williams update over the whole of rows
    i and j, into two preallocated n-vectors, with no gather of the live
    rows: a merged-away column and the diagonal hold inf, and the update
    keeps them inf. A merge records ``parent[j] = i``, and the clusters
    are the roots of those links, found once at the end. Memory is a
    squared copy of the n x n matrix plus O(n) vectors. With
    ``overwrite``, like scipy's ``overwrite_a``, a float64 array
    ``distances`` is squared in place instead, so no second n x n array is
    made; it must be writable, and afterwards holds no distances. Time is
    O(n^2) when few rows go stale per merge and O(n^3) at worst. The cache
    changes only how the pair is found, not how any entry is computed, so
    the merges are those of a flat ``argmin`` over the whole matrix at
    every step. A NaN or inf distance raises ``DegenerateInput``.

    No Lance-Williams term exceeds n^2 max(D)^2, so the squares cannot
    overflow while 2 n^2 max(D)^2 is a finite float; a larger distance
    raises ``DegenerateInput`` naming it.
    """
    D = _as_distances(distances)
    n = D.shape[0]
    if k < 1 or n < k:
        raise DegenerateInput(f"need n >= k >= 1, got n={n} k={k}")
    top = float(D.max())
    if not math.isfinite(2.0 * n * n * top * top):
        raise DegenerateInput(f"largest distance {top!r} is too large for Ward with "
                              f"n={n}: 2 n^2 max(D)^2 overflows")
    D = np.square(D, out=D if overwrite else None)
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(n)
    parent = np.arange(n)  # a merged-away row links to the row it merged into
    nn = np.argmin(D, axis=1)
    nd = D[np.arange(n), nn]
    upd, tmp = np.empty((2, n))
    for _ in range(n - k):
        # dead rows hold inf, so the smallest cached minimum is the merge pair
        i = int(np.argmin(nd))
        j = int(nn[i])
        if i > j:
            i, j = j, i
        ni, nj, dij = sizes[i], sizes[j], D[i, j]
        # row i always rescans: on asymmetric input its minimum need not sit at j
        stale = (nn == i) | (nn == j)
        stale[i] = True
        stale[j] = False
        # ((ni + nl) D[i] + (nj + nl) D[j] - nl dij) / (ni + nj + nl), one
        # operation at a time; a dead column or the diagonal stays inf
        np.add(ni, sizes, out=upd)
        upd *= D[i]
        np.add(nj, sizes, out=tmp)
        tmp *= D[j]
        upd += tmp
        np.multiply(sizes, dij, out=tmp)
        upd -= tmp
        np.add(ni + nj, sizes, out=tmp)
        upd /= tmp
        D[i] = upd
        D[:, i] = upd
        D[j] = np.inf
        D[:, j] = np.inf
        sizes[i] = ni + nj
        parent[j] = i
        nn[j] = -1
        nd[j] = np.inf
        # column i, the only entry that changed, wins when it is lower or
        # equal and further left; nn = -1 keeps dead rows out
        take = (upd < nd) | ((upd == nd) & (i < nn))
        nn[take] = i
        nd[take] = upd[take]
        rows = np.flatnonzero(stale)
        nn[rows] = np.argmin(D[rows], axis=1)
        nd[rows] = D[rows, nn[rows]]
    # every link points to a lower row: jump until each row reads its root
    while (parent[parent] != parent).any():
        parent = parent[parent]
    # a merge keeps the lower row, so roots in ascending order number clusters
    # by their first member
    return np.unique(parent, return_inverse=True)[1]


def dbscan(distances, eps: float, min_pts: int) -> np.ndarray:
    """Core/border/noise labeling from a distance matrix; noise rows get -1.

    A point's neighbours are the entries of its row with ``D <= eps``, and
    it is core when it has at least ``min_pts`` of them. Clusters are
    numbered in the order of their first core point. Each grows one
    frontier at a time: the points not yet labelled that some frontier
    point lists as near, and the core points among them form the next
    frontier. A cluster is every point still unlabelled that is
    density-reachable from its first core point, so the labels are those
    of a point-by-point FIFO expansion. The core counts and each
    frontier's rows are compared with ``eps`` in row blocks of about
    512 KB, so no n x n array is made; each row is compared twice at most,
    once for its count and once in a frontier."""
    if eps <= 0 or min_pts < 1:
        raise DegenerateInput("need eps > 0 and min_pts >= 1")
    D = _as_distances(distances)
    n = D.shape[0]
    core = np.empty(n, dtype=bool)
    for rows in _blocks(n, n):
        core[rows] = np.count_nonzero(D[rows] <= eps, axis=1) >= min_pts
    labels = np.full(n, -1, dtype=int)
    free = np.ones(n, dtype=bool)
    cluster = 0
    for i in np.flatnonzero(core):
        if not free[i]:
            continue
        labels[i] = cluster
        free[i] = False
        frontier = np.array([i])
        while frontier.size:
            grown = np.zeros(n, dtype=bool)
            for part in _blocks(frontier.size, n):
                grown |= (D[frontier[part]] <= eps).any(axis=0)
            grown &= free
            labels[grown] = cluster
            free &= ~grown
            frontier = np.flatnonzero(grown & core)
        cluster += 1
    return labels


# -- boundary cases and outliers ----------------------------------------------

@dataclass(frozen=True)
class BoundaryReport:
    indices: tuple[int, ...]
    threshold: float
    percentile: float
    pc1_mean: float
    pc1_sd: float
    outcome_ratio: float
    deltas: np.ndarray


def boundary_cases(points, centroids, outcomes=None,
                   percentile: float = 5.0) -> BoundaryReport:
    """Rows whose two nearest centroids are nearly equidistant.

    delta = |d(nearest) - d(second nearest)|; the flagging threshold is
    the linear-interpolation percentile of the deltas, ties included.
    """
    X = _as_points(points)
    C = _as_points(centroids)
    if C.shape[0] < 2:
        raise DegenerateInput("boundary analysis needs >= 2 centroids")
    d = np.sqrt(_assign(X, C)[1])
    d.sort(axis=1)
    deltas = np.abs(d[:, 1] - d[:, 0])
    threshold = float(np.percentile(deltas, percentile))
    flagged = np.flatnonzero(deltas <= threshold)
    pc1 = X[flagged, 0]
    pc1_mean = float(pc1.mean()) if flagged.size else 0.0
    pc1_sd = float(pc1.std(ddof=1)) if flagged.size > 1 else 0.0
    if outcomes is not None and flagged.size:
        ratio = float(np.asarray(outcomes, dtype=float)[flagged].mean())
    else:
        ratio = 0.0
    return BoundaryReport(tuple(int(i) for i in flagged), threshold,
                          float(percentile), pc1_mean, pc1_sd, ratio, deltas)


def detect_outliers(points, centroids) -> np.ndarray:
    """Rows farther than mean + 3 sd from their assigned centroid."""
    X = _as_points(points)
    C = _as_points(centroids)
    assign, d2 = _assign(X, C)
    dist = np.sqrt(d2[np.arange(len(X)), assign])
    flagged = np.zeros(len(X), dtype=bool)
    for j in range(C.shape[0]):
        members = assign == j
        if not members.any():
            continue
        d = dist[members]
        cut = d.mean() + 3.0 * d.std(ddof=0)
        flagged[members] = d > cut
    return np.flatnonzero(flagged)


# -- agreement metrics ----------------------------------------------------------

def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch(f"label vectors differ: {a.shape} vs {b.shape}")
    return a, b


def _contingency(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    C = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(C, (ia, ib), 1)
    return C, C.sum(axis=1), C.sum(axis=0)


def ari(a, b) -> float:
    """Adjusted Rand index via the pair-counting contingency formula."""
    a, b = _check_pair(a, b)
    C, rows, cols = _contingency(a, b)

    def comb2(x):
        return x * (x - 1) // 2

    index = int(comb2(C).sum())
    sum_a = int(comb2(rows).sum())
    sum_b = int(comb2(cols).sum())
    total = comb2(len(a))
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    denom = max_index - expected
    if denom == 0.0:
        return 1.0
    return (index - expected) / denom


def _entropy(sizes: np.ndarray, n: int) -> float:
    # written as p * log(n / count) to share rounding with the MI terms, and
    # added left to right: builtin sum compensates from Python 3.12
    return float(reduce(add, ((c / n) * math.log(n / c) for c in sizes if c > 0), 0.0))


def _mutual_information(C: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                        n: int) -> float:
    mi = 0.0
    for i in range(C.shape[0]):
        for j in range(C.shape[1]):
            nij = int(C[i, j])
            if nij:
                mi += (nij / n) * math.log((n * nij) / (int(rows[i]) * int(cols[j])))
    return mi


def _expected_mi(rows: np.ndarray, cols: np.ndarray, n: int) -> float:
    """Hypergeometric expectation of MI under fixed marginals.

    ``log_fact[m]`` is ``math.lgamma(m + 1)``, log m!, for m from 0 to n:
    a list of n + 1 floats built once per call. Each hypergeometric
    log-probability adds its five marginal terms once per ``(ai, bj)``
    pair, then subtracts the four terms of the cell count, left to right
    as one expression over nine terms would; the MI terms are summed one
    by one, in the order of the pairs and counts."""
    log_fact = [math.lgamma(m + 1) for m in range(n + 1)]
    emi = 0.0
    for ai in (int(x) for x in rows):
        for bj in (int(x) for x in cols):
            marginal = (log_fact[ai] + log_fact[bj] + log_fact[n - ai] + log_fact[n - bj]
                        - log_fact[n])
            for nij in range(max(1, ai + bj - n), min(ai, bj) + 1):
                term = (nij / n) * math.log((n * nij) / (ai * bj))
                log_p = (marginal - log_fact[nij] - log_fact[ai - nij]
                         - log_fact[bj - nij] - log_fact[n - ai - bj + nij])
                emi += term * math.exp(log_p)
    return emi


def ami(a, b) -> float:
    """Adjusted mutual information, max normalization."""
    a, b = _check_pair(a, b)
    C, rows, cols = _contingency(a, b)
    n = len(a)
    ha = _entropy(rows, n)
    hb = _entropy(cols, n)
    if ha == 0.0 and hb == 0.0:
        return 1.0  # both partitions trivial and identical
    mi = _mutual_information(C, rows, cols, n)
    emi = _expected_mi(rows, cols, n)
    denom = max(ha, hb) - emi
    if abs(denom) < 1e-15:
        return 1.0 if abs(mi - emi) < 1e-15 else 0.0
    return (mi - emi) / denom


def _max_assignment(C: np.ndarray) -> int:
    """Largest ``sum(C[i, p(i)])`` over permutations ``p`` of a square
    integer table: the O(k^3) Hungarian method with row and column
    potentials, run on the costs ``C.max() - C``."""
    k = C.shape[0]
    cost = C.max() - C
    u = np.zeros(k + 1, dtype=np.int64)       # row potentials, 1-based
    v = np.zeros(k + 1, dtype=np.int64)       # column potentials, 1-based
    row_of = np.zeros(k + 1, dtype=np.int64)  # column -> matched row, 0 = free
    way = np.zeros(k + 1, dtype=np.int64)     # column -> previous column on the path
    never = np.iinfo(np.int64).max
    for i in range(1, k + 1):
        row_of[0] = i
        j0 = 0
        minv = np.full(k + 1, never, dtype=np.int64)
        used = np.zeros(k + 1, dtype=bool)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            free = ~used
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            better = free[1:] & (reduced < minv[1:])
            minv[1:][better] = reduced[better]
            way[1:][better] = j0
            slack = np.where(free, minv, never)
            j0 = int(np.argmin(slack))
            delta = slack[j0]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[free] -= delta
        while j0:
            prev = way[j0]
            row_of[j0] = row_of[prev]
            j0 = prev
    return int(C[row_of[1:] - 1, np.arange(k)].sum())


def best_mapping_accuracy(a, b) -> float:
    """Classification accuracy maximized over one-to-one label maps."""
    a, b = _check_pair(a, b)
    C, _, _ = _contingency(a, b)
    k = max(C.shape)
    square = np.zeros((k, k), dtype=np.int64)
    square[:C.shape[0], :C.shape[1]] = C
    return _max_assignment(square) / len(a)


# -- cluster profiles and effect statistics -------------------------------------

@dataclass(frozen=True)
class ClusterProfile:
    cluster: int
    size: int
    pc_means: tuple[float, ...]
    outcome_ratio: float


def cluster_profiles(assignments, scores, outcomes) -> list[ClusterProfile]:
    """Size, leading-component means, and outcome share per cluster."""
    assignments = np.asarray(assignments)
    scores = _as_points(scores)
    outcomes = np.asarray(outcomes, dtype=float)
    n_pcs = min(3, scores.shape[1])
    profiles = []
    for lab in np.unique(assignments):
        members = assignments == lab
        pc_means = tuple(float(scores[members, j].mean()) for j in range(n_pcs))
        profiles.append(ClusterProfile(int(lab), int(members.sum()), pc_means,
                                       float(outcomes[members].mean())))
    return profiles


@dataclass(frozen=True)
class EffectStats:
    feature: str
    mean0: float
    mean1: float
    p_value: float
    cohens_d: float


def _log_gamma_ratio(a: float) -> float:
    """``log(Gamma(a + 1/2) / Gamma(a))``.  From a = 40 on, its asymptotic
    series (truncation error below 1e-18) replaces the ratio, where a
    difference of two ``lgamma`` values would lose digits to cancellation."""
    if a < 40.0:
        return math.log(math.gamma(a + 0.5) / math.gamma(a))
    r = 1.0 / (a * a)
    return 0.5 * math.log(a) + (-1 / 8 + r * (1 / 192 + r * (-1 / 640 + r * (
        17 / 14336 - r * 31 / 18432)))) / a


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of the regularized incomplete beta
    ``I_x(a, b)``, by the modified Lentz method.  It converges quickly
    for ``x < (a + 1) / (a + b + 2)``: on the Student-t tails that
    ``_t_two_sided_p`` asks of it, df from 1 to 1e9, it took at most 81
    terms."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 2.3e-16:
            break
    return h


def _t_two_sided_p(t: float, df: float) -> float:
    """``P(|T| >= |t|)`` for Student's t with ``df`` degrees of freedom:
    the regularized incomplete beta ``I_x(df/2, 1/2)`` at
    ``x = df / (df + t^2)``, or ``1 - I_y(1/2, df/2)`` at
    ``y = t^2 / (df + t^2)`` where x is past the continued fraction's
    switch point.  Returns 1.0 at t == 0 and 0.0 once t^2 overflows."""
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a = 0.5 * df
    x = df / (df + t2)
    y = t2 / (df + t2)  # not 1 - x, which loses y's digits when t is small
    # log(x^a y^(1/2) / B(a, 1/2)); log1p takes the logs of x and y from
    # t^2/df and df/t^2, which stay accurate where x or y rounds to 1 or 0
    log_front = (_log_gamma_ratio(a) - 0.5 * math.log(math.pi)
                 - a * math.log1p(t2 / df) - 0.5 * math.log1p(df / t2))
    if x < (a + 1.0) / (a + 2.5):
        return math.exp(log_front) * _beta_cf(a, 0.5, x) / a
    return 1.0 - 2.0 * math.exp(log_front) * _beta_cf(0.5, a, y)


def welch_cohen(x0, x1) -> tuple[float, float]:
    """Two-sided Welch t-test p-value and pooled-sd Cohen's d.

    The p-value is the Student-t tail at Welch's t and df, taken from
    the incomplete beta's continued fraction in ``_t_two_sided_p``.  For
    df up to 5000 it is within 1e-12 of the exact tail, relatively, down
    to the smallest normal double (2.2e-308); below that it may
    underflow to 0.0 early.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    n0, n1 = len(x0), len(x1)
    if n0 < 2 or n1 < 2:
        raise TinyCluster("effect statistics need >= 2 samples per group")
    m0, m1 = x0.mean(), x1.mean()
    v0 = x0.var(ddof=1)
    v1 = x1.var(ddof=1)
    se2 = v0 / n0 + v1 / n1
    diff = m0 - m1
    pooled = math.sqrt(((n0 - 1) * v0 + (n1 - 1) * v1) / (n0 + n1 - 2))
    if se2 == 0.0:
        if diff == 0.0:
            return 1.0, 0.0
        return 0.0, math.copysign(math.inf, diff)
    t = diff / math.sqrt(se2)
    df = se2 ** 2 / ((v0 / n0) ** 2 / (n0 - 1) + (v1 / n1) ** 2 / (n1 - 1))
    p = _t_two_sided_p(float(t), float(df))
    d = diff / pooled if pooled > 0.0 else math.copysign(math.inf, diff)
    if diff == 0.0:
        d = 0.0
    return p, d


def compare_features(matrix_values, col_names, assignments,
                     features) -> list[EffectStats]:
    """Welch p and Cohen's d between clusters 0 and 1 for named features."""
    assignments = np.asarray(assignments)
    V = np.asarray(matrix_values, dtype=float)
    name_to_col = {name: j for j, name in enumerate(col_names)}
    g0 = assignments == 0
    g1 = assignments == 1
    out = []
    for feat in features:
        j = name_to_col[feat]
        x0, x1 = V[g0, j], V[g1, j]
        p, d = welch_cohen(x0, x1)
        out.append(EffectStats(feat, float(x0.mean()), float(x1.mean()), p, d))
    return out
