"""Standardization, correlation pruning, and Jacobi-based PCA.

The eigendecomposition is cyclic Jacobi rotations, so the whole chain
runs on plain numpy arrays with reproducible signs and exact trace
identities: standardized data with p retained features always yields
eigenvalues summing to p.

Run:  python demos/04_pca_from_scratch.py
"""

import numpy as np

from langprofile.numerics import (
    FeatureMatrix,
    component_stats,
    eig_sym,
    elbow_count,
    explained_variance,
    kaiser_count,
    loadings_report,
    pca_fit,
    pca_project,
    prune_correlated,
    standardize,
)


def main():
    rng = np.random.default_rng(0)
    n = 400
    # two latent factors drive ten observed measures (plus one duplicate
    # column to give the pruner something to remove)
    production = rng.normal(size=n)
    complexity = rng.normal(size=n)
    cols, names = [], []
    for j in range(10):
        w1, w2 = rng.uniform(-2, 2, size=2)
        cols.append(w1 * production + w2 * complexity
                    + 0.4 * rng.normal(size=n))
        names.append(f"measure_{j}")
    cols.append(cols[0] * 3.0 + 0.001 * rng.normal(size=n))
    names.append("measure_0_rescaled")

    m = FeatureMatrix(np.column_stack(cols), tuple(names),
                      tuple(f"row{i}" for i in range(n)))
    std, _ = standardize(m)
    keep = prune_correlated(std, threshold=0.95)
    pruned = std.select(keep)
    dropped = set(std.col_names) - set(pruned.col_names)
    print(f"pruned {sorted(dropped)} (|r| > 0.95); {pruned.p} features remain")

    model = pca_fit(pruned)
    ratios, cum = explained_variance(model.eigenvalues)
    print(f"\neigenvalue spectrum (sum = {model.eigenvalues.sum():.6f} = p):")
    print("  PC   eigenvalue   variance%   cumulative%")
    for i, (w, r, c) in enumerate(zip(model.eigenvalues, ratios, cum), 1):
        print(f"  {i:<4d} {w:10.4f} {r:10.2f} {c:12.2f}")

    print(f"\nKaiser criterion retains {kaiser_count(model.eigenvalues)} components")
    print(f"elbow criterion suggests {elbow_count(model.eigenvalues)} components")

    print("\ntop loadings:")
    for row in loadings_report(model, top_k=3, n_components=2):
        print(f"  {row['component']}: {row['feature']:20s} {row['loading']:+.3f}")

    scores = pca_project(model, pruned)
    print("\nscore-column statistics (variance equals the eigenvalue):")
    for s in component_stats(scores, n_components=3):
        print(f"  {s['component']}: mean {s['mean']:+.2e}  sd {s['sd']:.4f}")

    # the eigensolver itself is exposed directly
    S = np.array([[2.0, 0.4], [0.4, 1.0]])
    w, V = eig_sym(S)
    print(f"\neig_sym([[2, .4], [.4, 1]]): eigenvalues {w.round(6)}")
    print(f"residual |Sv - wv| = {np.max(np.abs(S @ V - V * w)):.2e}")


if __name__ == "__main__":
    main()
