"""Cluster-model selection and the validation toolkit.

K-means with silhouette-based k selection, hierarchical and density
cross-checks, chance-corrected agreement, boundary-case detection in
the inter-cluster transition zone, and per-cluster effect statistics.

Run:  python demos/05_clustering_validation.py
"""

import numpy as np

from langprofile.clustering import (
    _pairwise_distances,
    ami,
    ari,
    best_mapping_accuracy,
    boundary_cases,
    cluster_profiles,
    dbscan,
    detect_outliers,
    silhouette_sweep,
    ward_linkage,
    welch_cohen,
)
from langprofile.synthetic import two_blobs


def main():
    points, truth = two_blobs(800, seed=1, separation=7.0, dims=3)
    outcomes = (np.random.default_rng(2).random(800) < np.where(truth == 0, 0.15, 0.3))

    distances = _pairwise_distances(points)  # one n x n matrix for the sweep and cross-checks
    sweep = silhouette_sweep(points, distances, range(2, 8), seed=42, n_init=16)
    print("silhouette sweep:")
    for k, s, _ in sweep:
        bar = "#" * int(40 * max(s, 0))
        print(f"  k={k}: {s:6.3f} {bar}")
    best_k, _, km = max(sweep, key=lambda fit: fit[1])
    print(f"chosen k = {best_k}")

    print(f"\nk-means inertia {km.inertia:.1f}; recovery vs ground truth: "
          f"ARI {ari(km.assignments, truth):.3f}")

    ward = ward_linkage(distances, best_k)
    db = dbscan(distances, eps=1.6, min_pts=5)
    mask = db >= 0
    print("cross-checks:")
    print(f"  ward  vs k-means: ARI {ari(ward, km.assignments):.3f}  "
          f"AMI {ami(ward, km.assignments):.3f}  "
          f"accuracy {best_mapping_accuracy(ward, km.assignments):.3f}")
    print(f"  dbscan: {db.max() + 1} clusters, {(~mask).sum()} noise points, "
          f"ARI on non-noise {ari(db[mask], km.assignments[mask]):.3f}")

    boundary = boundary_cases(points, km.centroids, outcomes.astype(float),
                              percentile=5.0)
    print(f"\nboundary cases at the 5th percentile of nearest-centroid "
          f"distance differences:")
    print(f"  {len(boundary.indices)} flagged "
          f"({100 * len(boundary.indices) / len(points):.1f}% of the sample), "
          f"threshold {boundary.threshold:.3f}")
    print(f"  flagged PC1 {boundary.pc1_mean:+.2f} +/- {boundary.pc1_sd:.2f}, "
          f"outcome share {boundary.outcome_ratio:.3f}")

    outliers = detect_outliers(points, km.centroids)
    print(f"outliers beyond mean + 3 sd of their cluster: {outliers.size}")

    profiles = cluster_profiles(km.assignments, points, outcomes.astype(float))
    print("\ncluster profiles:")
    for p in profiles:
        pcs = ", ".join(f"{v:+.2f}" for v in p.pc_means)
        print(f"  cluster {p.cluster}: n={p.size}, axis means [{pcs}], "
              f"outcome ratio {p.outcome_ratio:.3f}")

    x0 = points[km.assignments == 0, 0]
    x1 = points[km.assignments == 1, 0]
    p_value, d = welch_cohen(x0, x1)
    print(f"\naxis-0 between clusters: Welch p = {p_value:.3g}, "
          f"Cohen's d = {d:+.2f}")


if __name__ == "__main__":
    main()
