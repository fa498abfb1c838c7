"""Acceptance criteria, one test per criterion.

Each test prints a [PASS]/[FAIL] line (visible with ``pytest -s`` or in
the captured output of a failing run) and enforces its stated tolerance
and runtime budget.
"""

import functools
import math
import time

import numpy as np

from langprofile import cli, pipeline
from langprofile.clustering import (
    _pairwise_distances,
    ami,
    ari,
    best_mapping_accuracy,
    boundary_cases,
    cluster_profiles,
    kmeans,
    silhouette,
    silhouette_sweep,
    welch_cohen,
)
from langprofile.chat import parse_chat
from langprofile.features.extract import fluency_and_errors, production_counts
from langprofile.ngram import perplexity, train
from langprofile.numerics import (
    FeatureMatrix,
    eig_sym,
    elbow_count,
    explained_variance,
    kaiser_count,
    pca_fit,
    pca_project,
    standardize,
)
from langprofile.synthetic import two_blobs
from tests.conftest import one_transcript_features
from tests.test_clustering import brute_optimal_inertia, brute_silhouette
from tests.test_pipeline import write_config, write_synthetic_csv


def criterion(num, text):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {text}")
                raise
            print(f"[PASS] criterion {num}: {text}")
            return result
        return run
    return wrap


# eigenvalue / variance columns of the published component table
PUBLISHED_EIGENVALUES = [3.97, 1.85, 0.96, 0.79, 0.71, 0.62, 0.57,
                         0.48, 0.37, 0.32, 0.30, 0.27, 0.25, 0.24]
PUBLISHED_VARIANCE_PCT = [28.35, 13.23, 6.87, 5.64, 5.05, 4.46, 4.05,
                          3.42, 2.63, 2.30, 2.16, 1.93, 1.75, 1.70]


@criterion(1, "eigendecomposition oracle on 200 random symmetric matrices")
def test_eigendecomposition_oracle():
    rng = np.random.default_rng(0)
    sizes = [2 + i % 63 for i in range(200)]
    start = time.perf_counter()
    for n in sizes:
        A = rng.normal(size=(n, n))
        S = (A + A.T) / 2.0
        w, V = eig_sym(S)
        assert np.max(np.abs(S @ V - V * w)) < 1e-8
        assert abs(w.sum() - np.trace(S)) < 1e-8
        if n == 2:
            a, b, c = S[0, 0], S[0, 1], S[1, 1]
            mid = (a + c) / 2.0
            span = math.sqrt(((a - c) / 2.0) ** 2 + b * b)
            roots = np.array([mid + span, mid - span])
            assert np.max(np.abs(w - roots)) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"eig oracle took {elapsed:.1f}s"


@criterion(2, "PCA identities on standardized random 100x20 data")
def test_pca_identities():
    rng = np.random.default_rng(1)
    raw = FeatureMatrix(rng.normal(size=(100, 20)),
                        tuple(f"f{j}" for j in range(20)),
                        tuple(f"r{i}" for i in range(100)))
    m, _ = standardize(raw)
    model = pca_fit(m)
    assert abs(model.eigenvalues.sum() - 20.0) < 1e-6
    scores = pca_project(model, m)
    assert np.max(np.abs(scores.var(axis=0, ddof=1) - model.eigenvalues)) < 1e-6
    assert np.max(np.abs(scores @ model.components.T - m.values)) < 1e-8


@criterion(3, "explained-variance arithmetic matches the published table")
def test_explained_variance_arithmetic():
    _, cum = explained_variance([28.35, 13.23, 6.87], total=100.0)
    assert abs(cum[-1] - 48.45) < 1e-9
    assert abs(cum[-1] - 48.46) <= 0.02
    # the published variance column implies the full-spectrum total
    total = PUBLISHED_EIGENVALUES[0] * 100.0 / PUBLISHED_VARIANCE_PCT[0]
    ratios, _ = explained_variance(PUBLISHED_EIGENVALUES, total=total)
    assert np.max(np.abs(ratios - np.array(PUBLISHED_VARIANCE_PCT))) <= 0.05


@criterion(4, "Kaiser and elbow criteria on the published eigenvalues")
def test_component_selection_criteria():
    assert kaiser_count(PUBLISHED_EIGENVALUES) == 2
    assert elbow_count(PUBLISHED_EIGENVALUES) == 2


@criterion(5, "k-means and silhouette against brute-force oracles")
def test_kmeans_silhouette_oracles():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    optimal = 0
    for trial in range(100):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        X = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
        res = kmeans(X, k, seed=trial, n_init=32)
        if res.inertia <= brute_optimal_inertia(X, k) * (1 + 1e-9) + 1e-12:
            optimal += 1
        got = silhouette(X, res.assignments)
        want = brute_silhouette(X, res.assignments)
        assert abs(got - want) < 1e-12
    elapsed = time.perf_counter() - start
    assert optimal >= 95, f"only {optimal}/100 fixtures reached the optimum"
    assert elapsed < 30.0, f"k-means oracle took {elapsed:.1f}s"


@criterion(6, "silhouette sweep peaks at k=2 on a 1163-sample blob cohort")
def test_model_selection_behavior():
    points, _ = two_blobs(1163, seed=3, separation=8.0, dims=3)
    start = time.perf_counter()
    sweep = silhouette_sweep(points, _pairwise_distances(points), range(2, 11),
                             seed=42, n_init=32)
    elapsed = time.perf_counter() - start
    scores = {k: s for k, s, _ in sweep}
    assert len(sweep) == 9
    assert max(scores, key=scores.get) == 2
    assert all(scores[2] > scores[k] for k in range(3, 11))
    assert elapsed < 20.0, f"sweep took {elapsed:.1f}s"


@criterion(7, "boundary mechanics: percentile counts, ordering, recovery")
def test_boundary_mechanics():
    rng = np.random.default_rng(4)
    # percentile-5 flag count on 1000 tie-free points
    pts = rng.normal(size=(1000, 2)) * np.array([4.0, 1.0])
    cents = np.array([[-5.0, 0.0], [5.0, 0.0]])
    rep = boundary_cases(pts, cents, percentile=5)
    assert abs(len(rep.indices) - 50) <= 1
    flagged = np.zeros(1000, dtype=bool)
    flagged[list(rep.indices)] = True
    assert rep.deltas[flagged].max() <= rep.deltas[~flagged].min()

    # plant 59 of 1163 points hugging the midplane between the centroids
    n, planted = 1163, 59
    x = np.concatenate([rng.uniform(-0.05, 0.05, size=planted),
                        np.concatenate([rng.uniform(2.0, 4.5, size=(n - planted) // 2),
                                        -rng.uniform(2.0, 4.5,
                                                     size=n - planted - (n - planted) // 2)])])
    pts = np.column_stack([x, rng.normal(size=n), rng.normal(size=n)])
    rep = boundary_cases(pts, np.array([[-5.0, 0.0, 0.0], [5.0, 0.0, 0.0]]),
                         percentile=100.0 * planted / n)
    recovered = sum(1 for i in rep.indices if i < planted)
    assert recovered >= 0.9 * planted


@criterion(8, "agreement metrics: exactness, chance level, plane pattern")
def test_agreement_metrics():
    labels = np.array([0, 0, 1, 1, 2, 0, 1, 2] * 4)
    assert ari(labels, labels) == 1.0
    assert ami(labels, labels) == 1.0
    assert best_mapping_accuracy(labels, labels) == 1.0
    permuted = (labels + 1) % 3
    assert ari(labels, permuted) == 1.0
    assert ami(labels, permuted) == 1.0
    assert best_mapping_accuracy(labels, permuted) == 1.0

    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, size=1000)
    b = rng.integers(0, 2, size=1000)
    assert abs(ari(a, b)) < 0.05

    # PC1 carries the separation, PC3 is pure noise: the pc1-pc2 and
    # pc1-pc3 clusterings agree, the pc2-pc3 clustering is unrelated
    n = 600
    pc1 = np.concatenate([rng.normal(-5, 1, n // 2), rng.normal(5, 1, n // 2)])
    scores = np.column_stack([pc1, rng.normal(size=n), rng.normal(size=n)])
    plane = {name: kmeans(scores[:, cols], 2, seed=42, n_init=8).assignments
             for name, cols in (("12", [0, 1]), ("13", [0, 2]), ("23", [1, 2]))}
    assert ari(plane["12"], plane["13"]) > 0.8
    assert ari(plane["12"], plane["23"]) < 0.2


@criterion(9, "feature-extraction golden fixtures and closed-form perplexity")
def test_feature_extraction_goldens():
    two = parse_chat(
        "*CHI:\tthe dog ran .\n%mor:\tdet:art|the n|dog v|run&PAST .\n"
        "*CHI:\the jumped .\n%mor:\tpro|he v|jump-PAST .\n")
    counts = production_counts(two)
    assert counts["child_TNW"] == 5 and counts["child_TNS"] == 2
    measures, _ = one_transcript_features(two)
    assert measures["mlu_words"] == 2.5
    assert measures["mlu_morphemes"] == 3.0
    measures_fused, _ = one_transcript_features(two, count_fusions=True)
    assert measures_fused["mlu_morphemes"] == 3.5
    lex, _ = one_transcript_features(parse_chat("*CHI:\ta b a c .\n"))
    assert lex["freq_ttr"] == 0.75
    fk = one_transcript_features(parse_chat("*CHI:\tthe dog ran .\n"))[0]["f_k"]
    assert abs(fk - (-2.62)) < 1e-9

    markers, _ = one_transcript_features(parse_chat(
        "*CHI:\the is going .\n%mor:\tpro|he aux|be&3S part|go-PROG .\n"
        "*CHI:\tshe 's running .\n%mor:\tpro|she aux|be&3S part|run-PROG .\n"
        "*CHI:\tit is big .\n%mor:\tpro|it cop|be&3S adj|big .\n"
        "*CHI:\tit 's red .\n%mor:\tpro|it cop|be&3S adj|red .\n"
        "*CHI:\tthe dogs played in on .\n"
        "%mor:\tdet:art|the n|dog-PL v|play-PAST prep|in prep|on .\n"
        "*CHI:\tdaddys hat fell .\n%mor:\tn|daddy-POSS n|hat v|fall&PAST .\n"
        "*CHI:\the runs and goes .\n%mor:\tpro|he v|run-3S conj|and v|go&3S .\n"))
    expected = {
        "present_progressive": 2, "propositions_in": 1, "propositions_on": 1,
        "plural_s": 1, "irregular_past_tense": 1, "possessive_s": 1,
        "uncontractible_copula": 1, "articles": 1, "regular_past_ed": 1,
        "regular_3rd_person_s": 1, "irregular_3rd_person": 1,
        "uncontractible_aux": 1, "contractible_copula": 1, "contractible_aux": 1,
    }
    assert {name: markers[name] for name in expected} == expected

    patterns, _ = one_transcript_features(parse_chat(
        "*CHI:\tdog runs .\n%mor:\tn|dog v|run-3S .\n"
        "*CHI:\tdog is going .\n%mor:\tn|dog aux|be&3S part|go-PROG .\n"
        "*CHI:\tthe dogs bark .\n%mor:\tdet:art|the n|dog-PL v|bark .\n"
        "*CHI:\tthe boys dog ran .\n%mor:\tdet:art|the n|boy-PL n|dog v|run&PAST .\n"
        "*CHI:\the does go .\n%mor:\tpro|he aux|do-3S v|go .\n"
        "*CHI:\tshe sees .\n%mor:\tpro|she v|see-3S .\n"))
    expected = {"n_v": 3, "n_aux": 1, "n_3s_v": 1, "det_n_pl": 2,
                "det_pl_n": 1, "pro_aux": 1, "pro_3s_v": 1, "n_dos": 1}
    assert {name: patterns[name] for name in expected} == expected

    fluency = fluency_and_errors(parse_chat(
        "*CHI:\t&-um the the [/] dog <fell down> [//] fell .\n"
        "*CHI:\the goed [*] home . [+ gram]\n"))
    assert fluency == {"fillers": 1, "repetition": 1, "retracing": 1,
                       "word_errors": 1, "total_error": 2}

    # closed-form perplexity: uniform model and add-1 bigram
    def chi(text):
        return parse_chat(f"*CHI:\t{text} .\n")

    uniform = train([chi("a b c d")], order=1, smoothing_k=0, pad=False)
    assert abs(perplexity(uniform, chi("a b c d")) - 4.0) < 1e-9
    bigram = train([chi("a b")], order=2, smoothing_k=1)
    assert abs(perplexity(bigram, chi("a b")) - 2.5) < 1e-9


@criterion(10, "Welch/Cohen statistics match manual evaluation")
def test_statistics():
    p, d = welch_cohen([2.0, 4.0], [0.0, 2.0])
    assert abs(d - math.sqrt(2)) < 1e-6
    assert abs(p - (1 - math.sqrt(2) / 2)) < 1e-6
    p, d = welch_cohen([3.0, 5.0, 7.0], [3.0, 5.0, 7.0])
    assert p == 1.0 and d == 0.0
    profiles = cluster_profiles(np.array([0, 0, 1]),
                                np.zeros((3, 3)),
                                np.array([1.0, 1.0, 0.0]))
    assert profiles[0].outcome_ratio == 1.0


@criterion(11, "analyze reruns are byte-identical")
def test_determinism(tmp_path):
    csv_path = tmp_path / "features.csv"
    write_synthetic_csv(csv_path, n=150, seed=5)
    cfg = write_config(tmp_path / "cfg.ini", csv_path, tmp_path / "out")
    assert cli.main(["analyze", "--config", str(cfg)]) == 0
    first = {name: (tmp_path / "out" / name).read_bytes()
             for name in pipeline.REPORT_FILES}
    assert cli.main(["analyze", "--config", str(cfg)]) == 0
    second = {name: (tmp_path / "out" / name).read_bytes()
              for name in pipeline.REPORT_FILES}
    assert first == second


@criterion(12, "reports carry every published-table field")
def test_report_shape(tmp_path):
    csv_path = tmp_path / "features.csv"
    write_synthetic_csv(csv_path, n=150, seed=6)
    cfg = write_config(tmp_path / "cfg.ini", csv_path, tmp_path / "out")
    bundle = pipeline.run_pipeline(pipeline.load_config(cfg))

    # component table fields (eigenvalue / variance / cumulative)
    for row in bundle.pca_report["components"]:
        assert {"component", "eigenvalue", "variance_pct",
                "cumulative_pct"} <= set(row)
    # boundary summary fields (component means/sds and outcome share)
    assert {"threshold", "percentile", "n_flagged", "pc1_mean", "pc1_sd",
            "pc2_mean", "pc2_sd", "pc3_mean", "pc3_sd",
            "outcome_ratio"} <= set(bundle.boundary_report)
    # per-cluster effect statistics
    for row in bundle.cluster_report["effects"]:
        assert {"feature", "cluster0_mean", "cluster1_mean", "p_value",
                "cohens_d"} <= set(row)
    assert len(bundle.cluster_report["effects"]) == 3
    # cross-plane agreement table
    assert len(bundle.cluster_report["agreement"]) == 3
    for row in bundle.cluster_report["agreement"]:
        assert {"planes", "adjusted_rand_index", "adjusted_mutual_information",
                "accuracy_best_mapping"} <= set(row)
    # cluster profile table
    for row in bundle.cluster_report["clusters"]:
        assert {"cluster", "size", "pc1_mean", "pc2_mean", "pc3_mean",
                "y_ratio"} <= set(row)
        assert 0.0 <= row["y_ratio"] <= 1.0
