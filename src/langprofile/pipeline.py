"""End-to-end analysis pipeline behind a flat INI-style config.

Stages: load (the .cha files of a directory, or a feature CSV) ->
extract (transcripts only) -> impute -> standardize -> correlation prune
-> PCA -> silhouette sweep (one k-means fit per k; the chosen k keeps its
sweep fit) -> Ward/DBSCAN cross-checks (sweep and cross-checks share one
distance matrix) -> boundary cases -> outliers -> cross-plane agreement
-> profiles and effect statistics -> write (the report bundle).

The CLI's ``extract`` runs the load, extract and write stages alone,
through the same :func:`load_cohort` and :func:`write_files`.  A stage
that fails on a documented input raises ``PipelineError`` naming the
stage; a write that fails removes the files it opened.

Each input file is read once, through ``errors.read_text``.  A config key
the file leaves out keeps its one default, the ``PipelineConfig`` field's.

Each JSON report embeds the config hash and seed; a rerun with identical
input bytes and config produces byte-identical outputs.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import chat, clustering, ngram, numerics
from .errors import (
    ChatParseError,
    ConfigError,
    DataError,
    NonNumericCell,
    NumericError,
    PipelineError,
    SchemaMismatch,
    read_text,
)
from .features import extract as fx
from .features import scoring
from .features.schema import FEATURE_NAMES, csv_header
from .numerics import FeatureMatrix

SCHEMA_VERSION = "1"
SEED_ENV_VAR = "LANGPROFILE_SEED"

REPORT_FILES = ("feature_matrix.csv", "pca_report.json", "cluster_report.json",
                "boundary_report.json", "pc_scores.csv", "silhouette_sweep.csv")


# -- configuration -----------------------------------------------------------

def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_k_range(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty k_range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in text.split(","))


def _check_boundary_percentile(boundary_percentile: float) -> None:
    if not 0.0 < boundary_percentile < 50.0:
        raise ValueError("boundary_percentile must be in (0, 50)")


def _at_least(low: int):
    """A range check, like ``ngram.check_settings``, of one keyword argument."""
    def check(**setting) -> None:
        (key, number), = setting.items()
        if number < low:
            raise ValueError(f"{key} must be at least {low}")
    return check


# what each config value parser accepts, for error messages
_KINDS = {int: "an integer", float: "a number", _parse_bool: "a boolean",
          _parse_k_range: "a range lo..hi or a comma list of integers"}


@dataclass(frozen=True)
class PipelineConfig:
    input_mode: str                 # "transcripts" | "csv"
    input_path: str
    output_dir: str
    seed: int
    count_fusions: bool = False
    dss_table: str = ""
    ipsyn_table: str = ""
    smoothing_k: float = 1.0
    unk_threshold: int = 1
    loo: bool = False
    prune_threshold: float = 0.95
    top_k: int = 5
    k_range: tuple[int, ...] = tuple(range(2, 11))
    n_init: int = 32
    boundary_percentile: float = 5.0
    pc_dims: int = 3
    dbscan_eps: str = "auto"        # "auto" or a float literal
    dbscan_min_pts: int = 5
    effect_features: tuple[str, ...] = ("child_TNW", "mlu_morphemes", "word_errors")

    def canonical(self) -> str:
        pairs = sorted((k, v) for k, v in self.__dict__.items())
        return "\n".join(f"{k}={v!r}" for k, v in pairs) + "\n"

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


# [section] key -> (PipelineConfig field, parser, range check or None); a
# key the file leaves out keeps the field's default
_SETTINGS = {
    ("schema", "count_fusions"): ("count_fusions", _parse_bool, None),
    ("schema", "dss_table"): ("dss_table", str, None),
    ("schema", "ipsyn_table"): ("ipsyn_table", str, None),
    ("lm", "smoothing_k"): ("smoothing_k", float, ngram.check_settings),
    ("lm", "unk_threshold"): ("unk_threshold", int, ngram.check_settings),
    ("lm", "loo"): ("loo", _parse_bool, None),
    ("prune", "threshold"): ("prune_threshold", float, numerics.check_threshold),
    ("pca", "top_k"): ("top_k", int, _at_least(1)),
    ("clustering", "k_range"): ("k_range", _parse_k_range, clustering.check_k_range),
    ("clustering", "n_init"): ("n_init", int, _at_least(1)),
    ("clustering", "boundary_percentile"): ("boundary_percentile", float,
                                            _check_boundary_percentile),
    ("clustering", "pc_dims"): ("pc_dims", int, _at_least(1)),
    ("clustering", "dbscan_min_pts"): ("dbscan_min_pts", int, _at_least(1)),
}


def load_config(path: str | Path) -> PipelineConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(read_text(path), source=os.fspath(path))
    except OSError:
        raise ConfigError(f"cannot read config file {path!r}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    def get(section: str, key: str, required: bool = False) -> str | None:
        if parser.has_option(section, key):
            try:
                return parser.get(section, key).strip()
            except configparser.Error as exc:  # interpolation of % in the value
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from None
        if required:
            raise ConfigError(f"missing required config key [{section}] {key}")
        return None

    def value(section: str, key: str, parse, text: str, check=None):
        try:
            parsed = parse(text)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be {_KINDS[parse]}, "
                              f"got {text!r}") from None
        if check is not None:
            try:
                check(**{key: parsed})
            except ValueError as exc:
                raise ConfigError(f"[{section}] {exc}, got {text!r}") from None
        return parsed

    mode = get("input", "mode", required=True).lower()
    if mode not in ("transcripts", "csv"):
        raise ConfigError(f"input mode must be 'transcripts' or 'csv', got {mode!r}")
    in_path = get("input", "path", required=True)
    out_dir = get("output", "dir", required=True)

    seed_text = os.environ.get(SEED_ENV_VAR, "").strip() or get("clustering", "seed")
    if not seed_text:
        raise ConfigError("a clustering seed is required ([clustering] seed "
                          f"or ${SEED_ENV_VAR})")
    seed = value("clustering", "seed", int, seed_text, _at_least(0))

    settings = {}
    eps = get("clustering", "dbscan_eps")
    if eps is not None:
        if eps != "auto" and not 0.0 < value("clustering", "dbscan_eps", float, eps) < math.inf:
            raise ConfigError(f"[clustering] dbscan_eps must be 'auto' or a positive "
                              f"number, got {eps!r}")
        settings["dbscan_eps"] = eps

    effect_text = get("clustering", "effect_features")
    if effect_text is not None:
        effect_features = tuple(f.strip() for f in effect_text.split(",") if f.strip())
        unknown = [f for f in effect_features if f not in FEATURE_NAMES]
        if unknown:
            raise ConfigError(f"[clustering] effect_features: unknown features {unknown}")
        settings["effect_features"] = effect_features

    for (section, key), (name, parse, check) in _SETTINGS.items():
        text = get(section, key)
        if text is not None:
            settings[name] = value(section, key, parse, text, check)
    return PipelineConfig(input_mode=mode, input_path=in_path, output_dir=out_dir,
                          seed=seed, **settings)


# -- cohort: feature matrix plus per-row metadata ------------------------------

@dataclass(frozen=True)
class Cohort:
    matrix: FeatureMatrix
    corpus: tuple[str, ...]
    group: tuple[str, ...]          # "SLI" | "TD" | ""
    age_months: tuple[object, ...]  # int | None
    sex: tuple[str, ...]            # "M" | "F" | ""

    @property
    def outcomes(self) -> np.ndarray:
        return np.array([1.0 if g == "SLI" else 0.0 for g in self.group])


def _format_number(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    return f"{x:.10g}"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_feature_csv(cohort: Cohort) -> str:
    meta = zip(cohort.matrix.row_ids, cohort.corpus, cohort.group, cohort.age_months,
               cohort.sex)
    # Python floats format faster than np.float64, and to the same text
    return _csv_text(csv_header(), (
        [row_id, corpus, group, "" if age is None else str(age), sex,
         *[_format_number(v) for v in values.tolist()]]
        for (row_id, corpus, group, age, sex), values in zip(meta, cohort.matrix.values)))


def _csv_records(path):
    """The CSV records of file ``path``, split by ``csv`` itself; one that
    ``csv`` cannot read, such as a field over its size limit, raises
    ``DataError`` naming the file and the row (the header is row 0)."""
    row = 0
    try:
        for record in csv.reader(io.StringIO(read_text(path, keep_line_ends=True),
                                             newline="")):
            yield record
            row += 1
    except csv.Error as exc:
        raise DataError(f"{path}: row {row}: {exc}") from None


def ingest_feature_csv(path: str | Path) -> Cohort:
    """Load a feature CSV whose header matches the documented schema."""
    reader = _csv_records(path)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaMismatch(f"{path}: empty file") from None
    expected = list(csv_header())
    if header != expected:
        missing = [c for c in expected if c not in header]
        extra = [c for c in header if c not in expected]
        raise SchemaMismatch(
            f"{path}: header mismatch; missing={missing} extra={extra} "
            "(column order must match the documented schema)")
    ids, corpus, group, ages, sex, rows = [], [], [], [], [], []
    for r, row in enumerate(reader, start=1):
        if len(row) != len(expected):
            raise SchemaMismatch(f"{path}: row {r} has {len(row)} fields, "
                                 f"expected {len(expected)}")
        ids.append(row[0])
        corpus.append(row[1])
        glabel = row[2].strip().upper()
        group.append(glabel if glabel in ("SLI", "TD") else "")
        if row[3].strip():
            try:
                ages.append(int(row[3]))
            except ValueError:
                raise NonNumericCell(f"{path}: row {r}, column 'age_months': "
                                     f"{row[3]!r}") from None
        else:
            ages.append(None)
        sex.append(row[4].strip().upper())
        vals = []
        for name, cell in zip(FEATURE_NAMES, row[5:]):
            cell = cell.strip()
            if not cell:
                vals.append(float("nan"))
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise NonNumericCell(
                    f"{path}: row {r}, column {name!r}: {cell!r}") from None
        rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    values = np.array(rows, dtype=float)
    infinite = np.argwhere(np.isinf(values))  # such as 'inf' or '1e400'; 'nan' is missing
    if infinite.size:
        r, j = infinite[0]
        raise NonNumericCell(f"{path}: row {r + 1}, column {FEATURE_NAMES[j]!r}: "
                             "not a finite number")
    matrix = FeatureMatrix(values, FEATURE_NAMES, tuple(ids))
    return Cohort(matrix, tuple(corpus), tuple(group), tuple(ages), tuple(sex))


# -- transcript extraction ------------------------------------------------------

def load_transcripts(directory: str | Path) -> list[chat.Transcript]:
    paths = sorted(Path(directory).glob("*.cha"))
    if not paths:
        raise DataError(f"no .cha files under {directory!r}")
    out = []
    mor_cache: dict = {}  # one per call: the corpus's equal mor items share a token
    for p in paths:
        try:  # the stem becomes the row id, which the reports write as UTF-8
            p.name.encode("utf-8")
        except UnicodeEncodeError:
            shown = os.fsencode(p).decode("utf-8", "backslashreplace")
            raise DataError(f"{shown}: file name is not UTF-8") from None
        try:
            out.append(chat.parse_chat(read_text(p), transcript_id=p.stem,
                                       mor_cache=mor_cache))
        except ChatParseError as exc:
            raise type(exc)(f"{p}: {exc}") from None
    return out


def extract_cohort(transcripts: list[chat.Transcript],
                   config: PipelineConfig) -> Cohort:
    """One pass: each transcript's base features, computed once with tables
    read and compiled once on one mask cache, give the group statistics;
    after LM training each gains its perplexities and z-scores.

    With ``loo``, a labelled transcript is scored against its own group's
    models without it.  ``ngram.GroupModels`` reads each transcript's
    child sentences once and counts each group in one walk; a held-out
    transcript is scored against a view of the full counts minus its own,
    with no copy of the count tables and no retrain, and at most one view
    is alive at a time."""
    tables = scoring.compile_tables(
        scoring.load_table(config.dss_table, "categories") if config.dss_table else None,
        scoring.load_table(config.ipsyn_table, "structures") if config.ipsyn_table else None)
    syllable_counts: dict[str, int] = {}  # one per job: each distinct word counted once
    blocks = [fx.base_features(t, config.count_fusions, tables, syllable_counts)
              for t in transcripts]
    groups = [t.group.value for t in transcripts]
    stats = fx.GroupStats.from_rows([values for values, _ in blocks], groups)
    lms = ngram.GroupModels(transcripts, config.smoothing_k, config.unk_threshold)

    values = np.empty((len(transcripts), len(FEATURE_NAMES)))
    for i, (base, flags) in enumerate(blocks):
        ppl = lms.perplexity_features(i, held_out=config.loo)
        vec = fx.FeatureVector({**base, **ppl, **fx.zscore_features(base, stats)},
                               frozenset(flags))
        values[i] = [vec.values[name] for name in FEATURE_NAMES]

    matrix = FeatureMatrix(values, FEATURE_NAMES, tuple(t.id for t in transcripts))
    return Cohort(
        matrix,
        tuple(t.corpus for t in transcripts),
        tuple(t.group.value for t in transcripts),
        tuple(t.age_months for t in transcripts),
        tuple(t.sex or "" for t in transcripts),
    )


# -- report serialization ---------------------------------------------------------

def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.10g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def dumps_report(obj: dict) -> str:
    return json.dumps(_round_floats(obj), indent=2) + "\n"


# -- the pipeline proper -----------------------------------------------------------

@dataclass(frozen=True)
class ReportBundle:
    output_dir: Path
    files: dict[str, str] = field(default_factory=dict)
    pca_report: dict = field(default_factory=dict)
    cluster_report: dict = field(default_factory=dict)
    boundary_report: dict = field(default_factory=dict)


def _stage(name: str, fn, *args, **kwargs):
    """Call ``fn``; an error that a documented input raises is reported as
    this stage's failure, and any other exception, a fault, propagates."""
    try:
        return fn(*args, **kwargs)
    except (DataError, NumericError, OSError) as exc:
        raise PipelineError(name, exc) from exc


def _auto_eps(distances: np.ndarray, min_pts: int) -> float:
    """Median distance to the min_pts-th neighbour (a point is its own 0th)."""
    kth = min(min_pts, distances.shape[1] - 1)
    return float(np.median(np.partition(distances, kth, axis=1)[:, kth]))


def _plane_agreement(scores: np.ndarray, k: int, seed: int, n_init: int) -> list[dict]:
    """k-means on each plane of the first three PCs, and how far each pair
    of planes agrees."""
    planes = {"pc1_pc2": scores[:, [0, 1]], "pc1_pc3": scores[:, [0, 2]],
              "pc2_pc3": scores[:, [1, 2]]}
    labels = {name: clustering.kmeans(pts, k, seed, n_init).assignments
              for name, pts in planes.items()}
    return [{"planes": f"{left}_vs_{right}",
             "adjusted_rand_index": clustering.ari(labels[left], labels[right]),
             "adjusted_mutual_information": clustering.ami(labels[left], labels[right]),
             "accuracy_best_mapping": clustering.best_mapping_accuracy(labels[left],
                                                                       labels[right])}
            for left, right in (("pc1_pc2", "pc1_pc3"), ("pc1_pc2", "pc2_pc3"),
                                ("pc1_pc3", "pc2_pc3"))]


def load_cohort(config: PipelineConfig) -> tuple[Cohort, list[chat.Transcript]]:
    """The ``load`` stage, then in transcripts mode the ``extract`` stage:
    the cohort, and the transcripts it was extracted from (csv mode: none)."""
    if config.input_mode == "csv":
        return _stage("load", ingest_feature_csv, config.input_path), []
    transcripts = _stage("load", load_transcripts, config.input_path)
    return _stage("extract", extract_cohort, transcripts, config), transcripts


def write_files(files: dict[Path, str]) -> None:
    """Write each text to its path as UTF-8.  Any failure removes every
    file opened so far, the one being written included, and re-raises."""
    opened: list[Path] = []
    try:
        for path, text in files.items():
            with open(path, "w", encoding="utf-8") as fh:
                opened.append(path)
                fh.write(text)
    except BaseException:
        for path in opened:
            path.unlink(missing_ok=True)
        raise


def run_pipeline(config: PipelineConfig) -> ReportBundle:
    cohort, _ = load_cohort(config)

    n = cohort.matrix.n
    bad_k = [k for k in config.k_range if not 2 <= k <= n - 1]
    if bad_k:
        raise PipelineError("load", DataError(
            f"k_range values {bad_k} outside [2, n-1] for n={n}"))
    if config.dbscan_min_pts > n:
        # no row could have that many neighbours: DBSCAN would call every row noise
        raise PipelineError("load", DataError(
            f"[clustering] dbscan_min_pts {config.dbscan_min_pts} is above "
            f"the row count n={n}"))

    imputed, n_imputed = _stage("impute", numerics.impute_missing, cohort.matrix)
    standardized, dropped = _stage("standardize", numerics.standardize, imputed)
    retained_idx = _stage("prune", numerics.prune_correlated,
                          standardized, config.prune_threshold)
    pruned = standardized.select(retained_idx)
    pruned_names = set(standardized.col_names) - set(pruned.col_names)

    model = _stage("pca", numerics.pca_fit, pruned)
    scores = _stage("pca", numerics.pca_project, model, pruned)
    ratios, cum = _stage("pca", numerics.explained_variance, model.eigenvalues)

    space = scores[:, :config.pc_dims]

    distances = _stage("sweep", clustering._pairwise_distances, space)
    sweep = _stage("sweep", clustering.silhouette_sweep,
                   space, distances, config.k_range, config.seed, config.n_init)
    chosen_k, _, km = max(sweep, key=lambda fit: fit[1])  # ties: first in k_range
    order = np.argsort(-km.centroids[:, 0], kind="stable")
    assignments = np.argsort(order)[km.assignments]  # the inverse permutation relabels
    centroids = km.centroids[order]

    ward_labels = _stage("cross_check", clustering.ward_linkage, distances, chosen_k)
    eps = float(config.dbscan_eps) if config.dbscan_eps != "auto" \
        else _stage("cross_check", _auto_eps, distances, config.dbscan_min_pts)
    db_labels = _stage("cross_check", clustering.dbscan,
                       distances, eps, config.dbscan_min_pts)
    del distances  # its last reader is done: free it before the later stages allocate
    non_noise = db_labels >= 0
    dbscan_ari = _stage("cross_check", clustering.ari, assignments[non_noise],
                        db_labels[non_noise]) if non_noise.sum() > 1 else 0.0
    ward_ari = _stage("cross_check", clustering.ari, assignments, ward_labels)
    ward_ami = _stage("cross_check", clustering.ami, assignments, ward_labels)

    outcomes = cohort.outcomes
    boundary = _stage("boundary", clustering.boundary_cases,
                      space, centroids, outcomes, config.boundary_percentile)
    outliers = _stage("outliers", clustering.detect_outliers, space, centroids)

    agreement = _stage("cross_check", _plane_agreement, scores, chosen_k,
                       config.seed, config.n_init) if scores.shape[1] >= 3 else []

    profiles = _stage("profiles", clustering.cluster_profiles,
                      assignments, scores, outcomes)
    effects = _stage("effects", clustering.compare_features,
                     imputed.values, imputed.col_names, assignments,
                     config.effect_features)

    # ---- assemble reports ----
    meta = {"schema_version": SCHEMA_VERSION, "config_hash": config.config_hash,
            "seed": config.seed}

    pca_report = {
        **meta,
        "n_rows": n,
        "preprocessing": {
            "imputed_cells": n_imputed,
            "dropped_constant": list(dropped),
            "prune_threshold": config.prune_threshold,
            "pruned": sorted(pruned_names),
            "retained": list(pruned.col_names),
        },
        "components": [
            {"component": f"PC{i + 1}", "eigenvalue": float(model.eigenvalues[i]),
             "variance_pct": float(ratios[i]), "cumulative_pct": float(cum[i])}
            for i in range(len(model.eigenvalues))
        ],
        "kaiser_count": numerics.kaiser_count(model.eigenvalues),
        "elbow_count": numerics.elbow_count(model.eigenvalues)
        if len(model.eigenvalues) >= 3 else None,
        "loadings": numerics.loadings_report(model, config.top_k,
                                             n_components=min(5, scores.shape[1])),
        "component_stats": numerics.component_stats(scores,
                                                    n_components=min(5, scores.shape[1])),
    }

    flagged = set(boundary.indices)
    outlier_set = set(int(i) for i in outliers)
    boundary_pcs = {}
    for j in range(min(3, scores.shape[1])):
        col = scores[list(boundary.indices), j] if boundary.indices else np.array([0.0])
        boundary_pcs[f"pc{j + 1}_mean"] = float(col.mean())
        boundary_pcs[f"pc{j + 1}_sd"] = float(col.std(ddof=1)) if col.size > 1 else 0.0

    boundary_report = {
        **meta,
        "percentile": config.boundary_percentile,
        "threshold": boundary.threshold,
        "n_flagged": len(boundary.indices),
        "flagged_fraction": len(boundary.indices) / n,
        **boundary_pcs,
        "outcome_ratio": boundary.outcome_ratio,
        "indices": [cohort.matrix.row_ids[i] for i in boundary.indices],
    }

    cluster_report = {
        **meta,
        "silhouette_sweep": [{"k": k, "silhouette": s} for k, s, _ in sweep],
        "chosen_k": chosen_k,
        "n_init": config.n_init,
        "inertia": km.inertia,
        "clusters": [
            {"cluster": p.cluster, "size": p.size,
             **{f"pc{j + 1}_mean": p.pc_means[j] for j in range(len(p.pc_means))},
             "y_ratio": p.outcome_ratio}
            for p in profiles
        ],
        "effects": [
            {"feature": e.feature, "cluster0_mean": e.mean0, "cluster1_mean": e.mean1,
             "p_value": e.p_value, "cohens_d": e.cohens_d}
            for e in effects
        ],
        "agreement": agreement,
        "cross_checks": {
            "ward_ari": ward_ari,
            "ward_ami": ward_ami,
            "dbscan_eps": eps,
            "dbscan_min_pts": config.dbscan_min_pts,
            "dbscan_clusters": int(db_labels.max() + 1),
            "dbscan_noise": int((~non_noise).sum()),
            "dbscan_ari_non_noise": dbscan_ari,
        },
    }

    # ---- plot CSVs ----
    n_plot = min(3, scores.shape[1])
    files = {
        "feature_matrix.csv": render_feature_csv(cohort),
        "pca_report.json": dumps_report(pca_report),
        "cluster_report.json": dumps_report(cluster_report),
        "boundary_report.json": dumps_report(boundary_report),
        "pc_scores.csv": _csv_text(
            ["id", *[f"pc{j + 1}" for j in range(n_plot)], "cluster", "boundary", "outlier"],
            ([row_id, *[_format_number(v) for v in scores[i, :n_plot].tolist()],
              int(assignments[i]), int(i in flagged), int(i in outlier_set)]
             for i, row_id in enumerate(cohort.matrix.row_ids))),
        "silhouette_sweep.csv": _csv_text(["k", "silhouette"],
                                          ([k, _format_number(s)] for k, s, _ in sweep)),
    }

    out_dir = Path(config.output_dir)
    _stage("write", out_dir.mkdir, parents=True, exist_ok=True)
    _stage("write", write_files, {out_dir / name: text for name, text in files.items()})

    return ReportBundle(out_dir, files, pca_report, cluster_report, boundary_report)
