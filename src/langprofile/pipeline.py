"""End-to-end analysis pipeline behind a flat INI-style config.

Stages: load (the .cha files of a directory, or a feature CSV) ->
extract (transcripts only) -> impute -> standardize -> prune (correlated
columns) -> pca -> sweep (one k-means fit per k; the chosen k keeps its
sweep fit) -> cross_check (DBSCAN, then Ward, on the sweep's distance
matrix, which Ward squares in place as its last reader; then k-means on
the three planes of PCs 1-3 and how far they agree) -> boundary ->
outliers -> profiles -> effects -> write (the report bundle).

Each stage is one ``with _stage(name):`` block around the calls it runs,
and a block that computes report values builds the report fields itself.
An error that a documented input raises inside a block becomes a
``PipelineError`` naming the stage; a write that fails removes the files
it opened.  The CLI's ``extract`` runs the load, extract and write
stages alone, through the same :func:`load_cohort` and
:func:`write_files`.

Each input file is read once, through ``errors.read_text``.  Each config
key is declared once, on its ``PipelineConfig`` field: its ``[section]
key``, parser, range check and default.

Each JSON report embeds the config hash and seed; a rerun with identical
input bytes and config produces byte-identical outputs.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import chat, clustering, ngram, numerics
from .errors import (
    ChatParseError,
    ConfigError,
    DataError,
    DegenerateInput,
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
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _parse_mode(text: str) -> str:
    mode = text.lower()
    if mode not in ("transcripts", "csv"):
        raise ValueError(f"not an input mode: {text!r}")
    return mode


def _parse_k_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty k_range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in text.split(","))


def _parse_eps(text: str) -> str:
    if text != "auto" and not 0.0 < float(text) < math.inf:
        raise ValueError(f"not a positive number: {text!r}")
    return text


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _check_boundary_percentile(boundary_percentile: float) -> None:
    if not 0.0 < boundary_percentile < 50.0:
        raise ValueError("boundary_percentile must be in (0, 50)")


def _check_features(effect_features: tuple[str, ...]) -> None:
    unknown = [name for name in effect_features if name not in FEATURE_NAMES]
    if unknown:
        raise ValueError(f"effect_features has unknown features {unknown}")


def _at_least(low: int):
    """A range check, like ``ngram.check_settings``, of one keyword argument."""
    def check(**setting) -> None:
        (key, number), = setting.items()
        if number < low:
            raise ValueError(f"{key} must be at least {low}")
    return check


# what each config value parser accepts, for error messages
_KINDS = {int: "an integer", float: "a number", _parse_bool: "a boolean",
          _parse_mode: "'transcripts' or 'csv'", _parse_eps: "'auto' or a positive number",
          _parse_k_range: "a range lo..hi or a comma list of integers"}


def _key(section: str, key: str, parse, check=None, default=MISSING):
    """A ``PipelineConfig`` field read from config key ``[section] key`` by
    ``parse`` and range-checked by ``check(key=value)``; a field given no
    ``default`` is a required key."""
    return field(default=default, metadata={"section": section, "key": key,
                                            "parse": parse, "check": check})


@dataclass(frozen=True)
class PipelineConfig:
    input_mode: str = _key("input", "mode", _parse_mode)  # "transcripts" | "csv"
    input_path: str = _key("input", "path", str)
    output_dir: str = _key("output", "dir", str)
    seed: int = _key("clustering", "seed", int, _at_least(0))
    count_fusions: bool = _key("schema", "count_fusions", _parse_bool, default=False)
    dss_table: str = _key("schema", "dss_table", str, default="")
    ipsyn_table: str = _key("schema", "ipsyn_table", str, default="")
    smoothing_k: float = _key("lm", "smoothing_k", float, ngram.check_settings, default=1.0)
    unk_threshold: int = _key("lm", "unk_threshold", int, ngram.check_settings, default=1)
    loo: bool = _key("lm", "loo", _parse_bool, default=False)
    prune_threshold: float = _key("prune", "threshold", float, numerics.check_threshold,
                                  default=0.95)
    top_k: int = _key("pca", "top_k", int, _at_least(1), default=5)
    k_range: tuple[int, ...] = _key("clustering", "k_range", _parse_k_range,
                                    clustering.check_k_range, default=tuple(range(2, 11)))
    n_init: int = _key("clustering", "n_init", int, _at_least(1), default=32)
    boundary_percentile: float = _key("clustering", "boundary_percentile", float,
                                      _check_boundary_percentile, default=5.0)
    pc_dims: int = _key("clustering", "pc_dims", int, _at_least(1), default=3)
    dbscan_eps: str = _key("clustering", "dbscan_eps", _parse_eps,
                           default="auto")  # "auto" or a float literal
    dbscan_min_pts: int = _key("clustering", "dbscan_min_pts", int, _at_least(1), default=5)
    effect_features: tuple[str, ...] = _key(
        "clustering", "effect_features", _parse_names, _check_features,
        default=("child_TNW", "mlu_morphemes", "word_errors"))

    def canonical(self) -> str:
        pairs = sorted((k, v) for k, v in self.__dict__.items())
        return "\n".join(f"{k}={v!r}" for k, v in pairs) + "\n"

    @property
    def config_hash(self) -> str:
        import hashlib  # only reports need it: ``extract`` never loads OpenSSL

        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


def parse_setting(name: str, text: str):
    """``text`` read as ``PipelineConfig`` field ``name`` declares: parsed,
    then range-checked.  A bad text raises ``ValueError`` whose message
    starts with the field's config key."""
    meta = PipelineConfig.__dataclass_fields__[name].metadata
    parse, check, key = meta["parse"], meta["check"], meta["key"]
    try:
        value = parse(text)
    except ValueError:
        raise ValueError(f"{key} must be {_KINDS[parse]}") from None
    if check is not None:
        check(**{key: value})
    return value


def load_config(path: str | Path) -> PipelineConfig:
    """The config of file ``path``; a key it leaves out keeps its field's
    default, and ``$LANGPROFILE_SEED``, when set, overrides the seed."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(read_text(path), source=os.fspath(path))
    except OSError:
        raise ConfigError(f"cannot read config file {path!r}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    settings = {}
    for f in fields(PipelineConfig):
        section, key = f.metadata["section"], f.metadata["key"]
        try:
            text = parser.get(section, key, fallback=None)
        except configparser.Error as exc:  # interpolation of % in the value
            raise ConfigError(f"{path}: [{section}] {key}: {exc}") from None
        text = text if text is None else text.strip()
        if f.name == "seed":
            text = os.environ.get(SEED_ENV_VAR, "").strip() or text
            if not text:
                raise ConfigError("a clustering seed is required ([clustering] seed "
                                  f"or ${SEED_ENV_VAR})")
        if text is None:
            if f.default is MISSING:
                raise ConfigError(f"missing required config key [{section}] {key}")
            continue
        try:
            settings[f.name] = parse_setting(f.name, text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}, got {text!r}") from None
    return PipelineConfig(**settings)


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


def _csv_text(header, lead, numbers: np.ndarray) -> str:
    """The CSV of ``header`` and, per row i, the text fields ``lead[i]``
    followed by the floats ``numbers[i]`` as ``f"{x:.10g}"`` writes them,
    with a NaN written as ``""``.

    ``csv`` quotes the text fields as it needs; the numbers never need it,
    so each row of them is formatted in one ``"%.10g"`` call. The only
    letters that writes are ``e``, ``inf`` and ``nan``, so ``nan`` in a row
    of numbers can only be a NaN cell."""
    lines: list[str] = []
    # csv writes each row with one write() call; the empty last field leaves
    # the row's line ending in the comma before its numbers
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(header)
    writer.writerows([*fields, ""] for fields in lead)
    fmt = ",".join(["%.10g"] * numbers.shape[1])
    return lines[0] + "".join(line[:-1] + (fmt % tuple(row)).replace("nan", "") + "\n"
                              for line, row in zip(lines[1:], numbers.tolist()))


def render_feature_csv(cohort: Cohort) -> str:
    return _csv_text(csv_header(), zip(
        cohort.matrix.row_ids, cohort.corpus, cohort.group,
        ["" if age is None else str(age) for age in cohort.age_months], cohort.sex),
        cohort.matrix.values)


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


def _row_cells(path, r: int, cells: list[str]) -> list[float]:
    """Row ``r``'s feature cells cell by cell: a blank cell is NaN, and a
    cell that is not a number raises ``NonNumericCell`` naming it."""
    vals = []
    for name, cell in zip(FEATURE_NAMES, cells):
        cell = cell.strip()
        if not cell:
            vals.append(float("nan"))
            continue
        try:
            vals.append(float(cell))
        except ValueError:
            raise NonNumericCell(
                f"{path}: row {r}, column {name!r}: {cell!r}") from None
    return vals


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
            if ages[-1] <= 0:
                raise DataError(f"{path}: row {r}, column 'age_months': "
                                f"non-positive age {row[3]!r}")
        else:
            ages.append(None)
        sex.append(row[4].strip().upper())
        try:
            # float() ignores the whitespace around a number itself
            rows.append(list(map(float, row[5:])))
        except ValueError:
            rows.append(_row_cells(path, r, row[5:]))
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
    read and compiled once on one mask cache and the rules scored for the
    whole cohort in one array pass, give the group statistics;
    each then gains its perplexities from ``ngram.GroupModels`` (the
    ``ngram`` module docstring describes that engine) and its z-scores.
    With ``loo``, a labelled transcript is scored against its own group's
    models without it.  A transcript's scoring error, DSS points that sum
    past the largest float among them, is raised in transcript order,
    before the next transcript's and before its own z-scores."""
    tables = scoring.compile_tables(
        scoring.load_table(config.dss_table, "categories") if config.dss_table else None,
        scoring.load_table(config.ipsyn_table, "structures") if config.ipsyn_table else None)
    syllable_counts: dict[str, int] = {}  # one per job: each distinct word counted once
    blocks = []
    for t, scores in zip(transcripts, scoring.score_cohort(transcripts, tables)):
        if scores.dss == math.inf:  # a custom table's points, summed past the largest float
            raise DataError(f"{config.dss_table}: the DSS points of transcript {t.id!r} "
                            "sum past the largest float")
        blocks.append(fx.base_features(t, config.count_fusions, scores, syllable_counts))
    groups = [t.group.value for t in transcripts]
    stats = fx.GroupStats.from_rows([values for values, _ in blocks], groups)
    lms = ngram.GroupModels(transcripts, config.smoothing_k, config.unk_threshold)

    values = np.empty((len(transcripts), len(FEATURE_NAMES)))
    for i, ((base, flags), ppl) in enumerate(zip(blocks, lms.outcomes(held_out=config.loo))):
        if not isinstance(ppl, dict):
            raise ppl
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


@contextmanager
def _stage(name: str):
    """Run the block as stage ``name``: an error that a documented input
    raises is reported as this stage's failure, and any other exception, a
    fault, propagates."""
    try:
        yield
    except (DataError, NumericError, OSError) as exc:
        raise PipelineError(name, exc) from exc


def _auto_eps(distances: np.ndarray, min_pts: int) -> float:
    """Median distance to the min_pts-th neighbour (a point is its own 0th),
    partitioned one row block at a time."""
    n = distances.shape[1]
    kth = min(min_pts, n - 1)
    # copy each block's column: a view would keep the whole block alive
    return float(np.median(np.concatenate(
        [np.partition(distances[rows], kth, axis=1)[:, kth].copy()
         for rows in clustering._blocks(distances.shape[0], n)])))


def _dbscan_eps(config: PipelineConfig, distances: np.ndarray) -> float:
    """The configured ``dbscan_eps``, or ``_auto_eps`` for ``auto``; an
    automatic eps of 0 raises ``DegenerateInput`` naming the key."""
    if config.dbscan_eps != "auto":
        return float(config.dbscan_eps)
    eps = _auto_eps(distances, config.dbscan_min_pts)
    if eps == 0.0:
        raise DegenerateInput(
            f"[clustering] dbscan_eps = auto gave 0.0 at dbscan_min_pts = "
            f"{config.dbscan_min_pts}: too many rows coincide in the clustering space; "
            f"set a positive dbscan_eps")
    return eps


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
    with _stage("load"):
        if config.input_mode == "csv":
            return ingest_feature_csv(config.input_path), []
        transcripts = load_transcripts(config.input_path)
    with _stage("extract"):
        return extract_cohort(transcripts, config), transcripts


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
    cohort = load_cohort(config)[0]  # the transcripts are not needed past extract
    n = cohort.matrix.n
    with _stage("load"):
        bad_k = [k for k in config.k_range if not 2 <= k <= n - 1]
        if bad_k:
            named = bad_k if len(bad_k) <= 10 else \
                f"({len(bad_k)} of them, from {min(bad_k)} to {max(bad_k)})"
            raise DataError(f"k_range values {named} outside [2, n-1] for n={n}")
        if config.dbscan_min_pts > n:
            # no row could have that many neighbours: DBSCAN would call every row noise
            raise DataError(f"[clustering] dbscan_min_pts {config.dbscan_min_pts} is "
                            f"above the row count n={n}")

    with _stage("impute"):
        imputed, n_imputed = numerics.impute_missing(cohort.matrix)
    with _stage("standardize"):
        standardized, dropped = numerics.standardize(imputed)
    with _stage("prune"):
        pruned = standardized.select(numerics.prune_correlated(standardized, config.prune_threshold))
        preprocessing = {
            "imputed_cells": n_imputed,
            "dropped_constant": list(dropped),
            "prune_threshold": config.prune_threshold,
            "pruned": sorted(set(standardized.col_names) - set(pruned.col_names)),
            "retained": list(pruned.col_names),
        }

    with _stage("pca"):
        model = numerics.pca_fit(pruned)
        scores = numerics.pca_project(model, pruned)
        ratios, cum = numerics.explained_variance(model.eigenvalues)
    space = scores[:, :config.pc_dims]

    with _stage("sweep"):
        distances = clustering._pairwise_distances(space)
        sweep = clustering.silhouette_sweep(space, distances, config.k_range,
                                            config.seed, config.n_init)
    chosen_k, _, km = max(sweep, key=lambda fit: fit[1])  # ties: first in k_range
    order = np.argsort(-km.centroids[:, 0], kind="stable")
    assignments = np.argsort(order)[km.assignments]  # the inverse permutation relabels
    centroids = km.centroids[order]

    with _stage("cross_check"):
        eps = _dbscan_eps(config, distances)
        db_labels = clustering.dbscan(distances, eps, config.dbscan_min_pts)
        # Ward, the last reader, squares the matrix in place; free it before
        # the later stages allocate
        ward_labels = clustering.ward_linkage(distances, chosen_k, overwrite=True)
        del distances
        non_noise = db_labels >= 0
        cross_checks = {
            "ward_ari": clustering.ari(assignments, ward_labels),
            "ward_ami": clustering.ami(assignments, ward_labels),
            "dbscan_eps": eps,
            "dbscan_min_pts": config.dbscan_min_pts,
            "dbscan_clusters": int(db_labels.max() + 1),
            "dbscan_noise": int((~non_noise).sum()),
            "dbscan_ari_non_noise": clustering.ari(assignments[non_noise], db_labels[non_noise])
            if non_noise.sum() > 1 else 0.0,
        }
        agreement = _plane_agreement(scores, chosen_k, config.seed, config.n_init) \
            if scores.shape[1] >= 3 else []

    outcomes = cohort.outcomes
    with _stage("boundary"):
        boundary = clustering.boundary_cases(space, centroids, outcomes,
                                             config.boundary_percentile)
    with _stage("outliers"):
        outliers = clustering.detect_outliers(space, centroids)
    with _stage("profiles"):
        clusters = [
            {"cluster": p.cluster, "size": p.size,
             **{f"pc{j + 1}_mean": p.pc_means[j] for j in range(len(p.pc_means))},
             "y_ratio": p.outcome_ratio}
            for p in clustering.cluster_profiles(assignments, scores, outcomes)
        ]
    with _stage("effects"):
        effects = [
            {"feature": e.feature, "cluster0_mean": e.mean0, "cluster1_mean": e.mean1,
             "p_value": e.p_value, "cohens_d": e.cohens_d}
            for e in clustering.compare_features(imputed.values, imputed.col_names,
                                                 assignments, config.effect_features)
        ]

    # ---- assemble reports ----
    meta = {"schema_version": SCHEMA_VERSION, "config_hash": config.config_hash,
            "seed": config.seed}

    pca_report = {
        **meta,
        "n_rows": n,
        "preprocessing": preprocessing,
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

    # the row with the smallest delta is always flagged
    boundary_pcs = {f"pc{j + 1}_{stat}": row[stat] for j, row in enumerate(
        numerics.component_stats(scores[list(boundary.indices)], n_components=3))
        for stat in ("mean", "sd")}

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
        "clusters": clusters,
        "effects": effects,
        "agreement": agreement,
        "cross_checks": cross_checks,
    }

    # ---- plot CSVs ----
    n_plot = min(3, scores.shape[1])
    files = {
        "feature_matrix.csv": render_feature_csv(cohort),
        "pca_report.json": dumps_report(pca_report),
        "cluster_report.json": dumps_report(cluster_report),
        "boundary_report.json": dumps_report(boundary_report),
        # cluster labels and 0/1 flags are small integers, which "%.10g" writes as such
        "pc_scores.csv": _csv_text(
            ["id", *[f"pc{j + 1}" for j in range(n_plot)], "cluster", "boundary", "outlier"],
            ([row_id] for row_id in cohort.matrix.row_ids),
            np.column_stack([scores[:, :n_plot], assignments,
                             np.isin(np.arange(n), boundary.indices),
                             np.isin(np.arange(n), outliers)])),
        "silhouette_sweep.csv": _csv_text(["k", "silhouette"], ([k] for k, _, _ in sweep),
                                          np.array([[s] for _, s, _ in sweep])),
    }

    out_dir = Path(config.output_dir)
    with _stage("write"):
        out_dir.mkdir(parents=True, exist_ok=True)
        write_files({out_dir / name: text for name, text in files.items()})

    return ReportBundle(out_dir, files, pca_report, cluster_report, boundary_report)
