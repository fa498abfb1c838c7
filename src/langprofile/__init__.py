"""Language-sample analysis toolkit: CHAT transcript parsing, a 64-feature
extraction schema, n-gram perplexity models, from-scratch PCA, and cluster
profiling with boundary-case detection."""

from .chat import (
    AnnotationEvents,
    Group,
    MorToken,
    Speaker,
    Terminator,
    Transcript,
    Utterance,
    parse_chat,
    render_chat,
    strip_annotations,
)
from .clustering import (
    BoundaryReport,
    ClusterProfile,
    ClusterResult,
    EffectStats,
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
from .features.extract import FeatureVector, GroupStats
from .features.schema import FEATURE_NAMES, METADATA_COLUMNS
from .ngram import NGramModel, load_model, perplexity, perplexity_features, save_model, train
from .numerics import (
    FeatureMatrix,
    PcaModel,
    eig_sym,
    elbow_count,
    explained_variance,
    impute_missing,
    kaiser_count,
    pca_fit,
    pca_project,
    prune_correlated,
    standardize,
)
from .pipeline import PipelineConfig, ReportBundle, ingest_feature_csv, load_config, run_pipeline

__version__ = "0.1.0"
