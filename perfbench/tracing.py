"""Outside-in tracing of langprofile's public functions.

The tracer replaces functions by module attribute and restores them on
``uninstall``; nothing under ``src/`` is edited. Module globals are
looked up at call time, so a wrapped ``clustering.kmeans`` also sees the
calls ``silhouette_sweep`` makes, and a wrapped ``fx.production_counts``
sees the one ``flesch_kincaid`` makes.

Spans (name, start, end, parent) are kept in memory; a span's self time
is its duration minus that of its direct child spans. Work counts are
computed from call arguments.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from collections import Counter

# (metric prefix, module, functions wrapped in spans)
SPAN_TARGETS = (
    ("chat", "langprofile.chat", ("parse_chat",)),
    ("features", "langprofile.features.extract",
     ("extract_all", "production_counts", "utterance_measures", "lexical_measures",
      "morpheme_markers", "pos_patterns", "fluency_and_errors", "flesch_kincaid",
      "zscore_features")),
    ("features.scoring", "langprofile.features.scoring", ("dss_score", "ipsyn_total")),
    ("ngram", "langprofile.ngram", ("train", "perplexity")),
    ("numerics", "langprofile.numerics",
     ("impute_missing", "standardize", "prune_correlated", "eig_sym", "pca_fit",
      "pca_project")),
    ("clustering", "langprofile.clustering",
     ("kmeans", "silhouette_sweep", "ward_linkage", "dbscan", "ami", "boundary_cases",
      "detect_outliers")),
    ("pipeline", "langprofile.pipeline",
     ("ingest_feature_csv", "load_transcripts", "extract_cohort", "render_feature_csv",
      "dumps_report", "run_pipeline")),
    ("cli", "langprofile.cli", ("main",)),
)

# (counter, module, function) wrapped without a span
COUNT_TARGETS = (
    ("features.scoring.table_loads", "langprofile.features.scoring", "default_dss_table"),
    ("features.scoring.table_loads", "langprofile.features.scoring", "default_ipsyn_table"),
    ("clustering.dense_nxn_bytes", "langprofile.clustering", "_pairwise_distances"),
)

# counters on calls so frequent that the wrapper alone would inflate the
# callers' self time (about a microsecond per call): counted in a job of
# their own, without spans
HOT_COUNT_TARGETS = (
    ("features.scoring.pos_matches.calls", "langprofile.features.scoring", "pos_matches"),
)

CALL_COUNTS = ("chat.parse_chat", "ngram.train", "ngram.perplexity", "clustering.kmeans")

# work counts computed from call arguments or counted without a span
WORK_COUNTS = (
    ("clustering.kmeans.restarts", "count"),
    ("clustering.kmeans.duplicate_fits", "count"),
    ("clustering.dense_nxn_bytes", "bytes"),
    ("features.scoring.table_loads", "count"),
    ("features.scoring.pos_matches.calls", "count"),
)


def _points_digest(points) -> str:
    import numpy as np
    X = np.ascontiguousarray(points, dtype=float)
    return hashlib.sha1(repr(X.shape).encode() + X.tobytes()).hexdigest()


class Tracer:
    """Records spans and work counts for the calls of one or more jobs."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.absent: list[str] = []    # targets the library no longer has
        self._stack: list[int] = []
        self._fits: set = set()
        self._saved: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return wrapper

    def _count(self, key: str, fn, amount=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1 if amount is None else amount(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def _on_kmeans(self, signature):
        def on_call(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            self.counts["clustering.kmeans.restarts"] += int(a["n_init"])
            key = (_points_digest(a["points"]), a["k"], a["seed"], a["n_init"])
            if key in self._fits:
                self.counts["clustering.kmeans.duplicate_fits"] += 1
            self._fits.add(key)
        return on_call

    @staticmethod
    def _nxn_bytes(args, kwargs):
        X = args[0] if args else next(iter(kwargs.values()))
        return 8 * int(X.shape[0]) ** 2

    # -- install / uninstall ---------------------------------------------------

    def _replace(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self, spans=SPAN_TARGETS, counters=COUNT_TARGETS) -> None:
        for prefix, module_name, names in spans:
            module = importlib.import_module(module_name)
            for attr in names:
                name = f"{prefix}.{attr}"
                hook = None
                if name == "clustering.kmeans" and hasattr(module, attr):
                    hook = self._on_kmeans(inspect.signature(getattr(module, attr)))
                self._replace(module, attr,
                              lambda fn, name=name, hook=hook: self._span(name, fn, hook))
        for key, module_name, attr in counters:
            module = importlib.import_module(module_name)
            amount = self._nxn_bytes if key == "clustering.dense_nxn_bytes" else None
            self._replace(module, attr,
                          lambda fn, key=key, amount=amount: self._count(key, fn, amount))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        """Start a new job: drop spans, counts and the fit history (in place,
        because the installed wrappers hold these containers)."""
        self.spans.clear()
        self.counts.clear()
        self._fits.clear()

    # -- summaries --------------------------------------------------------------

    def job_summary(self) -> dict[str, float]:
        """Self seconds per span name plus the work counts of one job."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        calls: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - inner)
            calls[name] += 1
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = float(calls[name])
        for key, _ in WORK_COUNTS:
            out[key] = float(self.counts[key])
        transcripts = calls["chat.parse_chat"]
        out["features.utterance_measures.calls_per_transcript"] = \
            calls["features.utterance_measures"] / transcripts if transcripts else 0.0
        return out

    def span_rows(self, job: int) -> list[list]:
        return [[job, name, round(start, 7), round(end, 7), parent]
                for name, start, end, parent in self.spans]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, with its unit."""
    names = [(f"{prefix}.{attr}.self_s", "s")
             for prefix, _, attrs in SPAN_TARGETS for attr in attrs]
    names += [(f"{name}.calls", "count") for name in CALL_COUNTS]
    return names + list(WORK_COUNTS) + [
        ("features.utterance_measures.calls_per_transcript", "ratio"),
        ("trace.overhead_frac", "frac")]
