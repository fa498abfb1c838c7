"""Earlier implementations kept as references for the current code.

* ``permutation_mapping_accuracy`` is the exhaustive label-permutation
  search that ``clustering.best_mapping_accuracy`` replaced with a
  Hungarian assignment (feasible up to about 8 labels).
* ``two_pass_extract_cohort`` is the extraction that computed the base
  features once for the group statistics and again inside every full
  vector, re-read the packaged scoring tables for every transcript, and
  counted Flesch-Kincaid words, sentences and syllables a second time.
* ``loop_silhouette_from_distances`` is the per-point silhouette loop
  that ``clustering._silhouette_from_distances`` replaced with array
  operations.
* ``pos_matches`` is the segment-aware POS prefix test that every POS
  check called once per tag and class, before ``MorToken.pos_classes``
  decided each tag's classes once.
* ``retrain_loo_models`` retrains each held-out group's three language
  models from scratch, one retrain per member, before ``leave_one_out``
  built them by subtracting counts.
* ``slice_train`` walks the group's text once per order and cuts each
  window as a slice, before ``ngram.train`` and ``ngram.GroupModels``
  counted orders 1-3 from one mapping of each sentence.
* ``copy_leave_one_out`` is that ``leave_one_out``: it copies the group's
  count tables once per member and subtracts the member's n-grams, before
  ``ngram.GroupModels`` scored each member against a view of the full
  counts.
* ``sorted_auto_eps`` builds its own distance matrix and sorts every row,
  before ``pipeline._auto_eps`` took the shared matrix and partitioned a
  copy.
* ``serial_kmeans`` runs each k-means restart's Lloyd loop (``lloyd``) on
  its own, one restart after another, before ``clustering.kmeans`` ran a
  block of restarts as one batch.
* ``plus_plus_init`` seeds one k-means restart, drawing each centre with
  ``Generator.choice``, before ``clustering._batch_init`` seeded a block
  of restarts together; ``lloyd`` seeds with it.
* ``argmin_ward`` finds each Ward merge with a flat ``argmin`` over the
  whole matrix, O(n^3) in all, before ``clustering.ward_linkage`` read it
  from cached row minima.
* ``per_element_feature_csv`` formats each ``np.float64`` of the feature
  matrix on its own, before ``pipeline.render_feature_csv`` formatted
  each row's Python floats.
* ``loop_perplexity`` maps, pads and cuts the windows in its own loop,
  and reads the transcript's child sentences on every call, before
  ``ngram.perplexity`` and ``ngram.perplexity_features`` scored windows
  from one read of the sentences.
* ``loop_dss_score``, ``loop_ipsyn_total`` and ``loop_sequence_count``
  interpret a scoring table rule by rule, testing every token against
  every predicate, before ``scoring.dss_score`` and
  ``scoring.ipsyn_total`` tested bits of each distinct token's mask;
  ``is_scorable`` tests each token for a verbal class, before DSS read a
  bit of the utterance's masks.
* ``utterance_measures``, ``lexical_measures``, ``morpheme_markers`` and
  ``pos_patterns`` walk each transcript's child tokens once each, testing
  every token against every count by hand and calling ``syllables`` once
  per word, before ``extract.base_features`` read the 27 counts of
  ``data/counts_table.json`` from the mask engine through
  ``scoring.rule_counts`` and counted each distinct word's syllables
  once per job.
* ``scope_strip_annotations`` walks the scope stack for every tier,
  before ``chat.strip_annotations`` returned a tier without annotations
  as it is.
"""

import csv
import io
import itertools
import math
from collections import Counter

import numpy as np

from langprofile import clustering, ngram
from langprofile.chat import (RETRACE, REPEAT, WORD_ERROR, AnnotationEvents, MorToken,
                              Terminator, Transcript, Utterance)
from langprofile.errors import (DanglingMarker, DegenerateInput, EmptyCorpus, EmptyTranscript,
                                NoScorableUtterances, SingleCluster, UnbalancedScope,
                                ZeroProbability)
from langprofile.features import extract as fx
from langprofile.features import scoring
from langprofile.features.schema import FEATURE_NAMES, csv_header
from langprofile.numerics import FeatureMatrix
from langprofile.pipeline import Cohort, _format_number


def permutation_mapping_accuracy(a, b) -> float:
    """Classification accuracy maximized over label permutations."""
    _, ia = np.unique(np.asarray(a), return_inverse=True)
    _, ib = np.unique(np.asarray(b), return_inverse=True)
    k = max(ia.max(), ib.max()) + 1
    best = 0.0
    for perm in itertools.permutations(range(k)):
        table = np.array(perm)
        best = max(best, float(np.mean(ia == table[ib])))
    return best


def pos_matches(pos_tag: str, prefix: str) -> bool:
    return pos_tag == prefix or pos_tag.startswith(prefix + ":")


def loop_silhouette_from_distances(D: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette from a distance matrix, one point at a time."""
    labels = np.unique(assignments)
    if labels.size < 2:
        raise SingleCluster("silhouette needs at least 2 clusters")
    n = D.shape[0]
    sums = np.stack([D[:, assignments == lab].sum(axis=1) for lab in labels], axis=1)
    sizes = np.array([(assignments == lab).sum() for lab in labels])
    total = 0.0
    for i in range(n):
        own = int(np.flatnonzero(labels == assignments[i])[0])
        if sizes[own] == 1:
            continue  # singleton convention: s = 0
        a = sums[i, own] / (sizes[own] - 1)
        b = min(sums[i, lab] / sizes[lab] for lab in range(len(labels)) if lab != own)
        denom = max(a, b)
        if denom > 0.0:
            total += (b - a) / denom
    return total / n


def sorted_auto_eps(points, min_pts: int) -> float:
    D = clustering._pairwise_distances(np.asarray(points, dtype=float))
    D.sort(axis=1)
    kth = D[:, min(min_pts, D.shape[1] - 1)]
    return float(np.median(kth))


def plus_plus_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding for one restart, each centre drawn by ``rng.choice``."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = np.sum((X - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            probs = d2 / total
        else:
            probs = np.full(n, 1.0 / n)
        centroids[j] = X[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((X - centroids[j]) ** 2, axis=1))
    return centroids


def lloyd(X: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 300,
          history: list | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """One k-means++ seeding and Lloyd run; ``history`` collects the
    inertia after each reassignment."""
    centroids = plus_plus_init(X, k, rng)
    assign, d2 = clustering._assign(X, centroids)
    for _ in range(max_iter):
        # recompute centroids; repair empties by reseeding to farthest points
        own = d2[np.arange(len(X)), assign]
        used: set[int] = set()
        for j in range(k):
            members = assign == j
            if members.any():
                centroids[j] = X[members].mean(axis=0)
            else:
                order = np.argsort(-own, kind="stable")
                pick = next(int(i) for i in order if int(i) not in used)
                used.add(pick)
                centroids[j] = X[pick]
        new_assign, d2 = clustering._assign(X, centroids)
        if history is not None:
            history.append(float(d2[np.arange(len(X)), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
    inertia = float(d2[np.arange(len(X)), assign].sum())
    return assign, centroids, inertia


def serial_kmeans(points, k: int, seed: int, n_init: int = 32,
                  max_iter: int = 300) -> clustering.ClusterResult:
    """Best-of-``n_init`` k-means++ / Lloyd runs, one restart at a time."""
    X = clustering._as_points(points)
    best = None
    for child in np.random.SeedSequence(seed).spawn(n_init):
        run = lloyd(X, k, np.random.default_rng(child), max_iter)
        if best is None or run[2] < best[2]:
            best = run
    assign, centroids, inertia = best
    return clustering.ClusterResult(k, assign, centroids, inertia, seed, n_init)


def retrain_loo_models(members, smoothing_k: float = 1.0, unk_threshold: int = 1,
                       pad: bool = True):
    """Yield, in member order, the ``{1, 2, 3}`` models retrained on all
    the other members; a member whose removal leaves no child tokens
    raises ``EmptyCorpus``."""
    for t in members:
        rest = [x for x in members if x is not t]
        if not ngram._child_sentences(rest):
            raise EmptyCorpus("no child tokens to train on")
        yield {o: slice_train(rest, o, smoothing_k, unk_threshold, pad)
               for o in (1, 2, 3)}


def slice_ngrams(sent, vocab, order: int, pad: bool) -> list[tuple[str, ...]]:
    mapped = [tok if tok in vocab else ngram.UNK for tok in sent]
    if pad:
        mapped = [ngram.BOS] * (order - 1) + mapped + [ngram.EOS]
    return [tuple(mapped[i:i + order]) for i in range(len(mapped) - order + 1)]


def _count(counts: dict, context_totals: dict, grams, delta: int) -> None:
    for gram in grams:
        counts[gram] = counts.get(gram, 0) + delta
        context_totals[gram[:-1]] = context_totals.get(gram[:-1], 0) + delta


def slice_train(transcripts, order: int, smoothing_k: float = 1.0,
                unk_threshold: int = 1, pad: bool = True) -> ngram.NGramModel:
    sents = ngram._child_sentences(transcripts)
    freq = Counter(tok for s in sents for tok in s)
    vocab = frozenset([tok for tok, c in freq.items() if c >= unk_threshold]
                      + ([ngram.UNK, ngram.EOS] if pad else [ngram.UNK]))
    counts: dict[tuple[str, ...], int] = {}
    context_totals: dict[tuple[str, ...], int] = {}
    for s in sents:
        _count(counts, context_totals, slice_ngrams(s, vocab, order, pad), 1)
    return ngram.NGramModel(order, float(smoothing_k), int(unk_threshold), bool(pad),
                            counts, context_totals, vocab)


def copy_leave_one_out(members, full: dict[int, ngram.NGramModel]):
    """Yield, in member order, each member's ``{1, 2, 3}`` models trained
    on all the other members, given ``full``, the models trained on all
    of them: copies of the full count tables less the member's own
    n-grams, with the other members' sentences that hold a newly rare
    type moved from the full vocab's mapping to the held-out one.  A
    member whose removal leaves no child tokens raises ``EmptyCorpus``."""
    unk_threshold, pad, vocab = full[1].unk_threshold, full[1].pad, full[1].vocab
    sents = [ngram._child_sentences([t]) for t in members]
    own_freq = [Counter(tok for s in member for tok in s) for member in sents]
    group_freq: Counter = Counter()
    holders: dict[str, list[int]] = {}
    for i, freq in enumerate(own_freq):
        group_freq.update(freq)
        for tok in freq:
            holders.setdefault(tok, []).append(i)
    n_sents = sum(map(len, sents))

    for i, own in enumerate(sents):
        if n_sents == len(own):
            raise EmptyCorpus("no child tokens to train on")
        rest_freq = {tok: group_freq[tok] - c for tok, c in own_freq[i].items()}
        dropped = {tok for tok, c in rest_freq.items() if c < unk_threshold}
        rest_vocab = vocab - dropped
        newly_rare = {tok for tok in dropped & vocab if rest_freq[tok] > 0}
        remapped = [s for j in sorted({j for tok in newly_rare for j in holders[tok]})
                    if j != i for s in sents[j] if not newly_rare.isdisjoint(s)]

        models = {}
        for order in (1, 2, 3):
            removed = [gram for s in own + remapped
                       for gram in slice_ngrams(s, vocab, order, pad)]
            counts = dict(full[order].counts)
            context_totals = dict(full[order].context_totals)
            _count(counts, context_totals, removed, -1)
            added = [gram for s in remapped for gram in slice_ngrams(s, rest_vocab, order, pad)]
            _count(counts, context_totals, added, 1)
            for gram in removed:  # a retrain holds no zero counts
                if counts.get(gram) == 0:
                    del counts[gram]
                if context_totals.get(gram[:-1]) == 0:
                    del context_totals[gram[:-1]]
            models[order] = ngram.NGramModel(order, full[order].smoothing_k, unk_threshold,
                                             pad, counts, context_totals, rest_vocab)
        yield models


def loop_perplexity(model: ngram.NGramModel, t) -> float:
    """exp of mean negative log probability per scored position."""
    sents = ngram._child_sentences([t])
    if not sents:
        raise EmptyTranscript(f"transcript {t.id!r} has no child tokens")
    log_sum = 0.0
    n = 0
    for s in sents:
        mapped = [tok if tok in model.vocab else ngram.UNK for tok in s]
        if model.pad:
            mapped = [ngram.BOS] * (model.order - 1) + mapped + [ngram.EOS]
        # every window predicts its final symbol; <s> fills context only
        for i in range(len(mapped) - model.order + 1):
            gram = tuple(mapped[i:i + model.order])
            p = model.prob(gram)
            if p <= 0.0:
                raise ZeroProbability(f"zero probability for {gram} (k=0 and unseen)")
            log_sum += math.log(p)
            n += 1
    if n == 0:
        raise EmptyTranscript(f"transcript {t.id!r} has no scorable positions")
    return math.exp(-log_sum / n)


def loop_perplexity_features(t, sli_models, td_models) -> dict[str, float]:
    """The six perplexity features, one ``loop_perplexity`` call each."""
    return {f"{prefix}_{order}g_ppl": loop_perplexity(models[order], t)
            for prefix, models in (("s", sli_models), ("d", td_models))
            for order in (1, 2, 3)}


def _extract_all(t, stats, lms, count_fusions=False, dss_table=None,
                 ipsyn_table=None) -> fx.FeatureVector:
    flags: set[str] = set()
    values: dict[str, float] = {}

    values.update(fx.production_counts(t))
    um, f = utterance_measures(t, count_fusions=count_fusions)
    values.update(um)
    flags |= f
    lex, f = lexical_measures(t)
    values.update(lex)
    flags |= f
    markers, f = morpheme_markers(t)
    values.update(markers)
    flags |= f
    values.update(pos_patterns(t))
    values.update(fx.fluency_and_errors(t))
    values["f_k"] = fx.flesch_kincaid(t)

    try:
        values["dss"] = scoring.dss_score(t, dss_table)
    except NoScorableUtterances:
        values["dss"] = 0.0
        flags.add("dss")
    try:
        values["ipsyn_total"] = scoring.ipsyn_total(t, ipsyn_table)
    except NoScorableUtterances:
        values["ipsyn_total"] = 0.0
        flags.add("ipsyn_total")

    values.update(loop_perplexity_features(t, lms["SLI"], lms["TD"]))
    values.update(fx.zscore_features(values, stats))

    return fx.FeatureVector(values=values, flags=frozenset(flags))


def two_pass_extract_cohort(transcripts, config) -> Cohort:
    """Two-pass extraction: base features feed group statistics and the
    language models, then every transcript gets its full vector."""
    dss_table = scoring.load_table(config.dss_table, "categories") \
        if config.dss_table else None
    ipsyn_table = scoring.load_table(config.ipsyn_table, "structures") \
        if config.ipsyn_table else None
    base_rows = []
    for t in transcripts:
        row: dict[str, float] = {}
        row.update(fx.production_counts(t))
        measures, _ = utterance_measures(t, config.count_fusions)
        row.update(measures)
        lex, _ = lexical_measures(t)
        row.update(lex)
        row.update(fx.fluency_and_errors(t))
        base_rows.append(row)
    groups = [t.group.value for t in transcripts]
    stats = fx.GroupStats.from_rows(base_rows, groups)
    full_models = ngram.train_group_models(transcripts, config.smoothing_k,
                                           config.unk_threshold)

    held_out = {label: retrain_loo_models([t for t in transcripts
                                           if t.group.value == label],
                                          config.smoothing_k, config.unk_threshold)
                for label in ("SLI", "TD")} if config.loo else {}

    values = np.empty((len(transcripts), len(FEATURE_NAMES)))
    for i, t in enumerate(transcripts):
        models = full_models
        if t.group.value in held_out:
            models = {**full_models, t.group.value: next(held_out[t.group.value])}
        vec = _extract_all(t, stats, models, config.count_fusions,
                           dss_table, ipsyn_table)
        values[i] = [vec.values[name] for name in FEATURE_NAMES]

    matrix = FeatureMatrix(values, FEATURE_NAMES, tuple(t.id for t in transcripts))
    return Cohort(
        matrix,
        tuple(t.corpus for t in transcripts),
        tuple(t.group.value for t in transcripts),
        tuple(t.age_months for t in transcripts),
        tuple(t.sex or "" for t in transcripts),
    )


def argmin_ward(distances, k: int) -> np.ndarray:
    """Ward clustering cut at k clusters, each merge pair the first
    minimum of a flat ``argmin`` over the whole matrix."""
    D = clustering._as_distances(distances) ** 2
    n = D.shape[0]
    if k < 1 or n < k:
        raise DegenerateInput(f"need n >= k >= 1, got n={n} k={k}")
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    members = [[i] for i in range(n)]
    for _ in range(n - k):
        # inactive rows/cols hold inf, so a plain argmin finds the merge pair
        i, j = divmod(int(np.argmin(D)), n)
        if i > j:
            i, j = j, i
        ni, nj, dij = sizes[i], sizes[j], D[i, j]
        others = np.flatnonzero(active)
        others = others[(others != i) & (others != j)]
        if others.size:
            nl = sizes[others]
            upd = ((ni + nl) * D[i, others] + (nj + nl) * D[j, others]
                   - nl * dij) / (ni + nj + nl)
            D[i, others] = upd
            D[others, i] = upd
        active[j] = False
        D[j, :] = np.inf
        D[:, j] = np.inf
        sizes[i] = ni + nj
        members[i] = members[i] + members[j]
        members[j] = None
    labels = np.empty(n, dtype=int)
    next_label = 0
    for i in range(n):
        if active[i]:
            labels[np.array(members[i])] = next_label
            next_label += 1
    return labels


def per_element_feature_csv(cohort: Cohort) -> str:
    """The feature CSV with every matrix value formatted as an ``np.float64``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(csv_header())
    for i, row_id in enumerate(cohort.matrix.row_ids):
        age = cohort.age_months[i]
        meta = [row_id, cohort.corpus[i], cohort.group[i],
                "" if age is None else str(age), cohort.sex[i]]
        writer.writerow(meta + [_format_number(v) for v in cohort.matrix.values[i]])
    return buf.getvalue()


def _matches_at(u, i: int, pred: dict) -> bool:
    """Whether the i-th mor token of ``u``, with its aligned surface word
    (``""`` past the end of the words), matches ``pred``."""
    surface = u.clean_tokens[i] if i < len(u.clean_tokens) else ""
    return scoring._token_matches(u.mor_tokens[i], pred, "'" in surface)


def loop_sequence_count(u, preds: list[dict]) -> int:
    toks = u.mor_tokens or ()
    span = len(preds)
    hits = 0
    for i in range(len(toks) - span + 1):
        if all(_matches_at(u, i + j, preds[j]) for j in range(span)):
            hits += 1
    return hits


def loop_dss_score(t, table: dict | None = None) -> float:
    """Mean per-utterance DSS score over scorable child utterances."""
    if table is None:
        table = scoring.default_dss_table()
    scorable = [u for u in t.child_utterances() if is_scorable(u)]
    if not scorable:
        raise NoScorableUtterances("no child utterance with a verbal mor element")
    total = 0.0
    for u in scorable:
        score = 0
        for category in table["categories"]:
            best = 0
            for rule in category["rules"]:
                if "structural" in rule:
                    hit = scoring._structural_matches(u, rule["structural"])
                elif "sequence" in rule:
                    hit = loop_sequence_count(u, rule["sequence"]) > 0
                else:
                    hit = any(_matches_at(u, i, rule) for i in range(len(u.mor_tokens)))
                if hit and rule["points"] > best:
                    best = rule["points"]
            score += best
        if table.get("sentence_point") and u.events.word_errors == 0 \
                and not u.postcodes and u.terminator is not Terminator.TRAIL_OFF:
            score += 1
        total += score
    return total / len(scorable)


def loop_ipsyn_total(t, table: dict | None = None) -> float:
    """IPSyn checklist score: occurrences per structure capped at ``cap``."""
    if table is None:
        table = scoring.default_ipsyn_table()
    utts = [u for u in t.child_utterances() if u.mor_tokens]
    if not utts:
        raise NoScorableUtterances("no child utterance carries a mor tier")
    cap = int(table.get("cap", 2))
    total = 0
    for struct in table["structures"]:
        occurrences = 0
        for u in utts:
            if "structural" in struct:
                occurrences += 1 if scoring._structural_matches(u, struct["structural"]) else 0
            elif "sequence" in struct:
                occurrences += loop_sequence_count(u, struct["sequence"])
            else:
                occurrences += sum(1 for i in range(len(u.mor_tokens))
                                   if _matches_at(u, i, struct["token"]))
        total += min(cap, occurrences)
    return float(total)


def is_scorable(u) -> bool:
    """A DSS-scorable utterance: a non-empty mor tier with a verbal token."""
    if not u.mor_tokens:
        return False
    return any(not t.pos_classes.isdisjoint(scoring._VERBAL_POS) for t in u.mor_tokens)


# -- the per-token walks behind the 27 counts of data/counts_table.json ----------

def _is_third_singular(tok: MorToken) -> bool:
    return "3S" in tok.suffixes or "3S" in tok.fusions


def _is_inflected(tok: MorToken) -> bool:
    return bool(tok.suffixes or tok.fusions)


def _child_mor_utterances(t: Transcript) -> list[Utterance]:
    return [u for u in t.child_utterances() if u.mor_tokens is not None]


def utterance_measures(t: Transcript, count_fusions: bool = False
                       ) -> tuple[dict[str, float], set[str]]:
    kids = t.child_utterances()
    if not kids:
        raise EmptyTranscript(f"transcript {t.id!r} has no child utterances")
    flags: set[str] = set()
    tnw = sum(len(u.clean_tokens) for u in kids)
    mlu_words = tnw / len(kids)

    first = kids[:100]
    mlu100 = sum(len(u.clean_tokens) for u in first) / len(first)

    mor_utts = _child_mor_utterances(t)
    total_morphemes = sum(tok.morphemes(count_fusions)
                          for u in mor_utts for tok in u.mor_tokens)
    if mor_utts:
        mlu_morphemes = total_morphemes / len(mor_utts)
    else:
        mlu_morphemes = mlu_words
        flags.update(("mlu_morphemes", "total_morphemes"))

    verb_utt = sum(1 for u in mor_utts
                   if any("v" in tok.pos_classes or "aux" in tok.pos_classes
                          for tok in u.mor_tokens))
    total_syl = sum(fx.syllables(w) for u in kids for w in u.clean_tokens)
    average_syl = total_syl / tnw if tnw else 0.0
    if tnw == 0:
        flags.add("average_syl")
    return {
        "mlu_words": mlu_words,
        "mlu_morphemes": mlu_morphemes,
        "mlu100_utts": mlu100,
        "verb_utt": float(verb_utt),
        "total_syl": float(total_syl),
        "average_syl": average_syl,
        "total_morphemes": float(total_morphemes),
    }, flags


def lexical_measures(t: Transcript) -> tuple[dict[str, float], set[str]]:
    kids = t.child_utterances()
    tokens = [w.lower() for u in kids for w in u.clean_tokens]
    if not tokens:
        raise EmptyTranscript(f"transcript {t.id!r} has no child tokens")
    flags: set[str] = set()
    types = len(set(tokens))

    mor_toks = [tok for u in _child_mor_utterances(t) for tok in u.mor_tokens]
    verbs = [tok for tok in mor_toks if "v" in tok.pos_classes]
    raw = sum(1 for tok in verbs if not _is_inflected(tok))
    inflected = sum(1 for tok in verbs if _is_inflected(tok))
    if inflected == 0:
        flags.add("r_2_i_verbs")
    r_2_i = raw / max(1, inflected)

    return {
        "freq_ttr": types / len(tokens),
        "word_types": float(types),
        "r_2_i_verbs": r_2_i,
        "mor_words": float(len(mor_toks)),
        "num_pos_tags": float(len({tok.pos_tag for tok in mor_toks})),
        "verb_tokens": float(len(verbs)),
        "noun_tokens": float(sum(1 for tok in mor_toks if "n" in tok.pos_classes)),
        "pro_tokens": float(sum(1 for tok in mor_toks if "pro" in tok.pos_classes)),
    }, flags


MARKER_NAMES = (
    "present_progressive", "propositions_in", "propositions_on", "plural_s",
    "irregular_past_tense", "possessive_s", "uncontractible_copula", "articles",
    "regular_past_ed", "regular_3rd_person_s", "irregular_3rd_person",
    "uncontractible_aux", "contractible_copula", "contractible_aux",
)


def morpheme_markers(t: Transcript) -> tuple[dict[str, float], set[str]]:
    """The 14 grammatical-morpheme counts over child mor tiers.

    Contractibility is read off the aligned surface token: a copula or
    auxiliary whose surface form carries an apostrophe counts as
    contracted.
    """
    counts = dict.fromkeys(MARKER_NAMES, 0)
    mor_utts = _child_mor_utterances(t)
    if not mor_utts and t.child_utterances():
        return {k: 0.0 for k in counts}, set(MARKER_NAMES)
    for u in mor_utts:
        for i, tok in enumerate(u.mor_tokens):
            surface = u.clean_tokens[i] if i < len(u.clean_tokens) else ""
            contracted = "'" in surface
            if "PROG" in tok.suffixes or "ING" in tok.suffixes:
                counts["present_progressive"] += 1
            if "prep" in tok.pos_classes:
                if tok.lemma.lower() == "in":
                    counts["propositions_in"] += 1
                elif tok.lemma.lower() == "on":
                    counts["propositions_on"] += 1
            if "n" in tok.pos_classes and "PL" in tok.suffixes:
                counts["plural_s"] += 1
            if "v" in tok.pos_classes and "PAST" in tok.fusions:
                counts["irregular_past_tense"] += 1
            if "POSS" in tok.suffixes:
                counts["possessive_s"] += 1
            if "det:art" in tok.pos_classes:
                counts["articles"] += 1
            if "v" in tok.pos_classes and "PAST" in tok.suffixes:
                counts["regular_past_ed"] += 1
            if "v" in tok.pos_classes and "3S" in tok.suffixes:
                counts["regular_3rd_person_s"] += 1
            if "v" in tok.pos_classes and "3S" in tok.fusions:
                counts["irregular_3rd_person"] += 1
            if "cop" in tok.pos_classes:
                counts["contractible_copula" if contracted else "uncontractible_copula"] += 1
            if "aux" in tok.pos_classes:
                counts["contractible_aux" if contracted else "uncontractible_aux"] += 1
    return {k: float(v) for k, v in counts.items()}, set()


PATTERN_NAMES = ("n_v", "n_aux", "n_3s_v", "det_n_pl", "det_pl_n",
                 "pro_aux", "pro_3s_v", "n_dos")


def pos_patterns(t: Transcript) -> dict[str, float]:
    """Adjacent POS-pattern counts over child mor tiers."""
    counts = dict.fromkeys(PATTERN_NAMES, 0)
    for u in _child_mor_utterances(t):
        toks = u.mor_tokens
        for tok in toks:
            if "aux" in tok.pos_classes and tok.lemma.lower() == "do":
                counts["n_dos"] += 1
        for a, b in zip(toks, toks[1:]):
            if "n" in a.pos_classes and "v" in b.pos_classes:
                counts["n_v"] += 1
            if "n" in a.pos_classes and "aux" in b.pos_classes:
                counts["n_aux"] += 1
            if "n" in a.pos_classes and "v" in b.pos_classes and _is_third_singular(b):
                counts["n_3s_v"] += 1
            if "det" in a.pos_classes and "n" in b.pos_classes and "PL" in b.suffixes:
                counts["det_n_pl"] += 1
            if "pro" in a.pos_classes and "aux" in b.pos_classes:
                counts["pro_aux"] += 1
            if "pro" in a.pos_classes and "v" in b.pos_classes and _is_third_singular(b):
                counts["pro_3s_v"] += 1
        for a, b, c in zip(toks, toks[1:], toks[2:]):
            if "det" in a.pos_classes and ("PL" in b.suffixes or "PL" in b.fusions) \
                    and "n" in c.pos_classes:
                counts["det_pl_n"] += 1
    return {k: float(v) for k, v in counts.items()}


def scope_strip_annotations(raw_tokens) -> tuple[tuple[str, ...], AnnotationEvents]:
    """``chat.strip_annotations`` with the scope-stack walk for every tier."""
    fillers = repetitions = retracings = word_errors = 0
    # stack of levels; each level is a list of groups (lists of words)
    stack: list[list[list[str]]] = [[]]
    in_unknown_code = False

    for tok in raw_tokens:
        if in_unknown_code:
            if tok.endswith("]"):
                in_unknown_code = False
            continue
        if tok == REPEAT or tok == RETRACE:
            if not stack[-1]:
                raise DanglingMarker(f"{tok} with no preceding material")
            stack[-1].pop()
            if tok == REPEAT:
                repetitions += 1
            else:
                retracings += 1
            continue
        if tok == WORD_ERROR:
            if not stack[-1]:
                raise DanglingMarker("[*] with no preceding material")
            word_errors += 1
            continue
        if tok.startswith("["):
            # unknown bracket code; swallow through the closing bracket
            if not tok.endswith("]"):
                in_unknown_code = True
            continue
        if tok.startswith("&"):
            fillers += 1
            continue

        opens = len(tok) - len(tok.lstrip("<"))
        word = tok[opens:]
        closes = len(word) - len(word.rstrip(">"))
        if closes:
            word = word[:-closes]
        for _ in range(opens):
            stack.append([])
        if word:
            stack[-1].append([word])
        for _ in range(closes):
            if len(stack) == 1:
                raise UnbalancedScope("'>' without matching '<'")
            level = stack.pop()
            merged = [w for grp in level for w in grp]
            stack[-1].append(merged)

    if len(stack) > 1:
        raise UnbalancedScope("'<' without matching '>'")
    clean = tuple(w for grp in stack[0] for w in grp)
    events = AnnotationEvents(fillers, repetitions, retracings, word_errors)
    return clean, events
