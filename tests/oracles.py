"""Earlier implementations kept as references for the current code.

* ``permutation_mapping_accuracy`` is the exhaustive label-permutation
  search that ``clustering.best_mapping_accuracy`` replaced with a
  Hungarian assignment (feasible up to about 8 labels).
* ``two_pass_extract_cohort`` is the extraction that computed the base
  features once for the group statistics and again inside every full
  vector, re-read the packaged scoring tables for every transcript, and
  counted Flesch-Kincaid words, sentences and syllables a second time.
* ``loop_silhouette_from_distances`` is the per-point silhouette loop,
  over per-label sums of whole columns, that
  ``clustering._silhouette_from_distances`` replaced with array
  operations over row blocks.
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
  copy, then one row block at a time.
* ``gram_pairwise_distances`` builds the distance matrix from the Gram
  matrix in whole-array expressions, with n x n temporaries beside it,
  before ``clustering._pairwise_distances`` built it row block by row
  block in the buffer of ``X @ X.T``.
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
  matrix on its own through ``format_number``, before
  ``pipeline.render_feature_csv`` formatted each row in one ``"%.10g"``
  call.
* ``loop_perplexity`` maps, pads and cuts the windows in its own loop,
  and reads the transcript's child sentences on every call, before
  ``ngram.perplexity`` and ``ngram.perplexity_features`` scored windows
  from one read of the sentences.
* ``add_k_prob`` is ``NGramModel.prob``, the add-k probability of one
  n-gram, before ``ngram._perplexity`` kept the formula's only copy in
  ``src/``; ``loop_perplexity`` and the probability-sum tests call it.
* ``flesch_kincaid`` counts the grade level's words, sentences and
  syllables itself, before ``extract.base_features`` read them from the
  totals it had already computed; ``two_pass_extract_cohort`` calls it,
  so it is the reference for ``f_k``.
* ``loop_dss_score``, ``loop_ipsyn_total`` and ``loop_sequence_count``
  interpret a scoring table rule by rule, testing every token against
  every predicate, before the scoring engine tested bits of each
  distinct token's mask; like ``scoring.score_cohort``, they give
  ``None`` for a transcript with no utterance to score.
  ``is_scorable`` tests each token for a verbal class, before DSS read
  a bit of the utterance's masks.
* ``walk_masks``, ``walk_dss_score``, ``walk_ipsyn_total`` and
  ``walk_rule_counts`` are the per-transcript mask walk: one
  transcript's masks kept as Python lists, a token rule summed over a
  dict of masks, a sequence walked position by position and an
  utterance rule looped over utterances, before ``scoring.score_cohort``
  scored the whole cohort in ``uint64`` array passes;
  ``structural_matches`` tests one utterance's shape, before
  ``scoring._Cohort.structural`` worked out each shape once per cohort.
* ``utterance_measures``, ``lexical_measures``, ``morpheme_markers`` and
  ``pos_patterns`` walk each transcript's child tokens once each, testing
  every token against every count by hand and calling ``syllables`` once
  per word, before ``extract.base_features`` read the 27 counts of
  ``data/counts_table.json`` from the mask engine through
  ``scoring.score_cohort`` and counted each distinct word's syllables
  once per job.
* ``scope_strip_annotations`` walks the scope stack for every tier,
  before ``chat.strip_annotations`` returned a tier without annotations
  as it is.
* ``two_build_parse_chat`` builds each main tier's ``Utterance`` at the
  tier and builds it again when a ``%mor`` tier is accepted for it, and
  parses every ``%mor`` item through the affix regex
  (``regex_parse_mor_token``), before ``chat.parse_chat`` held the
  pending tier's fields and built its ``Utterance`` once, with its
  ``%mor``, and ``chat.parse_mor_token`` returned an item with no ``-``
  or ``&`` without the regex.
* ``scan_mask`` tests a token against every predicate of a mask cache,
  before ``scoring._MaskCache`` filed each predicate under its POS
  classes and its lemmas and tested a token only against the predicates
  filed under its classes and its lowercased lemma (in between, it
  tested every ``lemma_in`` predicate filed under the token's classes).
* ``dict_perplexity`` holds the two add-k loops, full and held-out, that
  scored n-grams one at a time from the count dicts, and
  ``dict_perplexity_features`` and ``dict_group_features`` the six
  features built on them, before ``ngram._score`` read integer-coded
  n-grams from sorted arrays.  ``counter_held_out`` builds the held-out
  changes those loops read, as ``Counter`` tables of string n-grams.
* ``counter_train`` counts the string n-grams of orders 1-3 of each
  group into ``Counter`` tables, from one mapping of each sentence
  through the vocab (``string_vocab``, ``map_unk``, ``cut_grams``), and
  sums the context totals in a loop over them (``context_totals``),
  before ``ngram.train`` and ``ngram.GroupModels`` numbered the tokens
  and counted each order into the int64 index that scoring reads.
* ``stdtr_two_sided`` is the two-sided Student-t tail through
  ``scipy.special.stdtr``, before ``clustering._t_two_sided_p`` computed
  it from the incomplete beta's continued fraction and ``analyze``
  stopped loading scipy.
* ``fifo_dbscan`` lists each point's neighbours on its own and grows
  every cluster through a first-in, first-out queue of points, before
  ``clustering.dbscan`` grew each cluster a frontier at a time, first
  from one boolean neighbour matrix and then from row blocks of the
  distances.
* ``lgamma_expected_mi`` calls ``math.lgamma`` nine times for every
  cell count, before ``clustering._expected_mi`` read a table of log
  factorials and added the five marginal terms once per pair of labels.
* ``pairwise_prune_correlated`` tests each pair of columns on its own,
  before ``numerics.prune_correlated`` marked a retained column's later
  neighbours in one array step.
* ``split_eig_sym`` turns each Jacobi round's ``p`` and ``q`` columns
  and rows with separate gathers and scatters, and keeps the
  eigenvectors as columns, before ``numerics.eig_sym`` turned the stacked
  pairs ``[p..., q...]`` with one gather per side and kept the
  eigenvectors as rows.
"""

import csv
import functools
import io
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from langprofile import chat, clustering, ngram
from langprofile.chat import (RETRACE, REPEAT, WORD_ERROR, AnnotationEvents, Group, MorToken,
                              Speaker, Terminator, Transcript, Utterance)
from langprofile.errors import (ChatParseError, DanglingMarker, DegenerateInput, EmptyCorpus,
                                EmptyTranscript, MalformedTier, NoConvergence, NotSymmetric, OrphanDependentTier,
                                SingleCluster, UnbalancedScope, ZeroProbability)
from langprofile.features import extract as fx
from langprofile.features import scoring
from langprofile.features.schema import FEATURE_NAMES, csv_header
from langprofile.numerics import FeatureMatrix
from langprofile.pipeline import Cohort


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


def gram_pairwise_distances(X: np.ndarray) -> np.ndarray:
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def sorted_auto_eps(points, min_pts: int) -> float:
    D = gram_pairwise_distances(np.asarray(points, dtype=float))
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


def add_k_prob(model: ngram.NGramModel, gram: tuple[str, ...]) -> float:
    """The add-k probability of ``gram`` under ``model``: (count + k) /
    (context total + k * vocab size), or 0.0 where either is zero."""
    k = model.smoothing_k
    num = model.counts.get(gram, 0) + k
    den = model.context_totals.get(gram[:-1], 0) + k * model.vocab_size
    if num == 0.0 or den == 0.0:
        return 0.0
    return num / den


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
            p = add_k_prob(model, gram)
            if p <= 0.0:
                raise ZeroProbability(f"zero probability for {gram} (k=0 and unseen)")
            log_sum += math.log(p)
            n += 1
    if n == 0:
        raise EmptyTranscript(f"transcript {t.id!r} has no scorable positions")
    return math.exp(-log_sum / n)


@dataclass(frozen=True)
class CounterHeldOut:
    """What holding one member out changes in one order of its group's
    model: the member's n-grams and those of the remapped sentences under
    the full vocab leave (``removed``), the remapped sentences' n-grams
    under the held-out vocab come in (``added``), and the vocab shrinks to
    ``vocab_size``.  Each count table comes with its context totals."""
    removed: Counter
    removed_totals: Counter
    added: Counter
    added_totals: Counter
    vocab_size: int


def counter_held_out(lms: ngram.GroupModels, i: int) -> tuple[list[CounterHeldOut],
                                                               list[list[str]]]:
    """What holding labelled transcript ``i`` out of its group changes in
    orders 1-3 of ``lms``, and its own sentences mapped through the
    held-out vocab; ``EmptyCorpus`` if the rest holds no child tokens."""
    label, own = lms.transcripts[i].group.value, ngram._child_sentences([lms.transcripts[i]])
    if len(own) == lms.n_sents[label]:
        raise EmptyCorpus(f"no child tokens to train on in the {label} group "
                          f"without transcript {lms.transcripts[i].id!r}")
    first = lms.models[label][1]
    vocab, unigrams, pad = first.vocab, first.counts, first.pad
    rest = {tok: unigrams[(tok,)] - c
            for tok, c in Counter(chain.from_iterable(own)).items() if tok in vocab}
    dropped = {tok for tok, c in rest.items() if c < first.unk_threshold}
    newly_rare = {tok for tok in dropped if rest[tok] > 0}
    remapped = [s for j in lms.members[label] if j != i
                for s in ngram._child_sentences([lms.transcripts[j]])
                if not newly_rare.isdisjoint(s)]
    removed = map_unk(own + remapped, vocab)
    moved = [[ngram.UNK if tok in dropped else tok for tok in m] for m in removed]
    changes = [CounterHeldOut(Counter(out), Counter(g[:-1] for g in out),
                              Counter(into), Counter(g[:-1] for g in into),
                              first.vocab_size - len(dropped))
               for out, into in zip(cut_grams(removed, pad), cut_grams(moved[len(own):], pad))]
    return changes, moved[:len(own)]


def dict_perplexity(model: ngram.NGramModel, grams: list[tuple[str, ...]], where: str,
                    held: CounterHeldOut | None = None) -> float:
    """exp of mean negative log probability per scored position of
    ``grams`` under ``model``, or under ``model`` changed by ``held``: the
    add-k ratio inlined in a loop over the n-grams, with the logs added
    left to right.  Its errors and messages are those of the engine for
    ``smoothing_k`` 0 and any ``k`` whose add-k probabilities do not
    underflow."""
    if not grams:
        raise EmptyTranscript(f"{where}: no scorable positions")
    counts, totals, k = model.counts.get, model.context_totals.get, model.smoothing_k
    vocab_size = model.vocab_size if held is None else held.vocab_size
    k_vocab = k * vocab_size
    if not math.isfinite(k_vocab):
        raise ZeroProbability(f"{where}: smoothing_k={k!r} times the vocab size "
                              f"{vocab_size} overflows, so every probability is 0")
    log_sum = 0.0
    if held is None:
        for gram in grams:
            num = counts(gram, 0) + k
            den = totals(gram[:-1], 0) + k_vocab
            if num == 0.0 or den == 0.0 or num / den <= 0.0:
                raise ZeroProbability(f"{where}: zero probability for {gram} "
                                      "(k=0 and unseen)")
            log_sum += math.log(num / den)
    else:
        removed, added = held.removed.get, held.added.get
        removed_totals, added_totals = held.removed_totals.get, held.added_totals.get
        for gram in grams:
            context = gram[:-1]
            num = counts(gram, 0) - removed(gram, 0) + added(gram, 0) + k
            den = (totals(context, 0) - removed_totals(context, 0)
                   + added_totals(context, 0) + k_vocab)
            if num == 0.0 or den == 0.0 or num / den <= 0.0:
                raise ZeroProbability(f"{where}: zero probability for {gram} "
                                      "(k=0 and unseen)")
            log_sum += math.log(num / den)
    return math.exp(-log_sum / len(grams))


def dict_perplexity_features(t, sents: list[list[str]], models: dict, held: dict
                             ) -> dict[str, float]:
    """``t``'s six features from its child sentences ``sents``, under
    ``models["SLI"]`` (s_*) and ``models["TD"]`` (d_*).  ``held`` maps a
    group to ``t``'s ``counter_held_out`` in it: that group's models score
    the held-out mapping, changed by each order's change."""
    if not sents:
        raise EmptyTranscript(f"transcript {t.id!r} has no child tokens")
    out = {}
    for prefix, label in (("s", "SLI"), ("d", "TD")):
        changes, mapped = held.get(label, ((None,) * 3, None))
        for order in (1, 2, 3):
            model = models[label][order]
            grams = cut_grams(map_unk(sents, model.vocab) if mapped is None else mapped,
                              model.pad)
            out[f"{prefix}_{order}g_ppl"] = dict_perplexity(
                model, grams[order - 1], f"transcript {t.id!r}, {label} order-{order} model "
                f"({'full' if mapped is None else 'held out'})", changes[order - 1])
    return out


def dict_group_features(lms: ngram.GroupModels, i: int, held_out: bool = False
                        ) -> dict[str, float]:
    """Transcript ``i``'s six features as ``lms.outcomes(held_out)[i]``
    gives them, from the dict loops."""
    t = lms.transcripts[i]
    own = t.group.value
    held = {own: counter_held_out(lms, i)} if held_out and own in lms.models else {}
    return dict_perplexity_features(t, ngram._child_sentences([t]), lms.models, held)


def flesch_kincaid(t: Transcript) -> float:
    """Grade-level readability from word, sentence, and syllable totals."""
    counts = fx.production_counts(t)
    syl = sum(fx.syllables(w) for u in t.child_utterances for w in u.clean_tokens)
    return fx._fk_grade(counts["child_TNW"], counts["child_TNS"], syl)


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
    values["f_k"] = flesch_kincaid(t)

    for name, score in (("dss", loop_dss_score(t, dss_table)),
                        ("ipsyn_total", loop_ipsyn_total(t, ipsyn_table))):
        if score is None:
            score = 0.0
            flags.add(name)
        values[name] = score

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
    full_models = ngram.GroupModels(transcripts, config.smoothing_k,
                                    config.unk_threshold).models

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


def fifo_dbscan(distances, eps: float, min_pts: int) -> np.ndarray:
    """DBSCAN labels, each cluster grown point by point from a FIFO queue."""
    if eps <= 0 or min_pts < 1:
        raise DegenerateInput("need eps > 0 and min_pts >= 1")
    D = clustering._as_distances(distances)
    n = D.shape[0]
    neighbors = [np.flatnonzero(D[i] <= eps) for i in range(n)]
    core = np.array([len(nb) >= min_pts for nb in neighbors])
    labels = np.full(n, -1, dtype=int)
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        frontier = list(neighbors[i])
        pos = 0
        while pos < len(frontier):
            j = int(frontier[pos])
            pos += 1
            if labels[j] == -1:
                labels[j] = cluster
                if core[j]:
                    frontier.extend(neighbors[j])
        cluster += 1
    return labels


def lgamma_expected_mi(rows: np.ndarray, cols: np.ndarray, n: int) -> float:
    """Hypergeometric expectation of MI, nine ``lgamma`` calls per cell count."""
    lg = math.lgamma
    emi = 0.0
    for ai in (int(x) for x in rows):
        for bj in (int(x) for x in cols):
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            for nij in range(lo, hi + 1):
                term = (nij / n) * math.log((n * nij) / (ai * bj))
                log_p = (lg(ai + 1) + lg(bj + 1) + lg(n - ai + 1) + lg(n - bj + 1)
                         - lg(n + 1) - lg(nij + 1) - lg(ai - nij + 1)
                         - lg(bj - nij + 1) - lg(n - ai - bj + nij + 1))
                emi += term * math.exp(log_p)
    return emi


def pairwise_prune_correlated(m: FeatureMatrix, threshold: float = 0.95) -> tuple[int, ...]:
    """Greedy pruning in column order, one pair of columns at a time."""
    r = np.corrcoef(m.values, rowvar=False)
    if r.ndim == 0:  # single column
        return (0,)
    p = m.values.shape[1]
    dropped = np.zeros(p, dtype=bool)
    for j in range(p):
        if dropped[j]:
            continue
        for l in range(j + 1, p):
            if not dropped[l] and abs(r[j, l]) > threshold:
                dropped[l] = True
    return tuple(int(i) for i in np.flatnonzero(~dropped))


def split_eig_sym(S, tol: float = 1e-12, max_sweeps: int = 100
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi with the same round-robin schedule, turning the ``p``
    and ``q`` columns and rows of ``A`` and the columns of ``V`` one side
    at a time."""
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric("matrix is not square")
    if A.size and np.max(np.abs(A - A.T)) > 1e-10:
        raise NotSymmetric("matrix is not symmetric within 1e-10")
    n = A.shape[0]
    A = (A + A.T) / 2.0
    V = np.eye(n)
    if n < 2:
        return A.diagonal().copy(), V
    skip = 0.25 * tol / n
    m = n + (n % 2)
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        ps = np.array(players[:m // 2])
        qs = np.array(players[m - 1:m // 2 - 1:-1])
        real = (ps < n) & (qs < n)
        rounds.append((ps[real], qs[real]))
        players = [players[0], players[-1]] + players[1:-1]
    for sweep in range(max(max_sweeps, 0) + 1):
        off_sq = A * A
        np.fill_diagonal(off_sq, 0.0)
        if math.sqrt(float(off_sq.sum())) <= tol:
            break
        if sweep >= max_sweeps:
            raise NoConvergence(f"Jacobi did not converge in {max_sweeps} sweeps")
        for ps, qs in rounds:
            apq = A[ps, qs]
            live = np.abs(apq) > skip
            if not live.any():
                continue
            p, q, apq = ps[live], qs[live], apq[live]
            app = A[p, p]
            aqq = A[q, q]
            tau = (aqq - app) / (2.0 * apq)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            cp = A[:, p]
            cq = A[:, q]
            new_p = cp * c - cq * s
            new_q = cp * s + cq * c
            A[:, p] = new_p
            A[:, q] = new_q
            rp = A[p, :]
            rq = A[q, :]
            A[p, :] = c[:, None] * rp - s[:, None] * rq
            A[q, :] = s[:, None] * rp + c[:, None] * rq
            A[p, p] = app - t * apq
            A[q, q] = aqq + t * apq
            A[p, q] = 0.0
            A[q, p] = 0.0
            vp = V[:, p]
            vq = V[:, q]
            V[:, p] = vp * c - vq * s
            V[:, q] = vp * s + vq * c
    w = A.diagonal().copy()
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    for j in range(n):
        i = int(np.argmax(np.abs(V[:, j])))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
    return w, V


def format_number(x: float) -> str:
    """One value as the CSVs write it: ``""`` for NaN, else ``f"{x:.10g}"``."""
    if isinstance(x, float) and math.isnan(x):
        return ""
    return f"{x:.10g}"


def stdtr_two_sided(t: float, df: float) -> float:
    """``P(|T| >= |t|)`` for Student's t with ``df`` degrees of freedom."""
    from scipy.special import stdtr  # test-only dependency

    return 2.0 * float(stdtr(df, -abs(t)))


def per_element_feature_csv(cohort: Cohort) -> str:
    """The feature CSV with every matrix value formatted as an ``np.float64``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(csv_header())
    for i, row_id in enumerate(cohort.matrix.row_ids):
        age = cohort.age_months[i]
        meta = [row_id, cohort.corpus[i], cohort.group[i],
                "" if age is None else str(age), cohort.sex[i]]
        writer.writerow(meta + [format_number(v) for v in cohort.matrix.values[i]])
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


def loop_dss_score(t, table: dict | None = None) -> float | None:
    """Mean per-utterance DSS score over scorable child utterances, or
    ``None`` for none."""
    if table is None:
        table = scoring.default_dss_table()
    scorable = [u for u in t.child_utterances if is_scorable(u)]
    if not scorable:
        return None
    total = 0.0
    for u in scorable:
        score = 0
        for category in table["categories"]:
            best = 0
            for rule in category["rules"]:
                if "structural" in rule:
                    hit = structural_matches(u, rule["structural"])
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


def loop_ipsyn_total(t, table: dict | None = None) -> float | None:
    """IPSyn checklist score: occurrences per structure capped at ``cap``;
    ``None`` for no child utterance with mor tokens."""
    if table is None:
        table = scoring.default_ipsyn_table()
    utts = [u for u in t.child_utterances if u.mor_tokens]
    if not utts:
        return None
    cap = int(table.get("cap", 2))
    total = 0
    for struct in table["structures"]:
        occurrences = 0
        for u in utts:
            if "structural" in struct:
                occurrences += 1 if structural_matches(u, struct["structural"]) else 0
            elif "sequence" in struct:
                occurrences += loop_sequence_count(u, struct["sequence"])
            else:
                occurrences += sum(1 for i in range(len(u.mor_tokens))
                                   if _matches_at(u, i, struct["token"]))
        total += min(cap, occurrences)
    return float(total)


def structural_matches(u: Utterance, name: str) -> bool:
    if name == "question":
        return u.terminator is Terminator.QUESTION
    if name == "wh_question":
        return (u.terminator is Terminator.QUESTION and u.mor_tokens is not None
                and any(t.lemma.lower() in scoring._WH_LEMMAS for t in u.mor_tokens))
    if name == "aux_initial_question":
        return (u.terminator is Terminator.QUESTION and bool(u.mor_tokens)
                and not u.mor_tokens[0].pos_classes.isdisjoint(scoring._AUX_INITIAL_POS))
    if name == "multiword":
        return len(u.clean_tokens) >= 2
    raise ValueError(f"unknown structural predicate {name!r}")


# -- the per-transcript mask walk that scoring._Cohort replaced ------------------

class WalkMasks(NamedTuple):
    """One transcript's child utterances that carry mor tokens, and the
    masks of their tokens."""

    utterances: list[Utterance]
    masks: list[list[int]]  # per utterance, one mask per token
    present: list[int]      # per utterance, the OR of its masks
    flat: list[int]         # every mask, with a 0 after each utterance
    at: dict[int, list[int]]  # each mask's positions in ``flat``

    def tokens_with(self, bit: int) -> int:
        return sum([len(at) for mask, at in self.at.items() if mask & bit])

    def windows(self, bits: tuple[int, ...]) -> int:
        """``walk_windows`` over ``flat``, from the positions of the masks
        with ``bits[0]``; the 0 after each utterance keeps every index in
        range."""
        return walk_windows(self.flat, bits,
                            [i for mask, at in self.at.items() if mask & bits[0] for i in at])


def walk_masks(cache, t: Transcript) -> WalkMasks:
    """The masks of ``t``'s child utterances that carry mor tokens, each
    token looked up in the mask ``cache`` by value."""
    utts = [u for u in t.child_utterances if u.mor_tokens]
    # a token past the end of its utterance's words has surface ""
    per = [[cache[tok, "'" in word] for tok, word
            in zip(u.mor_tokens, itertools.chain(u.clean_tokens, itertools.repeat("")))]
           for u in utts]
    flat: list[int] = []
    for m in per:
        flat += m
        flat.append(0)  # matches no predicate, so no sequence spans two utterances
    at: dict[int, list[int]] = {}
    for i, mask in enumerate(flat):
        at.setdefault(mask, []).append(i)
    return WalkMasks(utts, per, [functools.reduce(operator.or_, m) for m in per], flat, at)


def walk_windows(masks: list[int], bits: tuple[int, ...], starts: list[int] | None = None) -> int:
    """How many runs of ``len(bits)`` consecutive tokens match the
    sequence: a sliding AND of ``bits`` over the tokens' ``masks``, which
    keeps the ``starts`` (default: all) whose j-th token has ``bits[j]``,
    one j at a time."""
    if starts is None:
        starts = range(len(masks) - len(bits) + 1)
    for j, bit in enumerate(bits):
        starts = [i for i in starts if masks[i + j] & bit]
    return len(starts)


def walk_dss_score(t: Transcript, rules: scoring.CompiledTable) -> float | None:
    """``t``'s DSS score in ``scoring.score_cohort`` from a walk of ``t``'s
    masks, utterance by utterance and rule by rule."""
    m = walk_masks(rules.masks, t)
    scorable = [(u, masks, present) for u, masks, present in zip(m.utterances, m.masks, m.present)
                if present & rules.verbal]
    if not scorable:
        return None
    total = 0.0
    for u, masks, present in scorable:
        score = 0
        for category in rules.categories:
            for rule, points in category:
                if type(rule) is int:
                    hit = present & rule
                elif type(rule) is tuple:
                    hit = walk_windows(masks, rule)
                else:
                    hit = structural_matches(u, rule)
                if hit:
                    score += points
                    break
        if rules.sentence_point and u.events.word_errors == 0 \
                and not u.postcodes and u.terminator is not Terminator.TRAIL_OFF:
            score += 1
        total += score
    return total / len(scorable)


def walk_ipsyn_total(t: Transcript, rules: scoring.CompiledTable) -> float | None:
    """``t``'s IPSyn score in ``scoring.score_cohort`` from a walk of ``t``'s
    masks."""
    m = walk_masks(rules.masks, t)
    if not m.utterances:
        return None
    total = 0
    for rule in rules.structures:
        if type(rule) is int:
            occurrences = m.tokens_with(rule)
        elif type(rule) is tuple:
            occurrences = m.windows(rule)
        else:
            occurrences = sum(1 for u in m.utterances if structural_matches(u, rule))
        total += min(rules.cap, occurrences)
    return float(total)


def walk_rule_counts(t: Transcript, rules: scoring.CompiledTable) -> dict[str, int]:
    """``t``'s counts in ``scoring.score_cohort`` from a walk of ``t``'s
    masks."""
    m = walk_masks(rules.masks, t)
    counts = {name: m.tokens_with(bit) for name, bit in rules.tokens}
    for name, bits in rules.sequences:
        counts[name] = m.windows(bits)
    for name, bit in rules.utterances:
        counts[name] = sum(1 for present in m.present if present & bit)
    return counts


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
    return [u for u in t.child_utterances if u.mor_tokens is not None]


def utterance_measures(t: Transcript, count_fusions: bool = False
                       ) -> tuple[dict[str, float], set[str]]:
    kids = t.child_utterances
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
    kids = t.child_utterances
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
    if not mor_utts and t.child_utterances:
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


def regex_parse_mor_token(tok: str) -> MorToken | None:
    """``chat.parse_mor_token`` with every item split by the affix regex."""
    if "|" not in tok:
        if tok in chat._TERMINATOR_MAP or tok.startswith("+"):
            return None
        raise MalformedTier(f"unparseable mor token {tok!r}")
    pos, rest = tok.split("|", 1)
    if not pos or not rest:
        raise MalformedTier(f"unparseable mor token {tok!r}")
    parts = chat._MOR_AFFIX.split(rest)
    lemma = parts[0]
    suffixes: list[str] = []
    fusions: list[str] = []
    for marker, seg in zip(parts[1::2], parts[2::2]):
        if not seg:
            raise MalformedTier(f"empty affix in mor token {tok!r}")
        (suffixes if marker == "-" else fusions).append(seg)
    return MorToken(pos, lemma, tuple(suffixes), tuple(fusions))


def two_build_parse_chat(text: str, transcript_id: str | None = None) -> Transcript:
    """``chat.parse_chat`` that appends an ``Utterance`` per main tier and
    rebuilds the last one when a ``%mor`` tier is accepted for it."""
    logical: list[tuple[int, str]] = []
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("\t") or line.startswith("    "):
            if not logical:
                raise MalformedTier(f"line {lineno}: continuation line before any tier")
            first, joined = logical[-1]
            logical[-1] = (first, joined + " " + line.strip())
        else:
            logical.append((lineno, line))

    roles: dict[str, Speaker] = {}
    corpus = ""
    group = Group.UNKNOWN
    age_months: int | None = None
    sex: str | None = None
    pid = ""
    child_code = ""
    warnings: list[str] = []
    utterances: list[Utterance] = []

    try:
        for lineno, line in logical:
            if line.startswith("@"):
                m = chat._HEADER.match(line)
                if m is None:
                    continue
                key, value = m.group(1).strip(), m.group(2).strip()
                if key == "Participants":
                    for entry in value.split(","):
                        bits = entry.split()
                        if len(bits) >= 2:
                            roles[bits[0]] = chat._classify_role(bits[-1])
                elif key == "ID":
                    fields = value.split("|")
                    if len(fields) < 8:
                        continue
                    if chat._classify_role(fields[7]) is Speaker.CHILD:
                        corpus = fields[1]
                        child_code = fields[2]
                        age_months = chat._parse_age(fields[3])
                        sx = fields[4].strip().lower()
                        sex = {"male": "M", "m": "M", "female": "F", "f": "F"}.get(sx)
                        group = chat._classify_group(fields[5])
                elif key == "PID":
                    pid = value
                continue

            if line.startswith("*"):
                m = chat._MAIN_TIER.match(line)
                if m is None:
                    raise MalformedTier(f"bad main tier line: {line!r}")
                code = m.group(1)
                body, terminator, postcodes = chat._split_terminator(line[m.end():].split())
                clean, events = chat.strip_annotations(body)
                speaker = roles.get(code, chat._DEFAULT_ROLES.get(code, Speaker.OTHER))
                utterances.append(Utterance(speaker, code, tuple(body), clean, terminator,
                                            events, None, postcodes))
                continue

            if line.startswith("%"):
                m = chat._DEP_TIER.match(line)
                if m is None:
                    raise MalformedTier(f"bad dependent tier line: {line!r}")
                if m.group(1).lower() != "mor":
                    continue
                if not utterances:
                    raise OrphanDependentTier("%mor tier before any utterance")
                target = utterances[-1]
                try:
                    mor = [tok for tok in map(regex_parse_mor_token, line[m.end():].split())
                           if tok is not None]
                except MalformedTier as exc:
                    warnings.append(f"utterance {len(utterances)}: mor tier dropped ({exc})")
                    continue
                if len(mor) != len(target.clean_tokens):
                    warnings.append(
                        f"utterance {len(utterances)}: mor tier has {len(mor)} tokens, "
                        f"utterance has {len(target.clean_tokens)}; mor dropped")
                    continue
                if target.mor_tokens is not None:
                    warnings.append(f"utterance {len(utterances)}: duplicate mor tier replaced")
                utterances[-1] = Utterance(target.speaker, target.speaker_code,
                                           target.raw_tokens, target.clean_tokens,
                                           target.terminator, target.events, tuple(mor),
                                           target.postcodes)
                continue

            raise MalformedTier(f"unclassifiable line: {line!r}")
    except ChatParseError as exc:
        raise type(exc)(f"line {lineno}: {exc}") from None

    tid = transcript_id or pid or f"{corpus}|{child_code}".strip("|") or "unknown"
    return Transcript(tid, corpus, group, age_months, sex, tuple(utterances), tuple(warnings))


def scan_mask(cache, tok: MorToken, contracted: bool) -> int:
    """The OR of the bits of every predicate in ``cache`` that ``tok``
    matches, each predicate rebuilt from its key and tested in full."""
    mask = 0
    for key, bit in cache.bits.items():
        if scoring._token_matches(tok, dict(key), contracted):
            mask |= bit
    return mask


def string_vocab(freq: Counter, unk_threshold: int, pad: bool) -> frozenset[str]:
    return frozenset([tok for tok, c in freq.items() if c >= unk_threshold]
                     + ([ngram.UNK, ngram.EOS] if pad else [ngram.UNK]))


def counter_train(sents: list[list[list[str]]], smoothing_k: float, unk_threshold: int,
                  pad: bool) -> dict[int, ngram.NGramModel]:
    """The models of orders 1-3 from one walk over ``sents``, each
    transcript's child sentences: each sentence is mapped through the
    vocab once and the three orders are cut from that one mapping, one
    transcript at a time."""
    vocab = string_vocab(Counter(chain.from_iterable(chain.from_iterable(sents))),
                         unk_threshold, pad)
    counts: list[Counter] = [Counter(), Counter(), Counter()]
    for member in sents:
        for c, grams in zip(counts, cut_grams(map_unk(member, vocab), pad)):
            c.update(grams)
    return {order: ngram.NGramModel(order, float(smoothing_k), int(unk_threshold), bool(pad),
                                    dict(c), context_totals(c), vocab)
            for order, c in zip(ngram.ORDERS, counts)}


def map_unk(sents: list[list[str]], vocab) -> list[list[str]]:
    """``sents`` with the tokens outside ``vocab`` mapped to ``<unk>``.  No
    clean token is ``<unk>`` or ``</s>``: CHAT cleaning strips a word's
    leading ``<`` and trailing ``>``."""
    return [[tok if tok in vocab else ngram.UNK for tok in s] for s in sents]


def cut_grams(mapped: list[list[str]], pad: bool) -> tuple[list, list, list]:
    """The n-grams of orders 1-3 of the ``mapped`` sentences, each order's
    in position order.  With padding, a sentence's order-2 and order-1
    windows are those of the order-3 padded sentence's suffixes."""
    g1: list[tuple[str, ...]] = []
    g2: list[tuple[str, ...]] = []
    g3: list[tuple[str, ...]] = []
    for m in mapped:
        if pad:
            m = [ngram.BOS, ngram.BOS, *m, ngram.EOS]
            m1, m2 = m[1:], m[2:]
            g1 += zip(m2)
            g2 += zip(m1, m2)
        else:
            m1, m2 = m[1:], m[2:]
            g1 += zip(m)
            g2 += zip(m, m1)
        g3 += zip(m, m1, m2)
    return g1, g2, g3


def context_totals(counts) -> dict[tuple[str, ...], int]:
    totals: dict[tuple[str, ...], int] = {}
    for gram, c in counts.items():
        totals[gram[:-1]] = totals.get(gram[:-1], 0) + c
    return totals
