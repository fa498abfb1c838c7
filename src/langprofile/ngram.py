"""Add-k smoothed n-gram language models over child utterances.

Orders 1-3.  Tokens are lowercased clean child tokens; with padding on
(the default) each utterance gets ``order - 1`` leading ``<s>`` symbols
and one trailing ``</s>``.  The vocabulary is the types seen at least
``unk_threshold`` times, plus ``<unk>`` (plus ``</s>`` when padding), so
add-k probabilities over any context sum to one.  One rule maps tokens,
in training and in scoring alike: a token outside the model's vocab
becomes ``<unk>``.  :func:`_map` applies it; :func:`_grams` cuts the
n-grams of orders 1-3 from one mapping, and :func:`_order_grams` those of
one order, for the single-model :func:`train` and :func:`perplexity`.

``smoothing_k`` must be finite and at least 0 and ``unk_threshold`` at
least 1 (:func:`check_settings`).

:class:`GroupModels` reads each transcript's child sentences once.  A
group's three models come from one walk over its text: each sentence is
mapped through the group vocab once, and orders 1-3 are cut from that one
mapping.  Held-out scoring copies no count table and retrains nothing: a
member is scored against a view that reads the full counts minus the
member's own n-gram counts, plus the small remap of the types that leave
the vocab without it.  Those integer counts equal a retrain's on the rest
of the group, so each probability is the same float.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .chat import Transcript
from .errors import DataError, EmptyCorpus, EmptyTranscript, ZeroProbability, read_text

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
ORDERS = (1, 2, 3)
_CONTEXT = operator.itemgetter(slice(None, -1))


@dataclass(frozen=True)
class NGramModel:
    order: int
    smoothing_k: float
    unk_threshold: int
    pad: bool
    counts: dict[tuple[str, ...], int]
    context_totals: dict[tuple[str, ...], int]
    vocab: frozenset[str]

    @functools.cached_property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def prob(self, ngram: tuple[str, ...]) -> float:
        k = self.smoothing_k
        num = self.counts.get(ngram, 0) + k
        den = self.context_totals.get(ngram[:-1], 0) + k * self.vocab_size
        if num == 0.0 or den == 0.0:
            return 0.0
        return num / den


@dataclass(frozen=True)
class _HeldOut:
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


def _child_sentences(transcripts, strings: dict[str, str] | None = None
                     ) -> list[list[str]]:
    """The lowercased clean tokens of each child utterance that has any.
    Equal tokens share the string object that ``strings`` holds for them:
    :class:`GroupModels` keeps a whole cohort's sentences from training
    through scoring."""
    strings = {} if strings is None else strings
    sents = []
    for t in transcripts:
        for u in t.child_utterances():
            toks = [strings.setdefault(w, w) for w in map(str.lower, u.clean_tokens)]
            if toks:
                sents.append(toks)
    return sents


def check_settings(smoothing_k: float = 1.0, unk_threshold: int = 1) -> None:
    """Raise ``ValueError`` naming the setting unless ``smoothing_k`` is
    finite and at least 0 and ``unk_threshold`` is at least 1."""
    if not 0.0 <= smoothing_k < math.inf:
        raise ValueError("smoothing_k must be a finite number at least 0")
    if unk_threshold < 1:
        raise ValueError("unk_threshold must be at least 1")


def _check_order(order: int) -> None:
    if order not in ORDERS:
        raise ValueError(f"order must be 1, 2, or 3, got {order}")


def train(transcripts, order: int, smoothing_k: float = 1.0,
          unk_threshold: int = 1, pad: bool = True) -> NGramModel:
    """The order-``order`` model, from a count of that order only."""
    _check_order(order)
    check_settings(smoothing_k, unk_threshold)
    sents = _child_sentences(transcripts)
    if not sents:
        raise EmptyCorpus("no child tokens to train on")
    vocab = _vocab(Counter(chain.from_iterable(sents)), unk_threshold, pad)
    counts = Counter(_order_grams(_map(sents, vocab), order, pad))
    return NGramModel(order, float(smoothing_k), int(unk_threshold), bool(pad),
                      dict(counts), _context_totals(counts), vocab)


def _vocab(freq: Counter, unk_threshold: int, pad: bool) -> frozenset[str]:
    return frozenset([tok for tok, c in freq.items() if c >= unk_threshold]
                     + ([UNK, EOS] if pad else [UNK]))


def _train(sents: list[list[list[str]]], smoothing_k: float, unk_threshold: int,
           pad: bool) -> dict[int, NGramModel]:
    """The models of orders 1-3 from one walk over ``sents``, each
    transcript's child sentences: each sentence is mapped through the
    vocab once and the three orders are cut from that one mapping, one
    transcript at a time."""
    vocab = _vocab(Counter(chain.from_iterable(chain.from_iterable(sents))),
                   unk_threshold, pad)
    counts: list[Counter] = [Counter(), Counter(), Counter()]
    for member in sents:
        for c, grams in zip(counts, _grams(_map(member, vocab), pad)):
            c.update(grams)
    return {order: NGramModel(order, float(smoothing_k), int(unk_threshold), bool(pad),
                              dict(c), _context_totals(c), vocab)
            for order, c in zip(ORDERS, counts)}


def _map(sents: list[list[str]], vocab) -> list[list[str]]:
    """``sents`` with the tokens outside ``vocab`` mapped to ``<unk>``.  No
    clean token is ``<unk>`` or ``</s>``: CHAT cleaning strips a word's
    leading ``<`` and trailing ``>``."""
    return [[tok if tok in vocab else UNK for tok in s] for s in sents]


def _grams(mapped: list[list[str]], pad: bool) -> tuple[list, list, list]:
    """The n-grams of orders 1-3 of the ``mapped`` sentences, each order's
    in position order.  With padding, a sentence's order-2 and order-1
    windows are those of the order-3 padded sentence's suffixes."""
    g1: list[tuple[str, ...]] = []
    g2: list[tuple[str, ...]] = []
    g3: list[tuple[str, ...]] = []
    for m in mapped:
        if pad:
            m = [BOS, BOS, *m, EOS]
            m1, m2 = m[1:], m[2:]
            g1 += zip(m2)
            g2 += zip(m1, m2)
        else:
            m1, m2 = m[1:], m[2:]
            g1 += zip(m)
            g2 += zip(m, m1)
        g3 += zip(m, m1, m2)
    return g1, g2, g3


def _order_grams(mapped: list[list[str]], order: int, pad: bool) -> list:
    """The order-``order`` n-grams of the ``mapped`` sentences, in position
    order: those of :func:`_grams` for that order alone."""
    lead = [BOS] * (order - 1)
    grams: list[tuple[str, ...]] = []
    for m in mapped:
        if pad:
            m = [*lead, *m, EOS]
        grams += zip(*(m[i:] for i in range(order)))
    return grams


def _context_totals(counts) -> dict[tuple[str, ...], int]:
    totals: dict[tuple[str, ...], int] = {}
    for gram, c in counts.items():
        totals[gram[:-1]] = totals.get(gram[:-1], 0) + c
    return totals


class _Group:
    """One group's models, orders 1-3, and its members' held-out changes.

    ``sents`` holds each member's child sentences; the group keeps a
    reference to them and no per-member counts."""

    def __init__(self, label: str, members, sents: list[list[list[str]]],
                 smoothing_k: float, unk_threshold: int, pad: bool):
        check_settings(smoothing_k, unk_threshold)
        self.n_sents = sum(map(len, sents))
        if not self.n_sents:
            raise EmptyCorpus(f"no child tokens to train on in the {label} group")
        self.label, self.members, self.sents = label, members, sents
        self.models = _train(sents, smoothing_k, unk_threshold, pad)

    @functools.cached_property
    def _holders(self) -> dict[str, list[int]]:
        """The members whose sentences hold each vocab type, in member order."""
        vocab = self.models[1].vocab
        holders: dict[str, list[int]] = {}
        for i, member in enumerate(self.sents):
            for tok in vocab.intersection(chain.from_iterable(member)):
                holders.setdefault(tok, []).append(i)
        return holders

    def held_out(self, i: int) -> tuple[list[_HeldOut], list[list[str]]]:
        """What holding member ``i`` out changes in orders 1-3, and its own
        sentences mapped through the held-out vocab.

        The held-out vocab loses the types that the rest of the group holds
        fewer than ``unk_threshold`` times.  Those the rest still holds are
        *newly rare*: the other members' sentences that hold one move from
        the full vocab's mapping to the held-out one.  That work stays
        small, since such types are rare in the rest.  A member whose
        removal leaves no child tokens raises ``EmptyCorpus``, as
        :func:`train` does on the rest."""
        own = self.sents[i]
        if len(own) == self.n_sents:
            raise EmptyCorpus(f"no child tokens to train on in the {self.label} group "
                              f"without transcript {self.members[i].id!r}")
        first = self.models[1]
        vocab, unigrams, pad = first.vocab, first.counts, first.pad
        # a vocab type's unigram count is its frequency in the group
        rest = {tok: unigrams[(tok,)] - c
                for tok, c in Counter(chain.from_iterable(own)).items() if tok in vocab}
        dropped = {tok for tok, c in rest.items() if c < first.unk_threshold}
        newly_rare = {tok for tok in dropped if rest[tok] > 0}
        remapped = [s for j in sorted({j for tok in newly_rare for j in self._holders[tok]})
                    if j != i for s in self.sents[j] if not newly_rare.isdisjoint(s)]
        removed = _map(own + remapped, vocab)
        moved = [[UNK if tok in dropped else tok for tok in m] for m in removed]
        changes = [_HeldOut(Counter(out), Counter(map(_CONTEXT, out)),
                            Counter(into), Counter(map(_CONTEXT, into)),
                            first.vocab_size - len(dropped))
                   for out, into in zip(_grams(removed, pad), _grams(moved[len(own):], pad))]
        return changes, moved[:len(own)]


def _perplexity(model: NGramModel, grams: list[tuple[str, ...]], where: str,
                held: _HeldOut | None = None) -> float:
    """exp of mean negative log probability per scored position of
    ``grams`` under ``model``, or under ``model`` changed by ``held``.  A
    zero probability raises ``ZeroProbability`` naming ``where`` and the
    first such n-gram in position order.  The logs are added left to right
    in position order: builtin ``sum`` compensates from Python 3.12."""
    # NGramModel.prob's arithmetic, inlined
    counts, totals, k = model.counts.get, model.context_totals.get, model.smoothing_k
    log_sum = 0.0
    if held is None:
        k_vocab = k * model.vocab_size
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
        k_vocab = k * held.vocab_size
        for gram in grams:
            context = gram[:-1]
            num = counts(gram, 0) - removed(gram, 0) + added(gram, 0) + k
            den = (totals(context, 0) - removed_totals(context, 0)
                   + added_totals(context, 0) + k_vocab)
            if num == 0.0 or den == 0.0 or num / den <= 0.0:
                raise ZeroProbability(f"{where}: zero probability for {gram} "
                                      "(k=0 and unseen)")
            log_sum += math.log(num / den)
    if not grams:
        raise EmptyTranscript(f"{where}: no scorable positions")
    return math.exp(-log_sum / len(grams))


def _perplexity_features(t: Transcript, sents: list[list[str]],
                         models: dict[str, dict[int, NGramModel]],
                         held: dict[str, tuple]) -> dict[str, float]:
    """``t``'s six features from its child sentences ``sents``, under
    ``models["SLI"]`` (s_*) and ``models["TD"]`` (d_*).  ``held`` maps a
    group to ``t``'s held-out changes in it, one per order, and ``sents``
    as mapped through its held-out vocab: that group's models score them
    changed by each order's change."""
    if not sents:
        raise EmptyTranscript(f"transcript {t.id!r} has no child tokens")
    out = {}
    for prefix, label in (("s", "SLI"), ("d", "TD")):
        changes, mapped = held.get(label, ((None,) * len(ORDERS), None))
        key = grams = None
        for order in ORDERS:
            model = models[label][order]
            # cut again for another vocab or pad; a tuple compares identity first
            if grams is None or (mapped is None and (model.vocab, model.pad) != key):
                key = model.vocab, model.pad
                grams = _grams(_map(sents, model.vocab) if mapped is None else mapped,
                               model.pad)
            out[f"{prefix}_{order}g_ppl"] = _perplexity(
                model, grams[order - 1], f"transcript {t.id!r}, {label} order-{order} model "
                f"({'full' if mapped is None else 'held out'})", changes[order - 1])
    return out


def perplexity(model: NGramModel, t: Transcript) -> float:
    """exp of mean negative log probability per scored position.

    Padding symbols ``<s>`` only ever appear as context; ``</s>`` is a
    scored position when padding is on.
    """
    sents = _child_sentences([t])
    if not sents:
        raise EmptyTranscript(f"transcript {t.id!r} has no child tokens")
    grams = _order_grams(_map(sents, model.vocab), model.order, model.pad)
    return _perplexity(model, grams, f"transcript {t.id!r}, order-{model.order} model")


def perplexity_features(t: Transcript, sli_models: dict[int, NGramModel],
                        td_models: dict[int, NGramModel]) -> dict[str, float]:
    """The six perplexity features: s_* against the SLI models, d_*
    against the TD models, orders 1-3, from one read of the child
    sentences."""
    return _perplexity_features(t, _child_sentences([t]),
                                {"SLI": sli_models, "TD": td_models}, {})


class GroupModels:
    """The six models (SLI/TD x orders 1-3) trained on the labelled
    transcripts, and each transcript's perplexity features against them.

    Each transcript's child sentences are read once, here.  A group with
    no transcripts, or no child tokens, raises ``EmptyCorpus``: SLI is
    checked before TD."""

    def __init__(self, transcripts, smoothing_k: float = 1.0, unk_threshold: int = 1,
                 pad: bool = True):
        self.transcripts = list(transcripts)
        strings: dict[str, str] = {}
        self.sents = [_child_sentences([t], strings) for t in self.transcripts]
        self.groups: dict[str, _Group] = {}
        self._slot: dict[int, int] = {}  # transcript index -> index in its group
        for label in ("SLI", "TD"):
            idx = [i for i, t in enumerate(self.transcripts) if t.group.value == label]
            if not idx:
                raise EmptyCorpus(f"no transcripts labeled {label}")
            self._slot.update((i, j) for j, i in enumerate(idx))
            self.groups[label] = _Group(label, [self.transcripts[i] for i in idx],
                                        [self.sents[i] for i in idx],
                                        smoothing_k, unk_threshold, pad)

    @property
    def models(self) -> dict[str, dict[int, NGramModel]]:
        return {label: group.models for label, group in self.groups.items()}

    def perplexity_features(self, i: int, held_out: bool = False) -> dict[str, float]:
        """Transcript ``i``'s six features, as :func:`perplexity_features`
        gives them.  With ``held_out``, a labelled transcript is scored
        against its own group's models without it; a group it leaves with
        no child tokens raises ``EmptyCorpus`` before anything is scored."""
        t = self.transcripts[i]
        own = t.group.value
        held = {own: self.groups[own].held_out(self._slot[i])} \
            if held_out and own in self.groups else {}
        return _perplexity_features(t, self.sents[i], self.models, held)


def train_group_models(transcripts, smoothing_k: float = 1.0,
                       unk_threshold: int = 1, pad: bool = True
                       ) -> dict[str, dict[int, NGramModel]]:
    """Train the six models (SLI/TD x orders 1-3) from labeled transcripts."""
    return GroupModels(transcripts, smoothing_k, unk_threshold, pad).models


# -- on-disk format -------------------------------------------------------
# header line: ngram\torder=<n>\tk=<float>\tunk_threshold=<int>\tpad=<0|1>
# vocab line:  vocab\t<type> <type> ...                        (sorted)
# then one line per n-gram: <count>\t<w1>[ <w2>[ <w3>]]      (sorted)


def model_text(model: NGramModel) -> str:
    """The model in the on-disk format above."""
    lines = [f"ngram\torder={model.order}\tk={model.smoothing_k!r}"
             f"\tunk_threshold={model.unk_threshold}\tpad={int(model.pad)}",
             "vocab\t" + " ".join(sorted(model.vocab))]
    for gram in sorted(model.counts):
        lines.append(f"{model.counts[gram]}\t{' '.join(gram)}")
    return "\n".join(lines) + "\n"


def save_model(model: NGramModel, path: str | Path) -> None:
    Path(path).write_text(model_text(model), encoding="utf-8")


def load_model(path: str | Path) -> NGramModel:
    """Read a model written by :func:`save_model`; a file that is empty,
    lacks a header field or the vocab line, or holds a malformed line
    raises ``DataError`` naming the file.  So does a header that
    :func:`train` would refuse: an order outside 1-3, a setting that
    fails :func:`check_settings`, or a ``pad`` other than 0 or 1, a count
    with more digits than ``int`` converts, and a byte that is not UTF-8,
    named with its offset in the file."""
    lines = read_text(path).rstrip("\n").split("\n")
    header = lines[0].split("\t")
    if header[0] != "ngram":
        raise DataError(f"{path}: not a model file (no 'ngram' header line)")
    fields = dict(part.split("=", 1) for part in header[1:] if "=" in part)
    try:
        order, k = int(fields["order"]), float(fields["k"])
        threshold, pad = int(fields["unk_threshold"]), int(fields["pad"])
    except KeyError as exc:
        raise DataError(f"{path}: header lacks field {exc}") from None
    except ValueError:
        raise DataError(f"{path}: line 1: malformed header {lines[0]!r}") from None
    try:
        _check_order(order)
        check_settings(k, threshold)
        if pad not in (0, 1):
            raise ValueError(f"pad must be 0 or 1, got {pad}")
    except ValueError as exc:
        raise DataError(f"{path}: line 1: {exc}") from None
    if len(lines) < 2 or not lines[1].startswith("vocab\t"):
        raise DataError(f"{path}: line 2: expected the vocab line")
    vocab = frozenset(lines[1][len("vocab\t"):].split(" "))

    counts: dict[tuple[str, ...], int] = {}
    for lineno, ln in enumerate(lines[2:], start=3):
        count_text, tab, gram_text = ln.partition("\t")
        gram = tuple(gram_text.split(" "))
        if not (tab and count_text.isdecimal() and len(gram) == order):
            raise DataError(f"{path}: line {lineno}: malformed n-gram line {ln!r}")
        try:
            counts[gram] = int(count_text)
        except ValueError:  # more digits than int() converts
            raise DataError(f"{path}: line {lineno}: n-gram count has {len(count_text)} "
                            "digits, too many to read") from None
    return NGramModel(order, k, threshold, bool(pad), counts,
                      _context_totals(counts), vocab)
