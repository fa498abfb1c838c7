"""Add-k smoothed n-gram language models over child utterances.

Orders 1-3.  Tokens are lowercased clean child tokens; with padding on
(the default) each utterance gets ``order - 1`` leading ``<s>`` symbols
and one trailing ``</s>``.  The vocabulary is the types seen at least
``unk_threshold`` times, plus ``<unk>`` (plus ``</s>`` when padding), so
add-k probabilities over any context sum to one.  One rule maps tokens,
in training and in scoring alike: a token outside the model's vocab
becomes ``<unk>``.  ``smoothing_k`` must be finite and at least 0 and
``unk_threshold`` at least 1 (:func:`check_settings`).

Training counts integers.  :func:`_number` numbers a text's distinct
tokens in sorted order, and :func:`_count` turns the numbered text of one
group into its tables of orders 1-3 (of its one order, for :func:`train`):
the vocab is the types seen at least
``unk_threshold`` times, one array maps every number to its vocab id (or
``<unk>``'s), and each order's n-grams are cut from the mapped text
(:func:`_cut`) and counted into the sorted int64 arrays that scoring reads
(:func:`_index`).  A model's ``counts`` and ``context_totals``, the tables
that the ``.lm`` format saves, are decoded from those arrays when the model
is built, and the model keeps the table it was decoded from:
:func:`train` builds its one model, and :class:`GroupModels` builds its
six when ``models`` is first read, which scoring, and so ``extract``,
never does.

Scoring reads integers: one engine serves the single-model
:func:`perplexity`, :func:`perplexity_features` and :class:`GroupModels`.
Each scores a :class:`_Table`, its symbols numbered and its contexts and
n-grams keyed as sorted int64 arrays (:func:`_index`): training counts
into one and hands it to the model, and a loaded model builds one from
its count dicts the first time it is scored.  Text is mapped to those
ids once per vocab and cut into windows by array arithmetic (:func:`_cut`);
``np.searchsorted`` reads each n-gram's count and context total
(:func:`_lookup`), and :func:`_score`, the one copy of the add-k formula,
turns them into perplexities in one pass over each batch of transcripts
(up to ``_BATCH_TOKENS`` tokens, or one longer transcript).  Each perplexity is the float that the
dict loops kept in ``tests/oracles.py`` give: the add-k ratio is the
same float64 arithmetic, the logs come from ``math.log`` and each
transcript's logs are added left to right.

:class:`GroupModels` is the one class for the six group models: it reads
each transcript's child sentences once, numbers the cohort's tokens once
and names every transcript by its index in the cohort, in training,
held-out views and scoring alike.  A group's three models are counted
from one mapping of its text.  Held-out scoring copies no count table
and retrains nothing: a member is scored against the full counts plus a
signed delta, what holding it out adds less what it removes, keyed by
the member in the same id space.  The deltas of all the members scored
together are built in one pass.  Those integer counts equal a retrain's
on the rest of the group, so each probability is the same float.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from itertools import chain, compress, count, repeat
from pathlib import Path

import numpy as np

from .chat import Transcript
from .errors import (DataError, EmptyCorpus, EmptyTranscript, ZeroProbability,
                     read_text)

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
ORDERS = (1, 2, 3)
_SPECIALS = (BOS, UNK, EOS)  # ids 0-2 in every model: a zero-filled stream is all <s>
_UNK_ID, _EOS_ID = 1, 2
_END = np.iinfo(np.int64).max  # closes each sorted key array, so every search lands inside
_BATCH_TOKENS = 2**13  # tokens scored in one batch, which holds about 20 arrays of its n-grams


@dataclass(frozen=True)
class _Index:
    """Counts keyed as int64 for ``np.searchsorted``: the sorted context
    keys with their ``totals``, and the sorted n-gram ``keys`` with their
    ``counts``.  An n-gram's key is its context's rank in ``ctx_keys``
    times ``width`` plus its last symbol's id.  Each key array ends in one
    ``_END``, whose total or count is 0."""
    width: int
    ctx_keys: np.ndarray
    totals: np.ndarray
    keys: np.ndarray
    counts: np.ndarray


def _index(width: int, ctx: np.ndarray, last: np.ndarray, counts=1) -> _Index:
    """The index of the n-grams with context keys ``ctx`` and last ids
    ``last``, each counted ``counts`` times (an array, or one count for
    all); an n-gram listed twice adds its counts, which may be negative.

    Keying an n-gram by its context's rank keeps every key below
    ``len(ctx_keys) * width``, where ``id1 * width**2 + id2 * width + id3``
    would wrap int64 once ``width`` passes about 2**21.  So the keys fit
    while ``width`` is below 2**31, an order-3 context key being
    ``id1 * width + id2``, and there are fewer than 2**32 contexts.  The
    sums are int64 additions, exact while they stay below 2**63."""
    ctx_keys = _distinct(ctx)
    rank = np.searchsorted(ctx_keys, ctx)
    gram_keys = rank * width + last
    keys = _distinct(gram_keys)
    return _Index(width, np.append(ctx_keys, _END), _sums(rank, counts, len(ctx_keys)),
                  np.append(keys, _END),
                  _sums(np.searchsorted(keys, gram_keys), counts, len(keys)))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, sorted.  ``np.unique`` gives the same, but
    with numpy 2.4 its first calls raise an ``extract`` process's peak
    RSS by about 1 MB, and a sort's by 0.4 MB."""
    ordered = np.sort(values)
    first = np.ones(len(ordered), bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def _sums(at: np.ndarray, values, n: int) -> np.ndarray:
    """The sum of ``values`` at each of ``n`` places, then a closing 0.
    ``np.bincount`` would add them as float64, inexact from 2**53."""
    sums = np.zeros(n + 1, np.int64)
    np.add.at(sums, at, values)
    return sums


def _lookup(index: _Index, ctx: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The count and the context total of each n-gram (``ctx``, ``last``)
    in ``index``; 0 for what it lacks, and a context key of -1 it lacks."""
    at = np.searchsorted(index.ctx_keys, ctx)
    unseen = index.ctx_keys[at] != ctx
    totals = index.totals[at]
    totals[unseen] = 0
    at *= index.width
    at += last
    at[unseen] = -1  # each n-gram's key, -1 under an unseen context
    hit = np.searchsorted(index.keys, at)
    counts = index.counts[hit]
    counts[index.keys[hit] != at] = 0
    return counts, totals


def _context_keys(prev: list[np.ndarray], width: int, n: int) -> np.ndarray:
    """The key of each of ``n`` contexts, given the ids of their symbols
    in ``prev``: 0 for order 1's empty context, the id for order 2's and
    ``id1 * width + id2`` for order 3's."""
    if not prev:
        return np.zeros(n, np.int64)
    return prev[0] if len(prev) == 1 else prev[0] * width + prev[1]


@dataclass(frozen=True)
class _Table:
    """A model's symbols numbered and its counts indexed.  ``<s>``,
    ``<unk>`` and ``</s>`` are 0-2 and the other vocab types 3 up in
    sorted order, so models with equal vocabs number alike.  The last id,
    ``index.width - 1``, stands for every other symbol that a loaded
    file's n-gram may name: no scored n-gram holds it, yet its counts add
    to their contexts' totals.  Totals are summed from the counts, as
    :func:`load_model` sums ``context_totals``."""
    symbols: tuple[str, ...]
    ids: dict[str, int]
    index: _Index

    def _grams(self, order: int, ctx, *last) -> list[tuple[str, ...]]:
        """The n-gram, or with no ``last`` the context, that each context
        key in ``ctx`` (and id in ``last``) stands for."""
        prev = np.divmod(ctx, self.index.width) if order == 3 else (ctx,) * (order - 1)
        if not prev and not last:
            return [()] * len(ctx)
        names = np.array(self.symbols, object)  # indexed by ids, it makes no Python int per id
        return list(zip(*[names[ids].tolist() for ids in (*prev, *last)]))

    def gram(self, order: int, ctx: int, last: int) -> tuple[str, ...]:
        """The n-gram that context key ``ctx`` and id ``last`` stand for."""
        return self._grams(order, [ctx], [last])[0]

    def decode(self, order: int) -> tuple[dict[tuple[str, ...], int],
                                          dict[tuple[str, ...], int]]:
        """The ``counts`` and ``context_totals`` of the order-``order``
        model that this table indexes."""
        index = self.index
        rank, last = np.divmod(index.keys[:-1], index.width)
        return (dict(zip(self._grams(order, index.ctx_keys[rank], last),
                         index.counts[:-1].tolist())),
                dict(zip(self._grams(order, index.ctx_keys[:-1]), index.totals[:-1].tolist())))

    def encode(self, tokens, n: int) -> np.ndarray:
        """The id of each of the ``n`` ``tokens``, ``<unk>``'s outside the
        vocab.  No clean token is ``<s>``, ``<unk>`` or ``</s>``: CHAT
        cleaning strips a word's leading ``<`` and trailing ``>``."""
        return np.fromiter(map(self.ids.get, tokens, repeat(_UNK_ID)), np.int64, n)


@dataclass(frozen=True)
class NGramModel:
    """One model's settings, counts and vocab.  ``table``, the index that
    training counted into, is kept for scoring; a model built without one,
    such as a loaded model, indexes its counts the first time it is
    scored.  ``table`` is no field, so it takes no part in ``==``."""
    order: int
    smoothing_k: float
    unk_threshold: int
    pad: bool
    counts: dict[tuple[str, ...], int]
    context_totals: dict[tuple[str, ...], int]
    vocab: frozenset[str]
    table: InitVar[_Table | None] = None

    def __post_init__(self, table: _Table | None) -> None:
        if table is not None:
            self.__dict__["_table"] = table  # what the cached property would build

    @functools.cached_property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @functools.cached_property
    def _table(self) -> _Table:
        symbols = (*_SPECIALS, *sorted(self.vocab.difference(_SPECIALS)))
        ids = dict(zip(symbols, range(len(symbols))))
        n, other = len(self.counts), len(symbols)
        *prev, last = np.fromiter(map(ids.get, chain.from_iterable(self.counts), repeat(other)),
                                  np.int64, n * self.order).reshape(n, self.order).T
        width = other + 1
        return _Table(symbols, ids, _index(width, _context_keys(prev, width, n), last,
                                           np.fromiter(self.counts.values(), np.int64, n)))


def _child_sentences(transcripts) -> list[list[str]]:
    """The lowercased clean tokens of each child utterance that has any."""
    sents = []
    for t in transcripts:
        for u in t.child_utterances:
            toks = list(map(str.lower, u.clean_tokens))
            if toks:
                sents.append(toks)
    return sents


def _number(rows) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The distinct tokens of ``rows``, each a list of sentences, sorted;
    each token's place among them, end to end; each sentence's length;
    and each row's sentence count.  One row is read at a time, and no
    token string is kept but the distinct ones."""
    first_seen: dict[str, int] = {}
    numbers: list[int] = []
    lengths: list[int] = []
    per_row: list[int] = []
    for sents in rows:
        flat = list(chain.from_iterable(sents))
        first_seen.update(zip(set(flat).difference(first_seen), count(len(first_seen))))
        numbers.extend(map(first_seen.__getitem__, flat))
        lengths.extend(map(len, sents))
        per_row.append(len(sents))
    types = sorted(first_seen)
    rank = np.empty(len(types), np.int64)
    rank[np.fromiter(map(first_seen.__getitem__, types), np.int64, len(types))] = \
        np.arange(len(types))
    return (types, rank[np.array(numbers, np.int64)], np.array(lengths, np.int64),
            np.array(per_row, np.int64))


def _count(types: list[str], tokens: np.ndarray, lengths: np.ndarray, unk_threshold: int,
           pad: bool, orders=ORDERS) -> tuple[np.ndarray, frozenset[str], dict[int, _Table]]:
    """The vocab id of each of ``types`` (sorted), the vocab, and the
    tables of ``orders``, trained on sentences ``lengths`` long whose
    tokens, each named by its place in ``types``, ``tokens`` holds end to
    end.

    The vocab keeps the types seen at least ``unk_threshold`` times,
    numbered from 3 in sorted order as :class:`_Table` numbers them, and
    maps every other type to ``<unk>``.  Each order's n-grams are cut from
    the one mapped text and counted straight into its table's index."""
    kept = np.bincount(tokens, minlength=len(types)) >= unk_threshold
    to_vocab = np.where(kept, np.cumsum(kept) + (len(_SPECIALS) - 1), _UNK_ID)
    kept_types = list(compress(types, kept.tolist()))
    symbols = (*_SPECIALS, *kept_types)
    ids = dict(zip(symbols, range(len(symbols))))
    vocab = frozenset(kept_types + ([UNK, EOS] if pad else [UNK]))
    width = len(symbols) + 1  # the last id stands for no symbol, as in _Table
    return to_vocab, vocab, {
        order: _Table(symbols, ids, _index(width, ctx, last))
        for order, (ctx, last, _) in zip(orders, _cut(to_vocab[tokens], lengths, pad, width,
                                                      orders))}


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
    """The order-``order`` model of :func:`_count` on the child sentences
    of ``transcripts``, taken as one group."""
    _check_order(order)
    check_settings(smoothing_k, unk_threshold)
    types, tokens, lengths, _ = _number([_child_sentences(transcripts)])
    if not len(lengths):
        raise EmptyCorpus("no child tokens to train on")
    _, vocab, tables = _count(types, tokens, lengths, unk_threshold, pad, (order,))
    return NGramModel(order, float(smoothing_k), int(unk_threshold), bool(pad),
                      *tables[order].decode(order), vocab, tables[order])


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``range(start, start + length)`` for each start and length, end to
    end."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def _cut(tokens: np.ndarray, lengths: np.ndarray, pad: bool, width: int, orders=ORDERS):
    """For each of ``orders`` in turn: the context keys and last ids of the
    n-grams of the sentences that ``tokens`` holds end to end, ``lengths``
    long each, in position order, and each sentence's n-gram count.

    With padding the orders share one padded stream and one array of
    window ends, a sentence's tokens and its ``</s>``; without, order n's
    windows end at each sentence's n-th token and after."""
    n = len(lengths)
    if pad:
        stream = np.zeros(len(tokens) + 3 * n, np.int64)  # all <s> until filled
        stream[np.repeat(3 * np.arange(n) + 2, lengths) + np.arange(len(tokens))] = tokens
        stream[np.cumsum(lengths + 3) - 1] = _EOS_ID
        ends = np.repeat(2 * np.arange(n) + 2, lengths + 1) + np.arange(len(tokens) + n)
        last, per_sentence = stream[ends], lengths + 1
        for order in orders:
            ctx = _context_keys([stream[ends - back] for back in range(order - 1, 0, -1)],
                                width, len(ends))
            yield ctx, last, per_sentence
    else:
        offset = np.arange(len(tokens)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        for order in orders:
            ends = np.flatnonzero(offset >= order - 1)
            ctx = _context_keys([tokens[ends - back] for back in range(order - 1, 0, -1)],
                                width, len(ends))
            yield ctx, tokens[ends], np.maximum(lengths - order + 1, 0)


def _spans(per_sentence: np.ndarray, sents_per_row: np.ndarray) -> list[int]:
    """Where each row's n-grams start, then where the last row's end: row
    ``r`` holds n-grams ``spans[r]:spans[r + 1]``."""
    starts = np.concatenate(([0], np.cumsum(per_sentence)))
    return starts[np.concatenate(([0], np.cumsum(sents_per_row)))].tolist()


def _score(counts: np.ndarray, totals: np.ndarray, k: float, vocab_sizes: np.ndarray,
           spans: list[int], where, gram) -> list:
    """Each row's perplexity under one model: exp of the mean negative log
    of (count + k) / (context total + k * vocab size) over its n-grams,
    row ``r`` holding ``spans[r]:spans[r + 1]`` of ``counts`` and
    ``totals``, with vocab size ``vocab_sizes[r]``.

    A row that cannot be scored holds, in its place, the error it raises:
    ``EmptyTranscript`` for no n-grams, ``ZeroProbability`` for a ``k``
    whose product with the vocab size overflows (every probability would
    be 0), else ``ZeroProbability`` naming its first zero-probability
    n-gram in position order.  ``where(r)`` names row ``r`` and the model
    in a message, ``gram(i)`` gives n-gram ``i``.

    The float is the dict loops': the ratio is the same IEEE float64
    arithmetic on integers below 2**53; the logs come from ``math.log``,
    one call per distinct probability (``np.log`` differs from it in the
    last bit on some CPUs); and ``np.cumsum`` adds each row's logs left to
    right, where builtin ``sum`` compensates from Python 3.12 and
    ``np.sum`` is pairwise."""
    with np.errstate(all="ignore"):  # inf and 0/0 are failures, found below
        k_vocab = k * vocab_sizes
        num = counts + k
        den = totals + np.repeat(k_vocab, np.diff(spans))
        prob = num / den
    bad = np.flatnonzero((num == 0.0) | (den == 0.0) | (prob <= 0.0))
    rows = np.searchsorted(spans, bad, "right") - 1
    first_bad = dict(zip(rows.tolist()[::-1], bad.tolist()[::-1]))  # the first in a row wins
    prob[bad] = 1.0  # their rows fail
    values = _distinct(prob)
    logs = np.fromiter(map(math.log, values.tolist()), np.float64,
                       len(values))[np.searchsorted(values, prob)]
    why = "(k=0 and unseen)" if k == 0 else \
        f"(smoothing_k={k!r} is above 0, but the add-k probability underflows to 0)"
    out = []
    for r, (a, b) in enumerate(zip(spans, spans[1:])):
        if a == b:
            out.append(EmptyTranscript(f"{where(r)}: no scorable positions"))
        elif not math.isfinite(k_vocab[r]):
            out.append(ZeroProbability(f"{where(r)}: smoothing_k={k!r} times the vocab size "
                                       f"{int(vocab_sizes[r])} overflows, so every "
                                       "probability is 0"))
        elif r in first_bad:
            out.append(ZeroProbability(f"{where(r)}: zero probability for "
                                       f"{gram(first_bad[r])} {why}"))
        else:
            out.append(math.exp(-float(np.cumsum(logs[a:b])[-1]) / (b - a)))
    return out


class GroupModels:
    """The six padded models (SLI/TD x orders 1-3) trained on the labelled
    transcripts, each transcript's perplexity features against them, and
    each labelled transcript's held-out view of its own group's models.

    Each transcript's child sentences are read once, here, and only their
    tokens' numbers are kept; every transcript is named by its index in
    ``transcripts``.  For each label, ``members`` holds the group's
    indices, ``n_sents`` their sentence count, and ``_vocabs`` and
    ``_tables`` its vocab and its three models' tables, which scoring
    reads; no per-member counts are kept.  :attr:`models` builds the six
    models from those tables when first read.  A group with no
    transcripts, or no child tokens, raises ``EmptyCorpus``: SLI is
    checked before TD.

    Every composite key below (a member and a type, a type and a
    sentence, a member and a sentence, a member and a context rank) stays
    under 2**63 while the vocabs have fewer than 2**31 types and the
    cohort fewer than 2**31 transcripts and 2**31 sentences."""

    def __init__(self, transcripts, smoothing_k: float = 1.0, unk_threshold: int = 1):
        self.transcripts = list(transcripts)
        # the cohort's sentences end to end: each token's place among the
        # cohort's types, each sentence's length and first token, each
        # transcript's sentence count, first sentence and token count
        types, tokens, self._lengths, self._sents_per_row = _number(
            _child_sentences([t]) for t in self.transcripts)
        self._starts = np.cumsum(self._lengths) - self._lengths
        self._first_sent = np.cumsum(self._sents_per_row) - self._sents_per_row
        ends = np.append(0, np.cumsum(self._lengths))
        self._row_tokens = (ends[self._first_sent + self._sents_per_row]
                            - ends[self._first_sent]).tolist()
        self.members: dict[str, list[int]] = {}
        self.n_sents: dict[str, int] = {}
        self._vocabs: dict[str, frozenset[str]] = {}
        self._tables: dict[str, dict[int, _Table]] = {}
        self._codes: dict[str, np.ndarray] = {}  # each cohort token's id in each group's vocab
        for label in ("SLI", "TD"):
            idx = [i for i, t in enumerate(self.transcripts) if t.group.value == label]
            if not idx:
                raise EmptyCorpus(f"no transcripts labeled {label}")
            # here, so a corpus with no SLI transcripts is named before a bad setting
            check_settings(smoothing_k, unk_threshold)
            sents = self._sentences(idx)
            self.n_sents[label] = len(sents)
            if not len(sents):
                raise EmptyCorpus(f"no child tokens to train on in the {label} group")
            self.members[label] = idx
            to_vocab, self._vocabs[label], self._tables[label] = _count(
                types, tokens[_ranges(self._starts[sents], self._lengths[sents])],
                self._lengths[sents], unk_threshold, True)
            self._codes[label] = to_vocab[tokens]
        self.smoothing_k, self.unk_threshold = float(smoothing_k), int(unk_threshold)

    @functools.cached_property
    def models(self) -> dict[str, dict[int, NGramModel]]:
        """The six models, built from their tables."""
        return {label: {order: NGramModel(order, self.smoothing_k, self.unk_threshold, True,
                                          *table.decode(order), self._vocabs[label], table)
                        for order, table in tables.items()}
                for label, tables in self._tables.items()}

    @functools.cached_property
    def _holders(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """For each group, every pair of a vocab type and a member's sentence
        that holds it, as a type array and a sentence array, sorted by type
        and then sentence."""
        n = len(self._lengths)
        holders = {}
        for label, idx in self.members.items():
            sents = self._sentences(idx)
            tokens, lengths = self._text(label, sents)
            real = tokens != _UNK_ID
            pairs = _distinct(tokens[real] * n + np.repeat(sents, lengths)[real])
            holders[label] = pairs // n, pairs % n
        return holders

    def _sentences(self, rows) -> np.ndarray:
        """The cohort indices of the sentences of transcripts ``rows``."""
        return _ranges(self._first_sent[rows], self._sents_per_row[rows])

    def _text(self, label: str, sents: np.ndarray, owners: np.ndarray | None = None,
              dropped: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The ids in ``label``'s vocab of sentences ``sents``, end to end,
        and their lengths.  With ``owners``, a sentence whose owner is a
        held member (not -1) maps the types that member's view drops to
        ``<unk>``: ``dropped`` holds the sorted keys ``member * width +
        id``, then ``_END``."""
        lengths = self._lengths[sents]
        tokens = self._codes[label][_ranges(self._starts[sents], lengths)]
        if owners is not None and len(dropped) > 1:
            key = np.repeat(owners, lengths) * self._tables[label][1].index.width + tokens
            tokens = np.where(dropped[np.searchsorted(dropped, key)] == key, _UNK_ID, tokens)
        return tokens, lengths

    def _held_out_error(self, i: int) -> EmptyCorpus | None:
        """``EmptyCorpus`` if holding labelled transcript ``i`` out of its
        group leaves no child tokens to train on, as :func:`train` on the
        rest would raise."""
        label = self.transcripts[i].group.value
        if self._sents_per_row[i] == self.n_sents[label]:
            return EmptyCorpus(f"no child tokens to train on in the {label} group "
                               f"without transcript {self.transcripts[i].id!r}")
        return None

    def _held_changes(self, label: str, held: list[int]):
        """What holding out each of ``held``, members of group ``label``,
        changes: the types its view drops, keyed ``member * width + id``
        and closed by ``_END``; how many it drops; its own sentences with
        their members; and the other members' sentences that the view maps
        anew, with the members they change.

        A view drops the types that the rest of the group holds fewer than
        ``unk_threshold`` times.  Those the rest still holds are *newly
        rare*: the rest's sentences that hold one move from the full
        vocab's mapping to the view's.  That work stays small, since such
        types are rare in the rest."""
        table = self._tables[label][1]
        width = table.index.width
        own = self._sentences(held)
        own_members = np.repeat(np.arange(len(held)), self._sents_per_row[held])
        tokens, lengths = self._text(label, own)
        real = tokens != _UNK_ID
        keys = np.repeat(own_members, lengths)[real] * width + tokens[real]
        pairs = _distinct(keys)
        own_counts = np.bincount(np.searchsorted(pairs, keys), minlength=len(pairs))
        # a vocab type's unigram count is its frequency in the group
        rest = _lookup(table.index, np.zeros(len(pairs), np.int64), pairs % width)[0] - own_counts
        dropped = rest < self.unk_threshold
        rare = pairs[dropped & (rest > 0)]
        moved = moved_members = np.zeros(0, np.int64)
        if len(rare):
            types, holders = self._holders[label]
            lo = np.searchsorted(types, rare % width)
            n_holders = np.searchsorted(types, rare % width, "right") - lo
            sents = holders[_ranges(lo, n_holders)]
            members = np.repeat(rare // width, n_holders)
            rows = np.repeat(np.arange(len(self.transcripts)), self._sents_per_row)
            other = rows[sents] != np.asarray(held)[members]
            n = len(self._lengths)
            pairs_moved = _distinct(members[other] * n + sents[other])
            moved, moved_members = pairs_moved % n, pairs_moved // n
        return (np.append(pairs[dropped], _END),
                np.bincount(pairs[dropped] // width, minlength=len(held)),
                own, own_members, moved, moved_members)

    def _views(self, label: str, rows: list[int], held_out: bool):
        """For orders 1-3 in turn, how ``label``'s models score transcripts
        ``rows``: the context keys and last ids of their n-grams in
        position order, the count and context total of each, the rows'
        spans (:func:`_spans`) and vocab sizes, and which rows are held
        out.

        With ``held_out``, the group's members among ``rows`` are scored
        against their held-out views, the full counts plus a signed delta
        keyed by the member: their own n-grams and those of their moved
        sentences under the full vocab count -1, the moved sentences'
        n-grams under the view count +1."""
        indexes = [self._tables[label][order].index for order in ORDERS]
        width = indexes[0].width
        held = [r for r, i in enumerate(rows)
                if held_out and self.transcripts[i].group.value == label]
        member = np.full(len(rows), -1)
        member[held] = np.arange(len(held))
        vocab_sizes = np.full(len(rows), len(self._vocabs[label]))
        sents = self._sentences(rows)
        owners = np.repeat(member, self._sents_per_row[rows])
        deltas = repeat(None)
        if held:
            dropped, n_dropped, own, own_members, moved, moved_members = \
                self._held_changes(label, [rows[r] for r in held])
            vocab_sizes[held] -= n_dropped
            d_members = np.concatenate((own_members, moved_members, moved_members))
            d_signs = np.repeat([-1, -1, 1], [len(own), len(moved), len(moved)])
            d_tokens, d_lengths = self._text(label, np.concatenate((own, moved, moved)),
                                             np.where(d_signs > 0, d_members, -1), dropped)
            deltas = _cut(d_tokens, d_lengths, True, width)
            tokens, lengths = self._text(label, sents, owners, dropped)
        else:
            tokens, lengths = self._text(label, sents)
        for index, (ctx, last, per_sentence), delta in zip(
                indexes, _cut(tokens, lengths, True, width), deltas):
            counts, totals = _lookup(index, ctx, last)
            if delta is not None:
                d_ctx, d_last, d_per_sentence = delta
                contexts = _distinct(d_ctx)
                changes = _index(width, np.repeat(d_members, d_per_sentence) * len(contexts)
                                 + np.searchsorted(contexts, d_ctx),
                                 d_last, np.repeat(d_signs, d_per_sentence))
                contexts = np.append(contexts, _END)
                at = np.searchsorted(contexts, ctx)
                gram_members = np.repeat(owners, per_sentence)
                query = np.where((contexts[at] == ctx) & (gram_members >= 0),
                                 gram_members * (len(contexts) - 1) + at, -1)
                d_counts, d_totals = _lookup(changes, query, last)
                counts, totals = counts + d_counts, totals + d_totals
            yield (ctx, last, counts, totals, _spans(per_sentence, self._sents_per_row[rows]),
                   vocab_sizes, member >= 0)

    def outcomes(self, held_out: bool = False) -> list:
        """For each transcript, its six features as :func:`perplexity_features`
        gives them, or the first error that scoring it meets.  With
        ``held_out``, a labelled transcript is scored against its own
        group's models without it; a group it leaves with no child tokens
        is its error, before anything is scored.  Each model scores the
        transcripts in batches of consecutive ones, one array pass per
        batch; a batch holds at most ``_BATCH_TOKENS`` tokens (or one
        longer transcript), which bounds its arrays."""
        out: list = []
        for i, t in enumerate(self.transcripts):
            error = held_out and t.group.value in self.members and self._held_out_error(i)
            if not error and not self._sents_per_row[i]:
                error = EmptyTranscript(f"transcript {t.id!r} has no child tokens")
            out.append(error or {})
        for batch in self._batches([i for i, features in enumerate(out)
                                    if isinstance(features, dict)]):
            for prefix, label in (("s", "SLI"), ("d", "TD")):
                for order, (ctx, last, counts, totals, spans, vocab_sizes, held) in zip(
                        ORDERS, self._views(label, batch, held_out)):
                    table, name = self._tables[label][order], f"{prefix}_{order}g_ppl"
                    results = _score(
                        counts, totals, self.smoothing_k, vocab_sizes, spans,
                        lambda r: (f"transcript {self.transcripts[batch[r]].id!r}, {label} "
                                   f"order-{order} model ({'held out' if held[r] else 'full'})"),
                        lambda j: table.gram(order, int(ctx[j]), int(last[j])))
                    for i, value in zip(batch, results):
                        if isinstance(out[i], dict):  # the first failure stands
                            if isinstance(value, float):
                                out[i][name] = value
                            else:
                                out[i] = value
        return out

    def _batches(self, rows: list[int]):
        """Transcripts ``rows`` cut into runs that hold at most
        ``_BATCH_TOKENS`` tokens between them, a longer transcript alone."""
        batch, size = [], 0
        for i in rows:
            tokens = self._row_tokens[i]
            if batch and size + tokens > _BATCH_TOKENS:
                yield batch
                batch, size = [], 0
            batch.append(i)
            size += tokens
        if batch:
            yield batch


def _score_one(t: Transcript, sents: list[list[str]], models) -> list[float]:
    """``t``'s perplexity under each of ``models``, pairs of a name for
    messages and a model, from its child sentences ``sents``; the first
    failure raises."""
    if not sents:
        raise EmptyTranscript(f"transcript {t.id!r} has no child tokens")
    flat = list(chain.from_iterable(sents))
    lengths = np.fromiter(map(len, sents), np.int64, len(sents))
    out = []
    for where, model in models:
        table = model._table
        (ctx, last, _), = _cut(table.encode(flat, len(flat)), lengths, model.pad,
                               table.index.width, (model.order,))
        value, = _score(*_lookup(table.index, ctx, last), model.smoothing_k,
                        np.array([model.vocab_size]), [0, len(last)], lambda r: where,
                        lambda j: table.gram(model.order, int(ctx[j]), int(last[j])))
        if not isinstance(value, float):
            raise value
        out.append(value)
    return out


def perplexity(model: NGramModel, t: Transcript) -> float:
    """exp of mean negative log probability per scored position.

    Padding symbols ``<s>`` only ever appear as context; ``</s>`` is a
    scored position when padding is on.
    """
    return _score_one(t, _child_sentences([t]),
                      [(f"transcript {t.id!r}, order-{model.order} model", model)])[0]


def perplexity_features(t: Transcript, sli_models: dict[int, NGramModel],
                        td_models: dict[int, NGramModel]) -> dict[str, float]:
    """The six perplexity features: s_* against the SLI models, d_*
    against the TD models, orders 1-3, from one read of the child
    sentences."""
    models = {f"{prefix}_{order}g_ppl": (
                  f"transcript {t.id!r}, {label} order-{order} model (full)", group[order])
              for prefix, label, group in (("s", "SLI", sli_models), ("d", "TD", td_models))
              for order in ORDERS}
    return dict(zip(models, _score_one(t, _child_sentences([t]), models.values())))


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
    with more digits than ``int`` converts, a count that takes its
    context's total to 2**63 or more (scoring reads them as int64), an
    n-gram on a second line (named with both line numbers), and a byte
    that is not UTF-8, named with its offset in the file."""
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
    totals: dict[tuple[str, ...], int] = {}
    for lineno, ln in enumerate(lines[2:], start=3):
        count_text, tab, gram_text = ln.partition("\t")
        gram = tuple(gram_text.split(" "))
        if not (tab and count_text.isdecimal() and len(gram) == order):
            raise DataError(f"{path}: line {lineno}: malformed n-gram line {ln!r}")
        if gram in counts:
            first = next(n for n, earlier in enumerate(lines[2:], start=3)
                         if earlier.partition("\t")[2] == gram_text)
            raise DataError(f"{path}: line {lineno}: n-gram {gram_text!r} repeats line {first}")
        try:
            counts[gram] = int(count_text)
        except ValueError:  # more digits than int() converts
            raise DataError(f"{path}: line {lineno}: n-gram count has {len(count_text)} "
                            "digits, too many to read") from None
        if counts[gram] >= 2**63:
            raise DataError(f"{path}: line {lineno}: n-gram count is 2**63 or more, "
                            "too large to score")
        totals[gram[:-1]] = totals.get(gram[:-1], 0) + counts[gram]
        if totals[gram[:-1]] >= 2**63:
            raise DataError(f"{path}: line {lineno}: n-gram count takes the total of its "
                            "context to 2**63 or more, too large to score")
    return NGramModel(order, k, threshold, bool(pad), counts, totals, vocab)
