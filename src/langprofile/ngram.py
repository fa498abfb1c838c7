"""Add-k smoothed n-gram language models over child utterances.

Orders 1-3.  Tokens are lowercased clean child tokens; with padding on
(the default) each utterance gets ``order - 1`` leading ``<s>`` symbols
and one trailing ``</s>``.  The vocabulary is the types seen at least
``unk_threshold`` times, plus ``<unk>`` (plus ``</s>`` when padding), so
add-k probabilities over any context sum to one.  One rule maps tokens,
in training and in scoring alike: a token outside the model's vocab
becomes ``<unk>``.  :func:`_ngrams` applies it and cuts the windows.

``smoothing_k`` must be finite and at least 0 and ``unk_threshold`` at
least 1 (:func:`check_settings`).

Leave-one-out models (:func:`leave_one_out`) are not retrained: each is
the group's full model minus the held-out transcript's n-gram counts,
with the few types that leave the vocab without it remapped to ``<unk>``.  A
group of n transcripts costs one pass over its text plus n copies of
the count tables, with no retrains, and every held-out model is ``==``
to the model :func:`train` gives on the rest of the group.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .chat import Transcript
from .errors import DataError, EmptyCorpus, EmptyTranscript, ZeroProbability

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


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


def _child_sentences(transcripts) -> list[list[str]]:
    sents = []
    for t in transcripts:
        for u in t.child_utterances():
            toks = [w.lower() for w in u.clean_tokens]
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
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2, or 3, got {order}")


def train(transcripts, order: int, smoothing_k: float = 1.0,
          unk_threshold: int = 1, pad: bool = True) -> NGramModel:
    _check_order(order)
    check_settings(smoothing_k, unk_threshold)
    sents = _child_sentences(transcripts)
    if not sents:
        raise EmptyCorpus("no child tokens to train on")

    freq = Counter(tok for s in sents for tok in s)
    vocab = frozenset([tok for tok, c in freq.items() if c >= unk_threshold]
                      + ([UNK, EOS] if pad else [UNK]))

    counts: dict[tuple[str, ...], int] = {}
    context_totals: dict[tuple[str, ...], int] = {}
    for s in sents:
        _count(counts, context_totals, _ngrams(s, vocab, order, pad), 1)
    return NGramModel(order, float(smoothing_k), int(unk_threshold), bool(pad),
                      counts, context_totals, vocab)


def _ngrams(sent: list[str], vocab, order: int, pad: bool) -> list[tuple[str, ...]]:
    """The n-grams of one sentence, with the tokens outside ``vocab``
    mapped to ``<unk>``.  No clean token is ``<unk>`` or ``</s>``: CHAT
    cleaning strips a word's leading ``<`` and trailing ``>``."""
    mapped = [tok if tok in vocab else UNK for tok in sent]
    if pad:
        mapped = [BOS] * (order - 1) + mapped + [EOS]
    return [tuple(mapped[i:i + order]) for i in range(len(mapped) - order + 1)]


def _count(counts: dict, context_totals: dict, grams, delta: int) -> None:
    for gram in grams:
        counts[gram] = counts.get(gram, 0) + delta
        context_totals[gram[:-1]] = context_totals.get(gram[:-1], 0) + delta


def leave_one_out(members, full: dict[int, NGramModel]):
    """Yield, in member order, each member's ``{1, 2, 3}`` models trained
    on all the other members, given ``full``, the models trained on all
    of them; the held-out models keep ``full``'s settings.

    The three orders share one vocab, read from ``full[1]``, and each
    member's held-out vocab is built once for all three.  Each held-out
    model starts from copies of the full counts and loses the member's
    own n-grams.  Types the rest still holds, but fewer than
    ``unk_threshold`` times, are *newly rare*: they leave the vocab, so
    the other members' sentences that hold one move from the full
    vocab's mapping to the held-out one.  That work stays small, since
    such types are rare in the rest.  A member whose removal leaves no
    child tokens raises ``EmptyCorpus``, as :func:`train` does.
    """
    unk_threshold, pad, vocab = full[1].unk_threshold, full[1].pad, full[1].vocab
    sents = [_child_sentences([t]) for t in members]
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
                       for gram in _ngrams(s, vocab, order, pad)]
            counts = dict(full[order].counts)
            context_totals = dict(full[order].context_totals)
            _count(counts, context_totals, removed, -1)
            _count(counts, context_totals,
                   [gram for s in remapped for gram in _ngrams(s, rest_vocab, order, pad)], 1)
            for gram in removed:  # a retrain holds no zero counts
                if counts.get(gram) == 0:
                    del counts[gram]
                if context_totals.get(gram[:-1]) == 0:
                    del context_totals[gram[:-1]]
            models[order] = NGramModel(order, full[order].smoothing_k, unk_threshold,
                                       pad, counts, context_totals, rest_vocab)
        yield models


def perplexity(model: NGramModel, t: Transcript) -> float:
    """exp of mean negative log probability per scored position.

    Padding symbols ``<s>`` only ever appear as context; ``</s>`` is a
    scored position when padding is on.
    """
    return _perplexity(model, _child_sentences([t]), t)


def _perplexity(model: NGramModel, sents: list[list[str]], t: Transcript) -> float:
    """:func:`perplexity` of ``t`` from its child sentences ``sents``."""
    if not sents:
        raise EmptyTranscript(f"transcript {t.id!r} has no child tokens")
    log_sum = 0.0
    n = 0
    for s in sents:
        # every window predicts its final symbol; <s> fills context only
        for gram in _ngrams(s, model.vocab, model.order, model.pad):
            p = model.prob(gram)
            if p <= 0.0:
                raise ZeroProbability(f"zero probability for {gram} (k=0 and unseen)")
            log_sum += math.log(p)
            n += 1
    if n == 0:
        raise EmptyTranscript(f"transcript {t.id!r} has no scorable positions")
    return math.exp(-log_sum / n)


def perplexity_features(t: Transcript, sli_models: dict[int, NGramModel],
                        td_models: dict[int, NGramModel]) -> dict[str, float]:
    """The six perplexity features: s_* against the SLI models, d_*
    against the TD models, orders 1-3.  The child sentences are read once
    and mapped through each model's vocab, as :func:`perplexity` does."""
    sents = _child_sentences([t])
    return {f"{prefix}_{order}g_ppl": _perplexity(models[order], sents, t)
            for prefix, models in (("s", sli_models), ("d", td_models))
            for order in (1, 2, 3)}


def train_group_models(transcripts, smoothing_k: float = 1.0,
                       unk_threshold: int = 1, pad: bool = True
                       ) -> dict[str, dict[int, NGramModel]]:
    """Train the six models (SLI/TD x orders 1-3) from labeled transcripts."""
    out: dict[str, dict[int, NGramModel]] = {}
    for label in ("SLI", "TD"):
        members = [t for t in transcripts if t.group.value == label]
        if not members:
            raise EmptyCorpus(f"no transcripts labeled {label}")
        out[label] = {o: train(members, o, smoothing_k, unk_threshold, pad)
                      for o in (1, 2, 3)}
    return out


# -- on-disk format -------------------------------------------------------
# header line: ngram\torder=<n>\tk=<float>\tunk_threshold=<int>\tpad=<0|1>
# vocab line:  vocab\t<type> <type> ...                        (sorted)
# then one line per n-gram: <count>\t<w1>[ <w2>[ <w3>]]      (sorted)


def save_model(model: NGramModel, path: str | Path) -> None:
    lines = [f"ngram\torder={model.order}\tk={model.smoothing_k!r}"
             f"\tunk_threshold={model.unk_threshold}\tpad={int(model.pad)}",
             "vocab\t" + " ".join(sorted(model.vocab))]
    for gram in sorted(model.counts):
        lines.append(f"{model.counts[gram]}\t{' '.join(gram)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> NGramModel:
    """Read a model written by :func:`save_model`; a file that is empty,
    lacks a header field or the vocab line, or holds a malformed line
    raises ``DataError`` naming the file.  So does a header that
    :func:`train` would refuse: an order outside 1-3, a setting that
    fails :func:`check_settings`, or a ``pad`` other than 0 or 1, and a
    byte that is not UTF-8, named with its offset in the file."""
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:  # read_text decodes the whole file at once
        raise DataError(f"{path}: not UTF-8: byte {exc.object[exc.start]:#04x} "
                        f"at offset {exc.start}") from None
    lines = text.rstrip("\n").split("\n")
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
    context_totals: Counter = Counter()
    for lineno, ln in enumerate(lines[2:], start=3):
        count_text, tab, gram_text = ln.partition("\t")
        gram = tuple(gram_text.split(" "))
        if not (tab and count_text.isdecimal() and len(gram) == order):
            raise DataError(f"{path}: line {lineno}: malformed n-gram line {ln!r}")
        counts[gram] = int(count_text)
        context_totals[gram[:-1]] += counts[gram]
    return NGramModel(order, k, threshold, bool(pad), counts,
                      dict(context_totals), vocab)
