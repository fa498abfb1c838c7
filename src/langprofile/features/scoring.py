"""Table-driven sentence scoring (DSS-style), productive-syntax
checklist scoring (IPSyn-style) and the per-token feature counts.

DSS and IPSyn are data-driven: the shipped default tables are
deliberately simplified approximations of the published book-length
originals and can be replaced by passing a different JSON file.  The
count table (``data/counts_table.json``) names the 27 features that
count tokens, windows or utterances.  Rule semantics:

* token rules match one mor token: ``pos``/``pos_in`` are POS prefixes
  (segment-aware, so ``"n"`` matches ``n:prop`` but not ``neg``),
  ``lemma_in`` matches lowercased lemmas, ``suffix_in``/``fusion_in``
  match affix markers and ``affix_in`` either kind, ``inflected`` tests
  for any suffix or fusion, and ``contracted`` tests whether the aligned
  surface word carries an apostrophe
* ``sequence`` rules match consecutive mor tokens within an utterance
* ``structural`` rules test utterance shape: ``question``,
  ``wh_question``, ``aux_initial_question``, ``multiword``

One engine scores all three tables, one array pass per cohort.
:class:`CompiledTable` gives each distinct token predicate one bit and
turns each rule into a bit, a tuple of bits (a sequence) or a structural
name.  A token's mask, the OR of the bits of the predicates it matches,
is computed once per distinct token and cached in the compiled table,
so the cache lives as long as the table: ``pipeline.extract_cohort``
compiles the three tables once per job on one shared cache
(:func:`compile_tables`) and scores the whole cohort once
(:func:`score_cohort`).  Nothing is cached at module level.

The pass (:class:`_Cohort`) lays the cohort's child mor tokens end to
end in one ``uint64`` array of masks, with a 0 after each utterance.  A
token rule is then an AND of that array with its bit, counted per
transcript; a sequence ANDs shifted views of it; and the OR of each
utterance's masks serves the utterance counts, DSS scorability and the
DSS token rules.  Each structural shape is worked out once per
utterance per cohort.  A table set with more than 64 distinct
predicates fills a second 64-bit word per token.
"""

from __future__ import annotations

import json
import operator
from importlib import resources
from itertools import chain, compress, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..chat import MorToken, Terminator
from ..errors import DataError, read_text
from ..ngram import _distinct

_WH_LEMMAS = frozenset({"who", "whom", "whose", "what", "where",
                        "when", "why", "how", "which"})

_VERBAL_POS = frozenset({"v", "aux", "cop", "mod"})

_AUX_INITIAL_POS = frozenset({"aux", "cop", "mod"})

_STRUCTURAL_NAMES = ("question", "wh_question", "aux_initial_question", "multiword")

# the token predicate that each question shape reads: a wh-word anywhere
# in the utterance, or an auxiliary, copula or modal as its first token
_STRUCTURAL_PREDICATES = {"wh_question": {"lemma_in": sorted(_WH_LEMMAS)},
                          "aux_initial_question": {"pos_in": sorted(_AUX_INITIAL_POS)}}


def _packaged(name: str) -> dict:
    ref = resources.files("langprofile.features").joinpath(f"data/{name}")
    return json.loads(ref.read_text(encoding="utf-8"))


def default_dss_table() -> dict:
    return _packaged("dss_table.json")


def default_ipsyn_table() -> dict:
    return _packaged("ipsyn_table.json")


def default_counts_table() -> dict:
    return _packaged("counts_table.json")


def load_table(path: str | Path, key: str) -> dict:
    """Read a custom DSS table (``key`` is ``"categories"``) or IPSyn table
    (``key`` is ``"structures"``), and validate that kind only.

    A file that is not JSON, that lacks ``key`` or another key the scorers
    look up, or whose values do not have the documented types (integer
    ``points``, a non-negative integer ``cap``, one of the four
    ``structural`` names, a non-empty ``sequence`` of token predicates, a
    string ``pos``, lists of strings for the ``*_in`` keys, a boolean
    ``inflected``), or whose token predicate or DSS rule holds a key
    outside those, raises ``DataError`` naming the file and the key.  So
    does a DSS table whose highest utterance score, each category's top
    points plus the sentence point, is too large for a float: it names
    the top rule of the category that takes the sum past that.
    """
    try:
        table = json.loads(read_text(path))
    except ValueError as exc:  # not JSON, or an integer over int's digit limit
        raise DataError(f"{path}: not a JSON scoring table ({exc})") from None
    entries = _list_at(table, key, str(path))
    if key == "categories":
        top = int(bool(table.get("sentence_point")))  # the highest utterance score
        for i, category in enumerate(entries):
            best, best_at = 0, ""
            for j, rule in enumerate(_list_at(category, "rules",
                                              f"{path}: categories[{i}]")):
                where = f"categories[{i}].rules[{j}]"
                _check_predicate(rule, path, where, _DSS_RULE_KEYS)
                if "points" not in rule:
                    raise DataError(f"{path}: {where}: missing key 'points'")
                _require(_is_int(rule["points"]), path, f"{where}.points", "an integer",
                         rule["points"])
                _check_shape(rule, path, where)
                if rule["points"] > best:
                    best, best_at = rule["points"], f"{where}.points"
            top += best
            try:
                float(top)
            except OverflowError:
                raise DataError(f"{path}: {best_at!r} takes the highest utterance score, "
                                "each category's top points plus the sentence point, "
                                "past the largest float") from None
    else:
        for i, struct in enumerate(entries):
            if not isinstance(struct, dict) \
                    or not {"token", "sequence", "structural"} & struct.keys():
                raise DataError(f"{path}: structures[{i}]: missing key 'token' "
                                "(or 'sequence' or 'structural')")
            if "token" in struct:
                _check_predicate(struct["token"], path, f"structures[{i}].token")
            _check_shape(struct, path, f"structures[{i}]")
        if "cap" in table:
            _require(_is_int(table["cap"]) and table["cap"] >= 0, path, "cap",
                     "a non-negative integer", table["cap"])
    return table


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# token-predicate key -> (type test, what the value must be)
_PREDICATE_TYPES = {
    "pos": (lambda v: isinstance(v, str), "a string"),
    "pos_in": (_is_str_list, "a list of strings"),
    "lemma_in": (_is_str_list, "a list of strings"),
    "suffix_in": (_is_str_list, "a list of strings"),
    "fusion_in": (_is_str_list, "a list of strings"),
    "affix_in": (_is_str_list, "a list of strings"),
    "inflected": (lambda v: isinstance(v, bool), "a boolean"),
    "contracted": (lambda v: isinstance(v, bool), "a boolean"),
}


def _require(ok: bool, path, key: str, kind: str, value) -> None:
    if not ok:
        raise DataError(f"{path}: {key!r} must be {kind}, got {value!r}")


# the keys a DSS rule may hold beside those of its token predicate
_DSS_RULE_KEYS = ("points", "sequence", "structural", "name")


def _check_predicate(pred, path, key: str, other_keys: tuple[str, ...] = ()) -> None:
    """A token predicate at ``key``, which may also hold ``other_keys``: a
    misspelt key would otherwise drop its condition from the rule."""
    _require(isinstance(pred, dict), path, key, "an object", pred)
    for name in pred:
        if name not in _PREDICATE_TYPES and name not in other_keys:
            raise DataError(f"{path}: {key}: unknown key {name!r}")
    for name, (test, kind) in _PREDICATE_TYPES.items():
        if name in pred:
            _require(test(pred[name]), path, f"{key}.{name}", kind, pred[name])


def _check_shape(rule: dict, path, key: str) -> None:
    """The ``sequence`` and ``structural`` keys of a DSS rule or IPSyn structure."""
    if "sequence" in rule:
        seq = rule["sequence"]
        _require(isinstance(seq, list) and bool(seq), path, f"{key}.sequence",
                 "a non-empty list of token predicates", seq)
        for k, pred in enumerate(seq):
            _check_predicate(pred, path, f"{key}.sequence[{k}]")
    if "structural" in rule:
        _require(rule["structural"] in _STRUCTURAL_NAMES, path, f"{key}.structural",
                 f"one of {', '.join(_STRUCTURAL_NAMES)}", rule["structural"])


def _list_at(obj, key: str, where: str) -> list:
    if not isinstance(obj, dict) or key not in obj:
        raise DataError(f"{where}: missing key {key!r}")
    if not isinstance(obj[key], list):
        raise DataError(f"{where}: {key!r} is not a list")
    return obj[key]


def _token_matches(tok, pred: dict, contracted: bool = False) -> bool:
    """Whether ``tok``, whose surface word carries an apostrophe when
    ``contracted``, matches ``pred``."""
    if "pos" in pred and pred["pos"] not in tok.pos_classes:
        return False
    if "pos_in" in pred and tok.pos_classes.isdisjoint(pred["pos_in"]):
        return False
    if "lemma_in" in pred and tok.lemma.lower() not in pred["lemma_in"]:
        return False
    if "suffix_in" in pred and not any(s in tok.suffixes for s in pred["suffix_in"]):
        return False
    if "fusion_in" in pred and not any(f in tok.fusions for f in pred["fusion_in"]):
        return False
    if "affix_in" in pred and not any(a in tok.suffixes or a in tok.fusions
                                      for a in pred["affix_in"]):
        return False
    if "inflected" in pred:
        inflected = bool(tok.suffixes or tok.fusions)
        if inflected != pred["inflected"]:
            return False
    if "contracted" in pred and pred["contracted"] != contracted:
        return False
    return True


def _predicate_key(pred: dict) -> tuple:
    """A token predicate's keys and values, in a fixed order: the same
    predicate written twice, or with its keys or list items reordered,
    has one key."""
    return tuple(sorted((name, tuple(sorted(value)) if isinstance(value, list) else value)
                        for name, value in pred.items() if name in _PREDICATE_TYPES))


def _matching_bits(tok, contracted: bool, filed: dict, lemma: str | None) -> int:
    """The OR of the bits of the predicates filed under ``(class, lemma)``
    for a class of ``tok`` (or ``None``) that ``tok`` matches."""
    mask = 0
    for cls in (None, *tok.pos_classes):
        for bit, pred in filed.get((cls, lemma), ()):
            if _token_matches(tok, pred, contracted):
                mask |= bit
    return mask


class _MaskCache(dict):
    """Each distinct token's mask, the OR of the bits of the token
    predicates it matches, computed on its first lookup.  Keyed by token
    value and whether the aligned surface word carries an apostrophe, so
    equal tokens from different transcripts share an entry.

    Each distinct predicate owns one bit and is filed in ``filed`` under
    each POS class it requires (``None`` when it requires none) and, with
    ``lemma_in``, under each of its lemmas (``None`` without), so a token
    is tested only against the predicates its classes and its lowercased
    lemma allow.  A predicate without ``lemma_in`` reads only the token's
    shape (POS tag, affixes and the apostrophe), so its bits are computed
    once per shape; tokens differ mostly by lemma."""

    def __init__(self):
        super().__init__()
        self.bits: dict[tuple, int] = {}
        self.filed: dict[tuple[str | None, str | None], list[tuple[int, dict]]] = {}
        self.shapes: dict[tuple, int] = {}  # (pos_tag, suffixes, fusions, apostrophe) -> bits

    def bit(self, pred: dict) -> int:
        key = _predicate_key(pred)
        if key not in self.bits:
            self.clear()  # the masks cached so far lack the new bit
            self.shapes.clear()
            bit = self.bits[key] = 1 << len(self.bits)
            for cls in [pred["pos"]] if "pos" in pred else pred.get("pos_in", [None]):
                for lemma in set(pred.get("lemma_in", [None])):
                    self.filed.setdefault((cls, lemma), []).append((bit, pred))
        return self.bits[key]

    def __missing__(self, key: tuple[MorToken, bool]) -> int:
        tok, contracted = key
        shape = (tok.pos_tag, tok.suffixes, tok.fusions, contracted)
        if shape not in self.shapes:
            self.shapes[shape] = _matching_bits(tok, contracted, self.filed, None)
        mask = self[key] = self.shapes[shape] | _matching_bits(tok, contracted, self.filed,
                                                               tok.lemma.lower())
        return mask


class CompiledTable:
    """A DSS table (``key`` ``"categories"``), IPSyn table (``key``
    ``"structures"``) or count table (``key`` ``"counts"``) made ready
    for scoring.

    Each rule becomes the bit of its token predicate, a tuple of bits (a
    ``sequence``) or a ``structural`` name.  A DSS category keeps only its
    rules worth more than 0 points, highest first, so its first hit is its
    best; ``score_type`` is int64 when that holds every utterance's score
    exactly, and Python objects otherwise.  Token masks are cached in
    ``masks``, so they live as long as this object: one job.
    """

    def __init__(self, table: dict, key: str, masks: _MaskCache):
        self.masks = masks
        if key == "categories":
            self.categories = [
                sorted([(self._rule(rule, rule), rule["points"]) for rule in category["rules"]
                        if rule["points"] > 0], key=operator.itemgetter(1), reverse=True)
                for category in table["categories"]]
            self.sentence_point = bool(table.get("sentence_point"))
            self.verbal = self.masks.bit({"pos_in": sorted(_VERBAL_POS)})
            top = sum(category[0][1] for category in self.categories if category) + 1
            self.score_type = np.int64 if top < 2**63 and all(
                type(points) is int for category in self.categories for _, points in category
            ) else object
        elif key == "structures":
            self.structures = [self._rule(struct, struct.get("token"))
                               for struct in table["structures"]]
            # no count reaches 2**62, so a larger cap is no cap, and fits int64
            self.cap = min(int(table.get("cap", 2)), 2**62)
        else:
            self.tokens = [(name, self.masks.bit(pred))
                           for name, pred in table["tokens"].items()]
            self.sequences = [(name, self._rule({"sequence": seq}, None))
                              for name, seq in table["sequences"].items()]
            self.utterances = [(name, self.masks.bit(pred))
                               for name, pred in table["utterances"].items()]

    def _rule(self, rule: dict, token: dict | None) -> int | tuple[int, ...] | str:
        if "structural" in rule:
            return rule["structural"]
        if "sequence" in rule:
            return tuple(self.masks.bit(pred) for pred in rule["sequence"])
        return self.masks.bit(token)


def compile_tables(dss: dict | None = None, ipsyn: dict | None = None
                   ) -> tuple[CompiledTable, CompiledTable, CompiledTable]:
    """The DSS and IPSyn tables (``None``: the shipped ones) and the
    shipped count table, compiled on one mask cache, so each distinct
    token is tested once for all three."""
    masks = _MaskCache()
    return (CompiledTable(default_dss_table() if dss is None else dss, "categories", masks),
            CompiledTable(default_ipsyn_table() if ipsyn is None else ipsyn, "structures", masks),
            CompiledTable(default_counts_table(), "counts", masks))


_MOR, _WORDS, _TERMINATOR, _WORD_ERRORS, _POSTCODES = map(operator.attrgetter, (
    "mor_tokens", "clean_tokens", "terminator", "events.word_errors", "postcodes"))


def _word(bit: int) -> tuple[int, np.uint64]:
    """The row of a mask array that holds ``bit``, and ``bit`` within it."""
    row = (bit.bit_length() - 1) >> 6
    return row, np.uint64(bit >> (row << 6))


class _Cohort:
    """The child mor tokens of a cohort, scored in array passes.

    ``masks`` holds each token's mask from the cache, the utterances end to
    end with a 0 after each, so that no run of tokens spans two
    utterances.  Row ``w`` holds bits ``64 w`` to ``64 w + 63``: a cache
    with more than 64 predicates fills a second row.  Only the child
    utterances with mor tokens take part.  ``start`` is each utterance's
    first position, ``owner`` and ``utt_owner`` the transcript of each
    position and of each utterance, and ``present`` the OR of each
    utterance's masks.  Each distinct token object is looked up in the
    cache once per apostrophe: equal mor items of one corpus share a
    token object (``chat.parse_chat``'s ``mor_cache``)."""

    def __init__(self, transcripts, cache: _MaskCache):
        self._shape_bits = {name: cache.bit(pred) for name, pred in _STRUCTURAL_PREDICATES.items()}
        self.n = len(transcripts)
        per = [list(compress(t.child_utterances, map(_MOR, t.child_utterances)))
               for t in transcripts]
        self.utterances = utts = list(chain.from_iterable(per))
        self.utt_owner = np.repeat(np.arange(self.n), list(map(len, per)))
        lengths = np.fromiter(map(len, map(_MOR, utts)), np.intp, len(utts))
        self.n_words = np.fromiter(map(len, map(_WORDS, utts)), np.intp, len(utts))
        self.start = np.cumsum(lengths + 1) - lengths - 1
        self.owner = np.repeat(self.utt_owner, lengths + 1)
        tokens = list(chain.from_iterable(map(_MOR, utts)))
        at = np.arange(len(tokens)) + np.repeat(np.arange(len(utts)), lengths)  # in masks
        # each token's surface word: the word at its place in the utterance,
        # or one without an apostrophe past the end of the words
        words = list(chain.from_iterable(map(_WORDS, utts)))
        apostrophe = np.fromiter(map(operator.contains, words, repeat("'")), bool, len(words))
        place = at - np.repeat(self.start, lengths)
        word = np.repeat(np.cumsum(self.n_words) - self.n_words, lengths) + place
        contracted = np.append(apostrophe, False)[
            np.where(place < np.repeat(self.n_words, lengths), word, len(words))]
        # each distinct (token object, apostrophe) pair, looked up once
        keys = np.fromiter(map(id, tokens), np.int64, len(tokens)) << 1 | contracted
        distinct = _distinct(keys)
        codes = np.searchsorted(distinct, keys)
        first = np.empty(len(distinct), np.intp)
        first[codes] = np.arange(len(keys))  # any occurrence: equal keys hold one token
        masks = [cache[tokens[i], c] for i, c in zip(first.tolist(), contracted[first].tolist())]
        rows = max(1, -(-len(cache.bits) // 64))
        table = np.array([[mask >> shift & 0xFFFF_FFFF_FFFF_FFFF for mask in masks]
                          for shift in range(0, 64 * rows, 64)], np.uint64).reshape(rows, -1)
        self.masks = np.zeros((rows, len(self.owner)), np.uint64)
        self.masks[:, at] = table[:, codes]
        self.present = np.bitwise_or.reduceat(self.masks, self.start, axis=1) if utts \
            else self.masks
        self._structural: dict[str, np.ndarray] = {}

    def hits(self, bit: int) -> np.ndarray:
        """Whether each position's mask has ``bit``."""
        row, value = _word(bit)
        return (self.masks[row] & value) != 0

    def windows(self, bits: tuple[int, ...]) -> np.ndarray:
        """Whether a run of ``len(bits)`` tokens matching the sequence
        starts at each position: an AND of shifted views of the masks."""
        n = max(0, self.masks.shape[1] - len(bits) + 1)
        hit = self.hits(bits[0])[:n]
        for j, bit in enumerate(bits[1:], 1):
            hit &= self.hits(bit)[j:j + n]
        return hit

    def utterance_hits(self, bit: int) -> np.ndarray:
        """Whether each utterance has a token with ``bit``."""
        row, value = _word(bit)
        return (self.present[row] & value) != 0

    def structural(self, name: str) -> np.ndarray:
        """Whether each utterance has the shape ``name``, worked out once
        per cohort."""
        if name not in self._structural:
            utts = self.utterances
            if name == "multiword":
                hit = self.n_words >= 2
            elif name == "question":
                hit = np.fromiter(map(operator.is_, map(_TERMINATOR, utts),
                                      repeat(Terminator.QUESTION)), bool, len(utts))
            elif name == "wh_question":
                hit = self.structural("question") \
                    & self.utterance_hits(self._shape_bits[name])
            elif name == "aux_initial_question":
                hit = self.structural("question") \
                    & self.hits(self._shape_bits[name])[self.start]
            else:
                raise ValueError(f"unknown structural predicate {name!r}")
            self._structural[name] = hit
        return self._structural[name]

    def _in_utterance(self, rule) -> np.ndarray:
        """Whether each utterance holds a hit of the compiled ``rule``."""
        if type(rule) is int:
            return self.utterance_hits(rule)
        if type(rule) is tuple:
            runs = self.windows(rule)
            hit = np.zeros(self.masks.shape[1], bool)
            hit[:len(runs)] = runs
            return np.logical_or.reduceat(hit, self.start) if len(self.start) else hit
        return self.structural(rule)

    def _per_transcript(self, hit: np.ndarray) -> np.ndarray:
        """How many hits, at positions from the first on, each transcript holds."""
        return np.bincount(self.owner[:len(hit)][hit], minlength=self.n)

    def _occurrences(self, rule) -> np.ndarray:
        """Each transcript's tokens, runs or utterances that match the
        compiled ``rule``."""
        if type(rule) is int:
            return self._per_transcript(self.hits(rule))
        if type(rule) is tuple:
            return self._per_transcript(self.windows(rule))
        return np.bincount(self.utt_owner[self.structural(rule)], minlength=self.n)

    def dss(self, rules: CompiledTable) -> list[float | None]:
        """Each transcript's DSS score, the mean utterance score over its
        scorable child utterances (those with a verbal mor element), or
        ``None`` for none.  An utterance scores, in each category, the
        points of its highest-point rule with a hit, plus the sentence
        point, when the table gives one, if it is complete and error-free.
        A category's points go to each utterance with a hit of the rule,
        lowest first, so the highest-point hit is written last.  Each
        transcript's scores are added left to right as float64, as a loop
        adds them."""
        utts = self.utterances
        score = np.zeros(len(utts), rules.score_type)
        for category in rules.categories:
            best = np.zeros_like(score)
            for rule, points in reversed(category):
                best[self._in_utterance(rule)] = points
            score += best
        if rules.sentence_point:  # complete and error-free
            score += ((np.fromiter(map(_WORD_ERRORS, utts), np.int64, len(utts)) == 0)
                      & (np.fromiter(map(len, map(_POSTCODES, utts)), np.intp, len(utts)) == 0)
                      & np.fromiter(map(operator.is_not, map(_TERMINATOR, utts),
                                        repeat(Terminator.TRAIL_OFF)), bool, len(utts)))
        scorable = self.utterance_hits(rules.verbal)
        owner = self.utt_owner[scorable]
        totals = np.bincount(owner, score[scorable].astype(float), self.n).tolist()
        return [total / n if n else None
                for total, n in zip(totals, np.bincount(owner, minlength=self.n).tolist())]

    def ipsyn(self, rules: CompiledTable) -> list[float | None]:
        """Each transcript's IPSyn checklist score, the sum over the
        structures of each one's occurrences capped at ``cap``, or ``None``
        for no child utterance with mor tokens."""
        total = np.zeros(self.n, np.int64)
        for rule in rules.structures:
            total += np.minimum(self._occurrences(rule), rules.cap)
        return [float(x) if n else None for x, n in
                zip(total.tolist(), np.bincount(self.utt_owner, minlength=self.n).tolist())]

    def counts(self, rules: CompiledTable) -> dict[str, np.ndarray]:
        """Each count of the count table, per transcript: a ``tokens``
        entry counts the tokens that match its predicate, a ``sequences``
        entry the runs of tokens within one utterance that match its
        predicates, and an ``utterances`` entry the utterances with a
        matching token."""
        counts = {name: self._per_transcript(self.hits(bit)) for name, bit in rules.tokens}
        for name, bits in rules.sequences:
            counts[name] = self._per_transcript(self.windows(bits))
        for name, bit in rules.utterances:
            counts[name] = np.bincount(self.utt_owner[self.utterance_hits(bit)],
                                       minlength=self.n)
        return counts


class Scores(NamedTuple):
    """One transcript's counts, DSS score and IPSyn score from
    :func:`score_cohort`; a score is ``None`` where the transcript has no
    utterance to score."""

    counts: dict[str, int]
    dss: float | None
    ipsyn: float | None


def score_cohort(transcripts, tables: tuple[CompiledTable, CompiledTable, CompiledTable]
                 ) -> list[Scores]:
    """Each transcript's scores under ``tables``, a DSS, an IPSyn and a
    count table compiled on one mask cache (:func:`compile_tables`), from
    one array pass over the cohort."""
    dss, ipsyn, counts_table = tables
    if ipsyn.masks is not dss.masks or counts_table.masks is not dss.masks:
        raise ValueError("the three tables must share one mask cache")
    cohort = _Cohort(transcripts, dss.masks)
    counts = cohort.counts(counts_table)
    rows = np.reshape(list(counts.values()), (len(counts), cohort.n)).T.tolist()
    return [Scores(dict(zip(counts, row)), d, i)
            for row, d, i in zip(rows, cohort.dss(dss), cohort.ipsyn(ipsyn))]
