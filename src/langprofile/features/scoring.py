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

One engine scores all three tables.  :class:`CompiledTable` gives each
distinct token predicate one bit and turns each rule into a bit, a tuple
of bits (a sequence) or a structural name.  A token's mask, the OR of
the bits of the predicates it matches, is computed once per distinct
token and cached in the compiled table, so the cache lives as long as
the table: ``pipeline.extract_cohort`` compiles the three tables once
per job on one shared cache (:func:`compile_tables`), and a plain dict
passed to :func:`dss_score` or :func:`ipsyn_total` is compiled for that
call alone.  Nothing is cached at module level.  The cache also keeps
the masks of the transcript it last read, so DSS, IPSyn and the counts
of one transcript look its tokens up once.  A token rule then tests a
bit of the utterance's masks, a sequence slides an AND of its bits over
them, and token counts read the positions of each distinct mask.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from ..chat import MorToken, Terminator, Transcript, Utterance
from ..errors import DataError, NoScorableUtterances, read_text

_WH_LEMMAS = frozenset({"who", "whom", "whose", "what", "where",
                        "when", "why", "how", "which"})

_VERBAL_POS = frozenset({"v", "aux", "cop", "mod"})

_AUX_INITIAL_POS = frozenset({"aux", "cop", "mod"})

_STRUCTURAL_NAMES = ("question", "wh_question", "aux_initial_question", "multiword")


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
    ``inflected``) raises ``DataError`` naming the file and the key.
    """
    try:
        table = json.loads(read_text(path))
    except ValueError as exc:  # not JSON, or an integer over int's digit limit
        raise DataError(f"{path}: not a JSON scoring table ({exc})") from None
    entries = _list_at(table, key, str(path))
    if key == "categories":
        for i, category in enumerate(entries):
            for j, rule in enumerate(_list_at(category, "rules",
                                              f"{path}: categories[{i}]")):
                where = f"categories[{i}].rules[{j}]"
                _check_predicate(rule, path, where)
                if "points" not in rule:
                    raise DataError(f"{path}: {where}: missing key 'points'")
                _require(_is_int(rule["points"]), path, f"{where}.points", "an integer",
                         rule["points"])
                _check_shape(rule, path, where)
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


def _check_predicate(pred, path, key: str) -> None:
    _require(isinstance(pred, dict), path, key, "an object", pred)
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


def _structural_matches(u: Utterance, name: str) -> bool:
    if name == "question":
        return u.terminator is Terminator.QUESTION
    if name == "wh_question":
        return (u.terminator is Terminator.QUESTION and u.mor_tokens is not None
                and any(t.lemma.lower() in _WH_LEMMAS for t in u.mor_tokens))
    if name == "aux_initial_question":
        return (u.terminator is Terminator.QUESTION and bool(u.mor_tokens)
                and not u.mor_tokens[0].pos_classes.isdisjoint(_AUX_INITIAL_POS))
    if name == "multiword":
        return len(u.clean_tokens) >= 2
    raise ValueError(f"unknown structural predicate {name!r}")


def _predicate_key(pred: dict) -> tuple:
    """A token predicate's keys and values, in a fixed order: the same
    predicate written twice, or with its keys or list items reordered,
    has one key."""
    return tuple(sorted((name, tuple(sorted(value)) if isinstance(value, list) else value)
                        for name, value in pred.items() if name in _PREDICATE_TYPES))


def _matching_bits(tok, contracted: bool, by_class: dict) -> int:
    mask = 0
    for cls in (None, *tok.pos_classes):
        for bit, pred in by_class.get(cls, ()):
            if _token_matches(tok, pred, contracted):
                mask |= bit
    return mask


class _Masks(NamedTuple):
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
        """:func:`_windows` over ``flat``, from the positions of the masks
        with ``bits[0]``; the 0 after each utterance keeps every index in
        range."""
        return _windows(self.flat, bits,
                        [i for mask, at in self.at.items() if mask & bits[0] for i in at])


class _MaskCache(dict):
    """Each distinct token's mask, the OR of the bits of the token
    predicates it matches, computed on its first lookup.  Keyed by token
    value and whether the aligned surface word carries an apostrophe, so
    equal tokens from different transcripts share an entry.

    Each distinct predicate owns one bit and is filed under the POS
    classes it requires (``None`` when it requires none), so a token is
    tested only against the predicates its classes allow.  A predicate
    without ``lemma_in`` reads only the token's shape (POS tag, affixes
    and the apostrophe), so its bits are computed once per shape; tokens
    differ mostly by lemma."""

    def __init__(self):
        super().__init__()
        self.bits: dict[tuple, int] = {}
        self.by_class: dict[str | None, list[tuple[int, dict]]] = {}  # no lemma_in
        self.by_lemma: dict[str | None, list[tuple[int, dict]]] = {}  # with lemma_in
        self.shapes: dict[tuple, int] = {}  # (pos_tag, suffixes, fusions, apostrophe) -> bits
        self._last: tuple = (None, None)  # (transcript, its _Masks)

    def bit(self, pred: dict) -> int:
        key = _predicate_key(pred)
        if key not in self.bits:
            self.clear()  # the masks cached so far lack the new bit
            self.shapes.clear()
            self._last = (None, None)
            bit = self.bits[key] = 1 << len(self.bits)
            filed = self.by_lemma if "lemma_in" in pred else self.by_class
            for cls in [pred["pos"]] if "pos" in pred else pred.get("pos_in", [None]):
                filed.setdefault(cls, []).append((bit, pred))
        return self.bits[key]

    def __missing__(self, key: tuple[MorToken, bool]) -> int:
        tok, contracted = key
        shape = (tok.pos_tag, tok.suffixes, tok.fusions, contracted)
        if shape not in self.shapes:
            self.shapes[shape] = _matching_bits(tok, contracted, self.by_class)
        mask = self[key] = self.shapes[shape] | _matching_bits(tok, contracted, self.by_lemma)
        return mask

    def of(self, t: Transcript) -> _Masks:
        """The masks of ``t``'s child utterances that carry mor tokens.
        The last transcript's are kept, so the tables that share this
        cache look its tokens up once."""
        last, masks = self._last
        if last is not t:
            utts = [u for u in t.child_utterances() if u.mor_tokens]
            # a token past the end of its utterance's words has surface ""
            per = [[self[tok, "'" in word] for tok, word
                    in zip(u.mor_tokens, itertools.chain(u.clean_tokens, itertools.repeat("")))]
                   for u in utts]
            flat: list[int] = []
            for m in per:
                flat += m
                flat.append(0)  # matches no predicate, so no sequence spans two utterances
            at: dict[int, list[int]] = {}
            for i, mask in enumerate(flat):
                at.setdefault(mask, []).append(i)
            masks = _Masks(utts, per, [functools.reduce(operator.or_, m) for m in per],
                           flat, at)
            self._last = (t, masks)
        return masks


class CompiledTable:
    """A DSS table (``key`` ``"categories"``), IPSyn table (``key``
    ``"structures"``) or count table (``key`` ``"counts"``) made ready
    for scoring.

    Each rule becomes the bit of its token predicate, a tuple of bits (a
    ``sequence``) or a ``structural`` name.  A DSS category keeps only its
    rules worth more than 0 points, highest first, so its first hit is its
    best.  Token masks are cached in ``masks``, given or made here, so
    they live as long as this object: one job.
    """

    def __init__(self, table: dict, key: str, masks: _MaskCache | None = None):
        self.masks = _MaskCache() if masks is None else masks
        if key == "categories":
            self.categories = [
                sorted([(self._rule(rule, rule), rule["points"]) for rule in category["rules"]
                        if rule["points"] > 0], key=operator.itemgetter(1), reverse=True)
                for category in table["categories"]]
            self.sentence_point = bool(table.get("sentence_point"))
            self.verbal = self.masks.bit({"pos_in": sorted(_VERBAL_POS)})
        elif key == "structures":
            self.structures = [self._rule(struct, struct.get("token"))
                               for struct in table["structures"]]
            self.cap = int(table.get("cap", 2))
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


def _compiled(table: dict | CompiledTable | None, key: str, default) -> CompiledTable:
    if isinstance(table, CompiledTable):
        return table
    return CompiledTable(default() if table is None else table, key)


def _windows(masks: list[int], bits: tuple[int, ...], starts: list[int] | None = None) -> int:
    """How many runs of ``len(bits)`` consecutive tokens match the
    sequence: a sliding AND of ``bits`` over the tokens' ``masks``, which
    keeps the ``starts`` (default: all) whose j-th token has ``bits[j]``,
    one j at a time."""
    if starts is None:
        starts = range(len(masks) - len(bits) + 1)
    for j, bit in enumerate(bits):
        starts = [i for i in starts if masks[i + j] & bit]
    return len(starts)


def dss_score(t: Transcript, table: dict | CompiledTable | None = None) -> float:
    """Mean per-utterance score over scorable child utterances.

    An utterance is scorable when its mor tier contains a verbal element.
    Each category credits the highest-scoring matching rule once per
    utterance; a sentence point is added for complete, error-free
    utterances when the table enables it.  A ``table`` that is a dict
    (default: the shipped one) is compiled for this call.
    """
    rules = _compiled(table, "categories", default_dss_table)
    m = rules.masks.of(t)
    scorable = [(u, masks, present) for u, masks, present in zip(m.utterances, m.masks, m.present)
                if present & rules.verbal]
    if not scorable:
        raise NoScorableUtterances("no child utterance with a verbal mor element")
    total = 0.0
    for u, masks, present in scorable:
        score = 0
        for category in rules.categories:
            for rule, points in category:
                if type(rule) is int:
                    hit = present & rule
                elif type(rule) is tuple:
                    hit = _windows(masks, rule)
                else:
                    hit = _structural_matches(u, rule)
                if hit:
                    score += points
                    break
        if rules.sentence_point and u.events.word_errors == 0 \
                and not u.postcodes and u.terminator is not Terminator.TRAIL_OFF:
            score += 1
        total += score
    return total / len(scorable)


def ipsyn_total(t: Transcript, table: dict | CompiledTable | None = None) -> float:
    """Checklist score: per structure, one credit per occurrence capped
    at ``cap`` (default 2), summed over the checklist.  A ``table`` that
    is a dict (default: the shipped one) is compiled for this call."""
    rules = _compiled(table, "structures", default_ipsyn_table)
    m = rules.masks.of(t)
    if not m.utterances:
        raise NoScorableUtterances("no child utterance carries a mor tier")
    total = 0
    for rule in rules.structures:
        if type(rule) is int:
            occurrences = m.tokens_with(rule)
        elif type(rule) is tuple:
            occurrences = m.windows(rule)
        else:
            occurrences = sum(1 for u in m.utterances if _structural_matches(u, rule))
        total += min(rules.cap, occurrences)
    return float(total)


def rule_counts(t: Transcript, table: dict | CompiledTable | None = None) -> dict[str, int]:
    """Every count of a count table (default: the shipped one) over the
    child mor tokens of ``t``: a ``tokens`` entry counts the tokens that
    match its predicate, a ``sequences`` entry the runs of tokens within
    one utterance that match its predicates, and an ``utterances`` entry
    the utterances with a matching token.  A dict is compiled for this
    call."""
    rules = _compiled(table, "counts", default_counts_table)
    m = rules.masks.of(t)
    counts = {name: m.tokens_with(bit) for name, bit in rules.tokens}
    for name, bits in rules.sequences:
        counts[name] = m.windows(bits)
    for name, bit in rules.utterances:
        counts[name] = sum(1 for present in m.present if present & bit)
    return counts
