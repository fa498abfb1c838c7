"""Table-driven sentence scoring (DSS-style) and productive-syntax
checklist scoring (IPSyn-style).

Both instruments are data-driven: the shipped default tables are
deliberately simplified approximations of the published book-length
originals and can be replaced by passing a different JSON file.  Rule
semantics:

* token rules match one mor token: ``pos``/``pos_in`` are POS prefixes
  (segment-aware, so ``"n"`` matches ``n:prop`` but not ``neg``),
  ``lemma_in`` matches lowercased lemmas, ``suffix_in``/``fusion_in``
  match affix markers, ``inflected`` tests for any suffix or fusion
* ``sequence`` rules match consecutive mor tokens within an utterance
* ``structural`` rules test utterance shape: ``question``,
  ``wh_question``, ``aux_initial_question``, ``multiword``
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from ..chat import Terminator, Transcript, Utterance
from ..errors import DataError, NoScorableUtterances

_WH_LEMMAS = frozenset({"who", "whom", "whose", "what", "where",
                        "when", "why", "how", "which"})

_VERBAL_POS = frozenset({"v", "aux", "cop", "mod"})

_AUX_INITIAL_POS = frozenset({"aux", "cop", "mod"})

_STRUCTURAL_NAMES = ("question", "wh_question", "aux_initial_question", "multiword")


def default_dss_table() -> dict:
    ref = resources.files("langprofile.features").joinpath("data/dss_table.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def default_ipsyn_table() -> dict:
    ref = resources.files("langprofile.features").joinpath("data/ipsyn_table.json")
    return json.loads(ref.read_text(encoding="utf-8"))


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
        table = json.loads(Path(path).read_text(encoding="utf-8").removeprefix("\ufeff"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
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
    "inflected": (lambda v: isinstance(v, bool), "a boolean"),
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


def _token_matches(tok, pred: dict) -> bool:
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
    if "inflected" in pred:
        inflected = bool(tok.suffixes or tok.fusions)
        if inflected != pred["inflected"]:
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


def _sequence_count(u: Utterance, preds: list[dict]) -> int:
    toks = u.mor_tokens or ()
    span = len(preds)
    hits = 0
    for i in range(len(toks) - span + 1):
        if all(_token_matches(toks[i + j], preds[j]) for j in range(span)):
            hits += 1
    return hits


def _is_scorable(u: Utterance) -> bool:
    if not u.mor_tokens:
        return False
    return any(not t.pos_classes.isdisjoint(_VERBAL_POS) for t in u.mor_tokens)


def dss_score(t: Transcript, table: dict | None = None) -> float:
    """Mean per-utterance score over scorable child utterances.

    An utterance is scorable when its mor tier contains a verbal element.
    Each category credits the highest-scoring matching rule once per
    utterance; a sentence point is added for complete, error-free
    utterances when the table enables it.
    """
    if table is None:
        table = default_dss_table()
    scorable = [u for u in t.child_utterances() if _is_scorable(u)]
    if not scorable:
        raise NoScorableUtterances("no child utterance with a verbal mor element")
    total = 0.0
    for u in scorable:
        score = 0
        for category in table["categories"]:
            best = 0
            for rule in category["rules"]:
                if "structural" in rule:
                    hit = _structural_matches(u, rule["structural"])
                elif "sequence" in rule:
                    hit = _sequence_count(u, rule["sequence"]) > 0
                else:
                    hit = any(_token_matches(tok, rule) for tok in u.mor_tokens)
                if hit and rule["points"] > best:
                    best = rule["points"]
            score += best
        if table.get("sentence_point") and u.events.word_errors == 0 \
                and not u.postcodes and u.terminator is not Terminator.TRAIL_OFF:
            score += 1
        total += score
    return total / len(scorable)


def ipsyn_total(t: Transcript, table: dict | None = None) -> float:
    """Checklist score: per structure, one credit per occurrence capped
    at ``cap`` (default 2), summed over the checklist."""
    if table is None:
        table = default_ipsyn_table()
    utts = [u for u in t.child_utterances() if u.mor_tokens]
    if not utts:
        raise NoScorableUtterances("no child utterance carries a mor tier")
    cap = int(table.get("cap", 2))
    total = 0
    for struct in table["structures"]:
        occurrences = 0
        for u in utts:
            if "structural" in struct:
                occurrences += 1 if _structural_matches(u, struct["structural"]) else 0
            elif "sequence" in struct:
                occurrences += _sequence_count(u, struct["sequence"])
            else:
                occurrences += sum(1 for tok in u.mor_tokens
                                   if _token_matches(tok, struct["token"]))
        total += min(cap, occurrences)
    return float(total)
