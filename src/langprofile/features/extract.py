"""Per-transcript computation of the 64-feature vector.

All operations are pure functions of an immutable Transcript (plus group
statistics and trained language models where needed) and are safe to run
in parallel across children.  Features that cannot be computed faithfully
(missing mor tiers, degenerate denominators) fall back to documented
estimates and are listed in ``FeatureVector.flags``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..chat import MorToken, Terminator, Transcript, Utterance
from ..errors import DataError, EmptyTranscript, DivisionDomain, NoScorableUtterances, ZeroSd
from . import scoring
from .schema import FEATURE_NAMES

_SENTENCE_TERMINATORS = (Terminator.PERIOD, Terminator.QUESTION, Terminator.EXCLAIM)

# base feature feeding each z-score column
ZSCORE_BASES = {
    "z_mlu_sli": ("mlu_words", "SLI"),
    "z_mlu_td": ("mlu_words", "TD"),
    "z_word_errors_sli": ("word_errors", "SLI"),
    "z_word_errors_td": ("word_errors", "TD"),
    "z_r_2_i_verbs_sli": ("r_2_i_verbs", "SLI"),
    "z_r_2_i_verbs_td": ("r_2_i_verbs", "TD"),
    "z_utts_sli": ("total_utts", "SLI"),
    "z_utts_td": ("total_utts", "TD"),
}


@dataclass(frozen=True)
class FeatureVector:
    values: dict[str, float]
    flags: frozenset[str] = frozenset()

    def __post_init__(self):
        missing = set(FEATURE_NAMES) - set(self.values)
        extra = set(self.values) - set(FEATURE_NAMES)
        if missing or extra:
            raise ValueError(f"schema mismatch: missing={sorted(missing)} extra={sorted(extra)}")


@dataclass(frozen=True)
class GroupStats:
    """Per-feature mean/sd/n for the SLI and TD reference groups."""

    stats: dict[str, dict[str, tuple[float, float, int]]]  # group -> feature -> (mean, sd, n)

    def get(self, group: str, feature: str) -> tuple[float, float, int]:
        try:
            return self.stats[group][feature]
        except KeyError:
            raise KeyError(f"no group statistics for ({feature}, {group})") from None

    @classmethod
    def from_rows(cls, rows: list[dict[str, float]], groups: list[str],
                  features: tuple[str, ...] = ("mlu_words", "word_errors",
                                               "r_2_i_verbs", "total_utts")):
        """Build reference stats from per-child base features.

        ``groups`` parallels ``rows`` with "SLI"/"TD" labels (other labels
        are ignored).  Sample standard deviation (n-1); a group of fewer than
        two raises ``DataError``, and a zero sd ``ZeroSd`` (z-scores undefined).
        """
        out: dict[str, dict[str, tuple[float, float, int]]] = {}
        for g in ("SLI", "TD"):
            members = [r for r, lab in zip(rows, groups) if lab == g]
            if len(members) < 2:
                raise DataError(f"group {g} needs at least 2 transcripts, "
                                f"got {len(members)}")
            out[g] = {}
            for feat in features:
                vals = [m[feat] for m in members]
                n = len(vals)
                mean = sum(vals) / n
                var = sum((v - mean) ** 2 for v in vals) / (n - 1)
                sd = var ** 0.5
                if sd == 0.0:
                    raise ZeroSd(f"feature {feat} is constant within group {g}")
                out[g][feat] = (mean, sd, n)
        return cls(out)


# -- syllables -----------------------------------------------------------

_VOWEL_GROUP = re.compile(r"[aeiouy]+")


def syllables(word: str) -> int:
    """Vowel-group count, silent trailing 'e' dropped, minimum 1."""
    w = word.lower()
    if len(w) > 1 and w.endswith("e"):
        w = w[:-1]
    return max(1, len(_VOWEL_GROUP.findall(w)))


# -- token helpers -------------------------------------------------------

def _is_third_singular(tok: MorToken) -> bool:
    return "3S" in tok.suffixes or "3S" in tok.fusions


def _is_inflected(tok: MorToken) -> bool:
    return bool(tok.suffixes or tok.fusions)


def _child_mor_utterances(t: Transcript) -> list[Utterance]:
    return [u for u in t.child_utterances() if u.mor_tokens is not None]


# -- operations ------------------------------------------------------------

def production_counts(t: Transcript) -> dict[str, float]:
    kids = t.child_utterances()
    if not kids:
        raise EmptyTranscript(f"transcript {t.id!r} has no child utterances")
    exam = t.examiner_utterances()
    return {
        "child_TNW": float(sum(len(u.clean_tokens) for u in kids)),
        "child_TNS": float(sum(1 for u in kids if u.terminator in _SENTENCE_TERMINATORS)),
        "examiner_TNW": float(sum(len(u.clean_tokens) for u in exam)),
        "examiner_TNS": float(sum(1 for u in exam if u.terminator in _SENTENCE_TERMINATORS)),
        "total_utts": float(len(kids)),
    }


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
    total_syl = sum(syllables(w) for u in kids for w in u.clean_tokens)
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


def _fk_grade(words: float, sentences: float, syl: float) -> float:
    if words < 1 or sentences < 1:
        raise DivisionDomain("flesch_kincaid needs >= 1 word and >= 1 sentence")
    return 0.39 * (words / sentences) + 11.8 * (syl / words) - 15.59


def flesch_kincaid(t: Transcript) -> float:
    """Grade-level readability from word, sentence, and syllable totals."""
    counts = production_counts(t)
    syl = sum(syllables(w) for u in t.child_utterances() for w in u.clean_tokens)
    return _fk_grade(counts["child_TNW"], counts["child_TNS"], syl)


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


def fluency_and_errors(t: Transcript) -> dict[str, float]:
    """Event totals over child utterances.

    total_error = word-level errors plus utterance-level error postcodes,
    where every ``[+ ...]`` postcode counts.
    """
    kids = t.child_utterances()
    fillers = sum(u.events.fillers for u in kids)
    repetition = sum(u.events.repetitions for u in kids)
    retracing = sum(u.events.retracings for u in kids)
    word_errors = sum(u.events.word_errors for u in kids)
    postcode_errors = sum(len(u.postcodes) for u in kids)
    return {
        "fillers": float(fillers),
        "repetition": float(repetition),
        "retracing": float(retracing),
        "word_errors": float(word_errors),
        "total_error": float(word_errors + postcode_errors),
    }


def zscore_features(base: dict[str, float], stats: GroupStats) -> dict[str, float]:
    """z = (x - group mean) / group sd for the four base features vs both
    reference groups."""
    out = {}
    for name, (feature, group) in ZSCORE_BASES.items():
        mean, sd, _ = stats.get(group, feature)
        if sd <= 0.0:
            raise ZeroSd(f"sd for {feature}/{group} is not positive")
        out[name] = (base[feature] - mean) / sd
    return out


def base_features(t: Transcript, count_fusions: bool = False,
                  dss_table: dict | scoring.CompiledTable | None = None,
                  ipsyn_table: dict | scoring.CompiledTable | None = None
                  ) -> tuple[dict[str, float], set[str]]:
    """Every feature needing neither group statistics nor LMs, with its
    flags.  Pass tables compiled once for a whole cohort; a dict is
    compiled on every call."""
    flags: set[str] = set()
    values = production_counts(t)
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
    values.update(fluency_and_errors(t))
    values["f_k"] = _fk_grade(values["child_TNW"], values["child_TNS"], values["total_syl"])

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
    return values, flags

