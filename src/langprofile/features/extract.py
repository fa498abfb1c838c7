"""The base features and z-scores of the 64-feature vector.

``pipeline.extract_cohort`` builds each transcript's vector from
:func:`base_features`, given the transcript's row of the cohort's
``scoring.score_cohort``, then adds the six perplexities of
``ngram.GroupModels`` and the z-scores against the cohort's
:class:`GroupStats`.  Features that cannot be computed faithfully
(missing mor tiers, degenerate denominators) fall back to documented
estimates and are listed in ``FeatureVector.flags``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add

from ..chat import Terminator, Transcript
from ..errors import DataError, EmptyTranscript, DivisionDomain, ZeroSd
from . import scoring
from .schema import FEATURE_CATEGORY, FEATURE_NAMES

_SENTENCE_TERMINATORS = (Terminator.PERIOD, Terminator.QUESTION, Terminator.EXCLAIM)

# the 14 grammatical-morpheme counts, flagged when no child utterance has %mor
_MARKERS = tuple(name for name in FEATURE_NAMES if FEATURE_CATEGORY[name] == "morphological")

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
                  features: tuple[str, ...] = tuple(dict.fromkeys(
                      feature for feature, _ in ZSCORE_BASES.values()))):
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
                # added left to right: builtin sum compensates from Python 3.12
                mean = reduce(add, vals, 0.0) / n
                var = reduce(add, ((v - mean) ** 2 for v in vals), 0.0) / (n - 1)
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


# -- operations ------------------------------------------------------------

def production_counts(t: Transcript) -> dict[str, float]:
    kids = t.child_utterances
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


def _fk_grade(words: float, sentences: float, syl: float) -> float:
    if words < 1 or sentences < 1:
        raise DivisionDomain("flesch_kincaid needs >= 1 word and >= 1 sentence")
    return 0.39 * (words / sentences) + 11.8 * (syl / words) - 15.59


def fluency_and_errors(t: Transcript) -> dict[str, float]:
    """Event totals over child utterances.

    total_error = word-level errors plus utterance-level error postcodes,
    where every ``[+ ...]`` postcode counts.
    """
    kids = t.child_utterances
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


def base_features(t: Transcript, count_fusions: bool, scores: scoring.Scores,
                  syllable_counts: dict[str, int]) -> tuple[dict[str, float], set[str]]:
    """Every feature needing neither group statistics nor LMs, with its
    flags.  ``scores`` is ``t``'s row of :func:`scoring.score_cohort`, 27
    of whose counts are features, and ``syllable_counts`` each lowercased
    word's syllables, shared by the cohort and filled here, so each
    distinct word is counted once."""
    values = production_counts(t)
    kids = t.child_utterances
    words = Counter([w.lower() for u in kids for w in u.clean_tokens])
    if not words:
        raise EmptyTranscript(f"transcript {t.id!r} has no child tokens")
    tnw = sum(words.values())
    for w in words.keys() - syllable_counts.keys():
        syllable_counts[w] = syllables(w)
    total_syl = sum([syllable_counts[w] * n for w, n in words.items()])

    flags: set[str] = set()
    mor_utts = [u for u in kids if u.mor_tokens is not None]
    mor_toks = [tok for u in mor_utts for tok in u.mor_tokens]
    total_morphemes = sum([tok.morphemes(count_fusions) for tok in mor_toks])
    if not mor_utts:
        flags.update(("mlu_morphemes", "total_morphemes", *_MARKERS))
    counts = dict(scores.counts)
    inflected = counts.pop("inflected_verbs")
    if inflected == 0:
        flags.add("r_2_i_verbs")
    values.update({name: float(n) for name, n in counts.items()})
    values.update({
        "mlu_words": tnw / len(kids),
        "mlu_morphemes": total_morphemes / len(mor_utts) if mor_utts else tnw / len(kids),
        "mlu100_utts": sum(len(u.clean_tokens) for u in kids[:100]) / len(kids[:100]),
        "total_syl": float(total_syl),
        "average_syl": total_syl / tnw,
        "total_morphemes": float(total_morphemes),
        "freq_ttr": len(words) / tnw,
        "word_types": float(len(words)),
        "r_2_i_verbs": (counts["verb_tokens"] - inflected) / max(1, inflected),
        "mor_words": float(len(mor_toks)),
        "num_pos_tags": float(len({tok.pos_tag for tok in mor_toks})),
    })
    values.update(fluency_and_errors(t))
    values["f_k"] = _fk_grade(values["child_TNW"], values["child_TNS"], values["total_syl"])

    for name, score in (("dss", scores.dss), ("ipsyn_total", scores.ipsyn)):
        if score is None:  # no scorable utterance
            score = 0.0
            flags.add(name)
        values[name] = score
    return values, flags
