import math

import pytest
from hypothesis import given, settings, strategies as st

from langprofile import pipeline
from langprofile.chat import (AnnotationEvents, Group, MorToken, Speaker, Terminator,
                              Transcript, Utterance, parse_chat)
from langprofile.errors import DivisionDomain, EmptyTranscript, ZeroSd
from langprofile.features import scoring
from langprofile.features.extract import (
    GroupStats,
    base_features,
    fluency_and_errors,
    production_counts,
    syllables,
    zscore_features,
)
from langprofile.features.schema import FEATURE_NAMES
from tests.conftest import one_transcript_features
from tests.oracles import (MARKER_NAMES, flesch_kincaid, lexical_measures, loop_dss_score,
                           loop_ipsyn_total, morpheme_markers, pos_patterns, scan_mask,
                           utterance_measures, walk_dss_score, walk_ipsyn_total,
                           walk_rule_counts)


def mk(text: str):
    return parse_chat(text)


def features(text: str, count_fusions: bool = False) -> tuple[dict[str, float], set[str]]:
    return one_transcript_features(mk(text), count_fusions)


def scores(t: Transcript, dss: dict | None = None, ipsyn: dict | None = None
           ) -> scoring.Scores:
    """The scores of ``t`` as a cohort of one, under ``dss`` and ``ipsyn``
    (``None``: the shipped tables) compiled for it alone."""
    row, = scoring.score_cohort([t], scoring.compile_tables(dss, ipsyn))
    return row


TWO_UTTS = (
    "*CHI:\tthe dog ran .\n"
    "%mor:\tdet:art|the n|dog v|run&PAST .\n"
    "*CHI:\the jumped .\n"
    "%mor:\tpro|he v|jump-PAST .\n"
)


class TestProductionCounts:
    def test_two_utterances(self):
        c = production_counts(mk(TWO_UTTS))
        assert c["child_TNW"] == 5
        assert c["child_TNS"] == 2
        assert c["examiner_TNW"] == 0
        assert c["total_utts"] == 2

    def test_examiner_prompt(self):
        c = production_counts(mk("*CHI:\thi .\n*EXA:\twhat happened next ?\n"))
        assert c["examiner_TNW"] == 3
        assert c["examiner_TNS"] == 1

    def test_trail_off_not_a_sentence(self):
        c = production_counts(mk("*CHI:\tthe dog +...\n*CHI:\the ran .\n"))
        assert c["child_TNS"] == 1
        assert c["total_utts"] == 2

    def test_empty_raises(self):
        with pytest.raises(EmptyTranscript):
            production_counts(mk("*EXA:\thello ?\n"))


class TestSyllables:
    @pytest.mark.parametrize("word,n", [
        ("banana", 3),      # vowel groups a-a-a
        ("the", 1),         # trailing e dropped, minimum 1
        ("make", 1),
        ("dog", 1),
        ("jumped", 2),      # heuristic counts the 'e' group
        ("see", 1),
        ("sky", 1),
    ])
    def test_vowel_group_rule(self, word, n):
        assert syllables(word) == n


class TestUtteranceMeasures:
    def test_mlu_words(self):
        m, _ = features(TWO_UTTS)
        assert m["mlu_words"] == 5 / 2

    def test_mlu_morphemes_both_conventions(self):
        # fusions off: run&PAST = 1 morpheme -> (3 + 3) / 2
        m, _ = features(TWO_UTTS, count_fusions=False)
        assert m["mlu_morphemes"] == 3.0
        # fusions on: run&PAST = 2 morphemes -> (4 + 3) / 2
        m, _ = features(TWO_UTTS, count_fusions=True)
        assert m["mlu_morphemes"] == 3.5

    def test_syllable_totals(self):
        m, _ = features(TWO_UTTS)
        # the+dog+ran+he = 1 each, jumped = 2
        assert m["total_syl"] == 6
        assert m["average_syl"] == 6 / 5

    def test_verb_utt(self):
        m, _ = features(TWO_UTTS)
        assert m["verb_utt"] == 2

    def test_mlu100_equals_mlu_under_100_utts(self):
        m, _ = features(TWO_UTTS)
        assert m["mlu100_utts"] == m["mlu_words"]

    def test_missing_mor_degrades(self):
        m, flags = features("*CHI:\tthe dog ran .\n")
        assert m["mlu_morphemes"] == m["mlu_words"]
        assert "mlu_morphemes" in flags


class TestFleschKincaid:
    def test_single_sentence(self):
        # 3 words, 1 sentence, 3 syllables
        val = flesch_kincaid(mk("*CHI:\tthe dog ran .\n"))
        assert features("*CHI:\tthe dog ran .\n")[0]["f_k"] == val
        assert abs(val - (0.39 * 3 + 11.8 * 1 - 15.59)) < 1e-12
        assert abs(val - (-2.62)) < 1e-9

    def test_formula_shape(self):
        # words/sentences = 10, syllables/word = 1.5 -> 6.01
        assert abs((0.39 * 10 + 11.8 * 1.5 - 15.59) - 6.01) < 1e-9

    def test_no_sentences_raises(self):
        with pytest.raises(DivisionDomain):
            flesch_kincaid(mk("*CHI:\tthe dog +...\n"))
        with pytest.raises(DivisionDomain):
            features("*CHI:\tthe dog +...\n")


class TestLexicalMeasures:
    def test_ttr(self):
        m, _ = features("*CHI:\ta b a c .\n")
        assert m["freq_ttr"] == 3 / 4
        assert m["word_types"] == 3

    def test_verb_ratio(self):
        text = ("*CHI:\trun ran jumped .\n"
                "%mor:\tv|run v|run&PAST v|jump-PAST .\n")
        m, _ = features(text)
        assert m["r_2_i_verbs"] == 1 / 2
        assert m["verb_tokens"] == 3

    def test_verb_ratio_degenerate(self):
        text = "*CHI:\trun .\n%mor:\tv|run .\n"
        m, flags = features(text)
        assert m["r_2_i_verbs"] == 1.0  # max(1, inflected) guard
        assert "r_2_i_verbs" in flags

    def test_pos_tag_count(self):
        m, _ = features(TWO_UTTS)
        # det:art, n, v, pro
        assert m["num_pos_tags"] == 4
        assert m["mor_words"] == 5


class TestMorphemeMarkers:
    def test_progressive_and_aux(self):
        text = "*CHI:\the is going .\n%mor:\tpro|he aux|be&3S part|go-PROG .\n"
        m, _ = features(text)
        assert m["present_progressive"] == 1
        assert m["uncontractible_aux"] == 1
        assert m["contractible_aux"] == 0

    def test_contracted_aux_surface_form(self):
        text = "*CHI:\the 's going .\n%mor:\tpro|he aux|be&3S part|go-PROG .\n"
        m, _ = features(text)
        assert m["contractible_aux"] == 1
        assert m["uncontractible_aux"] == 0

    def test_article_and_plural(self):
        text = "*CHI:\tthe dogs .\n%mor:\tdet:art|the n|dog-PL .\n"
        m, _ = features(text)
        assert m["articles"] == 1
        assert m["plural_s"] == 1

    def test_copula_and_prepositions(self):
        text = ("*CHI:\tit is in on .\n"
                "%mor:\tpro|it cop|be&3S prep|in prep|on .\n")
        m, _ = features(text)
        assert m["uncontractible_copula"] == 1
        assert m["propositions_in"] == 1
        assert m["propositions_on"] == 1

    def test_past_and_third_person(self):
        text = ("*CHI:\tjumped fell runs goes boys .\n"
                "%mor:\tv|jump-PAST v|fall&PAST v|run-3S v|go&3S n|boy-POSS .\n")
        m, _ = features(text)
        assert m["regular_past_ed"] == 1
        assert m["irregular_past_tense"] == 1
        assert m["regular_3rd_person_s"] == 1
        assert m["irregular_3rd_person"] == 1
        assert m["possessive_s"] == 1

    def test_no_mor_all_flagged(self):
        m, flags = features("*CHI:\tthe dog ran .\n")
        assert all(m[name] == 0 for name in MARKER_NAMES)
        assert len(MARKER_NAMES) == 14
        assert flags == {*MARKER_NAMES, "mlu_morphemes", "total_morphemes", "r_2_i_verbs",
                         "dss", "ipsyn_total"}

    def test_neg_pos_is_not_a_noun(self):
        text = "*CHI:\tnot dogs .\n%mor:\tneg|not n|dog-PL .\n"
        m, _ = features(text)
        assert m["plural_s"] == 1  # only the real noun counts


class TestPosPatterns:
    def test_noun_verb(self):
        text = "*CHI:\tdog run .\n%mor:\tn|dog v|run .\n"
        assert features(text)[0]["n_v"] == 1

    def test_pro_aux_and_do(self):
        text = "*CHI:\the do go .\n%mor:\tpro|he aux|do v|go .\n"
        p, _ = features(text)
        assert p["pro_aux"] == 1
        assert p["n_dos"] == 1

    def test_det_noun_plural(self):
        text = "*CHI:\tthe dogs bark .\n%mor:\tdet|the n|dog-PL v|bark .\n"
        p, _ = features(text)
        assert p["det_n_pl"] == 1
        assert p["n_v"] == 1

    def test_det_pl_n_window(self):
        text = "*CHI:\tthe boys dog .\n%mor:\tdet:art|the n|boy-PL n|dog .\n"
        p, _ = features(text)
        assert p["det_pl_n"] == 1

    def test_third_singular_sequences(self):
        text = "*CHI:\tdog runs he goes .\n%mor:\tn|dog v|run-3S pro|he v|go&3S .\n"
        p, _ = features(text)
        assert p["n_3s_v"] == 1
        assert p["pro_3s_v"] == 1
        assert p["n_v"] == 1


class TestFluencyAndErrors:
    def test_sums(self):
        text = "*CHI:\t&-um a .\n*CHI:\t&-uh &-um b .\n"
        f = fluency_and_errors(mk(text))
        assert f["fillers"] == 3

    def test_all_zero(self):
        f = fluency_and_errors(mk(TWO_UTTS))
        assert all(f[k] == 0 for k in ("fillers", "repetition", "retracing",
                                       "word_errors", "total_error"))

    def test_total_error_includes_postcodes(self):
        text = "*CHI:\the goed [*] home . [+ gram]\n"
        f = fluency_and_errors(mk(text))
        assert f["word_errors"] == 1
        assert f["total_error"] == 2


SCORING_FIXTURE = (
    "*CHI:\the is going .\n"
    "%mor:\tpro|he aux|be&3S part|go-PROG .\n"
    "*CHI:\tthe dogs ran .\n"
    "%mor:\tdet:art|the n|dog-PL v|run&PAST .\n"
    "*CHI:\tcan you see it ?\n"
    "%mor:\tmod|can pro|you v|see pro|it ?\n"
    "*CHI:\tI jumped and he fell .\n"
    "%mor:\tpro|I v|jump-PAST conj|and pro|he v|fall&PAST .\n"
    "*CHI:\tdoggie +...\n"
    "%mor:\tn|doggie +...\n"
)


class TestScoring:
    def test_dss_mean_of_utterance_sums(self):
        # hand-scored with the default table: "the dogs ran ." = 2 (verb)
        # + 1 (sentence) = 3; "he ran ." = 2 (pronoun) + 2 (verb) + 1 = 5
        text = ("*CHI:\tthe dogs ran .\n%mor:\tdet:art|the n|dog-PL v|run&PAST .\n"
                "*CHI:\the ran .\n%mor:\tpro|he v|run&PAST .\n")
        assert scores(mk(text)).dss == 4.0

    def test_dss_golden_fixture(self):
        # hand tally per utterance against the shipped default table:
        # U1 = 2 + 7 + 1 = 10; U2 = 2 + 1 = 3; U3 = 1 + 1 + 4 + 6 + 1 = 13;
        # U4 = 2 + 2 + 3 + 1 = 8; U5 unscorable -> mean = 34 / 4
        assert scores(mk(SCORING_FIXTURE)).dss == 8.5

    def test_dss_no_scorable(self):
        assert scores(mk("*CHI:\tdoggie .\n%mor:\tn|doggie .\n")).dss is None

    def test_ipsyn_cap(self):
        # three nouns but N1 credits at most 2
        text = "*CHI:\tdog cat ball .\n%mor:\tn|dog n|cat n|ball .\n"
        table = {"cap": 2, "structures": [{"name": "N1", "token": {"pos": "n"}}]}
        assert scores(mk(text), ipsyn=table).ipsyn == 2.0

    def test_ipsyn_golden_fixture(self):
        # hand tally against the shipped checklist: N 2+2+1+1, V 2+2+0+1+1,
        # Q 1+0, S 2+2+1 -> 18
        assert scores(mk(SCORING_FIXTURE)).ipsyn == 18.0


_TAGS = ("n", "n:prop", "v", "aux", "cop", "mod", "pro", "pro:wh", "det:art", "adj", "neg")
_CLASSES = ("n", "n:prop", "v", "aux", "cop", "mod", "pro", "det", "adj", "neg")
_LEMMAS = ("dog", "it", "he", "what", "Who", "be", "can", "run")
_AFFIXES = ("PL", "PAST", "PROG", "3S")

_AFFIX_TUPLES = st.lists(st.sampled_from(_AFFIXES), max_size=2).map(tuple)
# fresh objects, so equal tokens are often distinct objects
_MOR_TOKENS = st.builds(MorToken, st.sampled_from(_TAGS), st.sampled_from(_LEMMAS),
                        _AFFIX_TUPLES, _AFFIX_TUPLES)


@st.composite
def _utterances(draw) -> Utterance:
    speaker = draw(st.sampled_from([Speaker.CHILD, Speaker.CHILD, Speaker.EXAMINER]))
    words = tuple(draw(st.lists(st.sampled_from(["w", "w's"]), max_size=3)))
    return Utterance(speaker, "CHI" if speaker is Speaker.CHILD else "EXA", words, words,
                     draw(st.sampled_from(list(Terminator))),
                     AnnotationEvents(word_errors=draw(st.integers(0, 1))),
                     None if draw(st.integers(0, 3)) == 0
                     else tuple(draw(st.lists(_MOR_TOKENS, max_size=6))),
                     draw(st.sampled_from([(), ("[+ gram]",)])))


_TRANSCRIPTS = st.builds(lambda utts: Transcript("t", "c", Group.TD, None, None, tuple(utts)),
                         st.lists(_utterances(), min_size=1, max_size=6))

_PREDICATES = st.fixed_dictionaries({}, optional={
    "pos": st.sampled_from(_CLASSES),
    "pos_in": st.lists(st.sampled_from(_CLASSES), max_size=2),
    "lemma_in": st.lists(st.sampled_from([w.lower() for w in _LEMMAS]), max_size=2),
    "suffix_in": st.lists(st.sampled_from(_AFFIXES), max_size=2),
    "fusion_in": st.lists(st.sampled_from(_AFFIXES), max_size=2),
    "affix_in": st.lists(st.sampled_from(_AFFIXES), max_size=2),
    "inflected": st.booleans(),
    "contracted": st.booleans(),
})


@st.composite
def _rule_lists(draw) -> tuple[list[dict], list[dict], dict]:
    """Random DSS rules, IPSyn structures and count table over a small
    pool of predicates, each drawn with its keys in either order."""
    pool = draw(st.lists(_PREDICATES, min_size=1, max_size=4))

    def pred() -> dict:
        chosen = draw(st.sampled_from(pool))
        return dict(reversed(chosen.items())) if draw(st.booleans()) else dict(chosen)

    def shape(token_key: str | None) -> dict:
        kind = draw(st.sampled_from(["token", "sequence", "structural"]))
        if kind == "structural":
            return {"structural": draw(st.sampled_from(scoring._STRUCTURAL_NAMES))}
        if kind == "sequence":
            return {"sequence": [pred() for _ in range(draw(st.integers(1, 3)))]}
        return {token_key: pred()} if token_key else pred()

    categories = [{"rules": [{"points": draw(st.integers(-2, 4)), **shape(None)}
                             for _ in range(draw(st.integers(0, 4)))]}
                  for _ in range(draw(st.integers(0, 3)))]
    structures = [shape("token") for _ in range(draw(st.integers(0, 5)))]
    counts = {"tokens": {f"t{i}": pred() for i in range(draw(st.integers(0, 3)))},
              "sequences": {f"s{i}": [pred() for _ in range(draw(st.integers(1, 3)))]
                            for i in range(draw(st.integers(0, 3)))},
              "utterances": {f"u{i}": pred() for i in range(draw(st.integers(0, 2)))}}
    return categories, structures, counts


# every table holds these: one predicate in several rules and with its keys
# reordered, both values of `inflected`, empty `*_in` lists, sequences of
# 1 to 3 predicates, and zero and negative points
_COVER_CATEGORIES = [
    {"rules": [{"points": 2, "pos": "v", "inflected": True},
               {"points": 1, "inflected": True, "pos": "v"},
               {"points": 3, "pos": "pro", "lemma_in": []},
               {"points": 0, "pos": "n"},
               {"points": -1, "lemma_in": ["what", "who"]}]},
    {"rules": [{"points": 1, "pos": "v", "inflected": False},
               {"points": 4, "sequence": [{"pos": "pro"}]},
               {"points": 2, "sequence": [{"pos_in": ["det", "adj"]}, {"pos": "n"}]},
               {"points": 5, "sequence": [{"pos": "pro"}, {"pos_in": ["aux", "mod"]},
                                          {"inflected": True, "pos": "v"}]},
               {"points": 3, "structural": "wh_question"},
               {"points": 1, "pos": "n", "suffix_in": [], "fusion_in": ["PAST"]}]},
]
_COVER_STRUCTURES = [
    {"token": {"pos": "v", "inflected": True}},
    {"token": {"inflected": True, "pos": "v"}},
    {"token": {"inflected": False}},
    {"token": {"pos_in": []}},
    {"sequence": [{"pos": "n"}]},
    {"sequence": [{"pos_in": ["det", "adj"]}, {"pos": "n"}]},
    {"sequence": [{"pos": "pro"}, {"pos": "aux"}, {"pos": "v", "inflected": True}]},
    {"structural": "question"},
    {"structural": "aux_initial_question"},
    {"structural": "multiword"},
]


class TestScoringEngine:
    @pytest.mark.parametrize("cap", [0, 2, 50])
    @pytest.mark.parametrize("sentence_point", [False, True])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(transcripts=st.lists(_TRANSCRIPTS, min_size=1, max_size=3), rules=_rule_lists())
    def test_engine_equals_loop_oracle(self, cap, sentence_point, transcripts, rules):
        categories, structures, _ = rules
        dss = {"sentence_point": sentence_point, "categories": _COVER_CATEGORIES + categories}
        ipsyn = {"cap": cap, "structures": _COVER_STRUCTURES + structures}
        # one compiled table set serves the cohort and each transcript
        # alone, as in a job
        tables = scoring.compile_tables(dss, ipsyn)
        rows = scoring.score_cohort(transcripts, tables)
        for t, row in zip(transcripts, rows):
            expected = loop_dss_score(t, dss), loop_ipsyn_total(t, ipsyn)
            assert (row.dss, row.ipsyn) == expected
            (alone,) = scoring.score_cohort([t], tables)
            assert (alone.dss, alone.ipsyn) == expected
            fresh = scores(t, dss, ipsyn)
            assert (fresh.dss, fresh.ipsyn) == expected

    @pytest.mark.parametrize("text", [
        SCORING_FIXTURE,
        "*CHI:\tdoggie .\n%mor:\tn|doggie .\n",
        "*CHI:\tdoggie .\n*EXA:\tyou see it ?\n%mor:\tpro|you v|see pro|it ?\n",
        "*CHI:\tdoggie .\n",
    ])
    def test_default_tables_equal_loop_oracle(self, text):
        t = mk(text)
        row = scores(t)
        assert (row.dss, row.ipsyn) == (loop_dss_score(t, None), loop_ipsyn_total(t, None))


# count-table cases: contracted surfaces, PL/3S/PAST as suffix and as
# fusion, n:prop and det:art, in/on in mixed case, mor tiers that are
# absent, empty or shorter than the utterance
_COUNT_TAGS = ("n", "n:prop", "v", "aux", "cop", "pro", "det", "det:art", "prep", "mod",
               "neg", "part")
_COUNT_LEMMAS = ("dog", "in", "In", "on", "ON", "do", "Do", "be", "he")
_SURFACES = ("he", "he's", "can't", "'s", "dogs", "In", "on")
_COUNT_TOKENS = st.builds(
    MorToken, st.sampled_from(_COUNT_TAGS), st.sampled_from(_COUNT_LEMMAS),
    st.lists(st.sampled_from(("PL", "3S", "PAST", "PROG", "ING", "POSS")), max_size=2).map(tuple),
    st.lists(st.sampled_from(("PL", "3S", "PAST")), max_size=2).map(tuple))


@st.composite
def _count_utterance(draw, speaker: Speaker, with_mor: bool) -> Utterance:
    mor = tuple(draw(st.lists(_COUNT_TOKENS, max_size=6)))
    words = len(mor) - draw(st.sampled_from([0, 0, 0, 1])) if mor else 0
    clean = tuple(draw(st.lists(st.sampled_from(_SURFACES), min_size=words, max_size=words)))
    return Utterance(speaker, "CHI" if speaker is Speaker.CHILD else "EXA", clean, clean,
                     Terminator.PERIOD, AnnotationEvents(),
                     mor if with_mor and draw(st.integers(0, 3)) else None)


@st.composite
def _count_transcripts(draw) -> Transcript:
    """Transcripts whose first child utterance has a word and a sentence,
    so every feature is defined; one in five carries no %mor at all."""
    with_mor = draw(st.integers(0, 4)) > 0
    first = Utterance(Speaker.CHILD, "CHI", ("dog",), ("dog",), Terminator.PERIOD,
                      AnnotationEvents(), (MorToken("n", "dog"),) if with_mor else None)
    rest = draw(st.lists(st.sampled_from([Speaker.CHILD, Speaker.CHILD, Speaker.EXAMINER])
                         .flatmap(lambda speaker: _count_utterance(speaker, with_mor)),
                         max_size=6))
    return Transcript("t", "c", Group.TD, None, None, (first, *rest))


class TestCountEngine:
    @pytest.mark.parametrize("count_fusions", [False, True])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(transcripts=st.lists(_count_transcripts(), min_size=1, max_size=3))
    def test_engine_equals_walk_oracles(self, count_fusions, transcripts):
        # one job: one scoring pass and the syllable cache serve every transcript
        syllable_counts: dict[str, int] = {}
        for t, row in zip(transcripts, scoring.score_cohort(transcripts,
                                                             scoring.compile_tables())):
            values, flags = base_features(t, count_fusions, row, syllable_counts)
            expected: dict[str, float] = dict(pos_patterns(t))
            expected_flags: set[str] = set()
            for walk in (utterance_measures(t, count_fusions), lexical_measures(t),
                         morpheme_markers(t)):
                expected.update(walk[0])
                expected_flags |= walk[1]
            assert {name: values[name] for name in expected} == expected
            assert flags - {"dss", "ipsyn_total"} == expected_flags

    def test_count_table_holds_the_27_counts(self):
        counts = scores(mk(TWO_UTTS)).counts
        assert len(counts) == 27
        assert set(counts) - set(FEATURE_NAMES) == {"inflected_verbs"}
        assert counts["inflected_verbs"] == 2 and counts["verb_tokens"] == 2


# lemma_in entries in mixed case: one that is not lowercase matches no token
_MIXED_CASE_PREDICATES = st.fixed_dictionaries({}, optional={
    "pos": st.sampled_from(_CLASSES),
    "pos_in": st.lists(st.sampled_from(_CLASSES), max_size=3),
    "lemma_in": st.lists(st.sampled_from(_LEMMAS + ("DOG", "Dog", "what", "WHAT", "who")),
                         max_size=3),
    "suffix_in": st.lists(st.sampled_from(_AFFIXES), max_size=2),
    "inflected": st.booleans(),
    "contracted": st.booleans(),
})


class TestMaskCache:
    """Each token's cached mask against a test of every predicate."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tokens=st.lists(_MOR_TOKENS, min_size=1, max_size=12),
           first=st.lists(_MIXED_CASE_PREDICATES, max_size=8),
           later=st.lists(_MIXED_CASE_PREDICATES, min_size=1, max_size=4))
    def test_mask_equals_scan_of_every_predicate(self, tokens, first, later):
        cache = scoring._MaskCache()
        for preds in (first, later):  # the later bits are added after masks are cached
            for pred in preds:
                cache.bit(pred)
            for tok in tokens:
                for contracted in (False, True):
                    assert cache[tok, contracted] == scan_mask(cache, tok, contracted)

    def test_shipped_tables_mask_every_corpus_token_as_the_scan(self, corpus_dir):
        cache = scoring.compile_tables()[0].masks
        tokens = {tok for t in pipeline.load_transcripts(corpus_dir)
                  for u in t.utterances for tok in u.mor_tokens or ()}
        assert len(tokens) >= 30
        for tok in tokens:
            for contracted in (False, True):
                assert cache[tok, contracted] == scan_mask(cache, tok, contracted)


# 80 distinct predicates: compiled first, they push every later bit past 64
_WIDE_TOKENS = {f"{cls}_{lemma}": {"pos": cls, "lemma_in": [lemma.lower()]}
                for cls in _CLASSES for lemma in _LEMMAS}


def _compile_on_one_cache(dss: dict, ipsyn: dict, counts: dict, wide: bool):
    """The three tables compiled on one cache, the count table first, so
    that with ``wide`` its 80 extra predicates fill the first mask word."""
    cache = scoring._MaskCache()
    if wide:
        counts = {**counts, "tokens": {**_WIDE_TOKENS, **counts["tokens"]}}
    compiled_counts = scoring.CompiledTable(counts, "counts", cache)
    return (scoring.CompiledTable(dss, "categories", cache),
            scoring.CompiledTable(ipsyn, "structures", cache), compiled_counts)


def _assert_cohort_equals_walk(transcripts, tables):
    rows = scoring.score_cohort(transcripts, tables)
    assert len(rows) == len(transcripts)
    for t, row in zip(transcripts, rows):
        assert row.counts == walk_rule_counts(t, tables[2])
        assert row.dss == walk_dss_score(t, tables[0])
        assert row.ipsyn == walk_ipsyn_total(t, tables[1])


class TestCohortEngine:
    """The cohort's array passes against the per-transcript mask walk."""

    @pytest.mark.parametrize("wide", [False, True])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(transcripts=st.lists(_TRANSCRIPTS, min_size=1, max_size=4), rules=_rule_lists(),
           cap=st.sampled_from([0, 1, 2, 50]), sentence_point=st.booleans())
    def test_cohort_equals_walk_oracle(self, wide, transcripts, rules, cap, sentence_point):
        categories, structures, counts = rules
        tables = _compile_on_one_cache(
            {"sentence_point": sentence_point, "categories": _COVER_CATEGORIES + categories},
            {"cap": cap, "structures": _COVER_STRUCTURES + structures}, counts, wide)
        assert (len(tables[0].masks.bits) > 64) == wide
        _assert_cohort_equals_walk(transcripts, tables)

    @pytest.mark.parametrize("wide", [False, True])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(transcripts=st.lists(_count_transcripts(), min_size=1, max_size=4))
    def test_shipped_tables_equal_walk_oracle(self, wide, transcripts):
        # contracted surfaces and mor tiers shorter than their utterance
        tables = _compile_on_one_cache(scoring.default_dss_table(),
                                       scoring.default_ipsyn_table(),
                                       scoring.default_counts_table(), wide)
        _assert_cohort_equals_walk(transcripts, tables)

    def test_no_run_spans_two_utterances(self):
        # "he" ends one utterance and "is" starts the next: no pro_aux there
        t = mk("*CHI:\tI see he .\n%mor:\tpro|I v|see pro|he .\n"
               "*CHI:\tis going .\n%mor:\taux|be part|go-PROG .\n"
               "*CHI:\the is .\n%mor:\tpro|he aux|be .\n")
        rules = scoring.compile_tables()
        (row,) = scoring.score_cohort([t], rules)
        assert row.counts["pro_aux"] == 1
        assert row.counts == walk_rule_counts(t, rules[2])

    def test_more_than_64_predicates_fill_a_second_word(self, corpus_dir):
        # every rule has its own predicate; the last ones land in the second word
        transcripts = pipeline.load_transcripts(corpus_dir)
        lemmas = sorted({tok.lemma.lower() for t in transcripts
                         for u in t.child_utterances for tok in u.mor_tokens or ()})
        assert len(lemmas) >= 30
        dss = {"sentence_point": True, "categories": [
            {"rules": [{"points": 1 + i % 7, "lemma_in": [lemma]}
                       for i, lemma in enumerate(lemmas[k::3])]} for k in range(3)]}
        ipsyn = {"cap": 3, "structures": [{"token": {"pos": "v", "lemma_in": [lemma]}}
                                          for lemma in lemmas]}
        tables = scoring.compile_tables(dss, ipsyn)
        assert len(tables[0].masks.bits) > 64
        assert scoring._Cohort(transcripts, tables[0].masks).masks.shape[0] == 2
        _assert_cohort_equals_walk(transcripts, tables)
        for t, row in zip(transcripts, scoring.score_cohort(transcripts, tables)):
            assert row.dss == loop_dss_score(t, dss)
            assert row.ipsyn == loop_ipsyn_total(t, ipsyn)

    def test_tables_on_different_caches_are_refused(self):
        dss, ipsyn, _ = scoring.compile_tables()
        with pytest.raises(ValueError, match="one mask cache"):
            scoring.score_cohort([mk(TWO_UTTS)], (dss, ipsyn, scoring.CompiledTable(
                scoring.default_counts_table(), "counts", scoring._MaskCache())))

    def test_an_empty_cohort_scores_nothing(self):
        assert scoring.score_cohort([], scoring.compile_tables()) == []
        no_child = mk("*EXA:\twhat is it ?\n%mor:\tpro:wh|what cop|be pro|it ?\n")
        (row,) = scoring.score_cohort([no_child], scoring.compile_tables())
        assert row.dss is None and row.ipsyn is None
        assert set(row.counts.values()) == {0}

    def test_points_past_int64_score_as_python_ints(self):
        # an utterance's score leaves int64: the scores are added as Python ints
        dss = {"categories": [{"rules": [{"points": 2**62, "pos": "v"}]},
                              {"rules": [{"points": 2**62 + 1, "pos": "pro"}]}]}
        t = mk(TWO_UTTS)
        assert scoring.CompiledTable(dss, "categories", scoring._MaskCache()).score_type \
            is object
        assert scores(t, dss).dss == loop_dss_score(t, dss) == float(2**62 + 2**61)


class TestZScores:
    STATS = GroupStats(stats={
        "SLI": {"mlu_words": (8.0, 2.0, 5), "word_errors": (8.0, 2.0, 5),
                "r_2_i_verbs": (8.0, 1.5, 5), "total_utts": (8.0, 2.0, 5)},
        "TD": {"mlu_words": (8.0, 1.5, 5), "word_errors": (8.0, 2.0, 5),
               "r_2_i_verbs": (8.0, 2.0, 5), "total_utts": (8.0, 2.0, 5)},
    })

    def test_definition(self):
        base = {"mlu_words": 10.0, "word_errors": 8.0, "r_2_i_verbs": 5.0,
                "total_utts": 8.0}
        z = zscore_features(base, self.STATS)
        assert z["z_mlu_sli"] == 1.0          # (10 - 8) / 2
        assert z["z_word_errors_sli"] == 0.0  # x == mean
        assert z["z_r_2_i_verbs_td"] == -1.5  # (5 - 8) / 2
        assert z["z_r_2_i_verbs_sli"] == -2.0  # (5 - 8) / 1.5

    def test_group_mean_maps_to_zero(self):
        base = dict.fromkeys(("mlu_words", "word_errors", "r_2_i_verbs",
                              "total_utts"), 8.0)
        z = zscore_features(base, self.STATS)
        assert all(v == 0.0 for k, v in z.items() if k.endswith("_sli"))

    def test_zero_sd_rejected(self):
        stats = GroupStats(stats={"SLI": {"mlu_words": (8.0, 0.0, 5)},
                                  "TD": {"mlu_words": (8.0, 1.0, 5)}})
        with pytest.raises(ZeroSd):
            zscore_features({"mlu_words": 1.0}, stats)

    def test_from_rows_sample_sd(self):
        rows = [{"mlu_words": 2.0}, {"mlu_words": 4.0},
                {"mlu_words": 1.0}, {"mlu_words": 3.0}]
        stats = GroupStats.from_rows(rows, ["SLI", "SLI", "TD", "TD"],
                                     features=("mlu_words",))
        mean, sd, n = stats.get("SLI", "mlu_words")
        assert mean == 3.0 and n == 2
        assert abs(sd - math.sqrt(2.0)) < 1e-12

    def test_from_rows_adds_left_to_right(self):
        # left to right, 1e16 + 1.0 rounds back to 1e16 and the mean is 0.25;
        # an exact sum, as builtin sum gives from Python 3.12, makes it 0.5
        vals = [1e16, 1.0, -1e16, 1.0]
        rows = [{"mlu_words": v} for v in vals + [1.0, 2.0]]
        stats = GroupStats.from_rows(rows, ["SLI"] * 4 + ["TD"] * 2,
                                     features=("mlu_words",))
        mean, sd, _ = stats.get("SLI", "mlu_words")
        assert mean == 0.25
        squares = 0.0
        for v in vals:
            squares += (v - mean) ** 2
        assert sd == (squares / 3) ** 0.5


class TestExtractAll:
    @pytest.fixture()
    def cohort_parts(self, corpus_dir):
        transcripts = pipeline.load_transcripts(corpus_dir)
        config = pipeline.PipelineConfig(input_mode="transcripts",
                                         input_path=str(corpus_dir),
                                         output_dir=".", seed=0)
        return transcripts, config

    def test_schema_complete(self, cohort_parts):
        transcripts, config = cohort_parts
        cohort = pipeline.extract_cohort(transcripts, config)
        assert cohort.matrix.values.shape == (len(transcripts), 64)
        assert cohort.matrix.col_names == FEATURE_NAMES

    def test_deterministic(self, cohort_parts):
        transcripts, config = cohort_parts
        a = pipeline.extract_cohort(transcripts, config)
        b = pipeline.extract_cohort(transcripts, config)
        assert (a.matrix.values == b.matrix.values).all()

    def test_counts_non_negative(self, cohort_parts):
        from langprofile.features.schema import COUNT_FEATURES
        transcripts, config = cohort_parts
        cohort = pipeline.extract_cohort(transcripts, config)
        for j, name in enumerate(cohort.matrix.col_names):
            if name in COUNT_FEATURES:
                col = cohort.matrix.values[:, j]
                assert (col >= 0).all(), name
                assert (col == col.round()).all(), name

    def test_freq_ttr_range(self, cohort_parts):
        transcripts, config = cohort_parts
        cohort = pipeline.extract_cohort(transcripts, config)
        j = cohort.matrix.col_names.index("freq_ttr")
        col = cohort.matrix.values[:, j]
        assert ((col > 0) & (col <= 1)).all()


class TestDoublingProperties:
    BASE = (
        "*CHI:\tthe dog ran .\n%mor:\tdet:art|the n|dog v|run&PAST .\n"
        "*CHI:\the jumped in .\n%mor:\tpro|he v|jump-PAST prep|in .\n"
    )

    def _doubled(self):
        return self.BASE, self.BASE + self.BASE

    def test_counts_double_ratios_hold(self):
        single, double = self._doubled()
        c1, c2 = production_counts(mk(single)), production_counts(mk(double))
        assert c2["child_TNW"] == 2 * c1["child_TNW"]
        assert c2["child_TNS"] == 2 * c1["child_TNS"]
        m1, _ = features(single)
        m2, _ = features(double)
        assert m2["total_syl"] == 2 * m1["total_syl"]
        assert m2["mlu_words"] == m1["mlu_words"]
        assert m2["average_syl"] == m1["average_syl"]
        k1, _ = features(single)
        k2, _ = features(double)
        assert all(k2[name] == 2 * k1[name] for name in MARKER_NAMES)

    def test_ttr_halves_exactly(self):
        single, double = self._doubled()
        l1, _ = features(single)
        l2, _ = features(double)
        assert l2["freq_ttr"] == l1["freq_ttr"] / 2
