import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from langprofile import pipeline
from langprofile.chat import (
    AnnotationEvents,
    Group,
    MorToken,
    Speaker,
    Terminator,
    parse_chat,
    parse_mor_token,
    render_chat,
    strip_annotations,
)
from langprofile.errors import (
    BadHeader,
    DanglingMarker,
    MalformedTier,
    OrphanDependentTier,
    UnbalancedScope,
)
from tests.conftest import make_corpus
from tests.oracles import pos_matches, scope_strip_annotations

_POS_TEXT = st.text(alphabet="ab:", max_size=6)


class TestParseChat:
    def test_minimal_tier(self):
        t = parse_chat("*CHI:\tthe dog ran .\n")
        assert len(t.utterances) == 1
        u = t.utterances[0]
        assert u.speaker is Speaker.CHILD
        assert u.clean_tokens == ("the", "dog", "ran")
        assert u.terminator is Terminator.PERIOD

    def test_filler_and_repetition(self):
        # hand application of the annotation grammar:
        # &-um is a filler, [/] removes the preceding "the"
        t = parse_chat("*CHI:\t&-um the the [/] dog fell .\n")
        u = t.utterances[0]
        assert u.clean_tokens == ("the", "dog", "fell")
        assert u.events == AnnotationEvents(fillers=1, repetitions=1)

    def test_mor_tier_attached(self):
        text = "*CHI:\tthe dog ran .\n%mor:\tdet:art|the n|dog v|run&PAST .\n"
        t = parse_chat(text)
        mor = t.utterances[0].mor_tokens
        assert len(mor) == 3
        assert mor[0].pos_tag == "det:art" and mor[0].lemma == "the"
        assert mor[2].fusions == ("PAST",)
        assert mor[2].suffixes == ()

    def test_headers(self):
        text = (
            "@Begin\n"
            "@Participants:\tCHI Ann Target_Child, EXA Ben Examiner\n"
            "@ID:\teng|gillam|CHI|4;06.15|male|SLI||Target_Child|||\n"
            "@PID:\tchild42\n"
            "*CHI:\tthe dog ran .\n"
            "*EXA:\twhat happened ?\n"
            "@End\n"
        )
        t = parse_chat(text)
        assert t.id == "child42"
        assert t.corpus == "gillam"
        assert t.group is Group.SLI
        assert t.age_months == 4 * 12 + 6
        assert t.sex == "M"
        assert t.utterances[1].speaker is Speaker.EXAMINER

    def test_unknown_speaker_code_is_other(self):
        t = parse_chat("*MOT:\tcome here .\n")
        assert t.utterances[0].speaker is Speaker.OTHER

    def test_missing_diagnosis_is_unknown(self):
        text = "@ID:\teng|enni|CHI|5;00.|female|||Target_Child|||\n*CHI:\thi .\n"
        t = parse_chat(text)
        assert t.group is Group.UNKNOWN
        assert t.sex == "F"

    def test_continuation_line(self):
        t = parse_chat("*CHI:\tthe dog\n\tran home .\n")
        assert t.utterances[0].clean_tokens == ("the", "dog", "ran", "home")

    def test_unknown_dependent_tier_skipped(self):
        t = parse_chat("*CHI:\tthe dog ran .\n%gra:\t1|2|DET 2|3|SUBJ\n")
        assert t.utterances[0].mor_tokens is None
        assert not t.warnings

    def test_trail_off(self):
        t = parse_chat("*CHI:\tthe dog +...\n")
        assert t.utterances[0].terminator is Terminator.TRAIL_OFF
        assert t.utterances[0].clean_tokens == ("the", "dog")

    def test_postcode(self):
        t = parse_chat("*CHI:\the goed [*] home . [+ gram]\n")
        u = t.utterances[0]
        assert u.clean_tokens == ("he", "goed", "home")
        assert u.events.word_errors == 1
        assert u.postcodes == ("[+ gram]",)
        assert u.terminator is Terminator.PERIOD

    def test_mor_alignment_mismatch_drops_tier(self):
        text = "*CHI:\tthe dog ran .\n%mor:\tdet:art|the n|dog .\n"
        t = parse_chat(text)
        assert t.utterances[0].mor_tokens is None
        assert len(t.warnings) == 1
        assert "mor" in t.warnings[0]

    @pytest.mark.parametrize("text, lemmas, warnings", [
        pytest.param("*CHI:\tthe dog .\n%mor:\tdet|a n|cat .\n%mor:\tdet|the n|dog .\n",
                     [("the", "dog")], ["utterance 1: duplicate mor tier replaced"],
                     id="duplicate-replaces-first"),
        pytest.param("*CHI:\tthe dog .\n%mor:\tdet|the n| .\n%mor:\tdet|the n|dog .\n",
                     [("the", "dog")],
                     ["utterance 1: mor tier dropped (unparseable mor token 'n|')"],
                     id="malformed-then-good"),
        pytest.param("*CHI:\tthe dog .\n%mor:\tdet|the .\n%mor:\tdet|the n|dog .\n",
                     [("the", "dog")],
                     ["utterance 1: mor tier has 1 tokens, utterance has 2; mor dropped"],
                     id="misaligned-then-good"),
        pytest.param("*CHI:\tdog .\n*EXA:\twhat ?\n%mor:\tpro:wh|what ?\n",
                     [None, ("what",)], [], id="examiner-tier"),
        pytest.param("*CHI:\tdog .\n%mor:\tn|dog .\n@Comment:\tnote\n%com:\tx\n"
                     "*CHI:\tcat .\n%mor:\tn|cat .\n%mor:\tn|cat-PL .\n",
                     [("dog",), ("cat",)], ["utterance 2: duplicate mor tier replaced"],
                     id="each-tier-to-its-own-utterance"),
    ])
    def test_mor_tier_attachment(self, text, lemmas, warnings):
        t = parse_chat(text)
        assert [None if u.mor_tokens is None else tuple(m.lemma for m in u.mor_tokens)
                for u in t.utterances] == lemmas
        assert list(t.warnings) == warnings

    def test_malformed_tier(self):
        with pytest.raises(MalformedTier):
            parse_chat("*CHI\tthe dog ran .\n")

    def test_orphan_dependent_tier(self):
        with pytest.raises(OrphanDependentTier):
            parse_chat("%mor:\tn|dog .\n")

    def test_bad_header_age(self):
        with pytest.raises(BadHeader):
            parse_chat("@ID:\teng|x|CHI|four years|male|SLI||Target_Child|||\n")

    @pytest.mark.parametrize("text, error, line", [
        ("@Begin\n\n*CHI:\tthe dog\n\tran .\n*CHI:\tthe <dog runs .\n",
         UnbalancedScope, 5),
        ("*CHI:\tthe dog\n\t<ran .\n", UnbalancedScope, 1),
        ("@Begin\n%mor:\tn|dog .\n", OrphanDependentTier, 2),
        ("@Begin\n@ID:\teng|x|CHI|four years|male|SLI||Target_Child|||\n", BadHeader, 2),
        ("\n\tdangling continuation\n", MalformedTier, 2),
    ])
    def test_errors_name_first_physical_line(self, text, error, line):
        with pytest.raises(error, match=rf"^line {line}: "):
            parse_chat(text)

    def test_determinism(self):
        text = "*CHI:\t&-um the <big dog> [//] dog ran .\n%mor:\tdet:art|the n|dog v|run&PAST .\n"
        assert parse_chat(text) == parse_chat(text)


class TestStripAnnotations:
    def test_no_annotations(self):
        clean, ev = strip_annotations(["the", "dog"])
        assert clean == ("the", "dog")
        assert ev == AnnotationEvents()

    def test_scoped_retrace(self):
        # <he go> [//] removes the two-token scope
        clean, ev = strip_annotations(["<he", "go>", "[//]", "he", "goes"])
        assert clean == ("he", "goes")
        assert ev == AnnotationEvents(retracings=1)

    def test_word_error_keeps_word(self):
        clean, ev = strip_annotations(["goed", "[*]", "home"])
        assert clean == ("goed", "home")
        assert ev == AnnotationEvents(word_errors=1)

    def test_nested_scopes_innermost_first(self):
        # inner <b c> collapses into the outer scope before [//] removes it
        clean, ev = strip_annotations(["<a", "<b", "c>", "d>", "[//]", "e"])
        assert clean == ("e",)
        assert ev == AnnotationEvents(retracings=1)

    def test_repetition_of_scope(self):
        clean, ev = strip_annotations(["<the", "dog>", "[/]", "the", "dog", "ran"])
        assert clean == ("the", "dog", "ran")
        assert ev == AnnotationEvents(repetitions=1)

    def test_unbalanced_open(self):
        with pytest.raises(UnbalancedScope):
            strip_annotations(["<he", "go"])

    def test_unbalanced_close(self):
        with pytest.raises(UnbalancedScope):
            strip_annotations(["he", "go>"])

    def test_dangling_marker(self):
        with pytest.raises(DanglingMarker):
            strip_annotations(["[/]", "dog"])

    def test_unknown_bracket_code_dropped(self):
        clean, ev = strip_annotations(["dog", "[:", "dogs]", "ran"])
        assert clean == ("dog", "ran")
        assert ev.total() == 0

    @pytest.mark.parametrize("tokens,groups_in,groups_kept,errors", [
        (["a", "b", "[/]", "<c", "d>", "[//]", "e", "[*]"], 4, 2, 1),
        (["&-um", "x", "y", "[/]"], 2, 1, 0),
        (["<a", "b>", "[*]", "c"], 2, 2, 1),
    ])
    def test_event_count_identity(self, tokens, groups_in, groups_kept, errors):
        # every counted event is one removed-or-flagged token group:
        # fillers + repetitions + retracings = material groups in - groups
        # kept, and word errors flag retained groups
        clean, ev = strip_annotations(tokens)
        removed = ev.fillers + ev.repetitions + ev.retracings
        fillers_in = sum(1 for t in tokens if t.startswith("&"))
        assert removed == (groups_in + fillers_in) - groups_kept
        assert ev.word_errors == errors

    words = st.lists(st.sampled_from(["the", "dog", "ran", "he", "goes", "ball"]),
                     min_size=0, max_size=8)

    @given(words)
    def test_plain_words_pass_through(self, tokens):
        clean, ev = strip_annotations(tokens)
        assert list(clean) == tokens
        assert ev.total() == 0

    @given(words, st.integers(0, 8))
    def test_filler_insertion_only_counts(self, tokens, pos):
        pos = min(pos, len(tokens))
        with_filler = tokens[:pos] + ["&-um"] + tokens[pos:]
        clean, ev = strip_annotations(with_filler)
        assert list(clean) == tokens
        assert ev == AnnotationEvents(fillers=1)
        assert len(clean) <= len(with_filler)

    _TOKENS = st.lists(st.sampled_from(["the", "dog", "ran", "", "<a", "b>", "<", ">", "[/]",
                                        "[//]", "[*]", "[+", "x]", "[:", "&um", "rock&roll"]),
                       max_size=8)

    @staticmethod
    def _outcome(strip, tokens):
        try:
            return strip(tokens)
        except (DanglingMarker, UnbalancedScope) as exc:
            return type(exc), str(exc)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_TOKENS)
    def test_equals_scope_stack_walk(self, tokens):
        # the clean tuple and events, or the error's type and text
        assert self._outcome(strip_annotations, tokens) \
            == self._outcome(scope_strip_annotations, tokens)


class TestMorToken:
    def test_suffix_and_fusion(self):
        tok = parse_mor_token("v|go-PROG&3S")
        assert tok.pos_tag == "v"
        assert tok.lemma == "go"
        assert tok.suffixes == ("PROG",)
        assert tok.fusions == ("3S",)

    def test_morpheme_count_conventions(self):
        tok = parse_mor_token("v|run&PAST")
        assert tok.morphemes(count_fusions=False) == 1
        assert tok.morphemes(count_fusions=True) == 2
        tok = parse_mor_token("v|jump-PAST")
        assert tok.morphemes(count_fusions=False) == 2

    def test_terminator_skipped(self):
        assert parse_mor_token(".") is None

    def test_garbage_raises(self):
        with pytest.raises(MalformedTier):
            parse_mor_token("nopipe")

    @given(_POS_TEXT, _POS_TEXT)
    def test_pos_classes_match_prefix_oracle(self, tag, prefix):
        assert (prefix in MorToken(tag, "x").pos_classes) == pos_matches(tag, prefix)

    @pytest.mark.parametrize("tag, classes", [
        ("n", {"n"}), ("n:prop", {"n", "n:prop"}), ("neg", {"neg"}),
        ("det:art:def", {"det", "det:art", "det:art:def"}),
    ])
    def test_pos_classes_are_segment_prefixes(self, tag, classes):
        assert MorToken(tag, "x").pos_classes == classes

    def test_same_tag_shares_one_class_set(self):
        a, b = parse_mor_token("n:prop|Ann"), parse_mor_token("n:prop|Bob-POSS")
        assert a.pos_classes == b.pos_classes
        assert a == MorToken("n:prop", "Ann")
        assert repr(a) == "MorToken(pos_tag='n:prop', lemma='Ann', suffixes=(), fusions=())"
        assert a.render() == "n:prop|Ann"


def _mor_tokens(transcripts) -> list[MorToken]:
    return [tok for t in transcripts for u in t.utterances for tok in u.mor_tokens or ()]


class TestMorInterning:
    """One load_transcripts call parses each distinct %mor item once."""

    @staticmethod
    def _write(directory, texts):
        directory.mkdir()
        for i, text in enumerate(texts):
            (directory / f"t{i}.cha").write_text(text, encoding="utf-8")

    def test_equal_items_share_one_token_within_a_corpus(self, tmp_path):
        self._write(tmp_path / "corpus", [
            "*CHI:\tthe dog ran .\n%mor:\tdet:art|the n|dog v|run&PAST .\n"
            "*CHI:\tdog .\n%mor:\tn|dog .\n",
            "*CHI:\tdog ran .\n%mor:\tn|dog v|run&PAST .\n"])
        tokens = _mor_tokens(pipeline.load_transcripts(tmp_path / "corpus"))
        for item in ("n|dog", "v|run&PAST"):
            same = [tok for tok in tokens if tok.render() == item]
            assert len(same) in (2, 3)
            assert all(tok is same[0] for tok in same)

    def test_corpora_and_bare_parses_share_no_token(self, tmp_path):
        make_corpus(tmp_path / "corpus")
        first = _mor_tokens(pipeline.load_transcripts(tmp_path / "corpus"))
        second = _mor_tokens(pipeline.load_transcripts(tmp_path / "corpus"))
        assert first == second
        assert {id(tok) for tok in first}.isdisjoint(id(tok) for tok in second)
        text = "*CHI:\tdog .\n%mor:\tn|dog .\n"
        assert _mor_tokens([parse_chat(text)])[0] is not _mor_tokens([parse_chat(text)])[0]

    def test_malformed_item_warns_at_every_occurrence(self, tmp_path):
        text = ("*CHI:\tdog ran .\n%mor:\tn|dog ran .\n"
                "*CHI:\tdog ran .\n%mor:\tn|dog ran .\n")
        self._write(tmp_path / "corpus", [text, text])
        dropped = "mor tier dropped (unparseable mor token 'ran')"
        for t in pipeline.load_transcripts(tmp_path / "corpus"):
            assert t.warnings == (f"utterance 1: {dropped}", f"utterance 2: {dropped}")

    def test_no_token_outlives_its_job(self, tmp_path):
        make_corpus(tmp_path / "corpus")
        transcripts = pipeline.load_transcripts(tmp_path / "corpus")
        pipeline.extract_cohort(transcripts, pipeline.PipelineConfig(
            input_mode="transcripts", input_path="corpus", output_dir=".", seed=0))
        token = weakref.ref(_mor_tokens(transcripts)[0])
        del transcripts
        gc.collect()
        assert token() is None


class TestRoundTrip:
    TEXT = (
        "@Participants:\tCHI Ann Target_Child, EXA Ben Examiner\n"
        "@ID:\teng|synth|CHI|5;03.|female|TD||Target_Child|||\n"
        "*CHI:\t&-um the <big dog> [//] dog ran .\n"
        "%mor:\tdet:art|the n|dog v|run&PAST .\n"
        "*EXA:\twhat happened next ?\n"
        "*CHI:\the goed [*] home !\n"
    )

    def test_reparse_preserves_clean_content(self):
        first = parse_chat(self.TEXT)
        second = parse_chat(render_chat(first))
        assert [u.clean_tokens for u in second.utterances] == \
            [u.clean_tokens for u in first.utterances]
        assert [u.mor_tokens for u in second.utterances] == \
            [u.mor_tokens for u in first.utterances]
        assert [u.terminator for u in second.utterances] == \
            [u.terminator for u in first.utterances]
        assert all(u.events.total() == 0 for u in second.utterances)
        assert second.group is first.group
        assert second.age_months == first.age_months

    def test_render_writes_each_terminator(self):
        t = parse_chat("*CHI:\tdog .\n*CHI:\tdog ?\n*CHI:\tdog !\n*CHI:\tdog +...\n"
                       "%mor:\tn|dog +...\n")
        lines = render_chat(t).splitlines()
        assert lines[-6:-1] == ["*CHI:\tdog .", "*CHI:\tdog ?", "*CHI:\tdog !",
                                "*CHI:\tdog +...", "%mor:\tn|dog +..."]

    def test_render_is_stable(self):
        first = parse_chat(self.TEXT)
        once = render_chat(first)
        twice = render_chat(parse_chat(once))
        assert once == twice
