import pytest
from hypothesis import assume, given, settings, strategies as st

from langprofile import ngram
from langprofile.chat import parse_chat
from langprofile.errors import DataError, EmptyCorpus, ZeroProbability
from langprofile.ngram import (EOS, UNK, leave_one_out, load_model, perplexity,
                               perplexity_features, save_model, train)
from langprofile.pipeline import load_transcripts
from tests.conftest import make_corpus, make_wordy_corpus, newly_rare_types, pseudo_words
from tests.oracles import loop_perplexity_features, retrain_loo_models

WORDS = pseudo_words(300)


def chi(*utterances: str):
    return parse_chat("".join(f"*CHI:\t{u} .\n" for u in utterances))


def chi_group(group: str, *utterances: str):
    header = f"@ID:\teng|synth|CHI|5;00.|male|{group}||Target_Child|||\n"
    return parse_chat(header + "".join(f"*CHI:\t{u} .\n" for u in utterances))


class TestTrain:
    def test_unigram_counts_with_padding(self):
        # stream is [a, b, </s>] so the MLE of each symbol is 1/3
        m = train([chi("a b")], order=1, smoothing_k=0)
        assert m.prob(("a",)) == 1 / 3
        assert m.prob(("b",)) == 1 / 3
        assert m.prob((EOS,)) == 1 / 3

    def test_normalization_identity(self):
        m = train([chi("a b a", "b c a")], order=2, smoothing_k=0.5)
        for ctx in set(m.context_totals):
            total = sum(m.prob(ctx + (w,)) for w in m.vocab)
            assert abs(total - 1.0) < 1e-9
        # unseen context still normalizes under smoothing
        total = sum(m.prob(("zzz", w)) for w in m.vocab)
        assert abs(total - 1.0) < 1e-9

    def test_unk_threshold(self):
        m = train([chi("cat cat zebra")], order=1, smoothing_k=1, unk_threshold=2)
        assert "zebra" not in m.vocab
        assert UNK in m.vocab
        # a transcript of unseen words scores identically to the rare type
        assert perplexity(m, chi("zebra")) == perplexity(m, chi("qux"))

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train([], order=1)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            train([chi("a")], order=4)

    @pytest.mark.parametrize("setting, value", [
        ("smoothing_k", float("nan")), ("smoothing_k", float("inf")),
        ("smoothing_k", -1.0), ("unk_threshold", 0), ("unk_threshold", -3),
    ])
    def test_bad_setting_is_a_value_error_naming_it(self, setting, value):
        with pytest.raises(ValueError, match=setting):
            train([chi("a")], order=1, **{setting: value})


class TestPerplexity:
    def test_uniform_model(self):
        # 4 equiprobable types, no padding: PP equals the vocabulary size
        m = train([chi("a b c d")], order=1, smoothing_k=0, pad=False)
        assert abs(perplexity(m, chi("a b c d")) - 4.0) < 1e-9

    def test_certainty(self):
        m = train([chi("a a a")], order=1, smoothing_k=0, pad=False)
        assert perplexity(m, chi("a")) == 1.0

    def test_add_one_bigram_hand_case(self):
        # train "a b": vocab {a, b, <unk>, </s>}; every scored bigram has
        # probability (1+1)/(1+4), so PP = 5/2
        m = train([chi("a b")], order=2, smoothing_k=1)
        assert abs(perplexity(m, chi("a b")) - 2.5) < 1e-9

    def test_zero_probability_unsmoothed(self):
        m = train([chi("a a")], order=1, smoothing_k=0)
        with pytest.raises(ZeroProbability):
            perplexity(m, chi("b"))

    def test_lower_bound(self):
        m = train([chi("a b c a b")], order=2, smoothing_k=1)
        for text in ("a b", "c c c", "zebra"):
            assert perplexity(m, chi(text)) >= 1.0 - 1e-12

    def test_smoothing_pulls_toward_vocab_size(self):
        # in-distribution text: as k grows, PP climbs monotonically
        # toward |vocab| = 3 ({a, b, <unk>})
        m0 = train([chi("a a a b")], order=1, smoothing_k=0, pad=False)
        v = m0.vocab_size
        gaps = []
        for k in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 200.0):
            m = train([chi("a a a b")], order=1, smoothing_k=k, pad=False)
            gaps.append(abs(perplexity(m, chi("a a a b")) - v))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=12),
           st.integers(1, 3))
    def test_perplexity_at_least_one(self, tokens, order):
        corpus = chi(" ".join(tokens), "a b c d")
        m = train([corpus], order=order, smoothing_k=1)
        assert perplexity(m, chi(" ".join(tokens))) >= 1.0 - 1e-12


class TestPerplexityFeatures:
    def test_identical_corpora_symmetry(self):
        sli = chi_group("SLI", "the dog ran", "he fell")
        td = chi_group("TD", "the dog ran", "he fell")
        models = ngram.train_group_models([sli, td])
        feats = perplexity_features(chi("the dog ran"), models["SLI"], models["TD"])
        for order in (1, 2, 3):
            assert feats[f"s_{order}g_ppl"] == feats[f"d_{order}g_ppl"]
        assert all(v >= 1.0 for v in feats.values())

    def test_separable_corpora_ordering(self):
        # disjoint vocabularies: a TD-drawn transcript is predictable for
        # the TD models and all-<unk> for the SLI models
        sli = chi_group("SLI", "zig zag zog", "zag zig", "zog zig zag")
        td = chi_group("TD", "the dog ran home", "the dog fell", "he ran home")
        models = ngram.train_group_models([sli, td])
        feats = perplexity_features(chi("the dog ran home"),
                                    models["SLI"], models["TD"])
        for order in (1, 2, 3):
            assert feats[f"d_{order}g_ppl"] < feats[f"s_{order}g_ppl"]

    def test_group_missing(self):
        td = chi_group("TD", "the dog ran")
        with pytest.raises(EmptyCorpus):
            ngram.train_group_models([td])

    @pytest.mark.parametrize("pad", [True, False])
    @pytest.mark.parametrize("unk_threshold", [1, 2, 3])
    @pytest.mark.parametrize("make", [make_corpus, make_wordy_corpus])
    def test_equals_six_loop_perplexities(self, tmp_path, make, unk_threshold, pad):
        make(tmp_path / "corpus")
        transcripts = load_transcripts(tmp_path / "corpus")
        full = ngram.train_group_models(transcripts, 0.5, unk_threshold, pad)
        model_sets = [full]
        for label in ("SLI", "TD"):
            members = [t for t in transcripts if t.group.value == label]
            model_sets += [{**full, label: held}
                           for held in leave_one_out(members, full[label])]
        for models in model_sets:
            for t in transcripts:
                assert perplexity_features(t, models["SLI"], models["TD"]) \
                    == loop_perplexity_features(t, models["SLI"], models["TD"])

    def test_reads_the_child_sentences_once(self, corpus_dir, monkeypatch):
        transcripts = load_transcripts(corpus_dir)
        models = ngram.train_group_models(transcripts, 0.5, 2)
        calls = []
        read = ngram._child_sentences
        monkeypatch.setattr(ngram, "_child_sentences",
                            lambda ts: calls.append([t.id for t in ts]) or read(ts))
        for t in transcripts:
            perplexity_features(t, models["SLI"], models["TD"])
        assert calls == [[t.id] for t in transcripts]


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        m = train([chi("the dog ran home", "the dog fell")], order=2,
                  smoothing_k=0.5, unk_threshold=1)
        p1 = tmp_path / "m1.lm"
        p2 = tmp_path / "m2.lm"
        save_model(m, p1)
        loaded = load_model(p1)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.counts == m.counts
        assert loaded.context_totals == m.context_totals
        assert loaded.vocab == m.vocab
        assert (loaded.order, loaded.smoothing_k, loaded.unk_threshold,
                loaded.pad) == (m.order, m.smoothing_k, m.unk_threshold, m.pad)

    def test_loaded_model_scores_identically(self, tmp_path):
        m = train([chi("a b c", "b c a")], order=3, smoothing_k=1)
        save_model(m, tmp_path / "m.lm")
        loaded = load_model(tmp_path / "m.lm")
        t = chi("a b c")
        assert perplexity(m, t) == perplexity(loaded, t)

    @pytest.mark.parametrize("unk_threshold", [1, 2])
    @pytest.mark.parametrize("pad", [True, False])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_round_trip_keeps_vocab_counts_and_perplexity(self, tmp_path, order, pad,
                                                           unk_threshold):
        make_corpus(tmp_path / "corpus")
        transcripts = load_transcripts(tmp_path / "corpus")
        m = train(transcripts, order, 0.5, unk_threshold, pad)
        save_model(m, tmp_path / "m.lm")
        loaded = load_model(tmp_path / "m.lm")
        assert loaded == m
        for t in transcripts:
            assert perplexity(loaded, t) == perplexity(m, t)

    @pytest.mark.parametrize("text, where", [
        ("", "'ngram' header"),
        ("ngram\torder=2\tk=1.0\tpad=1\nvocab\ta\n", "'unk_threshold'"),
        ("ngram\torder=two\tk=1.0\tunk_threshold=1\tpad=1\nvocab\ta\n", "line 1"),
        ("ngram\torder=1\tk=1.0\tunk_threshold=1\tpad=0\n1\ta\n", "line 2"),
        ("ngram\torder=2\tk=1.0\tunk_threshold=1\tpad=1\nvocab\ta b\n1\ta b\n1 a\n",
         "line 4"),
        ("ngram\torder=2\tk=1.0\tunk_threshold=1\tpad=1\nvocab\ta b\nx\ta b\n", "line 3"),
        ("ngram\torder=2\tk=1.0\tunk_threshold=1\tpad=1\nvocab\ta b\n1\ta\n", "line 3"),
        ("ngram\torder=1\tk=nan\tunk_threshold=1\tpad=1\nvocab\ta\n", "line 1: smoothing_k"),
        ("ngram\torder=1\tk=-1.0\tunk_threshold=0\tpad=1\nvocab\ta\n",
         "line 1: smoothing_k"),
        ("ngram\torder=1\tk=1.0\tunk_threshold=1\tpad=7\nvocab\ta\n", "line 1: pad"),
        ("ngram\torder=5\tk=1.0\tunk_threshold=1\tpad=1\nvocab\ta\n", "line 1: order"),
        (b"ngram\torder=1\tk=1.0\tunk_threshold=1\tpad=1\nvocab\ta \xff\n",
         "not UTF-8: byte 0xff at offset 50"),
        (b"\xef\xbb\xbfngram\torder=1\tk=1.0\tunk_threshold=1\tpad=1\nvocab\ta \xff\n",
         "not UTF-8: byte 0xff at offset 53"),
    ])
    def test_malformed_file_raises_data_error(self, tmp_path, text, where):
        path = tmp_path / "m.lm"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with pytest.raises(DataError) as err:
            load_model(path)
        assert str(path) in str(err.value)
        assert where in str(err.value)


def _models_or_error(held_out) -> list:
    """The yielded model sets, then the message of an ``EmptyCorpus``
    that ended the generator, if one did."""
    out = []
    try:
        out.extend(held_out)
    except EmptyCorpus as exc:
        out.append(str(exc))
    return out


class TestLeaveOneOut:
    def assert_matches_retrain(self, members, smoothing_k=0.5):
        for unk_threshold in (1, 2, 3):
            for pad in (True, False):
                full = {o: train(members, o, smoothing_k, unk_threshold, pad)
                        for o in (1, 2, 3)}
                got = _models_or_error(leave_one_out(members, full))
                want = _models_or_error(
                    retrain_loo_models(members, smoothing_k, unk_threshold, pad))
                assert got == want, (unk_threshold, pad)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.lists(st.integers(0, len(WORDS) - 1), min_size=1,
                                      max_size=8),
                             max_size=5),
                    min_size=1, max_size=6))
    def test_equals_retrain_on_pseudo_word_corpora(self, members):
        assume(any(members))
        self.assert_matches_retrain(
            [chi_group("SLI", *(" ".join(WORDS[w] for w in s) for s in sents))
             for sents in members])

    def test_two_member_group(self):
        members = [chi_group("TD", "ba ba ki", "ki lo"), chi_group("TD", "ba lo", "mu")]
        self.assert_matches_retrain(members)
        full = {o: train(members, o) for o in (1, 2, 3)}
        first, second = leave_one_out(members, full)
        assert first[2] == train(members[1:], 2)
        assert second[2] == train(members[:1], 2)

    def test_member_holding_every_occurrence_of_a_type(self):
        # "zo" lives only in the first member; "ki" and "lo" occur twice in
        # the group, so without the first member each turns rare at 2
        members = [chi_group("SLI", "zo zo ki", "lo zo"),
                   chi_group("SLI", "ba ki ba", "lo ba"),
                   chi_group("SLI", "ba ba")]
        assert newly_rare_types(members, 2) == {"ki", "lo"}
        self.assert_matches_retrain(members)
        full = {o: train(members, o, 1.0, 2) for o in (1, 2, 3)}
        held = next(leave_one_out(members, full))
        assert held[1].vocab == {"ba", UNK, EOS}
        assert held[2].counts[("ba", UNK)] == 1

    def test_one_member_group_raises_like_retrain(self):
        members = [chi_group("TD", "ba ki")]
        full = {o: train(members, o) for o in (1, 2, 3)}
        with pytest.raises(EmptyCorpus, match="no child tokens to train on"):
            next(leave_one_out(members, full))
        with pytest.raises(EmptyCorpus, match="no child tokens to train on"):
            next(retrain_loo_models(members))
