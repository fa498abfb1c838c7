import re
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from langprofile import cli, ngram
from langprofile.chat import parse_chat
from langprofile.errors import DataError, EmptyCorpus, EmptyTranscript, ZeroProbability
from langprofile.ngram import (EOS, UNK, GroupModels, load_model, perplexity,
                               perplexity_features, save_model, train)
from langprofile.pipeline import load_transcripts
from perfbench import gen
from tests.conftest import make_corpus, make_wordy_corpus, newly_rare_types, pseudo_words
from tests.oracles import (add_k_prob, copy_leave_one_out, counter_train, cut_grams,
                           dict_group_features, dict_perplexity, dict_perplexity_features,
                           loop_perplexity, loop_perplexity_features, map_unk,
                           retrain_loo_models, slice_ngrams, slice_train)

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
        assert add_k_prob(m, ("a",)) == 1 / 3
        assert add_k_prob(m, ("b",)) == 1 / 3
        assert add_k_prob(m, (EOS,)) == 1 / 3

    def test_normalization_identity(self):
        m = train([chi("a b a", "b c a")], order=2, smoothing_k=0.5)
        for ctx in set(m.context_totals):
            total = sum(add_k_prob(m, ctx + (w,)) for w in m.vocab)
            assert abs(total - 1.0) < 1e-9
        # unseen context still normalizes under smoothing
        total = sum(add_k_prob(m, ("zzz", w)) for w in m.vocab)
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
        models = GroupModels([sli, td]).models
        feats = perplexity_features(chi("the dog ran"), models["SLI"], models["TD"])
        for order in (1, 2, 3):
            assert feats[f"s_{order}g_ppl"] == feats[f"d_{order}g_ppl"]
        assert all(v >= 1.0 for v in feats.values())

    def test_separable_corpora_ordering(self):
        # disjoint vocabularies: a TD-drawn transcript is predictable for
        # the TD models and all-<unk> for the SLI models
        sli = chi_group("SLI", "zig zag zog", "zag zig", "zog zig zag")
        td = chi_group("TD", "the dog ran home", "the dog fell", "he ran home")
        models = GroupModels([sli, td]).models
        feats = perplexity_features(chi("the dog ran home"),
                                    models["SLI"], models["TD"])
        for order in (1, 2, 3):
            assert feats[f"d_{order}g_ppl"] < feats[f"s_{order}g_ppl"]

    @pytest.mark.parametrize("pad", [True, False])
    @pytest.mark.parametrize("unk_threshold", [1, 2, 3])
    @pytest.mark.parametrize("make", [make_corpus, make_wordy_corpus])
    def test_group_models_equal_train_and_save_the_same_bytes(self, tmp_path, make,
                                                               unk_threshold, pad):
        # the group models are padded; train also runs unpadded
        make(tmp_path / "corpus")
        transcripts = load_transcripts(tmp_path / "corpus")
        models = GroupModels(transcripts, 0.5, unk_threshold).models
        for label, group in models.items():
            members = [t for t in transcripts if t.group.value == label]
            for order, model in group.items():
                want = train(members, order, 0.5, unk_threshold, pad)
                oracle = slice_train(members, order, 0.5, unk_threshold, pad)
                got = model if pad else oracle
                assert got == want == oracle
                save_model(got, tmp_path / "got.lm")
                save_model(want, tmp_path / "want.lm")
                assert (tmp_path / "got.lm").read_bytes() \
                    == (tmp_path / "want.lm").read_bytes()

    def test_group_missing(self):
        td = chi_group("TD", "the dog ran")
        with pytest.raises(EmptyCorpus):
            GroupModels([td])

    def test_error_order(self):
        # a missing SLI group, then a bad setting, then an SLI group with no
        # child tokens, then a missing TD group
        sli, td = chi_group("SLI", "the dog ran"), chi_group("TD", "the dog ran")
        mute = parse_chat("@ID:\teng|synth|CHI|5;00.|male|SLI||Target_Child|||\n"
                          "*EXA:\tba ki .\n")
        with pytest.raises(EmptyCorpus, match="no transcripts labeled SLI"):
            GroupModels([td], smoothing_k=-1.0)
        with pytest.raises(ValueError, match="smoothing_k"):
            GroupModels([mute], smoothing_k=-1.0)
        with pytest.raises(EmptyCorpus, match="no child tokens to train on in the SLI group"):
            GroupModels([mute])
        with pytest.raises(EmptyCorpus, match="no transcripts labeled TD"):
            GroupModels([sli])

    @pytest.mark.parametrize("pad", [True, False])
    @pytest.mark.parametrize("unk_threshold", [1, 2, 3])
    @pytest.mark.parametrize("make", [make_corpus, make_wordy_corpus])
    def test_equals_six_loop_perplexities(self, tmp_path, make, unk_threshold, pad):
        # the group models are padded; perplexity_features also scores the
        # unpadded models train builds
        make(tmp_path / "corpus")
        transcripts = load_transcripts(tmp_path / "corpus")
        groups = {label: [t for t in transcripts if t.group.value == label]
                  for label in ("SLI", "TD")}
        lms = GroupModels(transcripts, 0.5, unk_threshold)
        full = {label: {order: train(members, order, 0.5, unk_threshold, pad)
                        for order in ngram.ORDERS} for label, members in groups.items()}
        if pad:
            assert lms.models == full
        held = {label: list(retrain_loo_models(members, 0.5, unk_threshold, pad))
                for label, members in groups.items()}
        outcomes, held_outcomes = lms.outcomes(), lms.outcomes(held_out=True)
        for i, t in enumerate(transcripts):
            want = loop_perplexity_features(t, full["SLI"], full["TD"])
            assert perplexity_features(t, full["SLI"], full["TD"]) == want
            models = {**full, t.group.value: held[t.group.value].pop(0)} \
                if t.group.value in held else full
            held_want = loop_perplexity_features(t, models["SLI"], models["TD"])
            assert perplexity_features(t, models["SLI"], models["TD"]) == held_want
            if pad:
                assert outcomes[i] == want
                assert held_outcomes[i] == held_want

    def test_reads_the_child_sentences_once(self, corpus_dir, monkeypatch):
        transcripts = load_transcripts(corpus_dir)
        models = GroupModels(transcripts, 0.5, 2).models
        calls = []
        read = ngram._child_sentences
        monkeypatch.setattr(
            ngram, "_child_sentences",
            lambda ts, *rest: calls.append([t.id for t in ts]) or read(ts, *rest))
        for t in transcripts:
            perplexity_features(t, models["SLI"], models["TD"])
        assert calls == [[t.id] for t in transcripts]

    def test_trained_model_scores_from_the_table_it_counted(self, corpus_dir, monkeypatch):
        # train hands the model its counted table: the first perplexity
        # indexes nothing anew, and equals the loop and a model rebuilt
        # from the count dicts, which indexes them itself
        transcripts = load_transcripts(corpus_dir)
        indexed = []
        index = ngram._index
        monkeypatch.setattr(ngram, "_index", lambda *a, **k: indexed.append(1) or index(*a, **k))
        for order in ngram.ORDERS:
            model = train(transcripts, order, 0.5, 2)
            rebuilt = ngram.NGramModel(model.order, model.smoothing_k, model.unk_threshold,
                                       model.pad, model.counts, model.context_totals,
                                       model.vocab)
            assert rebuilt == model and repr(rebuilt) == repr(model)
            indexed.clear()
            for t in transcripts:
                assert perplexity(model, t) == loop_perplexity(model, t)
            assert indexed == []
            for t in transcripts:
                assert perplexity(rebuilt, t) == perplexity(model, t)
            assert indexed == [1]
            for got, want in zip(vars(model._table.index).values(),
                                 vars(rebuilt._table.index).values()):
                assert np.array_equal(got, want)

    def test_single_model_calls_equal_group_models_and_loop(self, corpus_dir):
        transcripts = load_transcripts(corpus_dir)
        models = GroupModels(transcripts, 0.5, 2).models
        for label, group in models.items():
            members = [t for t in transcripts if t.group.value == label]
            for order, model in group.items():
                assert train(members, order, 0.5, 2) == model
                for t in members:
                    assert perplexity(model, t) == loop_perplexity(model, t)


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
        ("ngram\torder=1\tk=1.0\tunk_threshold=1\tpad=1\nvocab\ta\n1\ta\n5\ta\n",
         "line 4: n-gram 'a' repeats line 3"),
        ("ngram\torder=2\tk=1.0\tunk_threshold=1\tpad=1\nvocab\ta b\n"
         "1\ta b\n2\tb a\n3\ta b\n", "line 5: n-gram 'a b' repeats line 3"),
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

    def test_count_of_two_to_the_63_raises_data_error(self, tmp_path):
        # scoring reads counts as int64, so 2**63 does not fit; one less
        # loads and scores as the dict loop does
        path = tmp_path / "m.lm"
        header = "ngram\torder=1\tk=1.0\tunk_threshold=1\tpad=1\nvocab\t</s> <unk> a\n"
        path.write_text(header + f"{2**63}\ta\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_model(path)
        assert str(err.value) == \
            f"{path}: line 3: n-gram count is 2**63 or more, too large to score"
        path.write_text(header + f"{2**63 - 1}\ta\n", encoding="utf-8")
        model, t = load_model(path), chi("a b")
        assert perplexity(model, t) == loop_perplexity(model, t)

    def test_context_total_of_two_to_the_63_raises_data_error(self, tmp_path):
        # 2**62 twice under the empty context: its total would wrap int64
        path = tmp_path / "m.lm"
        header = "ngram\torder=1\tk=1.0\tunk_threshold=1\tpad=1\nvocab\t</s> <unk> a b\n"
        path.write_text(header + f"{2**62}\ta\n{2**62}\tb\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_model(path)
        assert str(err.value) == (f"{path}: line 4: n-gram count takes the total of its "
                                  "context to 2**63 or more, too large to score")
        # a total of 2**63 - 1, which float64 rounds up to 2**63, still scores
        path.write_text(header + f"{2**62}\ta\n{2**62 - 1}\tb\n", encoding="utf-8")
        model, t = load_model(path), chi("a b c")
        assert model.context_totals == {(): 2**63 - 1}
        assert perplexity(model, t) == loop_perplexity(model, t)
        # under two contexts, two counts of 2**62 load
        path.write_text("ngram\torder=2\tk=1.0\tunk_threshold=1\tpad=1\n"
                        f"vocab\t</s> <unk> a b\n{2**62}\ta b\n{2**62}\tb a\n",
                        encoding="utf-8")
        model, t = load_model(path), chi("a b a")
        assert perplexity(model, t) == loop_perplexity(model, t)

    def test_count_over_the_digit_limit_raises_data_error(self, tmp_path):
        # isdecimal() passes, but int() refuses more than 4300 digits
        path = tmp_path / "m.lm"
        path.write_text("ngram\torder=1\tk=1.0\tunk_threshold=1\tpad=1\nvocab\ta\n"
                        + "1" * 5000 + "\ta\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: line 3: n-gram count has 5000 digits, too many to read"


def _models_or_error(held_out) -> list:
    """The yielded model sets, then the message of an ``EmptyCorpus``
    that ended the generator, if one did."""
    out = []
    try:
        out.extend(held_out)
    except EmptyCorpus as exc:
        out.append(str(exc))
    return out


def _outcome(score):
    """``score()``, or the class of the error it raised, with the n-gram a
    ``ZeroProbability`` names."""
    try:
        return score()
    except ZeroProbability as exc:
        return ZeroProbability, re.search(r"zero probability for (.*) \(k=0", str(exc))[1]
    except (EmptyCorpus, EmptyTranscript) as exc:
        return type(exc)


def _raised(outcome):
    """An entry of ``GroupModels.outcomes``: its features, or its error raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _held_view(lms, i):
    """Labelled transcript ``i``'s held-out view of its own group's models,
    as ``GroupModels._views`` gives it to scoring: for each order, its
    n-grams in position order with the count and context total of each,
    and the view's vocab size."""
    label = lms.transcripts[i].group.value
    grams, counts, totals = [], [], []
    for order, (ctx, last, order_counts, order_totals, _, vocab_sizes, _) in zip(
            (1, 2, 3), lms._views(label, [i], True)):
        table = lms.models[label][order]._table
        grams.append([table.gram(order, c, w) for c, w in zip(ctx.tolist(), last.tolist())])
        counts.append(order_counts.tolist())
        totals.append(order_totals.tolist())
    return grams, counts, totals, int(vocab_sizes[0])


TD_MEMBERS = ("ba ki lo", "ki ki mu"), ("lo ba",), ("mu mu ba ki",)


class TestLeaveOneOut:
    """``GroupModels`` scores a held-out member against the full counts
    changed by what holding it out removes and adds; those must read the
    counts of the copied and of the retrained models."""

    def assert_matches_oracles(self, transcripts):
        for smoothing_k in (0.5, 1.0, 0.0):
            for unk_threshold in (1, 2, 3):
                self.assert_views_match(transcripts, smoothing_k, unk_threshold)

    def assert_views_match(self, transcripts, smoothing_k, unk_threshold):
        lms = GroupModels(transcripts, smoothing_k, unk_threshold)
        full = lms.models
        outcomes = lms.outcomes(held_out=True)
        for label in lms.models:
            members = [t for t in transcripts if t.group.value == label]
            copies = _models_or_error(copy_leave_one_out(members, full[label]))
            retrains = _models_or_error(
                retrain_loo_models(members, smoothing_k, unk_threshold))
            assert len(copies) == len(retrains)
            for j, (copy, retrain) in enumerate(zip(copies, retrains)):
                t = members[j]
                i = transcripts.index(t)
                if isinstance(retrain, str):  # the rest holds no child tokens
                    assert isinstance(copy, str)
                    assert isinstance(lms._held_out_error(i), EmptyCorpus)
                    assert _outcome(lambda: _raised(outcomes[i])) is EmptyCorpus
                    break
                view_grams, view_counts, view_totals, vocab_size = _held_view(lms, i)
                sents = ngram._child_sentences([t])
                for order in (1, 2, 3):
                    # every n-gram the view scores, in position order and
                    # mapped through the held-out vocab: none is dropped
                    grams = [g for s in sents
                             for g in slice_ngrams(s, retrain[order].vocab, order, True)]
                    assert view_grams[order - 1] == grams
                    for gram, count, total in zip(grams, view_counts[order - 1],
                                                  view_totals[order - 1]):
                        for want in (copy[order], retrain[order]):
                            assert (count, total, vocab_size) == (
                                want.counts.get(gram, 0), want.context_totals.get(gram[:-1], 0),
                                want.vocab_size), (order, gram)
                models = {**full, label: retrain}
                assert _outcome(lambda: _raised(outcomes[i])) \
                    == _outcome(lambda: loop_perplexity_features(t, models["SLI"],
                                                                 models["TD"]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.lists(st.integers(0, len(WORDS) - 1), min_size=1,
                                      max_size=8),
                             max_size=5),
                    min_size=1, max_size=6))
    def test_equals_retrain_on_pseudo_word_corpora(self, members):
        assume(any(members))
        self.assert_matches_oracles(
            [chi_group("SLI", *(" ".join(WORDS[w] for w in s) for s in sents))
             for sents in members]
            + [chi_group("TD", *sents) for sents in TD_MEMBERS])

    def test_two_member_group(self):
        self.assert_matches_oracles(
            [chi_group("TD", "ba ba ki", "ki lo"), chi_group("TD", "ba lo", "mu"),
             chi_group("SLI", "ki ki zo"), chi_group("SLI", "zo ba", "ba")])

    def test_member_holding_every_occurrence_of_a_type(self):
        # "zo" lives only in the first member; "ki" and "lo" occur twice in
        # the group, so without the first member each turns rare at 2
        members = [chi_group("SLI", "zo zo ki", "lo zo"),
                   chi_group("SLI", "ba ki ba", "lo ba"),
                   chi_group("SLI", "ba ba")]
        assert newly_rare_types(members, 2) == {"ki", "lo"}
        transcripts = members + [chi_group("TD", *sents) for sents in TD_MEMBERS]
        self.assert_matches_oracles(transcripts)
        lms = GroupModels(transcripts, 1.0, 2)
        grams, counts, totals, vocab_size = _held_view(lms, 0)
        assert vocab_size == len({"ba", UNK, EOS})
        assert grams[0] == [(UNK,), (UNK,), (UNK,), (EOS,), (UNK,), (UNK,), (EOS,)]
        # "lo ba" turns into "<unk> ba" in the rest: (<s>, <unk>) comes in,
        # and (<s>, <s>) heads each of its three sentences
        assert grams[1][0] == (ngram.BOS, UNK) and counts[1][0] == 1
        assert grams[2][0] == (ngram.BOS, ngram.BOS, UNK) and totals[2][0] == 3

    def test_one_member_group_raises_like_retrain(self):
        transcripts = [chi_group("TD", "ba ki"), chi_group("SLI", "ba"),
                       chi_group("SLI", "ki ba")]
        self.assert_matches_oracles(transcripts)
        with pytest.raises(EmptyCorpus, match="no child tokens to train on in the TD "
                                              "group without transcript"):
            _raised(GroupModels(transcripts).outcomes(held_out=True)[0])
        with pytest.raises(EmptyCorpus, match="no child tokens to train on"):
            next(retrain_loo_models(transcripts[:1]))


def _result(score):
    """``score()``, or the class and message of the data error it raised."""
    try:
        return score()
    except (ZeroProbability, EmptyCorpus, EmptyTranscript) as exc:
        return type(exc), str(exc)


def _as_result(outcome):
    return outcome if isinstance(outcome, dict) else (type(outcome), str(outcome))


MEMBER = st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=6), max_size=4)


class TestCodedEngineEqualsDictLoops:
    """The integer-coded engine gives the dict loops' floats, with ``==``,
    and their errors, message for message, full and held out."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(MEMBER, min_size=1, max_size=4), st.lists(MEMBER, min_size=1, max_size=4),
           st.lists(MEMBER, max_size=1), st.sampled_from([0.0, 0.5, 1.0]), st.integers(1, 3))
    def test_on_pseudo_word_corpora(self, sli, td, unlabelled, smoothing_k, unk_threshold):
        def text(member):
            return [" ".join(WORDS[w] for w in s) for s in member]
        transcripts = ([chi_group("SLI", *text(m)) for m in sli]
                       + [chi_group("TD", *text(m)) for m in td]
                       + [chi(*text(m)) for m in unlabelled])
        assume(any(map(any, sli)) and any(map(any, td)))
        lms = GroupModels(transcripts, smoothing_k, unk_threshold)
        full = lms.models
        for held_out in (False, True):
            want = [_result(lambda: dict_group_features(lms, i, held_out))
                    for i in range(len(transcripts))]
            assert list(map(_as_result, lms.outcomes(held_out=held_out))) == want
            with mock.patch.object(ngram, "_BATCH_TOKENS", 7):  # a transcript or two a batch
                assert list(map(_as_result, lms.outcomes(held_out=held_out))) == want
        for t in transcripts:
            sents = ngram._child_sentences([t])
            assert _result(lambda: perplexity_features(t, full["SLI"], full["TD"])) \
                == _result(lambda: dict_perplexity_features(t, sents, full, {}))
            for model in (full["SLI"][3], full["TD"][2]):
                grams = cut_grams(map_unk(sents, model.vocab), model.pad)
                want = _result(lambda: dict_perplexity(
                    model, grams[model.order - 1],
                    f"transcript {t.id!r}, order-{model.order} model")) if sents else \
                    (EmptyTranscript, f"transcript {t.id!r} has no child tokens")
                assert _result(lambda: perplexity(model, t)) == want


def assert_same_table(got, want):
    assert (got.symbols, got.ids, got.index.width) == (want.symbols, want.ids, want.index.width)
    for name in ("ctx_keys", "totals", "keys", "counts"):
        a, b = getattr(got.index, name), getattr(want.index, name)
        assert (a.dtype, a.tolist()) == (b.dtype, b.tolist()), name


class TestCodedCountingEqualsCounterTrain:
    """Training counts numbered tokens straight into each group's tables;
    those tables, the models built from them, their saved text and the
    tables they build are those of counting string n-grams into
    ``Counter`` tables, and a load of the saved text rebuilds the same
    table from the decoded count dicts."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(MEMBER, min_size=1, max_size=4), st.lists(MEMBER, min_size=1, max_size=4),
           st.lists(MEMBER, max_size=1), st.integers(1, 3), st.booleans())
    def test_on_pseudo_word_corpora(self, sli, td, unlabelled, unk_threshold, one_token):
        def text(member):
            # one-token sentences leave orders 2-3 no n-grams without padding
            return [" ".join(WORDS[w] for w in (s[:1] if one_token else s)) for s in member]
        groups = {"SLI": [chi_group("SLI", *text(m)) for m in sli],
                  "TD": [chi_group("TD", *text(m)) for m in td]}
        assume(any(map(any, sli)) and any(map(any, td)))
        lms = GroupModels([*groups["SLI"], *groups["TD"], *(chi(*text(m)) for m in unlabelled)],
                          0.5, unk_threshold)
        assert "models" not in vars(lms)  # built only when read
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.lm"
            for label, members in groups.items():
                sents = [ngram._child_sentences([t]) for t in members]
                for pad in (True, False):  # the group models pad; train also runs unpadded
                    want = counter_train(sents, 0.5, unk_threshold, pad)
                    for order in ngram.ORDERS:
                        trained = train(members, order, 0.5, unk_threshold, pad)
                        got = lms.models[label][order] if pad else trained
                        if pad:
                            assert_same_table(lms._tables[label][order], want[order]._table)
                        assert_same_table(got._table, want[order]._table)
                        assert got == want[order] == trained
                        assert ngram.model_text(got) == ngram.model_text(want[order])
                        save_model(got, path)
                        assert_same_table(load_model(path)._table, got._table)

    def test_scoring_decodes_no_count_dict(self, corpus_dir):
        lms = GroupModels(load_transcripts(corpus_dir), 0.5, 2)
        lms.outcomes()
        assert "models" not in vars(lms)
        lms.outcomes(held_out=True)
        assert "models" not in vars(lms)


class TestIntegerKeys:
    def test_ids_above_two_to_the_21_do_not_wrap(self):
        # ids near 2**31, where id1 * width**2 + id2 * width + id3 would
        # pass 2**63; repeated trigrams and shared contexts add up
        width = 2**31 - 1
        rng = np.random.default_rng(5)
        a, b, w = rng.integers(2**21, width, size=(3, 300))
        a[100:200], b[100:200] = a[:100], b[:100]
        a[200:250], b[200:250], w[200:250] = a[:50], b[:50], w[:50]
        counts = rng.integers(1, 9, 300)
        assert max(x * width**2 + y * width + z for x, y, z in zip(
            a.tolist(), b.tolist(), w.tolist())) > 2**63
        index = ngram._index(width, a * width + b, w, counts)
        keys = index.keys[:-1]
        assert (np.diff(keys) > 0).all() and keys[0] >= 0
        ranks, last = np.divmod(keys, width)
        contexts = index.ctx_keys[ranks]
        decoded = list(zip((contexts // width).tolist(), (contexts % width).tolist(),
                           last.tolist()))
        want_counts, want_totals = Counter(), Counter()
        for x, y, z, c in zip(a.tolist(), b.tolist(), w.tolist(), counts.tolist()):
            want_counts[x, y, z] += c
            want_totals[x, y] += c
        assert decoded == sorted(want_counts)
        got_counts, got_totals = ngram._lookup(index, a * width + b, w)
        assert got_counts.tolist() == [want_counts[g] for g in zip(a.tolist(), b.tolist(),
                                                                   w.tolist())]
        assert got_totals.tolist() == [want_totals[g] for g in zip(a.tolist(), b.tolist())]
        # a trigram not counted, under a seen and an unseen context
        got_counts, got_totals = ngram._lookup(
            index, np.array([a[0] * width + b[0], 5 * width + 7, -1]), np.array([3, w[0], 0]))
        assert got_counts.tolist() == [0, 0, 0]
        assert got_totals.tolist() == [want_totals[a[0], b[0]], 0, 0]


class TestErrorsNameTheTranscriptAndModel:
    """Through ``cli.main``, a scoring failure names the transcript and the
    model it failed on, with and without ``--loo``."""

    @pytest.mark.parametrize("loo", [False, True])
    def test_zero_probability(self, corpus_dir, tmp_path, capsys, loo):
        # a word of sli_00's own is <unk> to the SLI model without it
        path = corpus_dir / "sli_00.cha"
        path.write_text(path.read_text(encoding="utf-8").replace(
            "@End", "*CHI:\tzyzzyva .\n@End"), encoding="utf-8")
        transcripts = load_transcripts(corpus_dir)
        full = GroupModels(transcripts, 0.0).models
        held = {label: retrain_loo_models(
                    [t for t in transcripts if t.group.value == label], 0.0)
                for label in ("SLI", "TD")} if loo else {}
        want = None
        for t in transcripts:
            models = {**full, t.group.value: next(held[t.group.value])} \
                if t.group.value in held else full
            for label in ("SLI", "TD"):
                for order in (1, 2, 3):
                    outcome = _outcome(lambda: loop_perplexity(models[label][order], t))
                    if want is None and isinstance(outcome, tuple):
                        kind = "held out" if loo and label == t.group.value else "full"
                        want = (f"transcript {t.id!r}, {label} order-{order} model "
                                f"({kind}): zero probability for {outcome[1]} "
                                "(k=0 and unseen)")
        assert want.startswith(f"transcript 'sli_00', {'SLI' if loo else 'TD'} order-1 "
                               f"model ({'held out' if loo else 'full'})")
        argv = ["extract", str(corpus_dir), "-o", str(tmp_path / "f.csv"),
                "--smoothing-k", "0"]
        assert cli.main(argv + ["--loo"] * loo) == 3
        assert capsys.readouterr().err == f"error: stage 'extract' failed: {want}\n"

    @pytest.mark.parametrize("loo", [False, True])
    def test_smoothing_k_overflowing_with_the_vocab_size(self, tmp_path, capsys, loo):
        # k times the vocab size is inf, so every add-k ratio would read 0
        # although k is far from 0
        gen.chat_corpus(tmp_path / "corpus", 40, 1, (8, 20))
        argv = ["extract", str(tmp_path / "corpus"), "-o", str(tmp_path / "f.csv"),
                "--smoothing-k", "1e308"]
        assert cli.main(argv + ["--loo"] * loo) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: stage 'extract' failed: transcript '\w+', SLI order-1 "
                            r"model \((full|held out)\): smoothing_k=1e\+308 "
                            r"times the vocab size \d+ overflows, so every probability is 0\n",
                            err), err
        t = load_transcripts(tmp_path / "corpus")[0]
        with pytest.raises(ZeroProbability, match="smoothing_k=1e\\+308 times the vocab"):
            perplexity(train([t], 1, smoothing_k=1e308), t)

    @pytest.mark.parametrize("loo", [False, True])
    def test_subnormal_smoothing_k_names_the_underflow(self, tmp_path, capsys, loo):
        # k = 5e-324 is above 0, but an unseen n-gram's (0 + k) / (total + k * V)
        # rounds to 0
        gen.chat_corpus(tmp_path / "corpus", 40, 1, (8, 20))
        argv = ["extract", str(tmp_path / "corpus"), "-o", str(tmp_path / "f.csv"),
                "--smoothing-k", "5e-324"]
        assert cli.main(argv + ["--loo"] * loo) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: stage 'extract' failed: transcript '\w+', (SLI|TD) order-1 "
                            r"model \((full|held out)\): zero probability for \('<unk>',\) "
                            r"\(smoothing_k=5e-324 is above 0, but the add-k probability "
                            r"underflows to 0\)\n", err), err
        assert "k=0 and unseen" not in err
        transcripts = load_transcripts(tmp_path / "corpus")
        model = train([t for t in transcripts if t.group.value == "SLI"], 1,
                      smoothing_k=5e-324)
        with pytest.raises(ZeroProbability, match="smoothing_k=5e-324 is above 0"):
            for t in transcripts:
                perplexity(model, t)

    def test_group_without_child_tokens(self, tmp_path, capsys):
        # extract cannot get this far: base features refuse a transcript
        # with no child tokens, and group statistics a group of one
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, group, speaker in (("a", "SLI", "EXA"), ("b", "SLI", "EXA"),
                                     ("c", "TD", "CHI")):
            (corpus / f"{name}.cha").write_text(
                f"@ID:\teng|synth|CHI|5;00.|male|{group}||Target_Child|||\n"
                f"*{speaker}:\tba ki .\n", encoding="utf-8")
        assert cli.main(["train-lm", str(corpus), "-o", str(tmp_path / "lm")]) == 2
        assert capsys.readouterr().err == ("error: stage 'train' failed: "
                                           "no child tokens to train on in the SLI group\n")
