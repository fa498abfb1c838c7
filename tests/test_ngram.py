import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from langprofile import cli, ngram
from langprofile.chat import parse_chat
from langprofile.errors import DataError, EmptyCorpus, EmptyTranscript, ZeroProbability
from langprofile.ngram import (EOS, UNK, GroupModels, load_model, perplexity,
                               perplexity_features, save_model, train)
from langprofile.pipeline import load_transcripts
from tests.conftest import make_corpus, make_wordy_corpus, newly_rare_types, pseudo_words
from tests.oracles import (copy_leave_one_out, loop_perplexity, loop_perplexity_features,
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

    @pytest.mark.parametrize("pad", [True, False])
    @pytest.mark.parametrize("unk_threshold", [1, 2, 3])
    @pytest.mark.parametrize("make", [make_corpus, make_wordy_corpus])
    def test_group_models_equal_train_and_save_the_same_bytes(self, tmp_path, make,
                                                               unk_threshold, pad):
        make(tmp_path / "corpus")
        transcripts = load_transcripts(tmp_path / "corpus")
        models = ngram.train_group_models(transcripts, 0.5, unk_threshold, pad)
        for label, group in models.items():
            members = [t for t in transcripts if t.group.value == label]
            for order, model in group.items():
                want = train(members, order, 0.5, unk_threshold, pad)
                assert model == want == slice_train(members, order, 0.5, unk_threshold, pad)
                save_model(model, tmp_path / "got.lm")
                save_model(want, tmp_path / "want.lm")
                assert (tmp_path / "got.lm").read_bytes() \
                    == (tmp_path / "want.lm").read_bytes()

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
        lms = GroupModels(transcripts, 0.5, unk_threshold, pad)
        full = lms.models
        assert full == ngram.train_group_models(transcripts, 0.5, unk_threshold, pad)
        held = {label: list(retrain_loo_models(
                    [t for t in transcripts if t.group.value == label],
                    0.5, unk_threshold, pad)) for label in ("SLI", "TD")}
        for i, t in enumerate(transcripts):
            want = loop_perplexity_features(t, full["SLI"], full["TD"])
            assert perplexity_features(t, full["SLI"], full["TD"]) == want
            assert lms.perplexity_features(i) == want
            models = {**full, t.group.value: held[t.group.value].pop(0)} \
                if t.group.value in held else full
            assert lms.perplexity_features(i, held_out=True) \
                == loop_perplexity_features(t, models["SLI"], models["TD"])

    def test_reads_the_child_sentences_once(self, corpus_dir, monkeypatch):
        transcripts = load_transcripts(corpus_dir)
        models = ngram.train_group_models(transcripts, 0.5, 2)
        calls = []
        read = ngram._child_sentences
        monkeypatch.setattr(
            ngram, "_child_sentences",
            lambda ts, *rest: calls.append([t.id for t in ts]) or read(ts, *rest))
        for t in transcripts:
            perplexity_features(t, models["SLI"], models["TD"])
        assert calls == [[t.id] for t in transcripts]

    def test_single_model_calls_cut_only_their_order(self, corpus_dir, monkeypatch):
        transcripts = load_transcripts(corpus_dir)
        models = ngram.train_group_models(transcripts, 0.5, 2)

        def three_orders(*args):
            raise AssertionError("cut all three orders")

        monkeypatch.setattr(ngram, "_grams", three_orders)
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


def _held_count(full, removed, added, key) -> int:
    return full.get(key, 0) - removed.get(key, 0) + added.get(key, 0)


TD_MEMBERS = ("ba ki lo", "ki ki mu"), ("lo ba",), ("mu mu ba ki",)


class TestLeaveOneOut:
    """``GroupModels`` scores a held-out member against the full counts
    changed by what holding it out removes and adds; those must read the
    counts of the copied and of the retrained models."""

    def assert_matches_oracles(self, transcripts):
        for smoothing_k in (0.5, 1.0, 0.0):
            for unk_threshold in (1, 2, 3):
                for pad in (True, False):
                    self.assert_views_match(transcripts, smoothing_k, unk_threshold, pad)

    def assert_views_match(self, transcripts, smoothing_k, unk_threshold, pad):
        lms = GroupModels(transcripts, smoothing_k, unk_threshold, pad)
        full = lms.models
        for label, group in lms.groups.items():
            members = [t for t in transcripts if t.group.value == label]
            copies = _models_or_error(copy_leave_one_out(members, full[label]))
            retrains = _models_or_error(
                retrain_loo_models(members, smoothing_k, unk_threshold, pad))
            assert len(copies) == len(retrains)
            for j, (copy, retrain) in enumerate(zip(copies, retrains)):
                t = members[j]
                i = transcripts.index(t)
                if isinstance(retrain, str):  # the rest holds no child tokens
                    assert isinstance(copy, str)
                    assert _outcome(lambda: group.held_out(j)) is EmptyCorpus
                    assert _outcome(lambda: lms.perplexity_features(i, True)) is EmptyCorpus
                    break
                changes, mapped = group.held_out(j)
                sents = ngram._child_sentences([t])
                assert mapped == ngram._map(sents, retrain[1].vocab)
                for order in (1, 2, 3):
                    model, change = full[label][order], changes[order - 1]
                    for gram in (g for s in sents
                                 for g in slice_ngrams(s, retrain[order].vocab, order, pad)):
                        got = (_held_count(model.counts, change.removed, change.added, gram),
                               _held_count(model.context_totals, change.removed_totals,
                                           change.added_totals, gram[:-1]),
                               change.vocab_size)
                        for want in (copy[order], retrain[order]):
                            assert got == (want.counts.get(gram, 0),
                                           want.context_totals.get(gram[:-1], 0),
                                           want.vocab_size), (order, gram)
                models = {**full, label: retrain}
                assert _outcome(lambda: lms.perplexity_features(i, held_out=True)) \
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
        group = GroupModels(transcripts, 1.0, 2).groups["SLI"]
        changes, mapped = group.held_out(0)
        assert changes[0].vocab_size == len({"ba", UNK, EOS})
        assert mapped == [[UNK, UNK, UNK], [UNK, UNK]]
        assert _held_count(group.models[2].counts, changes[1].removed, changes[1].added,
                           ("ba", UNK)) == 1

    def test_one_member_group_raises_like_retrain(self):
        transcripts = [chi_group("TD", "ba ki"), chi_group("SLI", "ba"),
                       chi_group("SLI", "ki ba")]
        self.assert_matches_oracles(transcripts)
        with pytest.raises(EmptyCorpus, match="no child tokens to train on in the TD "
                                              "group without transcript"):
            GroupModels(transcripts).perplexity_features(0, held_out=True)
        with pytest.raises(EmptyCorpus, match="no child tokens to train on"):
            next(retrain_loo_models(transcripts[:1]))


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
        full = ngram.train_group_models(transcripts, 0.0)
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
