"""Single-pass cohort extraction against the two-pass oracle."""

import json

import pytest

from langprofile import cli, ngram, pipeline
from langprofile.features import extract as fx
from langprofile.features import scoring
from tests.conftest import make_corpus, make_wordy_corpus, newly_rare_types
from tests.oracles import two_pass_extract_cohort


@pytest.fixture(params=[(4, 4, 7), (6, 5, 3)], ids=["4x4", "6x5"])
def transcripts(request, tmp_path):
    n_sli, n_td, seed = request.param
    make_corpus(tmp_path / "corpus", n_sli=n_sli, n_td=n_td, seed=seed)
    return pipeline.load_transcripts(tmp_path / "corpus")


def _config(**kwargs) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(input_mode="transcripts", input_path="corpus",
                                   output_dir=".", seed=0, **kwargs)


@pytest.mark.parametrize("count_fusions", [False, True])
@pytest.mark.parametrize("loo", [False, True])
def test_feature_csv_matches_two_pass_oracle(transcripts, loo, count_fusions):
    config = _config(loo=loo, count_fusions=count_fusions, unk_threshold=2)
    assert pipeline.render_feature_csv(pipeline.extract_cohort(transcripts, config)) \
        == pipeline.render_feature_csv(two_pass_extract_cohort(transcripts, config))


def test_custom_tables_match_two_pass_oracle(transcripts, tmp_path):
    dss = scoring.default_dss_table()
    for category in dss["categories"]:
        for rule in category["rules"]:
            rule["points"] += 1
    dss["sentence_point"] = False
    ipsyn = scoring.default_ipsyn_table()
    ipsyn["cap"] = 3
    ipsyn["structures"] = ipsyn["structures"][::2]
    (tmp_path / "dss.json").write_text(json.dumps(dss), encoding="utf-8")
    (tmp_path / "ipsyn.json").write_text(json.dumps(ipsyn), encoding="utf-8")
    config = _config(dss_table=str(tmp_path / "dss.json"),
                     ipsyn_table=str(tmp_path / "ipsyn.json"))
    default = pipeline.render_feature_csv(pipeline.extract_cohort(transcripts, _config()))
    custom = pipeline.render_feature_csv(pipeline.extract_cohort(transcripts, config))
    assert custom != default
    assert custom == pipeline.render_feature_csv(
        two_pass_extract_cohort(transcripts, config))


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_each_extractor_and_table_runs_once(transcripts, monkeypatch):
    # one count pass per transcript, one rule-scoring pass and each table
    # read once per job, and each distinct lowercased child word's
    # syllables counted once per job
    counts: dict[str, int] = {}
    for name in ("production_counts", "fluency_and_errors", "syllables"):
        _count_calls(monkeypatch, fx, name, counts)
    for name in ("score_cohort", "default_dss_table", "default_ipsyn_table",
                 "default_counts_table"):
        _count_calls(monkeypatch, scoring, name, counts)

    for calls in (1, 2):
        pipeline.extract_cohort(transcripts, _config(loo=True))
        n = len(transcripts) * calls
        words = len({w.lower() for t in transcripts
                     for u in t.child_utterances for w in u.clean_tokens}) * calls
        assert counts == {
            "production_counts": n, "fluency_and_errors": n, "syllables": words,
            "score_cohort": calls, "default_dss_table": calls, "default_ipsyn_table": calls,
            "default_counts_table": calls,
        }


def test_loo_csv_matches_retrain_oracle_when_types_turn_rare(tmp_path, capsys):
    make_wordy_corpus(tmp_path / "corpus")
    transcripts = pipeline.load_transcripts(tmp_path / "corpus")
    for label in ("SLI", "TD"):
        assert newly_rare_types([t for t in transcripts if t.group.value == label], 2)
    out = tmp_path / "features.csv"
    assert cli.main(["extract", str(tmp_path / "corpus"), "-o", str(out),
                     "--loo", "--unk-threshold", "2"]) == 0
    assert out.read_text(encoding="utf-8") == pipeline.render_feature_csv(
        two_pass_extract_cohort(transcripts, _config(loo=True, unk_threshold=2)))


def test_analyze_writes_the_feature_csv_of_extract_loo(tmp_path, capsys):
    # analyze in transcripts mode runs the extraction that extract runs, on
    # a corpus where leaving a transcript out turns some of its types rare
    make_wordy_corpus(tmp_path / "corpus")
    extracted = tmp_path / "features.csv"
    assert cli.main(["extract", str(tmp_path / "corpus"), "-o", str(extracted),
                     "--loo", "--unk-threshold", "2"]) == 0
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[input]\nmode = transcripts\npath = {tmp_path / 'corpus'}\n"
                   "[lm]\nunk_threshold = 2\nloo = true\n"
                   "[clustering]\nseed = 1\nk_range = 2..3\n"
                   f"[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert cli.main(["analyze", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "feature_matrix.csv").read_bytes() == extracted.read_bytes()


def test_loo_trains_only_the_six_group_models(transcripts, monkeypatch):
    # the six models come from one walk per group: no ngram.train call,
    # and one read of each transcript's child sentences per job
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, ngram, "train", counts)
    reads = []
    read = ngram._child_sentences
    monkeypatch.setattr(
        ngram, "_child_sentences",
        lambda ts, *rest: reads.append([t.id for t in ts]) or read(ts, *rest))
    for loo in (True, False):
        reads.clear()
        pipeline.extract_cohort(transcripts, _config(loo=loo, unk_threshold=2))
        assert reads == [[t.id] for t in transcripts]
    assert counts == {}
