"""The 64-feature vector computed from a small two-group corpus.

The z-score features need group statistics and the perplexity features
need trained language models, so extraction runs corpus-at-a-time:
``extract_cohort`` computes each child's base features once, derives the
reference statistics from them, trains the n-gram models, and then adds
each child's perplexities and z-scores to its base features.

Run:  python demos/02_feature_extraction.py
"""

import tempfile
from pathlib import Path

from langprofile.features.schema import FEATURE_CATEGORY, FEATURE_NAMES
from langprofile.pipeline import PipelineConfig, extract_cohort

CHILDREN = {
    "sli_01": ("SLI", [
        ("*CHI:\tdog run .", "%mor:\tn|dog v|run ."),
        ("*CHI:\t&-um he goed [*] home .", "%mor:\tpro|he v|go-PAST adv|home ."),
        ("*CHI:\tthe the [/] ball .", "%mor:\tdet:art|the n|ball ."),
        ("*CHI:\the falled [*] down .", "%mor:\tpro|he v|fall-PAST adv|down ."),
    ]),
    "sli_02": ("SLI", [
        ("*CHI:\tthe frog jump .", "%mor:\tdet:art|the n|frog v|jump ."),
        ("*CHI:\tdog sad .", "%mor:\tn|dog adj|sad ."),
        ("*CHI:\the go there .", "%mor:\tpro|he v|go adv|there ."),
    ]),
    "td_01": ("TD", [
        ("*CHI:\tthe dog was running away .",
         "%mor:\tdet:art|the n|dog aux|be&PAST part|run-PROG adv|away ."),
        ("*CHI:\the jumped over the log .",
         "%mor:\tpro|he v|jump-PAST prep|over det:art|the n|log ."),
        ("*CHI:\tthe boy looked in the jar .",
         "%mor:\tdet:art|the n|boy v|look-PAST prep|in det:art|the n|jar ."),
        ("*CHI:\tthey run fast .",
         "%mor:\tpro|they v|run adv|fast ."),
        ("*CHI:\tshe falled [*] down .",
         "%mor:\tpro|she v|fall-PAST adv|down ."),
        ("*CHI:\tthey were very happy .",
         "%mor:\tpro|they cop|be&PAST adv|very adj|happy ."),
    ]),
    "td_02": ("TD", [
        ("*CHI:\tthe frog sat on a rock .",
         "%mor:\tdet:art|the n|frog v|sit&PAST prep|on det:art|a n|rock ."),
        ("*CHI:\tshe sees the little frogs .",
         "%mor:\tpro|she v|see-3S det:art|the adj|little n|frog-PL ."),
        ("*CHI:\tthe dog runs and he jumps .",
         "%mor:\tdet:art|the n|dog v|run-3S conj|and pro|he v|jump-3S ."),
    ]),
}


def build_corpus(directory: Path):
    for name, (group, turns) in CHILDREN.items():
        lines = [
            "@Begin",
            "@Participants:\tCHI Child Target_Child, EXA Pat Examiner",
            f"@ID:\teng|demo|CHI|6;00.|female|{group}||Target_Child|||",
            f"@PID:\t{name}",
        ]
        for main, mor in turns:
            lines += [main, mor]
        lines.append("@End")
        (directory / f"{name}.cha").write_text("\n".join(lines) + "\n")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        build_corpus(directory)
        from langprofile.pipeline import load_transcripts
        transcripts = load_transcripts(directory)
        config = PipelineConfig(input_mode="transcripts", input_path=tmp,
                                output_dir=".", seed=0)
        cohort = extract_cohort(transcripts, config)

    print(f"{cohort.matrix.n} children x {cohort.matrix.p} features")
    print()
    show = ["child_TNW", "mlu_words", "mlu_morphemes", "freq_ttr", "dss",
            "ipsyn_total", "word_errors", "s_1g_ppl", "d_1g_ppl", "z_mlu_td"]
    header = "feature".ljust(14) + "".join(r.rjust(10) for r in cohort.matrix.row_ids)
    print(header)
    for name in show:
        j = cohort.matrix.col_names.index(name)
        row = "".join(f"{cohort.matrix.values[i, j]:10.3f}"
                      for i in range(cohort.matrix.n))
        print(name.ljust(14) + row)

    print()
    by_cat = {}
    for name in FEATURE_NAMES:
        by_cat.setdefault(FEATURE_CATEGORY[name], []).append(name)
    for cat, names in by_cat.items():
        print(f"{cat:16s} {len(names):2d} features")


if __name__ == "__main__":
    main()
