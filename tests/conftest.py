"""Shared fixtures: deterministic synthetic CHAT corpora, and the base
features of one transcript scored as a cohort of one."""

import random
from collections import Counter
from pathlib import Path

import pytest

from langprofile import ngram
from langprofile.features import scoring
from langprofile.features.extract import base_features

# (text tokens, mor tokens or None) utterance templates; mor aligns with
# the clean tokens, never with annotation material
TEMPLATES = [
    ("the dog runs .", "det:art|the n|dog v|run-3S ."),
    ("he is going .", "pro|he aux|be&3S part|go-PROG ."),
    ("I see a ball .", "pro|I v|see det:art|a n|ball ."),
    ("the dogs jumped .", "det:art|the n|dog-PL v|jump-PAST ."),
    ("he fell in the water .", "pro|he v|fall&PAST prep|in det:art|the n|water ."),
    ("what is that ?", "pro|what aux|be&3S pro|that ?"),
    ("&-um the the [/] boy ran .", "det:art|the n|boy v|run&PAST ."),
    ("he goed [*] home .", "pro|he v|go-PAST adv|home ."),
    ("they run and jump .", "pro|they v|run conj|and v|jump ."),
    ("she sees the frog .", "pro|she v|see-3S det:art|the n|frog ."),
    ("the boy can not see .", "det:art|the n|boy mod|can neg|not v|see ."),
    ("a cat sat on the mat .", "det:art|a n|cat v|sit&PAST prep|on det:art|the n|mat ."),
    ("doggie +...", "n|doggie +..."),
    ("it is big .", "pro|it cop|be&3S adj|big ."),
]

SLI_POOL = [0, 1, 3, 6, 7, 8, 10, 12, 13]   # shorter, more disfluent templates
TD_POOL = [1, 2, 4, 5, 7, 8, 9, 10, 11, 13]


def build_cha(child_id: str, group: str, age: str, sex: str,
              template_ids: list[int], examiner_turns: int) -> str:
    lines = [
        "@Begin",
        "@Participants:\tCHI Child Target_Child, EXA Ellen Examiner",
        f"@ID:\teng|synth|CHI|{age}|{sex}|{group}||Target_Child|||",
        f"@PID:\t{child_id}",
    ]
    for i, tid in enumerate(template_ids):
        text, mor = TEMPLATES[tid]
        lines.append(f"*CHI:\t{text}")
        if mor:
            lines.append(f"%mor:\t{mor}")
        if examiner_turns and i % 4 == 3:
            lines.append("*EXA:\twhat happened next ?")
    lines.append("@End")
    return "\n".join(lines) + "\n"


def make_corpus(directory: Path, n_sli: int = 4, n_td: int = 4,
                seed: int = 7) -> list[Path]:
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for g, pool, count in (("SLI", SLI_POOL, n_sli), ("TD", TD_POOL, n_td)):
        for i in range(count):
            n_utts = rng.randint(6, 14)
            ids = [rng.choice(pool) for _ in range(n_utts)]
            age = f"{rng.randint(4, 9)};{rng.randint(0, 11):02d}."
            sex = rng.choice(["male", "female"])
            name = f"{g.lower()}_{i:02d}"
            path = directory / f"{name}.cha"
            path.write_text(build_cha(name, g, age, sex, ids,
                                      examiner_turns=1), encoding="utf-8")
            paths.append(path)
    return sorted(paths)


def pseudo_words(n: int, seed: int = 11) -> list[str]:
    """``n`` distinct consonant-vowel pseudo-words, sorted."""
    rng = random.Random(seed)
    words: set[str] = set()
    while len(words) < n:
        words.add("".join(rng.choice("bdgklmnprstvz") + rng.choice("aeiou")
                          for _ in range(rng.randint(1, 3))))
    return sorted(words)


def make_wordy_corpus(directory: Path, n_sli: int = 5, n_td: int = 5,
                      seed: int = 3, n_types: int = 400) -> list[Path]:
    """Transcripts of Zipf-distributed pseudo-words tagged as nouns and verbs.
    Most types occur once or twice in a group, so leaving a transcript
    out turns some of them rare under ``unk_threshold`` 2 or 3."""
    rng = random.Random(seed)
    words = pseudo_words(n_types, seed)
    weights = [1.0 / (rank + 1) for rank in range(n_types)]
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for g, count in (("SLI", n_sli), ("TD", n_td)):
        for i in range(count):
            name = f"{g.lower()}_{i:02d}"
            lines = ["@Begin",
                     "@Participants:\tCHI Child Target_Child, EXA Ellen Examiner",
                     f"@ID:\teng|synth|CHI|5;00.|male|{g}||Target_Child|||",
                     f"@PID:\t{name}"]
            for _ in range(rng.randint(4, 10)):
                utterance = rng.choices(words, weights, k=rng.randint(1, 7))
                mor = [rng.choice(("n|{}", "v|{}", "v|{}-PAST")).format(w)
                       for w in utterance]
                if rng.random() < 0.3:  # word errors vary within each group
                    utterance[-1] += " [*]"
                lines += [f"*CHI:\t{' '.join(utterance)} .", f"%mor:\t{' '.join(mor)} ."]
            lines.append("@End")
            path = directory / f"{name}.cha"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            paths.append(path)
    return sorted(paths)


def newly_rare_types(members, unk_threshold: int) -> set[str]:
    """Types frequent enough in the whole group but rare without one member."""
    freqs = [Counter(w for s in ngram._child_sentences([t]) for w in s) for t in members]
    group = sum(freqs, Counter())
    return {w for f in freqs for w, c in f.items()
            if 0 < group[w] - c < unk_threshold <= group[w]}


def one_transcript_features(t, count_fusions: bool = False):
    """``base_features`` of ``t`` with the shipped tables, ``t`` scored as
    a cohort of one."""
    scores, = scoring.score_cohort([t], scoring.compile_tables())
    return base_features(t, count_fusions, scores, {})


@pytest.fixture()
def corpus_dir(tmp_path):
    make_corpus(tmp_path / "corpus")
    return tmp_path / "corpus"
