"""Seeded input generators owned by the benchmark.

Nothing here calls langprofile code that a later change might optimise:
the feature CSV is written with the csv module, and the CHAT corpus is
composed from a synthetic lexicon. Only the schema header is read from
the library, by file path, so generating inputs imports neither numpy
nor the package.
"""

from __future__ import annotations

import csv
import importlib.util
import random
from pathlib import Path
from statistics import NormalDist

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PY = ROOT / "src" / "langprofile" / "features" / "schema.py"

# the feature population and the lexicon are fixed; the run seed only
# draws children from them, so the work per job does not swing with it
POPULATION_SEED = 20250605
LEXICON_SEED = 7919


def csv_header() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("_perfbench_schema", SCHEMA_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.csv_header()


# -- feature CSV ------------------------------------------------------------------

def _stratified_normal(n: int, rng: random.Random) -> list[float]:
    """n standard-normal draws, one from each of n equal-probability
    strata, in random order: the spread of the sample is nearly fixed."""
    dist = NormalDist()
    values = [dist.inv_cdf((i + rng.random()) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def feature_csv(path: Path, n: int, seed: int, blank_frac: float = 0.01) -> None:
    """Two-profile feature table with three further latent factors.

    Half the rows have each profile, which shifts every column by 1.5-4
    noise units, so PC1 carries the profile and the silhouette sweep
    picks k = 2; the latent factors
    keep several components above noise, so PCA has at least three
    scores to cluster. About ``blank_frac`` of the feature cells are
    blank and get imputed. The column parameters are fixed; the seed
    draws the rows, so every seed samples the same cluster geometry and
    k-means does about the same work.
    """
    header = csv_header()
    p = len(header) - 5
    population = random.Random(POPULATION_SEED)
    base = [population.uniform(5.0, 50.0) for _ in range(p)]
    noise = [population.uniform(0.5, 3.0) for _ in range(p)]
    lift = [population.choice((-1.0, 1.0)) * population.uniform(1.5, 4.0) * noise[j]
            for j in range(p)]
    loads = [[population.gauss(0.0, 1.0) * noise[j] for _ in range(3)] for j in range(p)]
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        profiles = [float(i % 2) for i in range(n)]
        rng.shuffle(profiles)
        latent = [_stratified_normal(n, rng) for _ in range(3)]
        for i, profile in enumerate(profiles):
            factors = [column[i] for column in latent]
            group = "SLI" if rng.random() < (0.12 if profile else 0.4) else "TD"
            row = [f"child_{i:05d}", "bench", group, str(rng.randint(48, 119)),
                   rng.choice("MF")]
            for j in range(p):
                if rng.random() < blank_frac:
                    row.append("")
                    continue
                v = base[j] + lift[j] * profile + rng.gauss(0.0, noise[j]) \
                    + sum(w * f for w, f in zip(loads[j], factors))
                row.append(f"{v:.10g}")
            writer.writerow(row)


# -- CHAT corpus ------------------------------------------------------------------

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "bl", "br", "dr", "fl", "gr", "pl", "sk", "sl", "sp", "st", "tr", "ch", "sh")
_NUCLEI = ("a", "e", "i", "o", "u", "oo", "ee", "ai", "ou")
_CODAS = ("", "", "b", "d", "g", "k", "m", "n", "p", "t", "x", "ck", "mp", "nd", "st")

_PRONOUNS = ("he", "she", "it", "they", "we", "i", "you")
_THIRD_SINGULAR = {"he", "she", "it"}
_BE = {"he": "is", "she": "is", "it": "is", "i": "am"}
_OBJ_PRONOUNS = ("him", "her", "it", "them", "me", "us", "something", "everything")
_DETS = ("the", "a", "the", "the", "a", "some", "this", "that", "my", "his")
_ARTICLES = {"the", "a"}
_PREPS = ("in", "on", "in", "on", "under", "with", "to", "at", "over", "behind")
_CONJS = ("and", "and", "and", "but", "so", "because", "when", "then")
_MODALS = ("can", "will", "could", "would", "might", "must")
_WH = ("what", "where", "who", "why", "how")
_IRREGULAR = {
    "go": ("went", "goes"), "run": ("ran", "runs"), "see": ("saw", "sees"),
    "fall": ("fell", "falls"), "sit": ("sat", "sits"), "eat": ("ate", "eats"),
    "take": ("took", "takes"), "come": ("came", "comes"), "get": ("got", "gets"),
    "give": ("gave", "gives"), "find": ("found", "finds"), "make": ("made", "makes"),
    "say": ("said", "says"), "catch": ("caught", "catches"), "swim": ("swam", "swims"),
    "fly": ("flew", "flies"), "throw": ("threw", "throws"), "do": ("did", "does"),
    "have": ("had", "has"), "hold": ("held", "holds"), "break": ("broke", "breaks"),
}
_FILLERS = ("&-um", "&-uh", "&-er", "&um", "&-like")
_POSTCODES = ("[+ gram]", "[+ exc]", "[+ bch]")
_PROMPTS = ("what happened next ?", "and then what ?", "tell me more .",
            "what is he doing ?", "where did they go ?", "mhm .", "okay .",
            "can you tell me the story ?", "what about the frog ?")


def _zipf_cum(n: int, exponent: float = 1.07) -> list[float]:
    total = 0.0
    out = []
    for r in range(n):
        total += 1.0 / (r + 1) ** exponent
        out.append(total)
    return out


class _Lexicon:
    """Pseudo-word nouns, verbs and adjectives, drawn by Zipf rank."""

    def __init__(self, rng: random.Random, nouns: int = 3000, verbs: int = 1400,
                 adjectives: int = 700):
        seen = set(_PRONOUNS) | set(_OBJ_PRONOUNS) | set(_DETS) | set(_PREPS) \
            | set(_CONJS) | set(_MODALS) | set(_WH) | set(_IRREGULAR)

        def words(count: int, syllables: tuple[int, ...]) -> list[str]:
            out = []
            while len(out) < count:
                w = "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI)
                            for _ in range(rng.choice(syllables)))
                w += rng.choice(_CODAS)
                if w not in seen and w[-1] not in "sy":
                    seen.add(w)
                    out.append(w)
            return out

        self.nouns = ["dog", "boy", "frog", "girl", "jar", "tree", "water", "ball",
                      "cat", "baby"] + words(nouns, (1, 2, 2, 3))
        self.verbs = list(_IRREGULAR) + ["jump", "look", "walk", "climb", "call",
                                         "push", "pull", "play"] + words(verbs, (1, 2))
        self.adjectives = ["big", "small", "happy", "sad", "wet"] + words(adjectives, (1, 2))
        self._cum = {kind: _zipf_cum(len(getattr(self, kind)))
                     for kind in ("nouns", "verbs", "adjectives")}

    def draw(self, rng: random.Random, kind: str) -> str:
        return rng.choices(getattr(self, kind), cum_weights=self._cum[kind])[0]


class _Utterance:
    """Aligned surface words and mor tokens for one child utterance."""

    def __init__(self):
        self.words: list[str] = []
        self.mor: list[str] = []
        self.errors: set[int] = set()  # words followed by [*]

    def add(self, word: str, mor: str) -> None:
        self.words.append(word)
        self.mor.append(mor)


class _ChildModel:
    """Per-group production rates: SLI children omit inflections, make
    more errors, and produce shorter, more disfluent utterances."""

    def __init__(self, group: str, rng: random.Random):
        sli = group == "SLI"
        self.omit = rng.uniform(0.25, 0.45) if sli else rng.uniform(0.0, 0.08)
        self.extend = rng.uniform(0.25, 0.4) if sli else rng.uniform(0.45, 0.65)
        self.disfluency = rng.uniform(0.1, 0.25) if sli else rng.uniform(0.03, 0.12)
        self.error = rng.uniform(0.05, 0.12) if sli else rng.uniform(0.01, 0.04)
        self.mor_gap = rng.uniform(0.05, 0.15)


def _noun_phrase(u: _Utterance, lex: _Lexicon, rng: random.Random, child: _ChildModel):
    if rng.random() < 0.2:
        p = rng.choice(_OBJ_PRONOUNS)
        u.add(p, f"pro|{p}")
        return
    det = rng.choice(_DETS)
    u.add(det, f"det:art|{det}" if det in _ARTICLES else f"det|{det}")
    if rng.random() < child.extend * 0.5:
        adj = lex.draw(rng, "adjectives")
        u.add(adj, f"adj|{adj}")
    noun = lex.draw(rng, "nouns")
    r = rng.random()
    if r < 0.2:
        u.add(noun + "s", f"n|{noun}-PL")
    elif r < 0.25:
        u.add(noun + "'s", f"n|{noun}-POSS")
    else:
        u.add(noun, f"n|{noun}")


def _subject(u: _Utterance, lex: _Lexicon, rng: random.Random,
             child: _ChildModel) -> bool:
    """Add a subject; return whether it is third person singular."""
    if rng.random() < 0.55:
        p = rng.choice(_PRONOUNS)
        u.add(p, f"pro|{p}")
        return p in _THIRD_SINGULAR
    _noun_phrase(u, lex, rng, child)
    return not u.mor[-1].endswith("-PL") and u.mor[-1] not in ("pro|them", "pro|us")


def _verb(u: _Utterance, lex: _Lexicon, rng: random.Random, child: _ChildModel,
          tense: str, third: bool) -> None:
    verb = lex.draw(rng, "verbs")
    if rng.random() < child.omit:
        if rng.random() < 0.5:  # a transcriber marks half the omissions
            u.errors.add(len(u.words))
        u.add(verb, f"v|{verb}")
        return
    if tense == "past":
        if verb in _IRREGULAR:
            if rng.random() < child.error:
                u.errors.add(len(u.words))
                u.add(verb + "ed", f"v|{verb}-PAST")
            else:
                u.add(_IRREGULAR[verb][0], f"v|{verb}&PAST")
        else:
            u.add(verb + "ed", f"v|{verb}-PAST")
    elif third:
        if verb in _IRREGULAR:
            u.add(_IRREGULAR[verb][1], f"v|{verb}&3S")
        else:
            u.add(verb + "s", f"v|{verb}-3S")
    else:
        u.add(verb, f"v|{verb}")


def _be(u: _Utterance, pos: str, subject_mor: str, rng: random.Random) -> None:
    lemma = subject_mor.split("|", 1)[1]
    surface = _BE.get(lemma, "is" if "-PL" not in subject_mor else "are")
    fusion = "&3S" if surface == "is" else ("&1S" if surface == "am" else "&PRES")
    if rng.random() < 0.3:
        surface = "'" + ("s" if surface == "is" else "m" if surface == "am" else "re")
    u.add(surface, f"{pos}|be{fusion}")


def _clause(lex: _Lexicon, rng: random.Random, child: _ChildModel) -> tuple[_Utterance, str]:
    u = _Utterance()
    kind = rng.random()
    term = "."
    if kind < 0.08:
        wh = rng.choice(_WH)
        u.add(wh, f"pro|{wh}" if wh in ("what", "who") else f"adv|{wh}")
        subject = rng.choice(_PRONOUNS)
        _be(u, "aux", f"pro|{subject}", rng)
        u.add(subject, f"pro|{subject}")
        verb = lex.draw(rng, "verbs")
        u.add(verb + "ing", f"part|{verb}-PROG")
        term = "?"
    elif kind < 0.13:
        u.add("is", "aux|be&3S")
        _noun_phrase(u, lex, rng, child)
        verb = lex.draw(rng, "verbs")
        u.add(verb + "ing", f"part|{verb}-PROG")
        term = "?"
    elif kind < 0.3:
        _subject(u, lex, rng, child)
        if rng.random() > child.omit:
            _be(u, "aux", u.mor[-1], rng)
        verb = lex.draw(rng, "verbs")
        u.add(verb + "ing", f"part|{verb}-PROG")
        if rng.random() < child.extend:
            _noun_phrase(u, lex, rng, child)
    elif kind < 0.4:
        _subject(u, lex, rng, child)
        if rng.random() > child.omit:
            _be(u, "cop", u.mor[-1], rng)
        adj = lex.draw(rng, "adjectives")
        u.add(adj, f"adj|{adj}")
    elif kind < 0.5:
        third = _subject(u, lex, rng, child)
        if rng.random() < 0.5:
            m = rng.choice(_MODALS)
            u.add(m, f"mod|{m}")
        else:
            u.add("does" if third else "do", "aux|do&3S" if third else "aux|do")
        if rng.random() < 0.5:
            u.add("not", "neg|not")
        verb = lex.draw(rng, "verbs")
        u.add(verb, f"v|{verb}")
        if rng.random() < child.extend:
            _noun_phrase(u, lex, rng, child)
    else:
        if rng.random() < 0.3:
            c = rng.choice(_CONJS)
            u.add(c, f"conj|{c}")
        third = _subject(u, lex, rng, child)
        _verb(u, lex, rng, child, "past" if rng.random() < 0.7 else "present", third)
        if rng.random() < child.extend:
            _noun_phrase(u, lex, rng, child)
        if rng.random() < child.extend:
            prep = rng.choice(_PREPS)
            u.add(prep, f"prep|{prep}")
            _noun_phrase(u, lex, rng, child)
        if rng.random() < child.extend * 0.4:
            c = rng.choice(_CONJS)
            u.add(c, f"conj|{c}")
            third = _subject(u, lex, rng, child)
            _verb(u, lex, rng, child, "past", third)
    if rng.random() < 0.04:
        term = "+..."
    elif term == "." and rng.random() < 0.05:
        term = "!"
    return u, term


def _main_tier(u: _Utterance, term: str, lex: _Lexicon, rng: random.Random,
               child: _ChildModel) -> str:
    """Surface tier: clean words plus fillers, repetitions, retracings."""
    if rng.random() < child.error:  # a word-level error anywhere
        u.errors.add(rng.randrange(len(u.words)))
    groups = [[w, "[*]"] if i in u.errors else [w] for i, w in enumerate(u.words)]
    if rng.random() < child.disfluency:
        i = rng.randrange(len(groups))
        groups[i] = [u.words[i], "[/]"] + groups[i]
    if rng.random() < child.disfluency:
        groups.insert(rng.randrange(len(groups) + 1), [rng.choice(_FILLERS)])
    if rng.random() < child.disfluency * 0.6:
        first = lex.draw(rng, "nouns") if rng.random() < 0.5 else "the"
        groups.insert(0, [f"<{first}", f"{lex.draw(rng, 'verbs')}>", "[//]"])
    tier = " ".join([tok for g in groups for tok in g] + [term])
    if rng.random() < child.error * 0.5:
        tier += " " + rng.choice(_POSTCODES)
    return tier


def chat_corpus(directory: Path, n: int, seed: int, utterances: tuple[int, int]) -> None:
    """Write ``n`` CHAT transcripts: 45% SLI, 50% TD, 5% unlabelled.

    Each child produces narrative utterances with aligned %mor tiers; the
    counts spread evenly over ``utterances`` (inclusive), over its lower
    half for SLI children. The exceptions are for a per-child share of
    utterances left without %mor, one transcript in fifty with no %mor at
    all, and about one tier in a hundred that is misaligned (dropped by
    the parser with a warning).
    """
    rng = random.Random(seed)
    lex = _Lexicon(random.Random(LEXICON_SEED))
    directory.mkdir(parents=True, exist_ok=True)
    n_sli, n_td = round(0.45 * n), round(0.5 * n)
    groups = ["SLI"] * n_sli + ["TD"] * n_td + [""] * (n - n_sli - n_td)
    rng.shuffle(groups)
    # stratified utterance counts keep each group's total length, and so
    # the LOO training cost, nearly fixed across seeds
    lo, hi = utterances
    counts = {}
    for group in sorted(set(groups)):
        a, b = (lo, (lo + hi) // 2 + 1) if group == "SLI" else (lo, hi)
        m = groups.count(group)
        counts[group] = [a + int((j + rng.random()) * (b - a + 1) / m) for j in range(m)]
        rng.shuffle(counts[group])
    for i, group in enumerate(groups):
        child = _ChildModel(group, rng)
        no_mor = rng.random() < 0.02
        age = f"{rng.randint(4, 9)};{rng.randint(0, 11):02d}."
        sex = rng.choice(("male", "female"))
        lines = ["@UTF8", "@Begin", "@Languages:\teng",
                 "@Participants:\tCHI Child Target_Child, EXA Examiner Examiner",
                 f"@ID:\teng|bench|CHI|{age}|{sex}|{group}||Target_Child|||",
                 "@ID:\teng|bench|EXA|||||Examiner|||",
                 f"@PID:\tbench_{i:05d}"]
        for k in range(counts[group].pop()):
            if k % 5 == 0:
                lines.append(f"*EXA:\t{rng.choice(_PROMPTS)}")
            u, term = _clause(lex, rng, child)
            lines.append(f"*CHI:\t{_main_tier(u, term, lex, rng, child)}")
            if no_mor or rng.random() < child.mor_gap:
                continue
            mor = list(u.mor)
            if rng.random() < 0.01:
                mor.append("n|extra")
            lines.append("%mor:\t" + " ".join(mor + [term]))
        lines.append("@End")
        (directory / f"child_{i:05d}.cha").write_text("\n".join(lines) + "\n",
                                                      encoding="utf-8")

