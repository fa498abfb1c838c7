"""Parser for a working subset of CHAT-format transcript files.

Supported surface:

* header lines ``@Key:<TAB>value`` (``@Begin``/``@End``/``@UTF8`` style
  value-less headers are tolerated and skipped)
* main tiers ``*CCC:<TAB>tokens terminator`` with a 3-letter uppercase
  speaker code
* dependent tiers ``%mor:<TAB>...`` (all other dependent tiers are
  skipped without error)
* continuation lines starting with a tab
* annotation codes inside main tiers: fillers ``&word`` / ``&-word``,
  repetition ``[/]``, retracing ``[//]``, word error ``[*]``, scope
  ``<...>``, utterance postcodes ``[+ ...]``
* terminators ``.`` ``?`` ``!`` and trail-offs (any ``+``-prefixed code)
* mor tokens ``pos[:subpos]|lemma(-SUF)*(&FUS)*``

Anything outside this subset either raises a parse error (structural
problems) or is dropped with a per-transcript warning (recoverable
noise such as a misaligned %mor tier).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum

from .errors import (
    BadHeader,
    ChatParseError,
    DanglingMarker,
    MalformedTier,
    OrphanDependentTier,
    UnbalancedScope,
)


class Speaker(Enum):
    CHILD = "child"
    EXAMINER = "examiner"
    OTHER = "other"


class Terminator(Enum):
    PERIOD = "."
    QUESTION = "?"
    EXCLAIM = "!"
    TRAIL_OFF = "+..."


class Group(Enum):
    SLI = "SLI"
    TD = "TD"
    UNKNOWN = ""


# markers handled by strip_annotations
REPEAT = "[/]"
RETRACE = "[//]"
WORD_ERROR = "[*]"

_TERMINATOR_MAP = {".": Terminator.PERIOD, "?": Terminator.QUESTION, "!": Terminator.EXCLAIM}

# fallback speaker-code roles used when @Participants is absent
_DEFAULT_ROLES = {"CHI": Speaker.CHILD, "EXA": Speaker.EXAMINER, "EXM": Speaker.EXAMINER,
                  "INV": Speaker.EXAMINER}

_CHILD_ROLES = {"target_child", "child"}
_EXAMINER_ROLES = {"examiner", "investigator", "interviewer", "clinician"}


@dataclass(frozen=True)
class MorToken:
    """One token of a %mor tier: POS tag, lemma, affix markers."""

    pos_tag: str
    lemma: str
    suffixes: tuple[str, ...] = ()
    fusions: tuple[str, ...] = ()

    @functools.cached_property
    def pos_classes(self) -> frozenset[str]:
        """Every POS class the tag belongs to, one per ``:``-segment prefix:
        ``n:prop`` is in ``{"n", "n:prop"}``, and ``neg`` only in ``{"neg"}``."""
        parts = self.pos_tag.split(":")
        return frozenset(":".join(parts[:i]) for i in range(1, len(parts) + 1))

    def morphemes(self, count_fusions: bool = False) -> int:
        n = 1 + len(self.suffixes)
        if count_fusions:
            n += len(self.fusions)
        return n

    def render(self) -> str:
        out = f"{self.pos_tag}|{self.lemma}"
        out += "".join(f"-{s}" for s in self.suffixes)
        out += "".join(f"&{f}" for f in self.fusions)
        return out


@dataclass(frozen=True)
class AnnotationEvents:
    fillers: int = 0
    repetitions: int = 0
    retracings: int = 0
    word_errors: int = 0

    def total(self) -> int:
        return self.fillers + self.repetitions + self.retracings + self.word_errors


_NO_EVENTS = AnnotationEvents()


@dataclass(frozen=True)
class Utterance:
    speaker: Speaker
    speaker_code: str
    raw_tokens: tuple[str, ...]
    clean_tokens: tuple[str, ...]
    terminator: Terminator
    events: AnnotationEvents
    mor_tokens: tuple[MorToken, ...] | None = None
    postcodes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Transcript:
    id: str
    corpus: str
    group: Group
    age_months: int | None
    sex: str | None  # "M" | "F" | None
    utterances: tuple[Utterance, ...]
    warnings: tuple[str, ...] = ()

    def child_utterances(self) -> tuple[Utterance, ...]:
        return tuple(u for u in self.utterances if u.speaker is Speaker.CHILD)

    def examiner_utterances(self) -> tuple[Utterance, ...]:
        return tuple(u for u in self.utterances if u.speaker is Speaker.EXAMINER)


def strip_annotations(raw_tokens) -> tuple[tuple[str, ...], AnnotationEvents]:
    """Separate clean words from annotation material in one utterance.

    Returns the clean token sequence plus counts of fillers, repetitions,
    retracings, and word errors.  ``[/]``/``[//]`` remove the preceding
    token group (a single word or a ``<...>`` scope, innermost scopes
    resolving first); ``[*]`` flags the preceding group but keeps it.
    Unrecognized bracket codes are dropped without counting.  A tier
    with no annotation (no empty token, none starting with ``[``, ``&``
    or ``<`` and none ending with ``>``) comes back as it is.
    """
    for tok in raw_tokens:
        if not tok or tok[0] in "[&<" or tok[-1] == ">":
            break
    else:
        return tuple(raw_tokens), _NO_EVENTS
    fillers = repetitions = retracings = word_errors = 0
    # stack of levels; each level is a list of groups (lists of words)
    stack: list[list[list[str]]] = [[]]
    in_unknown_code = False

    for tok in raw_tokens:
        if in_unknown_code:
            if tok.endswith("]"):
                in_unknown_code = False
            continue
        if tok == REPEAT or tok == RETRACE:
            if not stack[-1]:
                raise DanglingMarker(f"{tok} with no preceding material")
            stack[-1].pop()
            if tok == REPEAT:
                repetitions += 1
            else:
                retracings += 1
            continue
        if tok == WORD_ERROR:
            if not stack[-1]:
                raise DanglingMarker("[*] with no preceding material")
            word_errors += 1
            continue
        if tok.startswith("["):
            # unknown bracket code; swallow through the closing bracket
            if not tok.endswith("]"):
                in_unknown_code = True
            continue
        if tok.startswith("&"):
            fillers += 1
            continue

        opens = len(tok) - len(tok.lstrip("<"))
        word = tok[opens:]
        closes = len(word) - len(word.rstrip(">"))
        if closes:
            word = word[:-closes]
        for _ in range(opens):
            stack.append([])
        if word:
            stack[-1].append([word])
        for _ in range(closes):
            if len(stack) == 1:
                raise UnbalancedScope("'>' without matching '<'")
            level = stack.pop()
            merged = [w for grp in level for w in grp]
            stack[-1].append(merged)

    if len(stack) > 1:
        raise UnbalancedScope("'<' without matching '>'")
    clean = tuple(w for grp in stack[0] for w in grp)
    events = AnnotationEvents(fillers, repetitions, retracings, word_errors)
    return clean, events


_MOR_AFFIX = re.compile(r"([&-])")


def parse_mor_token(tok: str) -> MorToken | None:
    """Parse one ``pos|lemma-SUF&FUS`` item; None for punctuation."""
    if "|" not in tok:
        if tok in _TERMINATOR_MAP or tok.startswith("+"):
            return None
        raise MalformedTier(f"unparseable mor token {tok!r}")
    pos, rest = tok.split("|", 1)
    if not pos or not rest:
        raise MalformedTier(f"unparseable mor token {tok!r}")
    parts = _MOR_AFFIX.split(rest)
    lemma = parts[0]
    suffixes: list[str] = []
    fusions: list[str] = []
    for marker, seg in zip(parts[1::2], parts[2::2]):
        if not seg:
            raise MalformedTier(f"empty affix in mor token {tok!r}")
        (suffixes if marker == "-" else fusions).append(seg)
    return MorToken(pos, lemma, tuple(suffixes), tuple(fusions))


def _parse_age(text: str) -> int | None:
    """CHAT age ``Y;MM.DD`` (or ``Y``) to whole months."""
    text = text.strip()
    if not text:
        return None
    m = re.fullmatch(r"(\d+)(?:;(\d+)?(?:\.(\d*))?)?", text)
    if m is None:
        raise BadHeader(f"unparseable age field {text!r}")
    years = int(m.group(1))
    months = int(m.group(2)) if m.group(2) else 0
    value = years * 12 + months
    if value <= 0:
        raise BadHeader(f"non-positive age {text!r}")
    return value


def _classify_group(label: str) -> Group:
    low = label.strip().lower()
    if "sli" in low:
        return Group.SLI
    if low in ("td", "typical", "typically_developing", "typically developing", "normal"):
        return Group.TD
    return Group.UNKNOWN


def _classify_role(role: str) -> Speaker:
    low = role.strip().lower()
    if low in _CHILD_ROLES:
        return Speaker.CHILD
    if low in _EXAMINER_ROLES:
        return Speaker.EXAMINER
    return Speaker.OTHER


def _split_terminator(tokens: list[str]) -> tuple[list[str], Terminator, tuple[str, ...]]:
    """Pull utterance postcodes and the terminator off the token tail."""
    postcodes: list[str] = []
    while tokens:
        # a postcode group [+ ...] sits after the terminator
        end = len(tokens) - 1
        if not tokens[end].endswith("]"):
            break
        start = end
        while start >= 0 and not tokens[start].startswith("["):
            start -= 1
        if start < 0 or not tokens[start].startswith("[+"):
            break
        postcodes.insert(0, " ".join(tokens[start:end + 1]))
        del tokens[start:]
    terminator = Terminator.TRAIL_OFF
    if tokens:
        last = tokens[-1]
        if last in _TERMINATOR_MAP:
            terminator = _TERMINATOR_MAP[last]
            tokens.pop()
        elif last.startswith("+"):
            terminator = Terminator.TRAIL_OFF
            tokens.pop()
        # no explicit terminator: treated as a trail-off, tokens all kept
    return tokens, terminator, tuple(postcodes)


_UNSEEN = object()  # a mor_cache miss: None is a cached punctuation item

_MAIN_TIER = re.compile(r"^\*([A-Z]{3}):")
_DEP_TIER = re.compile(r"^%([A-Za-z]+):")
_HEADER = re.compile(r"^@([^:]+):\s*(.*)$")


def parse_chat(text: str, transcript_id: str | None = None, *,
               mor_cache: dict[str, MorToken | None] | None = None) -> Transcript:
    """Parse CHAT text into an immutable :class:`Transcript`.

    ``transcript_id`` overrides the id derived from ``@PID``/``@ID``
    headers (callers that read files usually pass the file stem).
    ``mor_cache`` maps each raw ``%mor`` item parsed so far to its token
    (``None`` for punctuation), so equal items share one :class:`MorToken`;
    pass one dict for a whole corpus.  Without it, the call uses a fresh
    one.  A malformed item is never cached: it raises, and drops its tier
    with a warning, at every occurrence.
    """
    if mor_cache is None:
        mor_cache = {}
    # logical lines: continuation lines (leading tab) join their tier; each
    # keeps the number of its first physical line for error messages
    logical: list[tuple[int, str]] = []
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("\t") or line.startswith("    "):
            if not logical:
                raise MalformedTier(f"line {lineno}: continuation line before any tier")
            first, joined = logical[-1]
            logical[-1] = (first, joined + " " + line.strip())
        else:
            logical.append((lineno, line))

    roles: dict[str, Speaker] = {}
    corpus = ""
    group = Group.UNKNOWN
    age_months: int | None = None
    sex: str | None = None
    pid = ""
    child_code = ""
    warnings: list[str] = []
    utterances: list[Utterance] = []

    try:
        for lineno, line in logical:
            if line.startswith("@"):
                m = _HEADER.match(line)
                if m is None:
                    continue  # value-less headers such as @Begin / @End
                key, value = m.group(1).strip(), m.group(2).strip()
                if key == "Participants":
                    for entry in value.split(","):
                        bits = entry.split()
                        if len(bits) >= 2:
                            roles[bits[0]] = _classify_role(bits[-1])
                elif key == "ID":
                    fields = value.split("|")
                    if len(fields) < 8:
                        continue
                    role = fields[7]
                    if _classify_role(role) is Speaker.CHILD:
                        corpus = fields[1]
                        child_code = fields[2]
                        age_months = _parse_age(fields[3])
                        sx = fields[4].strip().lower()
                        sex = {"male": "M", "m": "M", "female": "F", "f": "F"}.get(sx)
                        group = _classify_group(fields[5])
                elif key == "PID":
                    pid = value
                continue

            if line.startswith("*"):
                m = _MAIN_TIER.match(line)
                if m is None:
                    raise MalformedTier(f"bad main tier line: {line!r}")
                code = m.group(1)
                content = line[m.end():].strip()
                tokens = content.split()
                body, terminator, postcodes = _split_terminator(tokens)
                clean, events = strip_annotations(body)
                speaker = roles.get(code, _DEFAULT_ROLES.get(code, Speaker.OTHER))
                utterances.append(Utterance(speaker, code, tuple(body), clean, terminator,
                                            events, None, postcodes))
                continue

            if line.startswith("%"):
                m = _DEP_TIER.match(line)
                if m is None:
                    raise MalformedTier(f"bad dependent tier line: {line!r}")
                kind = m.group(1).lower()
                if kind != "mor":
                    continue  # other dependent tiers are out of scope
                if not utterances:
                    raise OrphanDependentTier("%mor tier before any utterance")
                target = utterances[-1]
                content = line[m.end():].strip()
                try:
                    mor = []
                    for item in content.split():
                        tok = mor_cache.get(item, _UNSEEN)
                        if tok is _UNSEEN:
                            tok = mor_cache[item] = parse_mor_token(item)
                        if tok is not None:
                            mor.append(tok)
                except MalformedTier as exc:
                    warnings.append(f"utterance {len(utterances)}: mor tier dropped ({exc})")
                    continue
                if len(mor) != len(target.clean_tokens):
                    warnings.append(
                        f"utterance {len(utterances)}: mor tier has {len(mor)} tokens, "
                        f"utterance has {len(target.clean_tokens)}; mor dropped")
                    continue
                if target.mor_tokens is not None:
                    warnings.append(f"utterance {len(utterances)}: duplicate mor tier replaced")
                # positional arguments: dataclasses.replace costs twice as much
                utterances[-1] = Utterance(target.speaker, target.speaker_code,
                                           target.raw_tokens, target.clean_tokens,
                                           target.terminator, target.events, tuple(mor),
                                           target.postcodes)
                continue

            raise MalformedTier(f"unclassifiable line: {line!r}")
    except ChatParseError as exc:
        raise type(exc)(f"line {lineno}: {exc}") from None

    if transcript_id:
        tid = transcript_id
    elif pid:
        tid = pid
    elif corpus or child_code:
        tid = f"{corpus}|{child_code}".strip("|")
    else:
        tid = "unknown"

    return Transcript(
        id=tid,
        corpus=corpus,
        group=group,
        age_months=age_months,
        sex=sex,
        utterances=tuple(utterances),
        warnings=tuple(warnings),
    )


def render_chat(t: Transcript) -> str:
    """Serialize a Transcript back to CHAT text, annotations dropped.

    Only the clean content survives (headers, clean tokens, terminators,
    mor tiers), so re-parsing yields the same clean_tokens/mor_tokens and
    all-zero annotation events.
    """
    lines = ["@Begin"]
    codes = []
    for u in t.utterances:
        if u.speaker_code not in codes:
            codes.append(u.speaker_code)
    role_names = {Speaker.CHILD: "Target_Child", Speaker.EXAMINER: "Examiner",
                  Speaker.OTHER: "Unidentified"}
    by_code = {u.speaker_code: u.speaker for u in t.utterances}
    if codes:
        parts = ", ".join(f"{c} {role_names[by_code[c]]}" for c in codes)
        lines.append(f"@Participants:\t{parts}")
    age = ""
    if t.age_months is not None:
        age = f"{t.age_months // 12};{t.age_months % 12:02d}."
    sex = {"M": "male", "F": "female"}.get(t.sex or "", "")
    child = next((c for c in codes if by_code[c] is Speaker.CHILD), "CHI")
    lines.append(f"@ID:\teng|{t.corpus}|{child}|{age}|{sex}|{t.group.value}||Target_Child|||")
    if t.id:
        lines.append(f"@PID:\t{t.id}")
    for u in t.utterances:
        body = " ".join(u.clean_tokens + (u.terminator.value,))
        lines.append(f"*{u.speaker_code}:\t{body}")
        if u.mor_tokens is not None:
            mor = " ".join([m.render() for m in u.mor_tokens] + [u.terminator.value])
            lines.append(f"%mor:\t{mor}")
    lines.append("@End")
    return "\n".join(lines) + "\n"
