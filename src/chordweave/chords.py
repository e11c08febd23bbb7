"""Textual chord-progression parsing and symbolic chord types.

The progression grammar is closed and case-sensitive:

    progression := bar (whitespace bar)*
    bar         := chord ("," chord)*
    chord       := "N" | ROOT [":" QUALITY] ["/" BASS]
    ROOT, BASS  := [A-G] ("b" | "#")*
    QUALITY     := a name from QUALITIES

Whitespace separates bars, a comma splits one bar between several chords,
a bare root is major, and ``N`` is a rest.  Every bar occupies one measure
of the given time signature at the given tempo, so a progression plus a
BPM fully determines absolute event timestamps.
"""

from __future__ import annotations

import numbers
import re
from bisect import bisect_right
from dataclasses import dataclass

from .formats import (
    _count,
    _finite,
    _positive,
    as_integer,
    as_number,
    as_text,
    decode,
    dump_document,
    load_document,
)

PITCH_CLASS_COUNT = 12

# Canonical note names, flats for black keys.
PITCH_CLASS_NAMES = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")

_NATURALS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

# Semitone offsets from the root for every quality name: the one vocabulary
# of the parser, the writer and the recognizer.
QUALITIES: dict[str, frozenset[int]] = {
    "maj": frozenset({0, 4, 7}),
    "min": frozenset({0, 3, 7}),
    "dim": frozenset({0, 3, 6}),
    "aug": frozenset({0, 4, 8}),
    "7": frozenset({0, 4, 7, 10}),
    "maj7": frozenset({0, 4, 7, 11}),
    "min7": frozenset({0, 3, 7, 10}),
    "dim7": frozenset({0, 3, 6, 9}),
    "hdim7": frozenset({0, 3, 6, 10}),
    "maj6": frozenset({0, 4, 7, 9}),
    "min6": frozenset({0, 3, 7, 9}),
    "sus2": frozenset({0, 2, 7}),
    "sus4": frozenset({0, 5, 7}),
    "9": frozenset({0, 2, 4, 7, 10}),
    "maj9": frozenset({0, 2, 4, 7, 11}),
    "min9": frozenset({0, 2, 3, 7, 10}),
}


class ChordParseError(ValueError):
    """Syntax error in a chord token or progression.

    Carries the offending token and the character position where parsing
    failed (absolute within the progression text when raised by
    :func:`parse_progression`).
    """

    def __init__(self, message: str, token: str, position: int):
        super().__init__(f"{message} (token {token!r} at position {position})")
        self.token = token
        self.position = position


def _pitch_class(value, name: str) -> None:
    """ValueError unless value is an int or NumPy integer in 0..11; a bool or a float is not."""
    integral = type(value) is int or isinstance(value, numbers.Integral) and type(value) is not bool
    if not (integral and 0 <= value < PITCH_CLASS_COUNT):
        raise ValueError(f"{name} {value!r} outside 0..11")


@dataclass(frozen=True)
class Chord:
    """A pitched chord (root, quality name, optional slash bass) or a rest.

    ``root is None`` encodes the rest; prefer the NO_CHORD constant.
    Pitch classes are integers 0..11 with C = 0; the quality is a key of
    QUALITIES, "maj" when omitted.
    """

    root: int | None
    quality: str | None = None
    bass: int | None = None

    def __post_init__(self):
        if self.root is None:
            if self.quality is not None or self.bass is not None:
                raise ValueError("a no-chord carries no quality or bass")
            return
        _pitch_class(self.root, "root")
        if self.quality is None:
            object.__setattr__(self, "quality", "maj")
        elif type(self.quality) is not str or self.quality not in QUALITIES:
            raise ValueError(f"unknown quality {self.quality!r}")
        if self.bass is not None:
            _pitch_class(self.bass, "bass")

    @property
    def is_no_chord(self) -> bool:
        return self.root is None

    def pitch_classes(self) -> frozenset[int]:
        """The sounding pitch classes: chord tones plus the bass, if any."""
        if self.root is None:
            return frozenset()
        classes = {(self.root + i) % PITCH_CLASS_COUNT for i in QUALITIES[self.quality]}
        if self.bass is not None:
            classes.add(self.bass)
        return frozenset(classes)

    def __str__(self) -> str:
        return format_chord(self)


NO_CHORD = Chord(root=None)


@dataclass(frozen=True)
class TimeSignature:
    beats_per_bar: int = 4
    beat_unit: int = 4

    def __post_init__(self):
        _count(self.beats_per_bar, "beats_per_bar")
        _count(self.beat_unit, "beat_unit")
        if self.beat_unit & (self.beat_unit - 1):
            raise ValueError("beat_unit must be a positive power of two")


FOUR_FOUR = TimeSignature(4, 4)


@dataclass(frozen=True)
class ChordEvent:
    """One chord sounding over [start_s, start_s + duration_s)."""

    chord: Chord
    start_s: float
    duration_s: float

    def __post_init__(self):
        _finite(self.start_s, "start_s")
        if self.start_s < 0:
            raise ValueError("start_s must be finite and >= 0")
        _positive(self.duration_s, "duration_s")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


_CONTIGUITY_TOL = 1e-9


@dataclass(frozen=True)
class ChordSequence:
    """Contiguous, non-overlapping chord events with tempo metadata."""

    events: tuple[ChordEvent, ...]
    bpm: float
    time_signature: TimeSignature = FOUR_FOUR

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        _positive(self.bpm, "bpm")
        for prev, cur in zip(self.events, self.events[1:]):
            if abs(cur.start_s - prev.end_s) > _CONTIGUITY_TOL:
                raise ValueError(
                    f"events not contiguous: one ends at {prev.end_s}, next starts at {cur.start_s}"
                )

    @property
    def duration_s(self) -> float:
        return self.events[-1].end_s if self.events else 0.0

    def chord_at(self, t_s: float) -> Chord | None:
        """The chord sounding at time t_s, or None outside the sequence."""
        if not self.events or t_s < self.events[0].start_s:
            return None
        starts = [e.start_s for e in self.events]
        event = self.events[bisect_right(starts, t_s) - 1]
        return event.chord if t_s < event.end_s else None


_TOKEN_RE = re.compile(r"\S+")


def _parse_note(text: str, token: str, position: int) -> int:
    """Parse a note name (letter plus accidentals) into a pitch class."""
    if not text or text[0] not in _NATURALS:
        raise ChordParseError(f"unknown root letter {text[:1] or text!r}", token, position)
    value = _NATURALS[text[0]]
    for i, ch in enumerate(text[1:], start=1):
        if ch == "b":
            value -= 1
        elif ch == "#":
            value += 1
        else:
            raise ChordParseError(f"unexpected character {ch!r} in note name", token, position + i)
    return value % PITCH_CLASS_COUNT


def parse_chord_symbol(token: str, position: int = 0) -> Chord:
    """Parse one chord token, e.g. ``"Eb:maj"``, ``"Bb:7"``, ``"C:maj/E"``, ``"N"``.

    `position` offsets the character positions reported in errors, so that
    parse_progression can report absolute locations.
    """
    if not token:
        raise ChordParseError("empty chord token", token, position)
    if token == "N":
        return NO_CHORD
    body, slash, bass_text = token.partition("/")
    root_text, colon, quality_text = body.partition(":")
    root = _parse_note(root_text, token, position)
    if colon:
        if not quality_text:
            raise ChordParseError("empty quality after ':'", token, position + len(root_text) + 1)
        if quality_text not in QUALITIES:
            raise ChordParseError(
                f"unknown quality {quality_text!r}", token, position + len(root_text) + 1
            )
    bass = None
    if slash:
        if not bass_text:
            raise ChordParseError("empty bass after '/'", token, position + len(body) + 1)
        bass = _parse_note(bass_text, token, position + len(body) + 1)
    return Chord(root, quality_text or "maj", bass)


def parse_progression(
    text: str, bpm: float, time_signature: TimeSignature = FOUR_FOUR
) -> ChordSequence:
    """Parse a progression into timed events, one bar per whitespace token.

    Bar duration is beats_per_bar * 60 / bpm; the n comma-separated chords
    within a bar split it into n equal slots.
    """
    _positive(bpm, "bpm")
    if not text.strip():
        raise ChordParseError("empty progression", "", 0)
    bar_duration = time_signature.beats_per_bar * 60.0 / bpm
    events = []
    clock = 0.0
    for match in _TOKEN_RE.finditer(text):
        bar = match.group()
        offset = 0
        chords = []
        for part in bar.split(","):
            if not part:
                raise ChordParseError("empty chord in bar", bar, match.start() + offset)
            chords.append(parse_chord_symbol(part, match.start() + offset))
            offset += len(part) + 1
        slot = bar_duration / len(chords)
        for chord in chords:
            events.append(ChordEvent(chord, clock, slot))
            clock += slot
    return ChordSequence(tuple(events), float(bpm), time_signature)


def format_chord(chord: Chord) -> str:
    """Canonical text for a chord; inverse of parse_chord_symbol up to spelling."""
    if chord.is_no_chord:
        return "N"
    text = f"{PITCH_CLASS_NAMES[chord.root]}:{chord.quality}"
    if chord.bass is not None:
        text += "/" + PITCH_CLASS_NAMES[chord.bass]
    return text


CHORD_SEQ_FORMAT = "chord-seq/v1"


def chord_sequence_to_dict(seq: ChordSequence) -> dict:
    ts = seq.time_signature
    return {
        "format": CHORD_SEQ_FORMAT,
        "bpm": float(seq.bpm),
        "time_signature": [int(ts.beats_per_bar), int(ts.beat_unit)],
        "events": [
            {
                "chord": format_chord(e.chord),
                "start_s": float(e.start_s),
                "duration_s": float(e.duration_s),
            }
            for e in seq.events
        ],
    }


def chord_sequence_from_dict(doc: dict) -> ChordSequence:
    def build(doc: dict) -> ChordSequence:
        beats_per_bar, beat_unit = map(as_integer, doc["time_signature"])
        events = [
            ChordEvent(
                parse_chord_symbol(as_text(e["chord"])),
                as_number(e["start_s"]),
                as_number(e["duration_s"]),
            )
            for e in doc["events"]
        ]
        return ChordSequence(events, as_number(doc["bpm"]), TimeSignature(beats_per_bar, beat_unit))

    return decode(doc, CHORD_SEQ_FORMAT, build)


def write_chord_sequence(seq: ChordSequence, path) -> None:
    dump_document(chord_sequence_to_dict(seq), path)


def read_chord_sequence(path) -> ChordSequence:
    return chord_sequence_from_dict(load_document(path))
