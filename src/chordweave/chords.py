"""Textual chord-progression parsing and symbolic chord types.

The progression grammar is closed and case-sensitive:

    progression := bar (whitespace bar)*
    bar         := chord ("," chord)*
    chord       := "N" | ROOT [":" QUALITY] ["/" BASS]
    ROOT, BASS  := [A-G] ("b" | "#")*
    QUALITY     := a name from QUALITY_INTERVALS

Whitespace separates bars, a comma splits one bar between several chords,
a bare root is major, and ``N`` is a rest.  Every bar occupies one measure
of the given time signature at the given tempo, so a progression plus a
BPM fully determines absolute event timestamps.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass

from .formats import (
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

# Semitone offsets from the root for every recognised quality name.
QUALITY_INTERVALS: dict[str, frozenset[int]] = {
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


@dataclass(frozen=True)
class ChordQuality:
    """A named chord quality and its semitone offsets from the root."""

    name: str
    intervals: frozenset[int]

    def __post_init__(self):
        if 0 not in self.intervals:
            raise ValueError("a quality must contain the root (offset 0)")
        if any(i < 0 or i >= PITCH_CLASS_COUNT for i in self.intervals):
            raise ValueError("interval offsets must lie in 0..11")


QUALITIES: dict[str, ChordQuality] = {
    name: ChordQuality(name, intervals) for name, intervals in QUALITY_INTERVALS.items()
}
MAJOR = QUALITIES["maj"]


@dataclass(frozen=True)
class Chord:
    """A pitched chord (root, quality, optional slash bass) or a rest.

    ``root is None`` encodes the rest; prefer the NO_CHORD constant.
    Pitch classes are integers 0..11 with C = 0.
    """

    root: int | None
    quality: ChordQuality | None = None
    bass: int | None = None

    def __post_init__(self):
        if self.root is None:
            if self.quality is not None or self.bass is not None:
                raise ValueError("a no-chord carries no quality or bass")
            return
        if not 0 <= self.root < PITCH_CLASS_COUNT:
            raise ValueError(f"root {self.root} outside 0..11")
        if self.quality is None:
            object.__setattr__(self, "quality", MAJOR)
        if self.bass is not None and not 0 <= self.bass < PITCH_CLASS_COUNT:
            raise ValueError(f"bass {self.bass} outside 0..11")

    @property
    def is_no_chord(self) -> bool:
        return self.root is None

    def pitch_classes(self) -> frozenset[int]:
        """The sounding pitch classes: chord tones plus the bass, if any."""
        if self.root is None:
            return frozenset()
        classes = {(self.root + i) % PITCH_CLASS_COUNT for i in self.quality.intervals}
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
        if self.beats_per_bar < 1:
            raise ValueError("beats_per_bar must be >= 1")
        if self.beat_unit < 1 or self.beat_unit & (self.beat_unit - 1):
            raise ValueError("beat_unit must be a positive power of two")


FOUR_FOUR = TimeSignature(4, 4)


@dataclass(frozen=True)
class ChordEvent:
    """One chord sounding over [start_s, start_s + duration_s)."""

    chord: Chord
    start_s: float
    duration_s: float

    def __post_init__(self):
        if not 0 <= self.start_s < math.inf:
            raise ValueError("start_s must be finite and >= 0")
        if not 0 < self.duration_s < math.inf:
            raise ValueError("duration_s must be finite and > 0")

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
        if not 0 < self.bpm < math.inf:
            raise ValueError("bpm must be finite and > 0")
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
        quality = QUALITIES.get(quality_text)
        if quality is None:
            raise ChordParseError(
                f"unknown quality {quality_text!r}", token, position + len(root_text) + 1
            )
    else:
        quality = MAJOR
    bass = None
    if slash:
        if not bass_text:
            raise ChordParseError("empty bass after '/'", token, position + len(body) + 1)
        bass = _parse_note(bass_text, token, position + len(body) + 1)
    return Chord(root, quality, bass)


def parse_progression(
    text: str, bpm: float, time_signature: TimeSignature = FOUR_FOUR
) -> ChordSequence:
    """Parse a progression into timed events, one bar per whitespace token.

    Bar duration is beats_per_bar * 60 / bpm; the n comma-separated chords
    within a bar split it into n equal slots.
    """
    if not 0 < bpm < math.inf:
        raise ValueError("bpm must be finite and > 0")
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
    text = f"{PITCH_CLASS_NAMES[chord.root]}:{chord.quality.name}"
    if chord.bass is not None:
        text += "/" + PITCH_CLASS_NAMES[chord.bass]
    return text


CHORD_SEQ_FORMAT = "chord-seq/v1"


def chord_sequence_to_dict(seq: ChordSequence) -> dict:
    ts = seq.time_signature
    return {
        "format": CHORD_SEQ_FORMAT,
        "bpm": float(seq.bpm),
        "time_signature": [ts.beats_per_bar, ts.beat_unit],
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
