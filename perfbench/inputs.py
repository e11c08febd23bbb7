"""Seeded benchmark inputs with known ground truth, and a RIFF/WAVE writer.

Everything here is plain NumPy and independent of the package under
test, so two versions of the package are always fed byte-identical
inputs for one seed.  Audio clips are an accented click track (one click
per beat, louder on downbeats) plus one harmonic triad per bar; the
tempo, the downbeat times and the progression are the ground truth.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 44100
BEATS_PER_BAR = 4

NOTE_NAMES = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")
# Alternative spellings the progression grammar accepts for some roots.
SPELLINGS = {1: ("Db", "C#"), 3: ("Eb", "D#"), 6: ("Gb", "F#"), 8: ("Ab", "G#"), 10: ("Bb", "A#")}
TRIADS = {"maj": (0, 4, 7), "min": (0, 3, 7)}
# A spread of the parser's quality names, triads to ninths.
DOC_QUALITIES = ("maj", "min", "7", "maj7", "min7", "dim", "aug", "sus4", "hdim7", "min9")

CLICK_AMPLITUDE = 0.4
DOWNBEAT_GAIN = 1.5
TONE_AMPLITUDE = 0.3
# Gain of the tones against the clicks.
TONE_GAIN = 0.9


# Irrational steps whose multiples, taken modulo 1, spread evenly over
# [0, 1) for every prefix; one per input dimension, so size and tempo vary
# independently.
SIZE_STEP = 0.6180339887498949  # golden ratio - 1
TEMPO_STEP = 0.41421356237309515  # sqrt(2) - 1


def _ranks(n: int, step: float) -> np.ndarray:
    """Item i's rank of frac(i * step) among n: every prefix spans 0..n-1 evenly."""
    return np.argsort(np.argsort((np.arange(n) * step) % 1.0))


def pool_design(seed: int, n: int, size_range, bpm_range) -> list[tuple[float, float]]:
    """(size, bpm) for each of n pool items.

    Sizes are n evenly spaced steps from the low to the high end of
    size_range, so every seed times the same spread of sizes.  Tempos
    take one seeded value in each of n equal strata of bpm_range.  Both
    are ordered so that a run which stops part-way through the pool still
    sees short and long, slow and fast inputs alike.
    """
    rng = np.random.default_rng(seed)
    sizes = np.interp(_ranks(n, SIZE_STEP) / max(n - 1, 1), [0, 1], size_range)
    tempos = np.interp(
        (_ranks(n, TEMPO_STEP) + rng.uniform(0.0, 1.0, n)) / n, [0, 1], bpm_range
    )
    return [(float(s), float(b)) for s, b in zip(sizes, tempos)]


def wav_bytes(samples: np.ndarray) -> bytes:
    """Mono PCM16 RIFF/WAVE bytes of samples at SAMPLE_RATE."""
    payload = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767).astype("<i2")
    payload = payload.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16)
    pad = b"\x00" if len(payload) & 1 else b""
    header = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload) + len(pad))
    return b"".join(
        [header, b"WAVE", b"fmt ", struct.pack("<I", len(fmt)), fmt,
         b"data", struct.pack("<I", len(payload)), payload, pad]
    )


def _burst() -> np.ndarray:
    n = int(round(0.003 * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    return np.sin(2 * np.pi * 3000.0 * t) * np.linspace(1.0, 0.0, n)


def click_track(bpm: float, duration_s: float, lead_s: float) -> np.ndarray:
    """Mono clicks at lead_s + k * 60 / bpm, every BEATS_PER_BAR-th one louder.

    Beat clicks peak near CLICK_AMPLITUDE, downbeat clicks near
    CLICK_AMPLITUDE * DOWNBEAT_GAIN.
    """
    n = int(round(duration_s * SAMPLE_RATE))
    out = np.zeros(n)
    burst = _burst()
    period = 60.0 / bpm
    count = int(np.floor((duration_s - lead_s) / period)) + 1
    for k in range(max(count, 0)):
        pos = int(round((lead_s + k * period) * SAMPLE_RATE))
        if pos >= n:
            break
        gain = DOWNBEAT_GAIN if k % BEATS_PER_BAR == 0 else 1.0
        end = min(pos + len(burst), n)
        out[pos:end] += CLICK_AMPLITUDE * gain * burst[: end - pos]
    return out


def _triad(pitch_classes, n: int) -> np.ndarray:
    """Three harmonics per tone in the octave above middle C, peak TONE_AMPLITUDE."""
    t = np.arange(n) / SAMPLE_RATE
    x = np.zeros(n)
    for pc in pitch_classes:
        f0 = 440.0 * 2 ** ((60 + pc - 69) / 12)
        for h in (1, 2, 3):
            x += np.sin(2 * np.pi * f0 * h * t) / h
    peak = np.max(np.abs(x)) if n else 0.0
    return x * (TONE_AMPLITUDE / peak) if peak > 0 else x


@dataclass(frozen=True)
class ClipTruth:
    """What the synthesizer put into a clip."""

    duration_s: float
    bpm: float
    lead_s: float
    downbeats_s: tuple[float, ...]
    # (start_s, end_s, pitch classes) per bar; before lead_s is silence.
    chords: tuple[tuple[float, float, frozenset], ...]

    def pitch_classes_at(self, times_s: np.ndarray) -> list[frozenset]:
        starts = np.array([c[0] for c in self.chords])
        idx = np.searchsorted(starts, times_s, side="right") - 1
        out = []
        for t, i in zip(times_s, idx):
            if i < 0 or t >= self.chords[i][1]:
                out.append(frozenset())
            else:
                out.append(self.chords[i][2])
        return out


def synth_clip(
    rng: np.random.Generator, duration_s: float, bpm: float
) -> tuple[np.ndarray, ClipTruth]:
    """Mono float32 samples of clicks plus one triad per bar.

    Built bar by bar into the output array, so memory stays near the
    size of the clip itself.
    """
    n = int(round(duration_s * SAMPLE_RATE))
    lead = float(rng.uniform(0.1, 0.5))
    bar = BEATS_PER_BAR * 60.0 / bpm
    out = np.zeros(n, dtype=np.float32)
    chords = []
    # Bars of one chord and one length hold the same samples, so each
    # such bar is synthesized once.
    bar_samples = {}
    start = lead
    while start < duration_s:
        end = start + bar
        root = int(rng.integers(12))
        pcs = frozenset((root + i) % 12 for i in TRIADS[("maj", "min")[int(rng.integers(2))]])
        a, b = int(round(start * SAMPLE_RATE)), min(int(round(end * SAMPLE_RATE)), n)
        if b > a:
            key = (pcs, b - a)
            if key not in bar_samples:
                bar_samples[key] = (_triad(sorted(pcs), b - a) * TONE_GAIN).astype(np.float32)
            out[a:b] += bar_samples[key]
        chords.append((start, min(end, duration_s), pcs))
        start = end
    clicks = click_track(bpm, duration_s, lead)
    out += clicks.astype(np.float32)
    downbeats = tuple(lead + k * bar for k in range(int(np.floor((duration_s - lead) / bar)) + 1))
    return out, ClipTruth(duration_s, bpm, lead, downbeats, tuple(chords))


@dataclass(frozen=True)
class ProgressionTruth:
    text: str
    bpm: float
    bars: int
    events: int

    @property
    def duration_s(self) -> float:
        return self.bars * BEATS_PER_BAR * 60.0 / self.bpm


def make_progression(rng: np.random.Generator, bars: int, bpm: float) -> ProgressionTruth:
    """Progression text with split bars, slash basses, rests and varied spellings."""
    tokens = []
    events = 0
    for _ in range(bars):
        parts = []
        for _ in range(int(rng.choice([1, 1, 1, 2, 2, 4]))):
            if rng.random() < 0.05:
                parts.append("N")
                continue
            root = int(rng.integers(12))
            name = str(rng.choice(SPELLINGS.get(root, (NOTE_NAMES[root],))))
            token = f"{name}:{rng.choice(DOC_QUALITIES)}"
            if rng.random() < 0.15:
                token += "/" + NOTE_NAMES[int(rng.integers(12))]
            parts.append(token)
        events += len(parts)
        tokens.append(",".join(parts))
    return ProgressionTruth(" ".join(tokens), float(bpm), bars, events)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
