"""Deterministic test-signal synthesis: sines, triads, click tracks.

These generators exist so analysis code can be exercised against inputs
with known ground truth; nothing here is meant to sound good.
find_clicks reads a click track's onsets back out of audio.
"""

from __future__ import annotations

import numpy as np

from .audio import AudioBuffer, to_mono


def silence(duration_s: float, sample_rate: int = 44100) -> AudioBuffer:
    return AudioBuffer(np.zeros(int(round(duration_s * sample_rate))), sample_rate)


def sine(
    freq_hz: float,
    duration_s: float,
    sample_rate: int = 44100,
    amplitude: float = 0.5,
) -> AudioBuffer:
    t = np.arange(int(round(duration_s * sample_rate))) / sample_rate
    return AudioBuffer(amplitude * np.sin(2 * np.pi * freq_hz * t), sample_rate)


def chord_tones(
    pitch_classes,
    duration_s: float,
    sample_rate: int = 44100,
    n_harmonics: int = 3,
    amplitude: float = 0.5,
) -> AudioBuffer:
    """Sum of harmonic tones, one per pitch class, in the octave above middle C.

    Harmonic h of each tone has amplitude 1/h; the mix is peak-normalised
    to `amplitude` so chords of different sizes compare fairly.
    """
    pcs = sorted(pitch_classes)
    if not pcs:
        return silence(duration_s, sample_rate)
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for pc in pcs:
        f0 = 440.0 * 2 ** ((60 + pc - 69) / 12)
        for h in range(1, n_harmonics + 1):
            x += np.sin(2 * np.pi * f0 * h * t) / h
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= amplitude / peak
    return AudioBuffer(x, sample_rate)


def click_track(
    bpm: float,
    duration_s: float,
    sample_rate: int = 44100,
    accent_every: int = 0,
    accent_gain: float = 2.0,
    start_s: float = 0.0,
    amplitude: float = 0.4,
) -> AudioBuffer:
    """Short decaying 3 kHz bursts on a rigid beat grid.

    With accent_every = k > 0, every k-th click (starting with the first)
    is `accent_gain` times louder, marking downbeats.
    """
    n = int(round(duration_s * sample_rate))
    x = np.zeros(n)
    burst_len = int(round(0.003 * sample_rate))
    t = np.arange(burst_len) / sample_rate
    burst = np.sin(2 * np.pi * 3000.0 * t) * np.linspace(1.0, 0.0, burst_len)
    period = 60.0 / bpm
    k = 0
    while True:
        pos = int(round((start_s + k * period) * sample_rate))
        if pos >= n:
            break
        gain = accent_gain if accent_every and k % accent_every == 0 else 1.0
        end = min(pos + burst_len, n)
        x[pos:end] += amplitude * gain * burst[: end - pos]
        k += 1
    peak = np.max(np.abs(x))
    if peak > 1.0:
        x /= peak
    return AudioBuffer(x, sample_rate)


def find_clicks(
    buffer: AudioBuffer, threshold: float = 0.1, min_gap_s: float = 0.05
) -> list[float]:
    """Onset times, in seconds, of the clicks in a buffer's channel mean.

    A click starts at a sample whose magnitude exceeds `threshold` while
    the sample before it (for sample 0, the last sample) does not; a
    start less than `min_gap_s` after the last click kept is skipped.
    """
    x = np.abs(to_mono(buffer).samples[0])
    above = x > threshold
    edges = np.flatnonzero(above & ~np.roll(above, 1))
    times, last = [], -(10**9)
    for s in edges:
        if s - last < min_gap_s * buffer.sample_rate:
            continue
        times.append(s / buffer.sample_rate)
        last = s
    return times


def concat(buffers) -> AudioBuffer:
    """Concatenate equal-rate, equal-channel-count buffers in time."""
    buffers = list(buffers)
    if not buffers:
        raise ValueError("nothing to concatenate")
    rate = buffers[0].sample_rate
    channels = buffers[0].n_channels
    for b in buffers[1:]:
        if b.sample_rate != rate or b.n_channels != channels:
            raise ValueError("buffers must share sample rate and channel count")
    return AudioBuffer(np.concatenate([b.samples for b in buffers], axis=1), rate)


def mix(buffers) -> AudioBuffer:
    """Sum equal-rate buffers sample-wise, zero-padding shorter ones."""
    buffers = list(buffers)
    if not buffers:
        raise ValueError("nothing to mix")
    rate = buffers[0].sample_rate
    channels = buffers[0].n_channels
    for b in buffers[1:]:
        if b.sample_rate != rate or b.n_channels != channels:
            raise ValueError("buffers must share sample rate and channel count")
    n = max(b.n_samples for b in buffers)
    out = np.zeros((channels, n))
    for b in buffers:
        out[:, : b.n_samples] += b.samples
    return AudioBuffer(out, rate)
