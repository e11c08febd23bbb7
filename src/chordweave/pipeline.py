"""End-to-end remix preparation around a remote generation backend.

The flow has five steps: (1) analyze the input's tempo and downbeats,
(2) take in pre-separated stems, (3) extract the chord progression and
render it to conditioning chroma, (4) warp the generated track onto the
input's downbeat grid, (5) mix with the preserved vocal stem.  Every
pipeline error names the step it arose from.  The backend itself is
remote: this module only builds requests, posts them, and treats the
response as audio.
"""

from __future__ import annotations

import http.client
import urllib.error
import urllib.parse
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .analysis import ChromagramConfig, RecognitionConfig, compute_chromagram, recognize_chords
from .audio import (
    AudioBuffer,
    WavFormatError,
    _check_frame_rate,
    _resample_rows,
    decode_wav,
    resample_linear,
    to_mono,
)
from .beats import (
    DEFAULT_MAX_BPM,
    DEFAULT_MIN_BPM,
    BeatGrid,
    estimate_bpm,
    onset_envelope,
    track_beats,
)
from .chords import ChordSequence, TimeSignature
from .chroma import (
    DEFAULT_FRAME_RATE_HZ,
    ChromaMatrix,
    chroma_matrix_from_dict,
    chroma_matrix_to_dict,
    render_matrix,
)
from .formats import as_number, as_text, decode, dump_document, dumps_document, load_document
from . import timewarp
from .timewarp import WsolaConfig, build_anchor_map

STEP_NAMES = {
    1: "structure analysis",
    2: "stem preparation",
    3: "chord extraction",
    4: "timing alignment",
    5: "mixing",
}


class PipelineStepError(RuntimeError):
    """A pipeline failure attributed to the step that produced it."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step} ({STEP_NAMES[step]}): {message}")
        self.step = step


@contextmanager
def _step(step: int):
    """Attribute the block to pipeline step `step`.

    A ValueError raised in it becomes PipelineStepError(step); a
    PipelineStepError, which is no ValueError, passes through as it is.
    """
    try:
        yield
    except ValueError as exc:
        raise PipelineStepError(step, str(exc)) from exc


class GenerationBackendError(RuntimeError):
    """Base for failures talking to the generation endpoint."""


class TransportError(GenerationBackendError):
    """The endpoint could not be reached or returned an HTTP error."""


class NonAudioResponseError(GenerationBackendError):
    """The endpoint responded, but not with decodable WAV audio."""


class DurationMismatchError(GenerationBackendError):
    """The generated audio's duration strays too far from the request."""


@dataclass(frozen=True)
class StemSet:
    """Pre-separated input: optional vocals plus the instrumental.

    When no separation is available the full mix goes in `instrumental`
    and `vocals` stays None.
    """

    instrumental: AudioBuffer
    vocals: AudioBuffer | None = None

    def __post_init__(self):
        if self.instrumental.n_samples == 0:
            raise ValueError("instrumental stem is empty")
        if self.vocals is not None and self.vocals.sample_rate != self.instrumental.sample_rate:
            raise ValueError("stems must share one sample rate; resample on ingestion")


@dataclass(frozen=True)
class RemixConfig:
    """Every knob of the pipeline in one place.

    Class constants, not fields, fix the analysis: the pipeline runs at
    44.1 kHz, because every window and hop is a count of samples at that
    rate (ingest_stems brings the stems to it); the beat analysis reads a
    1024-point onset STFT hopped by 512 samples; and a seeded tempo search
    (estimate_grid's seed_bpm) is held within 10% of its seed, which rules
    out octave errors.  The chromagram is max-normalised and the warp
    uses WsolaConfig's default grains.
    """

    sample_rate = 44100
    beat_window_size = 1024
    beat_hop_size = 512
    bpm_seed_tolerance = 0.10
    chromagram = ChromagramConfig()
    wsola = WsolaConfig()

    conditioning_frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ
    beats_per_bar: int = 4
    min_bpm: float = DEFAULT_MIN_BPM
    max_bpm: float = DEFAULT_MAX_BPM
    recognition: RecognitionConfig = field(default_factory=RecognitionConfig)
    generated_gain: float = 1.0
    vocal_gain: float = 1.0
    ceiling_dbfs: float = -1.0

    def __post_init__(self):
        _check_frame_rate(self.conditioning_frame_rate_hz, "conditioning_frame_rate_hz")
        if not 0 < self.min_bpm < self.max_bpm:
            raise ValueError("need 0 < min_bpm < max_bpm")
        if self.beats_per_bar < 1:
            raise ValueError("beats_per_bar must be >= 1")
        for name in ("generated_gain", "vocal_gain"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not -np.inf < self.ceiling_dbfs <= 0:
            raise ValueError("ceiling_dbfs must be finite and <= 0")


@dataclass(frozen=True)
class ConditioningBundle:
    """Everything the generation request is built from."""

    beat_grid: BeatGrid
    chords: ChordSequence
    chroma: ChromaMatrix
    prompt: str
    duration_s: float

    def __post_init__(self):
        if not 0 < self.duration_s < np.inf:
            raise ValueError("duration_s must be finite and > 0")
        frame = 1.0 / self.chroma.frame_rate_hz
        if self.chroma.duration_s < self.chords.duration_s - frame:
            raise ValueError("chroma must cover the chord sequence to within one frame")


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    bpm: float
    duration_s: float
    chroma: ChromaMatrix

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if not 0 < self.bpm < np.inf:
            raise ValueError("bpm must be finite and > 0")
        if not 0 < self.duration_s < np.inf:
            raise ValueError("duration_s must be finite and > 0")


GENREQ_FORMAT = "genreq/v2"


def generation_request_to_dict(req: GenerationRequest) -> dict:
    return {
        "format": GENREQ_FORMAT,
        "prompt": req.prompt,
        "bpm": float(req.bpm),
        "duration_s": float(req.duration_s),
        "chroma": chroma_matrix_to_dict(req.chroma),
    }


def generation_request_from_dict(doc: dict) -> GenerationRequest:
    def build(doc: dict) -> GenerationRequest:
        return GenerationRequest(
            as_text(doc["prompt"]),
            as_number(doc["bpm"]),
            as_number(doc["duration_s"]),
            chroma_matrix_from_dict(doc["chroma"]),
        )

    return decode(doc, GENREQ_FORMAT, build)


def write_generation_request(req: GenerationRequest, path) -> None:
    dump_document(generation_request_to_dict(req), path)


def read_generation_request(path) -> GenerationRequest:
    return generation_request_from_dict(load_document(path))


def ingest_stems(
    instrumental: AudioBuffer, vocals: AudioBuffer | None, config: RemixConfig
) -> StemSet:
    """Bring raw stems onto the pipeline's 44.1 kHz (RemixConfig.sample_rate)."""
    with _step(2):
        instrumental = resample_linear(instrumental, config.sample_rate)
        if vocals is not None:
            vocals = resample_linear(vocals, config.sample_rate)
        return StemSet(instrumental, vocals)


def estimate_grid(
    buffer: AudioBuffer, config: RemixConfig, seed_bpm: float | None = None
) -> BeatGrid:
    """Onset envelope, tempo, rigid beat grid with downbeats.

    The tempo search spans [min_bpm, max_bpm]; given seed_bpm it spans
    seed_bpm * (1 +/- bpm_seed_tolerance) instead, so a half- or
    double-time reading cannot slip in.
    """
    envelope = onset_envelope(to_mono(buffer), config.beat_window_size, config.beat_hop_size)
    if seed_bpm is None:
        min_bpm, max_bpm = config.min_bpm, config.max_bpm
    else:
        min_bpm = seed_bpm * (1.0 - config.bpm_seed_tolerance)
        max_bpm = seed_bpm * (1.0 + config.bpm_seed_tolerance)
    bpm = estimate_bpm(envelope, min_bpm, max_bpm)
    return track_beats(envelope, bpm, config.beats_per_bar)


def analyze_beats(
    buffer: AudioBuffer, config: RemixConfig, seed_bpm: float | None = None
) -> BeatGrid:
    """Step 1: the input's beat grid, its tempo search seeded as estimate_grid's."""
    with _step(1):
        return estimate_grid(buffer, config, seed_bpm)


def _chromagram(buffer: AudioBuffer, config: RemixConfig) -> ChromaMatrix:
    """Step 3's first half: the buffer's chromagram, of at least one frame."""
    with _step(3):
        chromagram = compute_chromagram(to_mono(buffer), config.chromagram)
        if chromagram.n_frames == 0:
            raise ValueError("input too short for a single chromagram frame")
        return chromagram


def _recognize(chromagram: ChromaMatrix, grid: BeatGrid, config: RemixConfig) -> ChordSequence:
    """Step 3's second half: one label per beat of the grid, at its tempo."""
    with _step(3):
        return recognize_chords(
            chromagram,
            config.recognition,
            bpm=grid.bpm,
            time_signature=TimeSignature(config.beats_per_bar, 4),
            beats_s=grid.beats_s,
        )


def extract_chords(buffer: AudioBuffer, grid: BeatGrid, config: RemixConfig) -> ChordSequence:
    """Step 3: chromagram plus beat-synchronous template matching on the grid."""
    return _recognize(_chromagram(buffer, config), grid, config)


def prepare_conditioning(stems: StemSet, prompt: str, config: RemixConfig) -> ConditioningBundle:
    """Steps 1-3: analyze the input and package the generation inputs.

    Beat analysis and chord extraction run on the instrumental stem; the
    recognized chords are rendered to conditioning chroma at the
    configured rate.  The chromagram does not depend on the beat grid,
    so when timewarp._thread_count gives the stem more than one thread,
    it is computed on a worker thread while this one finds the grid; the
    results are those of a serial run.  A grid failure is reported as
    step 1 whether or not the chromagram also failed.
    """
    mono = to_mono(stems.instrumental)
    calls = [partial(analyze_beats, mono, config), partial(_chromagram, mono, config)]
    if timewarp._thread_count(mono.n_samples) > 1:
        grid, chromagram = timewarp._run_split(calls)
    else:
        grid, chromagram = [call() for call in calls]
    chords = _recognize(chromagram, grid, config)
    chroma = render_matrix(chords, config.conditioning_frame_rate_hz)
    return ConditioningBundle(grid, chords, chroma, prompt, stems.instrumental.duration_s)


def build_request(bundle: ConditioningBundle) -> GenerationRequest:
    return GenerationRequest(
        bundle.prompt, bundle.beat_grid.bpm, bundle.duration_s, bundle.chroma
    )


DEFAULT_TIMEOUT_S = 300.0
DURATION_TOLERANCE = 0.05

# The largest WAV a backend may answer with: the longest accepted
# duration at 192 kHz, 8 channels and 32 bits, plus 1 MiB for headers.
_MAX_RESPONSE_RATE_HZ = 192_000
_MAX_RESPONSE_FRAME_BYTES = 8 * 4
_RESPONSE_HEADER_BYTES = 1 << 20
# An undeclared response body is read in pieces of this size, so no
# read reserves memory for the whole cap.
_RESPONSE_CHUNK_BYTES = 1 << 20


def max_response_bytes(duration_s: float) -> int:
    """The response size cap for a request of duration_s seconds."""
    frames = int(np.ceil(duration_s * (1.0 + DURATION_TOLERANCE) * _MAX_RESPONSE_RATE_HZ))
    return frames * _MAX_RESPONSE_FRAME_BYTES + _RESPONSE_HEADER_BYTES


def _read_capped(response, limit: int) -> bytes | None:
    """The response body, or None when it is longer than limit bytes.

    A declared length (http.client's parse of Content-Length: None when
    the header is absent, malformed or chunked) is checked before
    reading; an undeclared body is read in fixed pieces until it ends or
    passes the limit.
    """
    if response.length is not None:
        return response.read() if response.length <= limit else None
    payload = bytearray()
    while len(payload) <= limit:
        chunk = response.read(_RESPONSE_CHUNK_BYTES)
        if not chunk:
            return bytes(payload)
        payload += chunk
    return None


def _check_timeout(timeout_s: float) -> None:
    """Refuse a timeout that is not finite and > 0 before any work: urllib
    checks it only when it opens the socket."""
    if not 0 < timeout_s < np.inf:
        raise ValueError(f"timeout_s must be finite and > 0, got {timeout_s!r}")


def _check_endpoint(endpoint: str | None) -> None:
    """Refuse, as TransportError, an endpoint that is missing, is not an
    http or https URL, or names no host: urllib would open a file:// URL
    and ignore the body, and finds the others only when it connects."""
    if not endpoint:
        raise TransportError("no endpoint configured; pass one or set CHORDWEAVE_ENDPOINT")
    try:
        parts = urllib.parse.urlsplit(endpoint)
        parts.port  # parsed on access; a malformed one raises ValueError
    except ValueError as exc:
        raise TransportError(f"endpoint {endpoint!r} is not a URL: {exc}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise TransportError(f"endpoint {endpoint!r} is not an http or https URL with a host")


def _check_mode(mode: str, endpoint: str | None, out_path, timeout_s: float) -> None:
    """What request_generation refuses, checked before any work."""
    if mode == "dry_run":
        if out_path is None:
            raise ValueError("dry_run mode needs an output path")
    elif mode == "live":
        _check_timeout(timeout_s)
        _check_endpoint(endpoint)
    else:
        raise ValueError(f"mode must be 'live' or 'dry_run', got {mode!r}")


def request_generation(
    req: GenerationRequest,
    endpoint: str | None = None,
    mode: str = "live",
    out_path=None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> AudioBuffer | None:
    """POST a generation request, or write it to disk in dry_run mode.

    Live mode posts the genreq/v2 request document as application/json,
    decodes the response as WAV, and checks the duration is within 5% of
    the request; transport failures, undecodable responses, and duration
    mismatches are reported as distinct errors.  A response larger than
    max_response_bytes(req.duration_s) is refused as non-audio: before
    reading when its Content-Length declares it, otherwise as soon as
    the bytes read pass the cap.  dry_run writes the exact request
    document to out_path and returns None without touching the network.
    Live mode refuses a timeout_s that is not finite and > 0 with
    ValueError, and an endpoint that is missing, not http or https, or
    without a host with TransportError.
    """
    _check_mode(mode, endpoint, out_path, timeout_s)
    if mode == "dry_run":
        write_generation_request(req, out_path)
        return None
    body = dumps_document(generation_request_to_dict(req)).encode("ascii")
    http_req = urllib.request.Request(
        endpoint, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    limit = max_response_bytes(req.duration_s)
    try:
        with urllib.request.urlopen(http_req, timeout=timeout_s) as response:
            payload = _read_capped(response, limit)
    except urllib.error.HTTPError as exc:
        raise TransportError(f"endpoint returned HTTP {exc.code}: {exc.reason}") from exc
    except (urllib.error.URLError, TimeoutError, ConnectionError) as exc:
        raise TransportError(f"could not reach {endpoint}: {exc}") from exc
    except http.client.IncompleteRead as exc:
        raise TransportError(f"{endpoint} closed the response early: {exc}") from exc
    if payload is None:
        raise NonAudioResponseError(
            f"response exceeds {limit} bytes, more than any WAV "
            f"a {req.duration_s:.2f} s request allows"
        )
    try:
        generated = decode_wav(payload)
    except WavFormatError as exc:
        raise NonAudioResponseError(f"response is not WAV audio: {exc}") from exc
    if abs(generated.duration_s - req.duration_s) > DURATION_TOLERANCE * req.duration_s:
        raise DurationMismatchError(
            f"generated {generated.duration_s:.2f} s for a {req.duration_s:.2f} s request "
            f"(tolerance {DURATION_TOLERANCE:.0%})"
        )
    return generated


def estimate_generated_grid(
    generated: AudioBuffer, tempo: GenerationRequest | BeatGrid, config: RemixConfig
) -> BeatGrid:
    """Step 4: beat grid of the generated track, its tempo search seeded by tempo.bpm.

    Only `tempo.bpm` is read, so the request and the input grid serve
    alike: build_request gives the request the input grid's tempo.
    """
    with _step(4):
        return estimate_grid(generated, config, seed_bpm=tempo.bpm)


def peak_normalize(buffer: AudioBuffer, ceiling_dbfs: float = -1.0) -> AudioBuffer:
    """Scale down iff any sample exceeds the ceiling; never scale up.

    NaN or infinite samples have no peak to scale by and raise ValueError.
    """
    gain = _normalizing_gain(buffer.samples, ceiling_dbfs)
    if gain is None:
        return buffer
    return AudioBuffer._adopt(buffer.samples * gain, buffer.sample_rate)


def _normalizing_gain(samples: np.ndarray, ceiling_dbfs: float) -> float | None:
    """The factor that brings samples' peak down to the ceiling, or None if it is below."""
    if not -np.inf < ceiling_dbfs <= 0:
        raise ValueError("ceiling_dbfs must be finite and <= 0")
    ceiling = 10.0 ** (ceiling_dbfs / 20.0)
    peak = max(float(samples.max()), -float(samples.min())) if samples.shape[1] else 0.0
    if not np.isfinite(peak):
        raise ValueError("cannot normalize a buffer holding NaN or infinite samples")
    return None if peak <= ceiling else ceiling / peak


def finalize_remix(
    generated: AudioBuffer,
    stems: StemSet,
    generated_grid: BeatGrid,
    input_grid: BeatGrid,
    config: RemixConfig | None = None,
) -> AudioBuffer:
    """Steps 4-5: warp the generated track onto the input grid and mix.

    The anchor map pairs generated downbeats with input downbeats; the
    warped track is resampled to the input rate, gains applied, vocals
    summed in (absent vocals, the warped background alone comes back),
    and the result peak-normalized to the ceiling iff it exceeds it.
    """
    if config is None:
        config = RemixConfig()
    with _step(4):
        if generated.n_samples == 0:
            raise ValueError("generated audio is empty")
        anchors = build_anchor_map(generated_grid, input_grid)
        warped = timewarp._aligned_samples(generated, anchors, config.wsola)
    with _step(5):
        rate = stems.instrumental.sample_rate
        # The warp's output is a fresh array (and so is a resampled one),
        # so the mix is built in it unless the vocals run longer.
        warped = _resample_rows(warped, generated.sample_rate, rate)
        vocals = None if stems.vocals is None else stems.vocals.samples
        if vocals is not None and vocals.shape[0] != warped.shape[0]:
            vocals = to_mono(stems.vocals).samples  # added to every channel
        mixed = warped
        if vocals is not None and vocals.shape[1] > warped.shape[1]:
            mixed = np.zeros((warped.shape[0], vocals.shape[1]))
            mixed[:, : warped.shape[1]] = warped
        # A gain of exactly 1 multiplies nothing.
        if config.generated_gain != 1.0:
            mixed[:, : warped.shape[1]] *= config.generated_gain
        if vocals is not None:
            if config.vocal_gain != 1.0:
                vocals = vocals * config.vocal_gain
            mixed[:, : vocals.shape[1]] += vocals
        gain = _normalizing_gain(mixed, config.ceiling_dbfs)
        if gain is not None:
            mixed *= gain
        return AudioBuffer._adopt(mixed, rate)


def run_remix(
    instrumental: AudioBuffer,
    vocals: AudioBuffer | None,
    prompt: str,
    config: RemixConfig | None = None,
    endpoint: str | None = None,
    mode: str = "live",
    out_path=None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
):
    """The whole pipeline; returns (bundle, request, mix-or-None).

    In dry_run mode the request document lands at out_path and the mix
    is None.  The prompt, and the mode with what it needs (out_path, or
    timeout_s and endpoint, checked as request_generation does), are
    checked before any step runs.
    """
    if config is None:
        config = RemixConfig()
    if not prompt:
        raise ValueError("prompt must be non-empty")
    _check_mode(mode, endpoint, out_path, timeout_s)
    stems = ingest_stems(instrumental, vocals, config)
    bundle = prepare_conditioning(stems, prompt, config)
    req = build_request(bundle)
    generated = request_generation(req, endpoint, mode, out_path, timeout_s)
    if generated is None:
        return bundle, req, None
    generated_grid = estimate_generated_grid(generated, req, config)
    input_grid = bundle.beat_grid
    mix = finalize_remix(generated, stems, generated_grid, input_grid, config)
    return bundle, req, mix
