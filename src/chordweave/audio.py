"""Audio buffers, RIFF/WAVE I/O, resampling, and the STFT.

Samples live in float64 arrays shaped (channels, n) in [-1, 1].  The WAV
codec handles the two encodings that actually occur in this pipeline:
16-bit PCM and 32-bit IEEE float.  Everything is deliberately plain
numpy so the numerical behaviour is easy to pin down in tests.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from dataclasses import dataclass, fields

import numpy as np


class WavFormatError(ValueError):
    """Unreadable WAV data: truncated, non-RIFF, or an unsupported codec."""


def _check_rate(rate, name: str) -> None:
    """ValueError unless rate is a positive whole number, which a WAV header can hold.

    A bool is not taken for one, and neither is a float of whole value.
    """
    if isinstance(rate, bool) or not isinstance(rate, numbers.Integral) or rate <= 0:
        raise ValueError(f"{name} must be a positive whole number, got {rate!r}")


def _check_frame_rate(rate, name: str = "frame_rate_hz") -> None:
    """ValueError unless rate is a real number, finite and > 0; a bool is not taken for one."""
    if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not 0 < rate < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {rate!r}")


class _SealedArray:
    """The base of AudioBuffer, ChromaMatrix and OnsetEnvelope: an array and its rate.

    A subclass is a frozen dataclass of two fields, the array and then its
    rate, whose _checked validates both and returns the array in the
    subclass's shape.  The array is kept sealed: float64, C-contiguous
    and read-only.  The public constructor seals a copy of the caller's
    array; _adopt seals the array it is given.
    """

    def __post_init__(self):
        self._seal(copy=True)

    @classmethod
    def _adopt(cls, array: np.ndarray, rate):
        """An instance that keeps `array` itself, sealed, rather than a copy.

        Only for an array this package has just allocated and hands over:
        no one else may hold it, or a view of it, to write through.
        """
        instance = object.__new__(cls)
        for field, value in zip(fields(cls), (array, rate)):
            object.__setattr__(instance, field.name, value)
        instance._seal(copy=False)
        return instance

    def _seal(self, copy: bool) -> None:
        """Check both fields, then keep the array, or a copy of it, sealed."""
        name = fields(self)[0].name
        array = self._checked(np.asarray(getattr(self, name), dtype=np.float64))
        array = array.copy() if copy else np.ascontiguousarray(array)
        array.setflags(write=False)
        object.__setattr__(self, name, array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        array, rate = (field.name for field in fields(self))
        return getattr(self, rate) == getattr(other, rate) and np.array_equal(
            getattr(self, array), getattr(other, array)
        )


@dataclass(frozen=True, eq=False)
class AudioBuffer(_SealedArray):
    """(channels, n) audio at a sample rate of a positive whole number of Hz."""

    samples: np.ndarray
    sample_rate: int

    def _checked(self, samples: np.ndarray) -> np.ndarray:
        if samples.ndim == 1:
            samples = samples.reshape(1, -1)
        if samples.ndim != 2:
            raise ValueError(f"samples must be 1-D or (channels, n), got shape {samples.shape}")
        if samples.shape[0] < 1:
            raise ValueError("need at least one channel")
        _check_rate(self.sample_rate, "sample_rate")
        return samples

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


def to_mono(buffer: AudioBuffer) -> AudioBuffer:
    """Average the channels; a mono buffer passes through unchanged."""
    if buffer.n_channels == 1:
        return buffer
    return AudioBuffer._adopt(buffer.samples.mean(axis=0), buffer.sample_rate)


def resample_linear(buffer: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Linear-interpolation resampling to target_rate.

    Output length is round(n * target / source); sample k of the output
    reads the source at time k / target_rate.  Identity when the rates
    already match.
    """
    if target_rate == buffer.sample_rate:
        return buffer
    return AudioBuffer._adopt(
        _resample_rows(buffer.samples, buffer.sample_rate, target_rate), target_rate
    )


def _resample_rows(samples: np.ndarray, rate: int, target_rate: int) -> np.ndarray:
    """resample_linear on a (channels, n) array: `samples` itself when the
    rates match, else a new array."""
    _check_rate(target_rate, "target_rate")
    if target_rate == rate:
        return samples
    n_channels, n = samples.shape
    n_out = int(round(n * target_rate / rate))
    if n == 0 or n_out == 0:
        return np.zeros((n_channels, 0))
    src_positions = np.arange(n, dtype=np.float64)
    out_positions = np.arange(n_out, dtype=np.float64) * (rate / target_rate)
    out = np.empty((n_channels, n_out))
    for ch, row in zip(samples, out):
        row[:] = np.interp(out_positions, src_positions, ch)
    return out


_PCM16_SCALE = 32768.0
_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3


def decode_wav(data: bytes) -> AudioBuffer:
    """Decode RIFF/WAVE bytes (PCM16 or float32) into an AudioBuffer.

    Chunks are read through a memoryview, so no chunk body is copied.
    """
    view = memoryview(data)
    if len(view) < 12 or view[:4] != b"RIFF" or view[8:12] != b"WAVE":
        raise WavFormatError("not a RIFF/WAVE stream")
    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(view):
        chunk_id = view[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", view, pos + 4)
        body = view[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavFormatError("truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavFormatError("data chunk shorter than its declared size")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)
    if fmt is None:
        raise WavFormatError("missing fmt chunk")
    if payload is None:
        raise WavFormatError("missing data chunk")
    codec, n_channels, sample_rate, _, block_align, bits = fmt
    if n_channels < 1:
        raise WavFormatError("fmt chunk declares zero channels")
    if sample_rate < 1:
        raise WavFormatError("fmt chunk declares sample rate 0")
    if (codec, bits) not in ((_WAVE_FORMAT_PCM, 16), (_WAVE_FORMAT_IEEE_FLOAT, 32)):
        raise WavFormatError(f"unsupported codec: format tag {codec}, {bits} bits per sample")
    if len(payload) % (n_channels * bits // 8):
        raise WavFormatError("data chunk does not hold a whole number of sample frames")
    raw = np.frombuffer(payload, dtype="<i2" if codec == _WAVE_FORMAT_PCM else "<f4")
    if codec == _WAVE_FORMAT_IEEE_FLOAT and not np.isfinite(raw).all():
        raise WavFormatError("float32 data holds NaN or infinite samples")
    # One pass de-interleaves the frames into (channels, n) rows.
    frames = raw.reshape(-1, n_channels).T
    samples = np.empty(frames.shape)
    if codec == _WAVE_FORMAT_PCM:
        np.divide(frames, _PCM16_SCALE, out=samples)
    else:
        samples[:] = frames
    return AudioBuffer._adopt(samples, sample_rate)


# Sample frames converted per step of the WAV encoder, which bounds its
# float64 scratch to this many frames whatever the clip's length.
_ENCODE_BLOCK = 1 << 16
_WAV_HEADER = struct.Struct("<4sI4s4sIHHIIHH4sI")


def _wav_image(buffer: AudioBuffer, encoding: str) -> bytearray:
    """The RIFF/WAVE file of a buffer, header and payload, in one new bytearray.

    Frames are converted _ENCODE_BLOCK at a time straight into the
    payload.  PCM16 is round-half-even of sample * 32768, clipped to
    [-32768, 32767]; float32 is the nearest float32.  The payload is
    whole 2- or 4-byte samples, so it never needs a pad byte.
    """
    if encoding == "pcm16":
        codec, dtype = _WAVE_FORMAT_PCM, np.dtype("<i2")
    elif encoding == "float32":
        codec, dtype = _WAVE_FORMAT_IEEE_FLOAT, np.dtype("<f4")
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    n_channels, n = buffer.samples.shape
    block_align = n_channels * dtype.itemsize
    payload_size = n * block_align
    image = bytearray(_WAV_HEADER.size + payload_size)
    rate = buffer.sample_rate
    fmt_body = (codec, n_channels, rate, rate * block_align, block_align, 8 * dtype.itemsize)
    riff_size = _WAV_HEADER.size - 8 + payload_size
    _WAV_HEADER.pack_into(
        image, 0, b"RIFF", riff_size, b"WAVE", b"fmt ", 16, *fmt_body, b"data", payload_size
    )
    payload = np.frombuffer(image, dtype, offset=_WAV_HEADER.size).reshape(n, n_channels)
    if codec == _WAVE_FORMAT_PCM:
        scratch = np.empty((min(n, _ENCODE_BLOCK), n_channels))
    for first in range(0, n, _ENCODE_BLOCK):
        frames = buffer.samples[:, first : first + _ENCODE_BLOCK].T
        if codec == _WAVE_FORMAT_PCM:
            block = scratch[: len(frames)]
            np.multiply(frames, _PCM16_SCALE, out=block)
            np.round(block, out=block)
            np.clip(block, -32768, 32767, out=block)
            frames = block
        np.copyto(payload[first : first + _ENCODE_BLOCK], frames, casting="unsafe")
    return image


def encode_wav(buffer: AudioBuffer, encoding: str = "pcm16") -> bytes:
    """Encode a buffer as RIFF/WAVE bytes; encoding is "pcm16" or "float32"."""
    return bytes(_wav_image(buffer, encoding))


def read_wav(path_or_file) -> AudioBuffer:
    """Read a WAV file from a path or a binary file-like object."""
    if hasattr(path_or_file, "read"):
        return decode_wav(path_or_file.read())
    with open(os.fspath(path_or_file), "rb") as fh:
        return decode_wav(fh.read())


def write_wav(buffer: AudioBuffer, path_or_file, encoding: str = "pcm16") -> None:
    """Write a buffer as a WAV file to a path or a binary file-like object."""
    data = _wav_image(buffer, encoding)
    if hasattr(path_or_file, "write"):
        path_or_file.write(data)
        return
    with open(os.fspath(path_or_file), "wb") as fh:
        fh.write(data)


def _stft_blocks(x: np.ndarray, window_size: int, hop_size: int, lead: int = 0):
    """The STFT frame count of a 1-D signal, and its frames' magnitudes in blocks.

    The signal framed is x after `lead` zeros.  Returns (n_frames,
    blocks): blocks yields (first_frame, |rfft(frames * hann)|) for
    consecutive runs of frames.  Frames are rows of one strided view of
    x, or of a zero-padded copy of x's head for the few that overlap the
    lead, so only the windowed rows of the current block (about 2**18
    samples) are ever materialised.  A signal shorter than one window
    has no frames.  The sizes are checked here, eagerly; the blocks are
    computed as they are consumed.

    No block is a single frame unless the signal is: NumPy sums the
    columns of a one-row gather pairwise but those of a taller one in
    order, so a consumer's per-frame sums match those taken over the
    whole matrix only if every block has at least two rows.
    """
    if window_size < 2 or window_size & (window_size - 1):
        raise ValueError("window_size must be a power of two >= 2")
    if hop_size < 1:
        raise ValueError("hop_size must be >= 1")
    if lead + x.shape[0] < window_size:
        return 0, iter(())
    n_frames = (lead + x.shape[0] - window_size) // hop_size + 1
    # Frames before n_head start inside the leading zeros.
    n_head = min(-(-lead // hop_size), n_frames)
    head_frames = body_frames = np.empty((0, window_size))
    if n_head:
        head = np.zeros((n_head - 1) * hop_size + window_size)
        head[lead:] = x[: max(len(head) - lead, 0)]
        head_frames = np.lib.stride_tricks.sliding_window_view(head, window_size)[::hop_size]
    if n_head < n_frames:
        body_frames = np.lib.stride_tricks.sliding_window_view(x, window_size)[
            n_head * hop_size - lead :: hop_size
        ]
    window = np.hanning(window_size)
    block = max(2, 2**18 // window_size)

    def blocks():
        start = 0
        while start < n_frames:
            stop = min(start + block, n_frames)
            if stop + 1 == n_frames:
                stop = n_frames  # the last frame joins this block
            windowed = np.empty((stop - start, window_size))
            split = min(max(n_head, start), stop)
            np.multiply(head_frames[start:split], window, out=windowed[: split - start])
            body = body_frames[split - n_head : stop - n_head]
            np.multiply(body, window, out=windowed[split - start :])
            yield start, np.abs(np.fft.rfft(windowed, axis=1))
            start = stop

    return n_frames, blocks()
