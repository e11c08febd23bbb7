import io
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from chordweave.analysis import ChromagramConfig, _bin_pitch_classes, compute_chromagram
from chordweave.audio import (
    _ENCODE_BLOCK,
    AudioBuffer,
    WavFormatError,
    _stft_blocks,
    decode_wav,
    encode_wav,
    read_wav,
    resample_linear,
    to_mono,
    write_wav,
)
from chordweave.beats import onset_envelope
from chordweave.synth import sine


def stft(buffer: AudioBuffer, window_size: int, hop_size: int) -> np.ndarray:
    """Hann-windowed magnitude STFT of a mono buffer, no padding, from _stft_blocks.

    Returns a read-only (frames, window_size // 2 + 1) float64 array.
    Frame count is floor((n - window) / hop) + 1; a clip shorter than one
    window yields zero frames.  Also used by test_timewarp and the
    acceptance tests to find a tone's peak bin.
    """
    if buffer.n_channels != 1:
        raise ValueError("stft expects a mono buffer; call to_mono first")
    n_frames, blocks = _stft_blocks(buffer.samples[0], window_size, hop_size)
    mags = np.empty((n_frames, window_size // 2 + 1))
    for first, block in blocks:
        mags[first : first + len(block)] = block
    mags.setflags(write=False)
    return mags


def test_buffer_shapes():
    mono = AudioBuffer(np.zeros(100), 8000)
    assert mono.n_channels == 1
    assert mono.n_samples == 100
    stereo = AudioBuffer(np.zeros((2, 50)), 8000)
    assert stereo.n_channels == 2
    assert stereo.duration_s == pytest.approx(50 / 8000)


def test_buffer_rejects_bad_rate():
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros(10), 0)


# A WAV header holds a whole number of samples per second, so any other
# rate must fail when the buffer is made, not when it is written.
@pytest.mark.parametrize("rate", [22050.5, 44100.0, True, -8000])
def test_rates_that_are_not_positive_whole_numbers_are_refused(rate):
    with pytest.raises(ValueError, match="sample_rate"):
        AudioBuffer(np.zeros(10), rate)
    with pytest.raises(ValueError, match="target_rate"):
        resample_linear(AudioBuffer(np.zeros(10), 8000), rate)


def test_numpy_integer_rates_are_taken():
    buffer = resample_linear(AudioBuffer(np.zeros(10), np.int64(8000)), np.int32(16000))
    assert buffer.n_samples == 20
    assert decode_wav(encode_wav(buffer)).sample_rate == 16000


def test_buffer_copies_caller_array():
    x = np.zeros((2, 100))
    buffer = AudioBuffer(x, 8000)
    x[:, :10] = 0.5
    assert not buffer.samples.any()
    view = np.linspace(0.0, 1.0, 100)
    view.setflags(write=False)
    mono = AudioBuffer(view, 8000)
    assert mono.samples.base is not view and not np.shares_memory(mono.samples, view)


def _assert_sealed(instance):
    """The buffer's samples, or the envelope's values, are float64, C-contiguous and read-only."""
    array = instance.samples if isinstance(instance, AudioBuffer) else instance.values
    assert array.dtype == np.float64 and array.flags.c_contiguous
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[...] = 1.0


def test_returned_buffers_are_read_only():
    rng = np.random.default_rng(2)
    stereo = AudioBuffer(rng.uniform(-1, 1, (2, 999)), 8000)
    _assert_sealed(stereo)
    _assert_sealed(AudioBuffer(np.zeros(5), 8000))
    _assert_sealed(to_mono(stereo))
    _assert_sealed(resample_linear(stereo, 11025))
    _assert_sealed(resample_linear(AudioBuffer(np.zeros((2, 0)), 8000), 11025))
    for buffer in (stereo, to_mono(stereo)):
        for encoding in ("pcm16", "float32"):
            _assert_sealed(decode_wav(encode_wav(buffer, encoding)))
    # The onset envelope of a buffer keeps the flux array it builds.
    _assert_sealed(onset_envelope(to_mono(stereo), window_size=256, hop_size=128))


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize(
    "encoding, dtype, scale", [("pcm16", "<i2", 32768.0), ("float32", "<f4", 1.0)]
)
def test_decode_matches_plain_conversion(channels, encoding, dtype, scale):
    buffer = AudioBuffer(np.random.default_rng(channels).uniform(-1, 1, (channels, 777)), 8000)
    data = encode_wav(buffer, encoding)
    raw = np.frombuffer(data[44:], dtype=dtype).astype(np.float64)
    expected = (raw / scale if scale != 1.0 else raw).reshape(-1, channels).T
    assert np.array_equal(decode_wav(data).samples, expected)


def test_to_mono_averages():
    stereo = AudioBuffer(np.stack([np.ones(10), -np.ones(10)]), 8000)
    assert not np.asarray(to_mono(stereo).samples).any()
    mono = AudioBuffer(np.ones(10), 8000)
    assert to_mono(mono) is mono


def test_pcm16_round_trip_quantizes():
    x = np.linspace(-0.9, 0.9, 1000)
    buf = AudioBuffer(x, 22050)
    out = decode_wav(encode_wav(buf, "pcm16"))
    assert out.sample_rate == 22050
    assert np.abs(np.asarray(out.samples) - x).max() <= 1.0 / 32768


def test_float32_round_trip_exact():
    x = np.linspace(-1.0, 1.0, 777).astype(np.float32).astype(np.float64)
    buf = AudioBuffer(x, 44100)
    out = decode_wav(encode_wav(buf, "float32"))
    assert np.array_equal(np.asarray(out.samples).ravel(), x)


def test_stereo_interleaving_preserved():
    left = np.linspace(0, 0.5, 64)
    right = np.linspace(0, -0.5, 64)
    buf = AudioBuffer(np.stack([left, right]), 8000)
    out = decode_wav(encode_wav(buf, "float32"))
    assert out.n_channels == 2
    assert np.allclose(np.asarray(out.samples)[0], left, atol=1e-7)
    assert np.allclose(np.asarray(out.samples)[1], right, atol=1e-7)


def test_pcm16_clips_out_of_range():
    buf = AudioBuffer(np.array([1.5, -1.5]), 8000)
    out = decode_wav(encode_wav(buf, "pcm16"))
    samples = np.asarray(out.samples).ravel()
    assert samples[0] == pytest.approx(32767 / 32768)
    assert samples[1] == pytest.approx(-1.0)


def test_unknown_encoding_rejected():
    with pytest.raises(ValueError):
        encode_wav(AudioBuffer(np.zeros(4), 8000), "pcm24")


def test_decode_rejects_garbage():
    with pytest.raises(WavFormatError):
        decode_wav(b"not a wav file at all")
    with pytest.raises(WavFormatError):
        decode_wav(b"RIFF\x00\x00\x00\x00JUNK")


def test_decode_rejects_truncated_data():
    data = encode_wav(AudioBuffer(np.zeros(1000), 8000))
    with pytest.raises(WavFormatError):
        decode_wav(data[: len(data) // 2])


def test_decode_rejects_zero_sample_rate():
    data = encode_wav(AudioBuffer(np.zeros(100), 8000))
    # The fmt chunk's sample-rate field sits at bytes 24-27.
    with pytest.raises(WavFormatError):
        decode_wav(data[:24] + struct.pack("<I", 0) + data[28:])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_rejects_non_finite_float32(bad):
    samples = np.zeros(100)
    samples[37] = bad
    with pytest.raises(WavFormatError):
        decode_wav(encode_wav(AudioBuffer(samples, 8000), "float32"))


def test_file_round_trip(tmp_path):
    buf = sine(220.0, 0.1, 8000)
    path = tmp_path / "tone.wav"
    write_wav(buf, path, "float32")
    again = read_wav(path)
    assert np.allclose(np.asarray(again.samples), np.asarray(buf.samples), atol=1e-7)


def test_file_like_round_trip():
    buf = sine(220.0, 0.05, 8000)
    handle = io.BytesIO()
    write_wav(buf, handle)
    handle.seek(0)
    again = read_wav(handle)
    assert again.n_samples == buf.n_samples


def test_resample_identity():
    buf = sine(220.0, 0.1, 8000)
    assert resample_linear(buf, 8000) is buf


def test_resample_length():
    buf = AudioBuffer(np.zeros(1000), 8000)
    assert resample_linear(buf, 16000).n_samples == 2000
    assert resample_linear(buf, 11025).n_samples == round(1000 * 11025 / 8000)


def test_resample_preserves_tone():
    buf = sine(440.0, 0.5, 22050)
    up = resample_linear(buf, 44100)
    mags = stft(to_mono(up), 4096, 1024)
    peak_bin = int(np.argmax(mags.mean(axis=0)))
    assert peak_bin == round(440.0 * 4096 / 44100)


def test_stft_frame_count():
    buf = AudioBuffer(np.zeros(10000), 8000)
    mags = stft(buf, 1024, 512)
    assert mags.shape == ((10000 - 1024) // 512 + 1, 513)
    assert mags.dtype == np.float64
    with pytest.raises(ValueError):
        mags[0, 0] = 1.0


def test_stft_short_input_gives_no_frames():
    assert stft(AudioBuffer(np.zeros(100), 8000), 1024, 512).shape == (0, 513)


def test_stft_requires_mono():
    with pytest.raises(ValueError):
        stft(AudioBuffer(np.zeros((2, 4096)), 8000), 1024, 512)


def test_stft_requires_power_of_two_window():
    with pytest.raises(ValueError):
        stft(AudioBuffer(np.zeros(4096), 8000), 1000, 512)


def test_stft_locates_tone():
    buf = sine(440.0, 1.0, 44100)
    peak_bin = int(np.argmax(stft(buf, 4096, 1024).mean(axis=0)))
    assert peak_bin == round(440.0 * 4096 / 44100)


@given(
    st.lists(st.floats(-1.0, 1.0, width=32), min_size=1, max_size=400),
    st.sampled_from([8000, 22050, 44100]),
)
def test_wav_round_trip_property(samples, rate):
    buf = AudioBuffer(np.array(samples, dtype=np.float64), rate)
    pcm = decode_wav(encode_wav(buf, "pcm16"))
    assert pcm.sample_rate == rate
    assert pcm.n_samples == buf.n_samples
    assert np.abs(np.asarray(pcm.samples) - np.asarray(buf.samples)).max() <= 1.0 / 32768
    f32 = decode_wav(encode_wav(buf, "float32"))
    assert np.abs(np.asarray(f32.samples) - np.asarray(buf.samples)).max() <= 1e-7


# Header fields of encode_wav's output: (byte offset, struct code).
_WAV_FIELDS = {
    "riff_size": (4, "<I"),
    "fmt_size": (16, "<I"),
    "codec": (20, "<H"),
    "channels": (22, "<H"),
    "sample_rate": (24, "<I"),
    "byte_rate": (28, "<I"),
    "block_align": (32, "<H"),
    "bits": (34, "<H"),
    "data_size": (40, "<I"),
}


@st.composite
def _mutated_wav(draw):
    """A valid PCM16 or float32 WAV with some header fields overwritten."""
    channels = draw(st.integers(1, 3))
    frames = draw(st.integers(0, 40))
    values = draw(
        st.lists(st.floats(-1.0, 1.0, width=32), min_size=channels * frames,
                 max_size=channels * frames)
    )
    encoding = draw(st.sampled_from(["pcm16", "float32"]))
    samples = np.array(values, dtype=np.float64).reshape(channels, frames)
    data = bytearray(encode_wav(AudioBuffer(samples, 8000), encoding))
    for name in draw(st.lists(st.sampled_from(sorted(_WAV_FIELDS)), min_size=1, max_size=4)):
        offset, code = _WAV_FIELDS[name]
        (old,) = struct.unpack_from(code, data, offset)
        top = 2 ** (8 * struct.calcsize(code)) - 1
        new = draw(
            st.one_of(
                st.integers(0, top),
                st.sampled_from([0, 1, 2, 3, 8, 16, 24, 32, 64, top]),
                st.integers(-3, 3).map(lambda d: (old + d) % (top + 1)),
            )
        )
        struct.pack_into(code, data, offset, new)
    cut = draw(st.one_of(st.none(), st.integers(0, len(data))))
    return bytes(data if cut is None else data[:cut])


def _with_data_size(data: bytes, size: int) -> bytes:
    return data[:40] + struct.pack("<I", size) + data[44:]


_PCM16_WAV = encode_wav(AudioBuffer(np.zeros(10), 8000), "pcm16")
_FLOAT32_WAV = encode_wav(AudioBuffer(np.zeros(10), 8000), "float32")


@settings(max_examples=300)
@given(_mutated_wav())
@example(_with_data_size(_PCM16_WAV, 19))
@example(_with_data_size(_FLOAT32_WAV, 38))
def test_decode_mutated_headers_decode_finite_or_raise_wav_error(data):
    try:
        buf = decode_wav(data)
    except WavFormatError:
        return
    assert np.isfinite(np.asarray(buf.samples)).all()


# Reference for the streaming framer: the index-gather STFT it replaced,
# and the onset flux and chroma fold computed from its full matrix.


def _gather_stft(x, window_size, hop_size):
    n_bins = window_size // 2 + 1
    if len(x) < window_size:
        return np.zeros((0, n_bins))
    n_frames = (len(x) - window_size) // hop_size + 1
    window = np.hanning(window_size)
    mags = np.empty((n_frames, n_bins))
    block = max(1, 2**18 // window_size)
    offsets = np.arange(window_size)
    for start in range(0, n_frames, block):
        stop = min(start + block, n_frames)
        idx = np.arange(start, stop)[:, None] * hop_size + offsets[None, :]
        mags[start:stop] = np.abs(np.fft.rfft(x[idx] * window, axis=1))
    return mags


def _gather_onset_flux(x, window_size, hop_size):
    mags = _gather_stft(np.concatenate([np.zeros(window_size // 2), x]), window_size, hop_size)
    flux = np.zeros(len(mags))
    if len(mags) > 1:
        flux[1:] = np.clip(np.diff(mags, axis=0), 0.0, None).sum(axis=1)
    return flux


def _gather_chromagram(x, rate, config):
    mags = _gather_stft(x, config.window_size, config.hop_size)
    pcs, mask = _bin_pitch_classes(rate, config)
    values = np.zeros((len(mags), 12))
    for pc in range(12):
        cols = mask & (pcs == pc)
        if np.any(cols):
            values[:, pc] = mags[:, cols].sum(axis=1)
    if config.normalization == "max":
        peaks = values.max(axis=1, keepdims=True)
        np.divide(values, peaks, out=values, where=peaks > 0)
    return values


# (window, hop) pairs: overlapping, hop = window, hop > window, the onset
# and chroma framings, and a window too long for 2**18-sample blocks.
_FRAMINGS = [(256, 64), (512, 512), (128, 200), (1024, 512), (4096, 2048), (2**18, 2**17)]


@st.composite
def _framed_signal(draw, framings=_FRAMINGS):
    """A noise signal whose length sits at or near a window or block edge."""
    window, hop = draw(st.sampled_from(framings))
    block = max(1, 2**18 // window)
    frames = draw(
        st.sampled_from([0, 1, 2, 3, block - 1, block, block + 1, 2 * block, 2 * block + 1])
    )
    n = max(0, window + (frames - 1) * hop + draw(st.integers(-2, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal(n), window, hop


@given(_framed_signal())
def test_stft_matches_gather_reference(case):
    x, window, hop = case
    mags = stft(AudioBuffer(x, 8000), window, hop)
    assert np.array_equal(mags, _gather_stft(x, window, hop))


@given(_framed_signal())
def test_onset_envelope_matches_gather_reference(case):
    x, window, hop = case
    if len(x) < window:
        return
    env = onset_envelope(AudioBuffer(x, 8000), window, hop)
    assert np.array_equal(env.values, _gather_onset_flux(x, window, hop))


def _noise_frames(window, hop, frames):
    """A noise signal of exactly `frames` STFT frames."""
    return np.random.default_rng(frames).standard_normal(window + (frames - 1) * hop), window, hop


@given(
    _framed_signal([(ChromagramConfig.window_size, ChromagramConfig.hop_size)]),
    st.sampled_from(["max", "none"]),
)
# A last frame past a whole block: a one-row block would fold in another order.
@example(_noise_frames(4096, 2048, 65), "none")
def test_chromagram_matches_gather_reference(case, normalization):
    x, _, _ = case
    config = ChromagramConfig(normalization=normalization)
    mat = compute_chromagram(AudioBuffer(x, 44100), config)
    assert np.array_equal(mat.values, _gather_chromagram(x, 44100, config))


# A last frame past a whole block, and blocks capped at one frame by
# their 2**18-sample size: each joins its neighbour, so no block is a
# single row (see _stft_blocks).
@pytest.mark.parametrize("window, hop, frames", [(4096, 2048, 65), (2**18, 2**17, 3)])
def test_stft_blocks_hold_no_single_frame(window, hop, frames):
    x, _, _ = _noise_frames(window, hop, frames)
    n_frames, blocks = _stft_blocks(x, window, hop)
    blocks = list(blocks)
    assert n_frames == frames
    assert min(len(mags) for _, mags in blocks) >= 2
    mags = np.concatenate([mags for _, mags in blocks])
    assert np.array_equal(mags, _gather_stft(x, window, hop))


def _padded_stft(x, window, hop, lead):
    """_stft_blocks' frames of x after `lead` zeros, from an actually padded copy."""
    return _gather_stft(np.concatenate([np.zeros(lead), x]), window, hop)


def _stft_blocks_matrix(x, window, hop, lead):
    n_frames, blocks = _stft_blocks(x, window, hop, lead)
    mags = np.zeros((n_frames, window // 2 + 1))
    for first, block in blocks:
        mags[first : first + len(block)] = block
    return mags


@pytest.mark.parametrize("window, hop", [(256, 64), (512, 512), (128, 200), (64, 300)])
@pytest.mark.parametrize("lead", [0, 1, 63, 64, 65, 301, 1000])
def test_stft_blocks_frame_a_virtual_lead(window, hop, lead):
    # lead + n lands just before, on and just after the end of a frame;
    # leads span several hops, so some frames lie wholly in the zeros.
    for frames in (0, 1, 2, 5):
        for delta in (-1, 0, 1):
            n = window + (frames - 1) * hop + delta - lead
            if n < 0:
                continue
            x = np.random.default_rng(n).standard_normal(n)
            expected = _padded_stft(x, window, hop, lead)
            assert np.array_equal(_stft_blocks_matrix(x, window, hop, lead), expected)


def _padded_onset_flux(x, window_size, hop_size):
    """onset_envelope as it was computed on a padded copy of the signal."""
    padded = np.concatenate([np.zeros(window_size // 2), x])
    mags = _gather_stft(padded, window_size, hop_size)
    flux = np.zeros(len(mags))
    if len(mags) > 1:
        flux[1:] = np.clip(np.diff(mags, axis=0), 0.0, None).sum(axis=1)
    return flux


# (window, hop): the onset default (256-frame blocks), overlapping, one
# frame per hop, and hops longer than a window and than the half-window lead.
@pytest.mark.parametrize("window, hop", [(1024, 512), (256, 64), (512, 512), (256, 384)])
@pytest.mark.parametrize("edge", ["window", "hop", "block"])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_onset_envelope_matches_padded_reference(window, hop, edge, delta):
    lead, block = window // 2, max(2, 2**18 // window)
    frames = {"window": 1, "hop": 3, "block": block}[edge]
    for whole in (frames, frames + 1, 2 * frames + 1):
        # lead + n sits on the end of frame `whole` - 1, or a sample either side.
        n = max(window, window + (whole - 1) * hop + delta - lead)
        x = np.random.default_rng(n).standard_normal(n)
        env = onset_envelope(AudioBuffer(x, 8000), window, hop)
        assert np.array_equal(env.values, _padded_onset_flux(x, window, hop))


def _reference_encode_wav(buffer, encoding):
    """encode_wav as one formula over the whole interleaved array."""
    interleaved = buffer.samples.T.reshape(-1)
    if encoding == "pcm16":
        scaled = np.round(interleaved * 32768.0)
        payload = np.clip(scaled, -32768, 32767).astype("<i2").tobytes()
        codec, bits = 1, 16
    else:
        payload = interleaved.astype("<f4").tobytes()
        codec, bits = 3, 32
    block_align = buffer.n_channels * bits // 8
    rate = buffer.sample_rate
    fmt_body = struct.pack("<HHIIHH", codec, buffer.n_channels, rate, rate * block_align, block_align, bits)
    pad = b"\x00" if len(payload) & 1 else b""
    riff_size = 4 + (8 + len(fmt_body)) + (8 + len(payload) + len(pad))
    return b"".join(
        [
            b"RIFF", struct.pack("<I", riff_size), b"WAVE",
            b"fmt ", struct.pack("<I", len(fmt_body)), fmt_body,
            b"data", struct.pack("<I", len(payload)), payload, pad,
        ]
    )


def _encoder_signal(channels, n):
    """Noise past +/-1, with the full scale, clipping edges and exact half-LSB ties."""
    rng = np.random.default_rng([channels, n])
    x = rng.uniform(-1.5, 1.5, (channels, n))
    lsb = 1.0 / 32768
    specials = [1.0, -1.0, 1.0 - lsb / 2, -1.0 - lsb / 2, -1.0 - lsb, 0.0, -0.0]
    specials += [(k + 0.5) * lsb for k in range(-6, 6)]  # round half to even
    flat = x.reshape(-1)
    at = np.arange(0, flat.size, 97)
    flat[at] = np.resize(specials, at.size)
    return x


@pytest.mark.parametrize(
    "n", [0, 1, _ENCODE_BLOCK - 1, _ENCODE_BLOCK, _ENCODE_BLOCK + 1, 3 * _ENCODE_BLOCK + 7]
)
@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
def test_encode_and_write_match_whole_array_formula(tmp_path, n, channels, encoding):
    buffer = AudioBuffer(_encoder_signal(channels, n), 22050)
    expected = _reference_encode_wav(buffer, encoding)
    data = encode_wav(buffer, encoding)
    assert type(data) is bytes and data == expected
    write_wav(buffer, tmp_path / "out.wav", encoding)
    assert (tmp_path / "out.wav").read_bytes() == expected
    sink = io.BytesIO()
    write_wav(buffer, sink, encoding)
    assert sink.getvalue() == expected


def test_encode_rounds_half_lsb_ties_to_even():
    lsb = 1.0 / 32768
    x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, 32767.5, -32768.5]) * lsb
    raw = np.frombuffer(encode_wav(AudioBuffer(x, 8000), "pcm16")[44:], "<i2")
    assert raw.tolist() == [0, 2, 2, 0, -2, 32767, -32768]


def _chunk(chunk_id, body):
    return chunk_id + struct.pack("<I", len(body)) + body + (b"\x00" if len(body) & 1 else b"")


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("encoding, dtype", [("pcm16", "<i2"), ("float32", "<f4")])
def test_decode_walks_odd_chunks_around_data(channels, encoding, dtype):
    buffer = AudioBuffer(np.random.default_rng(channels).uniform(-1, 1, (channels, 1001)), 16000)
    plain = encode_wav(buffer, encoding)
    fmt_chunk, data_chunk = plain[12:36], plain[36:]
    payload = data_chunk[8:]
    body = (
        _chunk(b"LIST", b"abc")
        + fmt_chunk
        + _chunk(b"junk", b"12345")
        + data_chunk
        + _chunk(b"smpl", b"1234567")
    )
    data = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    # The conversion as it was: a float64 copy of the sliced payload, then scaled.
    raw = np.frombuffer(data[data.index(payload) : data.index(payload) + len(payload)], dtype)
    expected = np.ascontiguousarray(raw.reshape(-1, channels).T, dtype=np.float64)
    if encoding == "pcm16":
        expected /= 32768.0
    for source in (data, bytearray(data), memoryview(data)):
        out = decode_wav(source)
        assert out.sample_rate == 16000 and np.array_equal(out.samples, expected)
    assert np.array_equal(read_wav(io.BytesIO(data)).samples, expected)
