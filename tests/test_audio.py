import io
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from chordweave.audio import (
    AudioBuffer,
    WavFormatError,
    decode_wav,
    encode_wav,
    read_wav,
    resample_linear,
    stft,
    to_mono,
    write_wav,
)
from chordweave.synth import sine


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
    spec = stft(to_mono(up), 4096, 1024)
    peak_bin = int(np.argmax(np.asarray(spec.magnitudes).mean(axis=0)))
    assert peak_bin == round(440.0 * 4096 / 44100)


def test_stft_frame_count():
    buf = AudioBuffer(np.zeros(10000), 8000)
    spec = stft(buf, 1024, 512)
    assert spec.magnitudes.shape == ((10000 - 1024) // 512 + 1, 513)
    assert spec.frame_rate_hz == pytest.approx(8000 / 512)


def test_stft_short_input_gives_no_frames():
    spec = stft(AudioBuffer(np.zeros(100), 8000), 1024, 512)
    assert spec.magnitudes.shape[0] == 0


def test_stft_requires_mono():
    with pytest.raises(ValueError):
        stft(AudioBuffer(np.zeros((2, 4096)), 8000), 1024, 512)


def test_stft_requires_power_of_two_window():
    with pytest.raises(ValueError):
        stft(AudioBuffer(np.zeros(4096), 8000), 1000, 512)


def test_stft_locates_tone():
    buf = sine(440.0, 1.0, 44100)
    spec = stft(buf, 4096, 1024)
    peak_bin = int(np.argmax(np.asarray(spec.magnitudes).mean(axis=0)))
    assert peak_bin == round(440.0 / (spec.sample_rate / spec.window_size))


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
