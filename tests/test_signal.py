import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from speechq import signal as sig

# scipy.io.wavfile is the oracle for the package's own RIFF codec.

GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def write_pcm16(path, samples, rate=16000):
    wavfile.write(path, rate, np.asarray(samples, dtype=np.int16))


def riff(*chunks):
    """A RIFF/WAVE file from (chunk id, payload) pairs, odd payloads padded."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(p)) + p + b"\x00" * (len(p) % 2) for cid, p in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_chunk(tag, channels, rate, bits, extensible=False):
    """A ``fmt `` chunk; ``extensible`` names ``tag`` by a WAVE_FORMAT_EXTENSIBLE subformat GUID."""
    align = channels * bits // 8
    payload = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate, rate * align, align, bits)
    if extensible:
        payload += struct.pack("<HHI", 22, bits, 0) + struct.pack("<I", tag) + GUID_TAIL
    return b"fmt ", payload


def scipy_load(path):
    """What load_wav returned when it decoded through scipy: (rate, samples), or None for a rejected file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rate, data = wavfile.read(path)
    except Exception:
        return None
    if data.ndim == 2:
        data = data[:, 0]
    if data.size == 0 or data.dtype not in (np.int16, np.float32) or rate == 0:
        return None
    samples = data.astype(np.float64) / (32768.0 if data.dtype == np.int16 else 1.0)
    if not np.all(np.isfinite(samples)):
        return None
    return rate, samples


def assert_decodes_like_scipy(path):
    expected = scipy_load(path)
    assert expected is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = sig.load_wav(path)
    assert w.sample_rate == expected[0]
    np.testing.assert_array_equal(w.samples, expected[1])


@pytest.fixture
def cfg():
    return sig.StftConfig.for_sample_rate(16000)


class TestLoadWav:
    def test_silence(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_pcm16(path, np.zeros(16000))
        w = sig.load_wav(path)
        assert w.sample_rate == 16000
        assert len(w) == 16000
        assert np.all(w.samples == 0.0)

    def test_full_scale_pcm16(self, tmp_path):
        path = tmp_path / "fs.wav"
        write_pcm16(path, np.array([-32768, 32767, 0]))
        w = sig.load_wav(path)
        assert w.samples[0] == -1.0
        assert abs(w.samples[1] - 32767 / 32768) < 1e-12

    def test_float32_passthrough(self, tmp_path):
        path = tmp_path / "f32.wav"
        wavfile.write(path, 8000, np.array([0.25, -0.5], dtype=np.float32))
        w = sig.load_wav(path)
        assert w.sample_rate == 8000
        np.testing.assert_allclose(w.samples, [0.25, -0.5], atol=1e-7)

    def test_stereo_keeps_left_with_warning(self, tmp_path):
        path = tmp_path / "stereo.wav"
        stereo = np.stack([np.full(100, 1000), np.full(100, -1000)], axis=1).astype(np.int16)
        wavfile.write(path, 16000, stereo)
        with pytest.warns(UserWarning, match="channels"):
            w = sig.load_wav(path)
        assert np.all(w.samples > 0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            sig.load_wav(tmp_path / "nope.wav")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not a RIFF file at all, not even close")
        with pytest.raises(sig.WavFormatError, match="malformed"):
            sig.load_wav(path)

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "i32.wav"
        wavfile.write(path, 16000, np.zeros(100, dtype=np.int32))
        with pytest.raises(sig.WavFormatError, match="unsupported"):
            sig.load_wav(path)

    def test_save_roundtrip_float32(self, tmp_path):
        path = tmp_path / "rt.wav"
        w = sig.Waveform(np.linspace(-0.9, 0.9, 50), 16000)
        sig.save_wav(path, w)
        back = sig.load_wav(path)
        np.testing.assert_allclose(back.samples, w.samples, atol=1e-7)


class TestWavCodecAgainstScipy:
    @pytest.mark.parametrize("n, rate", [(1, 8000), (7, 16000), (1600, 16000), (4001, 44100)])
    @pytest.mark.parametrize("dtype", ["float32"])
    def test_save_writes_scipy_bytes(self, tmp_path, dtype, n, rate):
        w = sig.Waveform(np.random.default_rng(n).integers(-32768, 32768, n) / 32768.0, rate)
        sig.save_wav(tmp_path / "ours.wav", w)
        wavfile.write(tmp_path / "scipy.wav", rate, w.samples.astype(dtype))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    def test_load_matches_scipy(self, tmp_path, dtype, channels):
        rng = np.random.default_rng(channels)
        data = rng.integers(-32768, 32768, (300, channels)) if dtype == np.int16 else rng.uniform(-1, 1, (300, channels))
        data = data.astype(dtype)
        path = tmp_path / "x.wav"
        wavfile.write(path, 22050, data[:, 0] if channels == 1 else data)
        assert_decodes_like_scipy(path)

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("tag, dtype", [(1, "<i2"), (3, "<f4")])
    def test_extensible_matches_scipy(self, tmp_path, tag, dtype, channels):
        values = np.arange(200 * channels) - 100
        samples = (values if tag == 1 else values / 128).astype(dtype)
        path = tmp_path / "ext.wav"
        bits = 8 * np.dtype(dtype).itemsize
        path.write_bytes(riff(fmt_chunk(tag, channels, 16000, bits, extensible=True), (b"data", samples.tobytes())))
        assert_decodes_like_scipy(path)

    def test_odd_list_chunks_are_skipped_like_scipy(self, tmp_path):
        samples = np.arange(-50, 50, dtype="<i2")
        path = tmp_path / "list.wav"
        path.write_bytes(
            riff((b"LIST", b"INFOodd"), fmt_chunk(1, 1, 16000, 16), (b"JUNK", b"x"), (b"data", samples.tobytes()))
        )
        assert_decodes_like_scipy(path)
        np.testing.assert_array_equal(sig.load_wav(path).samples, samples / 32768.0)

    @pytest.mark.parametrize("cut", [1, 2, 3, 199, 398])
    def test_truncated_data_chunk_matches_scipy(self, tmp_path, cut):
        full = tmp_path / "full.wav"
        write_pcm16(full, np.arange(-100, 100))
        path = tmp_path / "cut.wav"
        path.write_bytes(full.read_bytes()[:-cut])
        assert_decodes_like_scipy(path)

    @pytest.mark.parametrize("tail", [b"", b"LI"], ids=["eof", "clipped-chunk-id"])
    def test_riff_size_past_the_end_is_read_like_scipy(self, tmp_path, tail):
        # Streaming writers leave the RIFF size at its maximum.
        blob = riff(fmt_chunk(1, 1, 16000, 16), (b"data", np.arange(50, dtype="<i2").tobytes())) + tail
        path = tmp_path / "stream.wav"
        path.write_bytes(blob[:4] + b"\xff\xff\xff\xff" + blob[8:])
        assert_decodes_like_scipy(path)

    def test_chunks_past_the_riff_size_are_ignored(self, tmp_path):
        first = np.arange(50, dtype="<i2")
        path = tmp_path / "trailing.wav"
        path.write_bytes(riff(fmt_chunk(1, 1, 16000, 16), (b"data", first.tobytes())) + b"data\x04\x00\x00\x00\x01\x00\x02\x00")
        assert_decodes_like_scipy(path)
        np.testing.assert_array_equal(sig.load_wav(path).samples, first / 32768.0)

    def test_truncated_stereo_keeps_whole_frames(self, tmp_path):
        full = tmp_path / "full.wav"
        wavfile.write(full, 16000, np.arange(400, dtype=np.float32).reshape(200, 2))
        whole, partial = tmp_path / "whole.wav", tmp_path / "partial.wav"
        whole.write_bytes(full.read_bytes()[:-80])  # drops 10 frames
        partial.write_bytes(full.read_bytes()[:-84])  # and half of one more
        assert_decodes_like_scipy(whole)
        with pytest.warns(UserWarning, match="channels"):
            w = sig.load_wav(partial)
        np.testing.assert_array_equal(w.samples, np.arange(0, 378, 2))

    @pytest.mark.parametrize("magic", [b"RIFX", b"RF64"])
    def test_rifx_and_rf64_are_unsupported(self, tmp_path, magic):
        full = tmp_path / "full.wav"
        write_pcm16(full, np.zeros(100))
        path = tmp_path / "other.wav"
        path.write_bytes(magic + full.read_bytes()[4:])
        with pytest.raises(sig.WavFormatError, match=f"unsupported {magic.decode()} container"):
            sig.load_wav(path)

    @pytest.mark.parametrize(
        "chunks, expected",
        [
            ([fmt_chunk(6, 1, 8000, 8), (b"data", b"\x00" * 8)], "unknown wave format tag 0x0006"),
            ([(b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 1, 2, 16)), (b"data", b"\x00" * 8)], "nAvgBytesPerSec"),
            ([(b"data", b"\x00" * 8), fmt_chunk(1, 1, 16000, 16)], "data chunk before the fmt chunk"),
            ([fmt_chunk(1, 1, 16000, 16)], "no data chunk"),
            ([(b"fmt ", b"\x01\x00" * 6), (b"data", b"\x00" * 8)], "fmt chunk shorter than 16 bytes"),
            ([fmt_chunk(1, 0, 16000, 16), (b"data", b"\x00" * 8)], "cannot hold 0 channels"),
        ],
        ids=["a-law", "byte-rate", "data-first", "no-data", "short-fmt", "no-channels"],
    )
    def test_malformed_headers(self, tmp_path, chunks, expected):
        path = tmp_path / "bad.wav"
        path.write_bytes(riff(*chunks))
        assert scipy_load(path) is None
        with pytest.raises(sig.WavFormatError, match="malformed") as info:
            sig.load_wav(path)
        assert expected in str(info.value)

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            (fmt_chunk(1, 1, 16000, 8), "8-bit PCM in 1-byte"),
            ((b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 8)), "8-bit PCM in 2-byte"),
            (fmt_chunk(1, 1, 16000, 24), "24-bit PCM in 3-byte"),
            (fmt_chunk(1, 1, 16000, 32), "32-bit PCM in 4-byte"),
            (fmt_chunk(3, 1, 16000, 64), "64-bit float in 8-byte"),
        ],
    )
    def test_other_encodings_are_unsupported(self, tmp_path, fmt, expected):
        path = tmp_path / "enc.wav"
        path.write_bytes(riff(fmt, (b"data", b"\x00" * 24)))
        assert scipy_load(path) is None
        with pytest.raises(sig.WavFormatError, match=f"unsupported sample encoding {expected}"):
            sig.load_wav(path)

    @pytest.mark.parametrize(
        "chunks, expected",
        [
            ([fmt_chunk(3, 1, 16000, 32), (b"data", np.array([0.5, np.nan], "<f4").tobytes())], "non-finite"),
            ([fmt_chunk(3, 1, 16000, 32), (b"data", np.array([0.5, -np.inf], "<f4").tobytes())], "non-finite"),
            ([(b"fmt ", struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16)), (b"data", b"\x00" * 8)], "sample rate"),
        ],
        ids=["nan", "inf", "zero-rate"],
    )
    def test_samples_that_are_no_waveform_name_the_file(self, tmp_path, chunks, expected):
        path = tmp_path / "odd.wav"
        path.write_bytes(riff(*chunks))
        with pytest.raises(sig.WavFormatError, match=expected) as info:
            sig.load_wav(path)
        assert str(info.value).startswith(f"{path}: ")


def _fuzz_bases():
    rng = np.random.default_rng(0)
    pcm = rng.integers(-3000, 3000, 40).astype("<i2")
    stereo = rng.uniform(-0.5, 0.5, (20, 2)).astype("<f4")
    return [
        riff(fmt_chunk(1, 1, 16000, 16), (b"data", pcm.tobytes())),
        riff(fmt_chunk(3, 2, 8000, 32), (b"fact", struct.pack("<I", 20)), (b"data", stereo.tobytes())),
        riff(fmt_chunk(1, 1, 16000, 16, extensible=True), (b"LIST", b"INFOabc"), (b"data", pcm.tobytes())),
        riff(fmt_chunk(3, 1, 16000, 32, extensible=True), (b"data", stereo.tobytes())),
    ]


FUZZ_BASES = _fuzz_bases()


@st.composite
def mutated_wavs(draw):
    """A base file with a few header bytes overwritten and possibly truncated."""
    blob = bytearray(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(0, 4))):
        blob[draw(st.integers(0, 79))] = draw(st.integers(0, 255))
    return bytes(blob[: draw(st.integers(0, len(blob)))]) if draw(st.booleans()) else bytes(blob)


class TestWavFuzz:
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(blob=mutated_wavs())
    def test_load_returns_a_waveform_or_raises_wav_format_error(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "fuzz.wav"
        path.write_bytes(blob)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                w = sig.load_wav(path)
        except sig.WavFormatError:
            return
        assert isinstance(w, sig.Waveform)
        expected = scipy_load(path)
        if expected is not None:  # both decoded: the same samples
            assert w.sample_rate == expected[0]
            np.testing.assert_array_equal(w.samples, expected[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reader = sig.WavReader(path)
        assert (reader.sample_rate, len(reader)) == (w.sample_rate, len(w))
        np.testing.assert_array_equal(reader.read(0, len(reader)), w.samples)


def _reader_files():
    """(name, file bytes) for every layout the reader must decode like load_wav."""
    rng = np.random.default_rng(3)
    pcm = rng.integers(-32768, 32768, 501).astype("<i2")
    flt = rng.uniform(-1, 1, 501).astype("<f4")
    stereo_pcm = rng.integers(-32768, 32768, (301, 2)).astype("<i2")
    stereo_flt = rng.uniform(-1, 1, (301, 2)).astype("<f4")
    return [
        ("pcm16", riff(fmt_chunk(1, 1, 16000, 16), (b"data", pcm.tobytes()))),
        ("float32", riff(fmt_chunk(3, 1, 16000, 32), (b"fact", struct.pack("<I", 501)), (b"data", flt.tobytes()))),
        ("extensible-pcm16", riff(fmt_chunk(1, 1, 16000, 16, extensible=True), (b"data", pcm.tobytes()))),
        ("extensible-float32", riff(fmt_chunk(3, 1, 16000, 32, extensible=True), (b"data", flt.tobytes()))),
        ("stereo-pcm16", riff(fmt_chunk(1, 2, 16000, 16), (b"data", stereo_pcm.tobytes()))),
        ("stereo-float32", riff(fmt_chunk(3, 2, 16000, 32, extensible=True), (b"data", stereo_flt.tobytes()))),
        (
            "odd-list-junk",
            riff((b"LIST", b"INFOodd"), fmt_chunk(1, 1, 16000, 16), (b"JUNK", b"x"), (b"data", pcm.tobytes())),
        ),
    ]


READER_FILES = _reader_files()


class TestWavReader:
    @pytest.fixture(params=READER_FILES, ids=[name for name, _ in READER_FILES])
    def path(self, request, tmp_path):
        path = tmp_path / f"{request.param[0]}.wav"
        path.write_bytes(request.param[1])
        return path

    @staticmethod
    def load_both(path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return sig.load_wav(path), sig.WavReader(path)

    def test_ranged_reads_equal_load_wav(self, path):
        wave, reader = self.load_both(path)
        assert (reader.sample_rate, len(reader)) == (wave.sample_rate, len(wave))
        rng = np.random.default_rng(len(wave))
        n = len(wave)
        ranges = [(0, 1), (0, 37), (n - 1, 1), (n - 37, 37), (0, n), (5, 0)]
        ranges += [(int(start), int(rng.integers(0, n - start + 1))) for start in rng.integers(0, n, 20)]
        for start, count in ranges:
            got = reader.read(start, count)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, wave.samples[start : start + count])
            np.testing.assert_array_equal(got, wave.read(start, count))
        np.testing.assert_array_equal(reader.samples, wave.samples)

    def test_multi_channel_warns_once_at_load(self, tmp_path):
        path = tmp_path / "stereo.wav"
        path.write_bytes(dict(READER_FILES)["stereo-pcm16"])
        with pytest.warns(UserWarning, match="2 channels, keeping the first"):
            reader = sig.WavReader(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reader.read(3, 10)
            reader.samples

    def test_range_outside_the_frames(self, path):
        _wave, reader = self.load_both(path)
        for start, count in [(-1, 2), (0, len(reader) + 1), (len(reader), 1), (2, -1)]:
            with pytest.raises(ValueError, match="outside"):
                reader.read(start, count)

    @pytest.mark.parametrize("edit", ["truncate", "extend", "delete"])
    def test_changed_file_names_itself(self, tmp_path, edit):
        path = tmp_path / "x.wav"
        blob = dict(READER_FILES)["float32"]
        path.write_bytes(blob)
        reader = sig.WavReader(path)
        if edit == "delete":
            path.unlink()
        else:
            path.write_bytes(blob[:-4] if edit == "truncate" else blob + b"\x00" * 4)
        with pytest.raises(sig.WavFormatError) as info:
            reader.read(0, 10)
        assert str(info.value).startswith(f"{path}: ")

    def test_non_finite_samples_after_load(self, tmp_path):
        flt = np.linspace(-0.5, 0.5, 100).astype("<f4")
        path = tmp_path / "x.wav"
        path.write_bytes(riff(fmt_chunk(3, 1, 16000, 32), (b"data", flt.tobytes())))
        reader = sig.WavReader(path)
        flt[60] = np.nan
        path.write_bytes(riff(fmt_chunk(3, 1, 16000, 32), (b"data", flt.tobytes())))
        np.testing.assert_array_equal(reader.read(0, 60), np.linspace(-0.5, 0.5, 100).astype("<f4")[:60])
        with pytest.raises(sig.WavFormatError, match="non-finite samples in frames 50:70"):
            reader.read(50, 20)

    def test_rejects_what_load_wav_rejects(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(riff(fmt_chunk(3, 1, 16000, 32), (b"data", np.array([0.5, np.nan], "<f4").tobytes())))
        with pytest.raises(sig.WavFormatError, match="non-finite"):
            sig.WavReader(path)
        with pytest.raises(FileNotFoundError):
            sig.WavReader(tmp_path / "nope.wav")


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            sig.Waveform(np.array([0.0, np.nan]), 16000)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sig.Waveform(np.array([]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            sig.Waveform(np.zeros(10), 0)


class TestStft:
    def test_zero_input(self, cfg):
        w = sig.Waveform(np.zeros(16000), 16000)
        spec = sig.stft(w, cfg)
        assert spec.shape == (257, 61)
        assert np.all(spec == 0)

    def test_frame_count_arithmetic(self, cfg):
        assert cfg.num_frames(16000) == (16000 - 512) // 256 + 1 == 61

    def test_too_short_input(self, cfg):
        w = sig.Waveform(np.zeros(100), 16000)
        with pytest.raises(ValueError, match="shorter than one window"):
            sig.stft(w, cfg)

    def test_cosine_at_bin_center_matches_dft_oracle(self, cfg):
        # Oracle: the plain DFT definition applied to each windowed frame.
        k = 20
        freq = k * 16000 / cfg.window_len
        t = np.arange(8192) / 16000
        w = sig.Waveform(np.cos(2 * np.pi * freq * t), 16000)
        spec = sig.stft(w, cfg)

        n = np.arange(cfg.window_len)
        for frame_idx in (0, 5, 17):
            frame = w.samples[frame_idx * cfg.hop_len : frame_idx * cfg.hop_len + cfg.window_len]
            windowed = frame * cfg.window
            oracle = np.array(
                [np.sum(windowed * np.exp(-2j * np.pi * f * n / cfg.window_len)) for f in range(cfg.n_bins)]
            )
            np.testing.assert_allclose(spec[:, frame_idx], oracle, atol=1e-9)
            mags = np.abs(oracle)
            assert np.argmax(mags) == k
            outside_main_lobe = np.delete(mags, range(k - 3, k + 4))
            assert mags[k] > 20 * np.max(outside_main_lobe)

    def test_linearity(self, cfg):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4000)
        y = rng.standard_normal(4000)
        a, b = 1.7, -0.6
        left = sig.stft(sig.Waveform(a * x + b * y, 16000), cfg)
        right = a * sig.stft(sig.Waveform(x, 16000), cfg) + b * sig.stft(sig.Waveform(y, 16000), cfg)
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_parseval_per_frame(self, cfg):
        rng = np.random.default_rng(6)
        w = sig.Waveform(rng.standard_normal(4000), 16000)
        spec = sig.stft(w, cfg)
        weights = np.full(cfg.n_bins, 2.0)
        weights[0] = weights[-1] = 1.0
        for frame_idx in range(spec.shape[1]):
            frame = w.samples[frame_idx * cfg.hop_len : frame_idx * cfg.hop_len + cfg.window_len]
            time_energy = np.sum((frame * cfg.window) ** 2)
            spec_energy = np.sum(weights * np.abs(spec[:, frame_idx]) ** 2) / cfg.window_len
            assert abs(time_energy - spec_energy) <= 1e-9 * max(time_energy, 1e-30)


class TestIstft:
    def test_roundtrip_interior(self, cfg):
        rng = np.random.default_rng(7)
        w = sig.Waveform(rng.standard_normal(16000), 16000)
        back = sig.istft(sig.stft(w, cfg), cfg)
        assert len(back) == 15872
        interior = slice(cfg.window_len, len(back) - cfg.window_len)
        num = np.linalg.norm(back.samples[interior] - w.samples[: len(back)][interior])
        den = np.linalg.norm(w.samples[: len(back)][interior])
        assert num / den < 1e-6

    def test_zero_spectrogram(self, cfg):
        spec = np.zeros((257, 10), dtype=complex)
        w = sig.istft(spec, cfg)
        assert np.all(w.samples == 0)
        assert len(w) == 9 * 256 + 512

    def test_dimension_mismatch(self, cfg):
        with pytest.raises(ValueError, match="does not match"):
            sig.istft(np.zeros((100, 10), dtype=complex), cfg)

    def test_roundtrip_many_seeds(self, cfg):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            w = sig.Waveform(rng.standard_normal(6000), 16000)
            back = sig.istft(sig.stft(w, cfg), cfg)
            interior = slice(cfg.window_len, len(back) - cfg.window_len)
            ref = w.samples[: len(back)]
            err = np.linalg.norm(back.samples[interior] - ref[interior]) / np.linalg.norm(ref[interior])
            assert err < 1e-6


class TestLps:
    def test_unit_magnitude(self):
        spec = np.ones((4, 5), dtype=complex)
        np.testing.assert_allclose(sig.lps(spec), 0.0, atol=1e-15)

    def test_floor_on_zeros(self):
        out = sig.lps(np.zeros((3, 3), dtype=complex))
        np.testing.assert_allclose(out, np.log(1e-12))

    def test_magnitude_e(self):
        spec = np.full((2, 2), np.e, dtype=complex)
        np.testing.assert_allclose(sig.lps(spec), 2.0, atol=1e-12)


class TestStftConfig:
    def test_standard_16k(self):
        cfg = sig.StftConfig.for_sample_rate(16000)
        assert (cfg.window_len, cfg.hop_len, cfg.n_bins) == (512, 256, 257)

    def test_sample_rate_is_bounded_before_any_window_is_built(self, monkeypatch):
        assert sig.StftConfig.for_sample_rate(sig.MAX_SAMPLE_RATE).window_len == 12288
        built = []
        monkeypatch.setattr(sig, "sqrt_hann", lambda n: built.append(n))
        for rate in (sig.MAX_SAMPLE_RATE + 1, 10**13, 2**32 - 1):
            with pytest.raises(ValueError, match=f"sample rate {rate} Hz is above the maximum of 384000 Hz"):
                sig.StftConfig.for_sample_rate(rate)
        assert built == []
