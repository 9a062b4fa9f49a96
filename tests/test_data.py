import tracemalloc

import numpy as np
import pytest

from speechq import data as dt
from speechq.signal import StftConfig, Waveform, WavReader, istft, load_wav, save_wav, stft


def measured_snr_db(mixture: Waveform, clean: Waveform) -> float:
    """Oracle: recompute the power ratio of the mixture components."""
    noise_part = mixture.samples - clean.samples
    return 10.0 * np.log10(np.mean(clean.samples**2) / np.mean(noise_part**2))


class TestMixAtSnr:
    def test_equal_power_at_zero_db_means_unit_gain(self):
        t = np.arange(8000) / 16000.0
        clean = Waveform(0.1 * np.sin(2 * np.pi * 440 * t), 16000)
        noise = Waveform(0.1 * np.sin(2 * np.pi * 870 * t), 16000)
        mixture, clean_ref = dt.mix_at_snr(clean, noise, 0.0)
        np.testing.assert_allclose(mixture.samples - clean_ref.samples, noise.samples, atol=1e-12)

    def test_requested_snr_achieved_over_100_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            clean = Waveform(rng.standard_normal(4000) * rng.uniform(0.05, 0.5), 16000)
            noise = Waveform(rng.standard_normal(4000) * rng.uniform(0.05, 0.5), 16000)
            snr = rng.uniform(-12.0, 30.0)
            mixture, clean_ref = dt.mix_at_snr(clean, noise, snr)
            assert abs(measured_snr_db(mixture, clean_ref) - snr) < 0.01

    def test_high_snr_approaches_clean(self):
        rng = np.random.default_rng(1)
        clean = Waveform(rng.standard_normal(4000) * 0.1, 16000)
        noise = Waveform(rng.standard_normal(4000) * 0.1, 16000)
        mixture, clean_ref = dt.mix_at_snr(clean, noise, 60.0)
        rel_energy = np.sum((mixture.samples - clean_ref.samples) ** 2) / np.sum(clean_ref.samples**2)
        assert rel_energy < 1e-3

    def test_peak_normalization_keeps_alignment(self):
        rng = np.random.default_rng(2)
        clean = Waveform(rng.standard_normal(4000), 16000)  # loud on purpose
        noise = Waveform(rng.standard_normal(4000), 16000)
        mixture, clean_ref = dt.mix_at_snr(clean, noise, -6.0)
        assert np.max(np.abs(mixture.samples)) <= 0.99 + 1e-12
        assert abs(measured_snr_db(mixture, clean_ref) - (-6.0)) < 0.01

    def test_noise_looped_to_length(self):
        clean = Waveform(np.sin(np.arange(8000) * 0.2) * 0.1, 16000)
        noise = Waveform(np.sin(np.arange(1000) * 0.37) * 0.1, 16000)
        mixture, _ = dt.mix_at_snr(clean, noise, 10.0)
        assert len(mixture) == 8000

    def test_silent_inputs_rejected(self):
        silent = Waveform(np.zeros(1000), 16000)
        live = Waveform(np.sin(np.arange(1000) * 0.1), 16000)
        with pytest.raises(ValueError, match="silent"):
            dt.mix_at_snr(silent, live, 0.0)
        with pytest.raises(ValueError, match="silent"):
            dt.mix_at_snr(live, silent, 0.0)

    def test_rate_mismatch(self):
        a = Waveform(np.ones(100) * 0.1, 16000)
        b = Waveform(np.ones(100) * 0.1, 8000)
        with pytest.raises(ValueError, match="rates differ"):
            dt.mix_at_snr(a, b, 0.0)


class TestConvolveRir:
    def test_unit_impulse_is_identity(self):
        rng = np.random.default_rng(3)
        clean = Waveform(rng.standard_normal(2000) * 0.2, 16000)
        rir = Waveform(np.array([1.0]), 16000)
        np.testing.assert_array_equal(dt.convolve_rir(clean, rir).samples, clean.samples)

    def test_delayed_impulse_shifts(self):
        rng = np.random.default_rng(4)
        clean = Waveform(rng.standard_normal(2000) * 0.2, 16000)
        k = 7
        rir = Waveform(np.eye(1, k + 1, k).ravel(), 16000)
        out = dt.convolve_rir(clean, rir)
        assert np.all(out.samples[:k] == 0)
        np.testing.assert_allclose(out.samples[k:], clean.samples[: 2000 - k], atol=1e-15)

    def test_random_rir_matches_direct_sum_oracle(self):
        # Oracle: O(n*m) convolution sum.
        rng = np.random.default_rng(5)
        clean = Waveform(rng.standard_normal(300) * 0.3, 16000)
        rir = Waveform(rng.standard_normal(40) * 0.2, 16000)
        oracle = np.zeros(300)
        for n in range(300):
            acc = 0.0
            for m in range(40):
                if 0 <= n - m < 300:
                    acc += rir.samples[m] * clean.samples[n - m]
            oracle[n] = acc
        np.testing.assert_allclose(dt.convolve_rir(clean, rir).samples, oracle, atol=1e-10)

    def test_rate_mismatch(self):
        with pytest.raises(ValueError, match="rates differ"):
            dt.convolve_rir(Waveform(np.ones(10), 16000), Waveform(np.ones(2), 8000))


class TestPerturbSpectrogram:
    def test_unit_gains_equal_plain_roundtrip(self):
        rng = np.random.default_rng(6)
        w = Waveform(rng.standard_normal(8000) * 0.2, 16000)
        cfg = StftConfig(16000)
        out = dt.perturb_spectrogram(w, boost_gain=1.0, atten_gain=1.0, seed=3)
        roundtrip = istft(stft(w, cfg), cfg)
        np.testing.assert_array_equal(out.samples, roundtrip.samples)

    def test_modified_bin_fractions(self):
        rng = np.random.default_rng(7)
        spec = rng.standard_normal((257, 600)) + 1j * rng.standard_normal((257, 600))
        out = dt.perturb_bins(spec, seed=9)
        mags_before = np.abs(spec)
        mags_after = np.abs(out)
        boosted = np.isclose(mags_after, 2.0 * mags_before)
        attenuated = np.isclose(mags_after, 0.25 * mags_before)
        total = spec.size
        assert abs(boosted.sum() / total - 0.30) <= 0.01
        assert abs(attenuated.sum() / total - 0.50) <= 0.01
        assert not np.any(boosted & attenuated)
        # phases survive scaling
        np.testing.assert_allclose(np.angle(out), np.angle(spec), atol=1e-12)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(8)
        w = Waveform(rng.standard_normal(6000) * 0.2, 16000)
        a = dt.perturb_spectrogram(w, seed=42)
        b = dt.perturb_spectrogram(w, seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = dt.perturb_spectrogram(w, seed=43)
        assert not np.array_equal(a.samples, c.samples)


class TestProxyLabel:
    def test_exact_copy_scores_top(self):
        w = Waveform(np.sin(np.arange(2000) * 0.1) * 0.5, 16000)
        assert dt.proxy_label(w, w) == 4.5

    def test_snr_anchor_low(self):
        rng = np.random.default_rng(9)
        clean = Waveform(rng.standard_normal(4000) * 0.1, 16000)
        noise = Waveform(rng.standard_normal(4000) * 0.1, 16000)
        degraded, clean_ref = dt.mix_at_snr(clean, noise, -12.0)
        assert dt.proxy_label(clean_ref, degraded) == pytest.approx(1.0, abs=1e-3)

    def test_snr_nine_db_maps_to_2_75(self):
        rng = np.random.default_rng(10)
        clean = Waveform(rng.standard_normal(4000) * 0.1, 16000)
        noise = Waveform(rng.standard_normal(4000) * 0.1, 16000)
        degraded, clean_ref = dt.mix_at_snr(clean, noise, 9.0)
        assert dt.proxy_label(clean_ref, degraded) == pytest.approx(2.75, abs=1e-3)

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(11)
        clean = Waveform(rng.standard_normal(4000) * 0.1, 16000)
        noise = Waveform(rng.standard_normal(4000) * 0.1, 16000)
        labels = []
        for snr in np.linspace(-20, 40, 25):
            degraded, clean_ref = dt.mix_at_snr(clean, noise, float(snr))
            labels.append(dt.proxy_label(clean_ref, degraded))
        assert all(b >= a - 1e-12 for a, b in zip(labels, labels[1:]))

    def test_silent_clean_rejected(self):
        silent = Waveform(np.zeros(100), 16000)
        with pytest.raises(ValueError, match="silent"):
            dt.proxy_label(silent, silent)


class TestSynth:
    @pytest.mark.parametrize("kind", dt.SYNTH_KINDS)
    def test_deterministic(self, kind):
        a = dt.synth_clean(kind, 0.5, seed=77)
        b = dt.synth_clean(kind, 0.5, seed=77)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = dt.synth_clean(kind, 0.5, seed=78)
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("kind", dt.SYNTH_KINDS)
    def test_peak_bounded(self, kind):
        w = dt.synth_clean(kind, 0.3, seed=5)
        assert np.max(np.abs(w.samples)) <= 0.9 + 1e-12

    def test_length(self):
        assert len(dt.synth_clean("chirp", 1.0, seed=0)) == 16000

    def test_minimum_duration(self):
        with pytest.raises(ValueError, match="0.2"):
            dt.synth_clean("chirp", 0.1, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            dt.synth_clean("square-wave", 0.5, seed=0)

    def test_noise_deterministic(self):
        a = dt.synth_noise(0.5, seed=3)
        b = dt.synth_noise(0.5, seed=3)
        np.testing.assert_array_equal(a.samples, b.samples)


class TestManifest:
    def write_entry_wavs(self, tmp_path, n=2):
        records = []
        for i in range(n):
            rng = np.random.default_rng(i)
            degraded = Waveform(rng.standard_normal(4000) * 0.1, 16000)
            clean = Waveform(rng.standard_normal(4000) * 0.1, 16000)
            save_wav(tmp_path / f"deg{i}.wav", degraded)
            save_wav(tmp_path / f"cln{i}.wav", clean)
            records.append((f"deg{i}.wav", f"cln{i}.wav", 1.5 + i))
        return records

    def test_roundtrip(self, tmp_path):
        records = self.write_entry_wavs(tmp_path)
        dt.save_manifest(tmp_path / "m.tsv", records)
        entries = dt.load_manifest(tmp_path / "m.tsv", sample_rate=16000)
        assert len(entries) == 2
        assert entries[0].label == pytest.approx(1.5)
        assert entries[0].clean is not None

    def test_empty_file_warns(self, tmp_path):
        """An empty, blank or header-only manifest is an error, not a warning."""
        path = tmp_path / "empty.tsv"
        for text in ("", "\n\n", "degraded_path\tlabel\n"):
            path.write_text(text)
            with pytest.raises(dt.ManifestError) as info:
                dt.load_manifest(path)
            assert str(info.value) == f"{path}: manifest has no records"

    def test_label_out_of_range_reported_with_line_number(self, tmp_path):
        records = self.write_entry_wavs(tmp_path, n=1)
        path = tmp_path / "m.tsv"
        path.write_text(
            "degraded_path\tclean_path\tlabel\n"
            f"{records[0][0]}\t{records[0][1]}\t5.2\n"
        )
        with pytest.raises(dt.ManifestError, match=r"line 2.*5\.2"):
            dt.load_manifest(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("degraded_path\tclean_path\tlabel\n\n\nx.wav\t\tnotanumber\n")
        with pytest.raises(dt.ManifestError) as info:
            dt.load_manifest(path)
        assert str(info.value) == f"{path}: invalid manifest: line 4: label 'notanumber' is not a number"

    def test_missing_clean_path_allowed(self, tmp_path):
        records = self.write_entry_wavs(tmp_path, n=1)
        path = tmp_path / "m.tsv"
        path.write_text(f"degraded_path\tclean_path\tlabel\n{records[0][0]}\t\t2.0\n")
        entries = dt.load_manifest(path)
        assert entries[0].clean is None

    def test_missing_audio_reported(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("degraded_path\tclean_path\tlabel\nnope.wav\t\t2.0\n")
        with pytest.raises(dt.ManifestError, match="line 2"):
            dt.load_manifest(path)

    def test_comma_separated_accepted(self, tmp_path):
        records = self.write_entry_wavs(tmp_path, n=1)
        path = tmp_path / "m.csv"
        path.write_text(f"degraded_path,clean_path,label\n{records[0][0]},{records[0][1]},2.25\n")
        entries = dt.load_manifest(path)
        assert entries[0].label == pytest.approx(2.25)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        for text in ("foo\tbar\n1\t2\n", "deg.wav\t2.0\n"):
            path.write_text(text)
            with pytest.raises(dt.ManifestError, match="header"):
                dt.load_manifest(path)

    def test_rate_mismatch_reported(self, tmp_path):
        rng = np.random.default_rng(0)
        save_wav(tmp_path / "deg.wav", Waveform(rng.standard_normal(4000) * 0.1, 8000))
        path = tmp_path / "m.tsv"
        path.write_text("degraded_path\tclean_path\tlabel\ndeg.wav\t\t2.0\n")
        with pytest.raises(dt.ManifestError, match="sample rate"):
            dt.load_manifest(path, sample_rate=16000)

    def test_all_problems_aggregated(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "degraded_path\tclean_path\tlabel\n"
            "missing_a.wav\t\t2.0\n"
            "missing_b.wav\t\tnot_a_number\n"
            "missing_c.wav\t\t9.9\n"
        )
        with pytest.raises(dt.ManifestError) as exc_info:
            dt.load_manifest(path)
        # One line, the problems separated by " | ".
        message = str(exc_info.value)
        head = f"{path}: invalid manifest: "
        assert message.startswith(head) and "\n" not in message
        problems = message[len(head) :].split(" | ")
        assert [p.split(":")[0] for p in problems] == ["line 2", "line 3", "line 4"]

    def test_entries_read_their_files_on_demand(self, tmp_path):
        records = self.write_entry_wavs(tmp_path)
        dt.save_manifest(tmp_path / "m.tsv", records)
        for entry, (deg, cln, _label) in zip(dt.load_manifest(tmp_path / "m.tsv"), records):
            assert isinstance(entry.degraded, WavReader) and isinstance(entry.clean, WavReader)
            np.testing.assert_array_equal(entry.degraded.samples, load_wav(tmp_path / deg).samples)
            np.testing.assert_array_equal(entry.clean.read(100, 50), load_wav(tmp_path / cln).samples[100:150])

    def test_loaded_entries_hold_no_audio(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["degraded_path\tclean_path\tlabel"]
        for i in range(64):
            save_wav(tmp_path / f"deg{i}.wav", Waveform(rng.uniform(-0.5, 0.5, 8000), 16000))
            save_wav(tmp_path / f"cln{i}.wav", Waveform(rng.uniform(-0.5, 0.5, 8000), 16000))
            lines.append(f"deg{i}.wav\tcln{i}.wav\t2.0")
        (tmp_path / "m.tsv").write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            entries = dt.load_manifest(tmp_path / "m.tsv", sample_rate=16000)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(entries) == 64
        # Decoded as float64, the 128 files would take 8 MiB.
        assert held < 1 << 20, held

    def test_short_clean_reference_reported_with_line_number(self, tmp_path):
        rng = np.random.default_rng(0)
        save_wav(tmp_path / "deg.wav", Waveform(rng.uniform(-0.5, 0.5, 8000), 16000))
        save_wav(tmp_path / "short.wav", Waveform(rng.uniform(-0.5, 0.5, 6000), 16000))
        save_wav(tmp_path / "long.wav", Waveform(rng.uniform(-0.5, 0.5, 9000), 16000))
        path = tmp_path / "m.tsv"
        path.write_text("degraded_path\tclean_path\tlabel\ndeg.wav\tlong.wav\t2.0\ndeg.wav\tshort.wav\t2.0\n")
        with pytest.raises(dt.ManifestError) as info:
            dt.load_manifest(path)
        assert str(info.value) == (
            f"{path}: invalid manifest: line 3: clean reference has 6000 samples, fewer than the degraded 8000"
        )
        path.write_text("degraded_path\tclean_path\tlabel\ndeg.wav\tlong.wav\t2.0\n")
        assert len(dt.load_manifest(path)[0].clean) == 9000

    def test_clean_rate_mismatch_reported(self, tmp_path):
        rng = np.random.default_rng(0)
        save_wav(tmp_path / "deg.wav", Waveform(rng.uniform(-0.5, 0.5, 4000), 16000))
        save_wav(tmp_path / "cln.wav", Waveform(rng.uniform(-0.5, 0.5, 4000), 8000))
        path = tmp_path / "m.tsv"
        path.write_text("degraded_path\tclean_path\tlabel\ndeg.wav\tcln.wav\t2.0\n")
        with pytest.raises(dt.ManifestError, match="line 2: clean/degraded sample rates differ"):
            dt.load_manifest(path)

    def test_binary_manifest_names_the_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
        with pytest.raises(dt.ManifestError, match="not a UTF-8 text manifest") as info:
            dt.load_manifest(path)
        assert str(info.value).startswith(f"{path}: ")
        assert len(str(info.value).splitlines()) == 1


class TestDatasetEntry:
    def test_label_must_lie_in_the_score_range(self):
        degraded = Waveform(np.full(600, 0.1), 16000)
        for label in (-0.5, 4.5):
            assert dt.DatasetEntry(degraded, None, label).label == label
        for label in (-0.51, 4.51, float("nan")):
            with pytest.raises(ValueError, match=rf"label {label} outside \[-0\.5, 4\.5\]"):
                dt.DatasetEntry(degraded, None, label)

    @pytest.mark.parametrize("rate, window", [(16000, 512), (8000, 256)])
    def test_degraded_must_hold_one_analysis_window(self, rate, window):
        assert len(dt.DatasetEntry(Waveform(np.full(window, 0.1), rate), None, 2.0).degraded) == window
        with pytest.raises(ValueError) as info:
            dt.DatasetEntry(Waveform(np.full(window - 1, 0.1), rate), None, 2.0)
        assert str(info.value) == (
            f"degraded audio of {window - 1} samples is shorter than one analysis window ({window})"
        )

    def test_rate_above_the_bound_is_rejected_without_building_a_window(self, monkeypatch):
        from speechq import signal as sig

        built = []
        monkeypatch.setattr(sig, "sqrt_hann", lambda n: built.append(n))
        with pytest.raises(ValueError, match="sample rate 10000000000000 Hz is above the maximum of 384000 Hz"):
            dt.DatasetEntry(Waveform(np.full(600, 0.1), 10**13), None, 2.0)
        assert built == []

    def test_in_memory_clean_must_cover_the_degraded(self):
        degraded = Waveform(np.full(600, 0.1), 16000)
        with pytest.raises(ValueError, match="fewer than the degraded 600"):
            dt.DatasetEntry(degraded, Waveform(np.full(599, 0.1), 16000), 2.0)
        assert len(dt.DatasetEntry(degraded, Waveform(np.full(620, 0.1), 16000), 2.0).clean) == 620
