import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatfeat import audio_io
from scatfeat.audio_io import Waveform, fix_length, load_wav, pad_or_crop_center, resample
from scatfeat.errors import (CorruptHeaderError, NonFiniteFeatureError,
                             UnsupportedEncodingError)

from testkit import FS, run_python, sine, write_wav_raw, write_wav_stdlib


class TestLoadWav:
    def test_pcm16_full_scale_square_wave(self, tmp_path):
        square = np.where(np.arange(FS) % 32 < 16, 32767, -32767).astype("<i2")
        path = tmp_path / "square.wav"
        write_wav_raw(path, 1, 1, FS, 16, square.tobytes())
        w = load_wav(path)
        assert len(w) == FS
        assert w.sample_rate_hz == FS
        assert np.max(np.abs(w.samples)) == pytest.approx(32767 / 32768, abs=0)

    def test_stereo_opposite_channels_average_to_zero(self, tmp_path):
        n = 1000
        interleaved = np.empty(2 * n, dtype="<i2")
        interleaved[0::2] = 16384   # +0.5
        interleaved[1::2] = -16384  # -0.5
        path = tmp_path / "stereo.wav"
        write_wav_raw(path, 1, 2, FS, 16, interleaved.tobytes())
        w = load_wav(path)
        assert len(w) == n
        assert np.all(w.samples == 0.0)

    def test_gsm_encoding_rejected(self, tmp_path):
        path = tmp_path / "gsm.wav"
        write_wav_raw(path, 49, 1, 8000, 8, b"\x00" * 320)
        with pytest.raises(UnsupportedEncodingError):
            load_wav(path)

    def test_float32_roundtrip(self, tmp_path):
        x = np.linspace(-0.9, 0.9, 777).astype(np.float32)
        path = tmp_path / "f32.wav"
        write_wav_raw(path, 3, 1, FS, 32, x.tobytes())
        w = load_wav(path)
        assert np.array_equal(w.samples, x.astype(np.float64))

    def test_pcm16_roundtrip_exact(self, tmp_path, rng):
        x = rng.integers(-32768, 32768, size=4096).astype("<i2")
        path = tmp_path / "rt.wav"
        write_wav_raw(path, 1, 1, FS, 16, x.tobytes())
        w = load_wav(path)
        assert np.array_equal(w.samples, x.astype(np.float64) / 32768.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_not_riff(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(CorruptHeaderError):
            load_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        import struct
        fmt = struct.pack("<HHIIHH", 1, 1, FS, FS * 2, 2, 16)
        body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        path = tmp_path / "nodata.wav"
        path.write_bytes(blob)
        with pytest.raises(CorruptHeaderError):
            load_wav(path)

    def test_data_chunk_past_end_of_file(self, tmp_path):
        # declares 1000 PCM16 samples, holds 250
        path = tmp_path / "truncated.wav"
        write_wav_raw(path, 1, 1, FS, 16, b"\x01\x00" * 250, data_size=2000)
        with pytest.raises(CorruptHeaderError):
            load_wav(path)

    @pytest.mark.parametrize("fmt_tag,n_channels,bits,n_bytes",
                             [(1, 1, 16, 501), (3, 1, 32, 402), (1, 2, 16, 1002)])
    def test_partial_sample_rejected(self, tmp_path, fmt_tag, n_channels, bits,
                                     n_bytes):
        path = tmp_path / "partial.wav"
        write_wav_raw(path, fmt_tag, n_channels, FS, bits, b"\x00" * n_bytes)
        with pytest.raises(CorruptHeaderError):
            load_wav(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n_channels", [1, 2])
    def test_non_finite_sample_rejected(self, tmp_path, bad, n_channels):
        """Checked before the downmix: a stereo inf raises, not warns."""
        x = np.zeros(200 * n_channels, dtype="<f4")
        x[2 * 37 + 1] = bad  # frame 37, channel 1 in stereo; frame 75 in mono
        path = tmp_path / "bad.wav"
        write_wav_raw(path, 3, n_channels, FS, 32, x.tobytes())
        where = "index 37, channel 1" if n_channels == 2 else "index 75, channel 0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteFeatureError, match=f"bad.wav.*{where}"):
                load_wav(path)


class TestResample:
    def test_sine_48k_to_16k(self):
        n48 = 3 * 48000
        x = sine(1000.0, n48, fs=48000)
        out = resample(Waveform(x, 48000), FS)
        assert len(out) == 3 * FS
        ref = sine(1000.0, len(out), fs=FS)
        err = np.abs(out.samples[128:-128] - ref[128:-128])
        assert err.max() < 1e-3

    def test_identity_returns_input_unchanged(self, rng):
        w = Waveform(rng.standard_normal(1000), FS)
        assert resample(w, FS) is w

    def test_noise_downsample_stopband(self, rng):
        # 16k white noise -> 8k -> back to 16k; energy above the 4 kHz
        # target Nyquist must be < 0.1% of the total (DFT oracle).
        x = rng.standard_normal(FS) * 0.3
        down = resample(Waveform(x, FS), 8000)
        back = resample(down, FS)
        spec = np.abs(np.fft.rfft(back.samples)) ** 2
        k4 = int(4000 * len(back) / FS)
        assert spec[k4 + 1:].sum() < 1e-3 * spec.sum()

    def test_stopband_sine_rejected(self):
        x = sine(5500.0, FS)
        out = resample(Waveform(x, FS), 8000)
        rms_in = np.sqrt(np.mean(x**2))
        rms_out = np.sqrt(np.mean(out.samples[256:-256] ** 2))
        assert rms_out < 1e-3 * rms_in

    def test_roundtrip_16_48_16(self, rng):
        from testkit import bandlimited_noise
        x = bandlimited_noise(rng, FS, f_hi_hz=6800.0)
        back = resample(resample(Waveform(x, FS), 48000), FS)
        assert len(back) == FS
        mid = slice(512, FS - 512)
        rel = np.linalg.norm(back.samples[mid] - x[mid]) / np.linalg.norm(x[mid])
        assert rel < 1e-2

    def test_output_length_rounding(self, rng):
        w = Waveform(rng.standard_normal(1001), 3000)
        out = resample(w, 2000)
        assert len(out) == round(1001 * 2000 / 3000)

    def test_bad_target(self, rng):
        with pytest.raises(ValueError):
            resample(Waveform(rng.standard_normal(10), FS), 0)

    def test_filter_designed_once_per_ratio(self, rng):
        """22.05 and 44.1 kHz to 16 kHz both reduce to max(up, down) = 441
        and share one read-only design, equal to one made inline here."""
        from scipy import signal
        audio_io._antialias_taps.cache_clear()
        w = Waveform(rng.standard_normal(4410), 44100)
        first, second = resample(w, FS), resample(w, FS)
        resample(Waveform(rng.standard_normal(2205), 22050), FS)
        info = audio_io._antialias_taps.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert not audio_io._antialias_taps(441).flags.writeable
        width = 0.1 / 441
        numtaps, beta = signal.kaiserord(85.0, width)
        taps = signal.firwin(numtaps | 1, 1.0 / 441 - width / 2.0,
                             window=("kaiser", beta))
        want = signal.resample_poly(w.samples, 160, 441, window=taps)[:len(first)]
        assert first.samples.tobytes() == second.samples.tobytes() == want.tobytes()

    def test_threads_on_a_cold_cache_design_once(self, rng, monkeypatch):
        """Two threads resampling one 44.1 kHz waveform on a cleared cache
        design the filter once. A slowed design makes them overlap."""
        from scipy import signal
        firwin = signal.firwin
        monkeypatch.setattr(signal, "firwin",
                            lambda *args, **kw: time.sleep(0.2) or firwin(*args, **kw))
        audio_io._antialias_taps.cache_clear()
        w = Waveform(rng.standard_normal(4410), 44100)
        outs = {}
        threads = [threading.Thread(target=lambda i=i: outs.update({i: resample(w, FS)}))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert audio_io._antialias_taps.cache_info().misses == 1
        assert outs[0].samples.tobytes() == outs[1].samples.tobytes()

    def test_scipy_signal_imported_only_to_resample(self):
        """No scipy module loads to scatter 16 kHz input: the transforms
        use numpy.fft. scipy.fft loads for MFCC alone (its DCT), and
        scipy.signal only for a rate other than 16 kHz."""
        out = run_python(
            "import sys, numpy as np, scatfeat\n"
            "from scatfeat.config import RunConfig\n"
            "from scatfeat.features import extract_vector\n"
            "from scatfeat.scattering import frequency_scattering, time_scattering\n"
            "def show(): print(sorted({m.split('.')[1] for m in sys.modules\n"
            "                          if m.startswith('scipy.')} & {'fft', 'signal'}),\n"
            "                  'scipy' in sys.modules)\n"
            "cfg = RunConfig(q1=3, t=1024, n=4096, f_wavelet_len=8)\n"
            "w = scatfeat.Waveform(np.sin(np.arange(4096.0)), 16000)\n"
            "frequency_scattering(time_scattering(w, cfg), cfg)\n"
            "extract_vector('scatnet', scatfeat.Waveform(np.ones(8000), 16000), RunConfig())\n"
            "show()\n"
            "extract_vector('mfcc', w, cfg)\n"
            "show()\n"
            "w = scatfeat.Waveform([0.0, 1.0, 0.0, -1.0], 8000)\n"
            "scatfeat.resample(w, 8000)\n"
            "show()\n"
            "scatfeat.resample(w, 16000)\n"
            "show()\n")
        assert out.splitlines() == ["[] False", "['fft'] True", "['fft'] True",
                                    "['fft', 'signal'] True"]


class TestFixLength:
    def test_identity(self, rng):
        w = Waveform(rng.standard_normal(51000), FS)
        assert fix_length(w, 51000) is w

    def test_center_crop(self):
        w = Waveform(np.arange(1.0, 11.0), FS)
        assert np.array_equal(fix_length(w, 4).samples, [4.0, 5.0, 6.0, 7.0])

    def test_symmetric_pad_right_biased(self):
        w = Waveform(np.array([1.0, 2.0, 3.0]), FS)
        assert np.array_equal(fix_length(w, 6).samples, [0, 1, 2, 3, 0, 0])

    @given(n_in=st.integers(1, 200), n_out=st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, n_in, n_out):
        w = Waveform(np.arange(1.0, n_in + 1.0), FS)
        once = fix_length(w, n_out)
        twice = fix_length(once, n_out)
        assert len(once) == n_out
        assert np.array_equal(once.samples, twice.samples)

    def test_pad_or_crop_center_matches(self):
        x = np.arange(5.0)
        assert np.array_equal(pad_or_crop_center(x, 5), x)
        assert np.array_equal(pad_or_crop_center(x, 3), [1.0, 2.0, 3.0])
        assert np.array_equal(pad_or_crop_center(x, 8), [0, 0.0, 1, 2, 3, 4, 0, 0])


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.nan]), FS)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), FS)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros(4), 0)
