import numpy as np
import pytest

from scatfeat.audio_io import Waveform
from scatfeat.errors import SignalTooShortError, TooFewFramesError
from scatfeat.mfcc import mel_filterbank, mfcc_frames, mfcc_stats, mfcc_utterance

from testkit import FS, reference_mfcc


class TestMelFilterbank:
    def test_rows_all_nonempty(self):
        bank = mel_filterbank()
        assert bank.shape == (26, 257)
        assert np.all(bank.sum(axis=1) > 0)

    def test_peaks_strictly_increasing(self):
        bank = mel_filterbank()
        peaks = bank.argmax(axis=1)
        assert np.all(np.diff(peaks) > 0)

    def test_dc_bin_zero(self):
        bank = mel_filterbank()
        assert bank[0, 0] == 0.0

    def test_peak_normalized(self):
        bank = mel_filterbank()
        assert np.all(bank.max(axis=1) <= 1.0)
        assert np.all(bank.max(axis=1) > 0.8)

    def test_built_once_and_read_only(self):
        """Every mfcc_frames call multiplies by the same matrix, so no
        caller may change it."""
        bank = mel_filterbank()
        assert mel_filterbank() is bank
        assert not bank.flags.writeable
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0


class TestMfccFrames:
    def test_frame_count_51000(self):
        w = Waveform(np.zeros(51000), FS)
        assert mfcc_frames(w).shape == (13, 317)

    def test_zero_signal(self):
        frames = mfcc_frames(Waveform(np.zeros(4000), FS))
        c0 = np.sqrt(26.0) * np.log(1e-10)
        assert np.allclose(frames[0], c0, atol=1e-9)
        assert np.max(np.abs(frames[1:])) < 1e-9

    def test_double_amplitude_shifts_c0_only(self, rng):
        x = rng.standard_normal(8000) * 0.2
        a = mfcc_frames(Waveform(x, FS))
        b = mfcc_frames(Waveform(2 * x, FS))
        delta = b - a
        assert np.allclose(delta[0], np.sqrt(26.0) * np.log(4.0), atol=1e-6)
        assert np.max(np.abs(delta[1:])) < 1e-6

    def test_too_short(self):
        with pytest.raises(SignalTooShortError):
            mfcc_frames(Waveform(np.zeros(100), FS))

    def test_matches_naive_dft_reference(self, rng):
        x = rng.standard_normal(FS) * 0.3
        fast = mfcc_frames(Waveform(x, FS))
        slow = reference_mfcc(x)
        assert np.max(np.abs(fast - slow)) < 1e-9


class TestMfccStats:
    def test_identical_frames_zero_std(self):
        frames = np.tile(np.arange(13.0)[:, None], (1, 7))
        stats = mfcc_stats(frames)
        assert np.array_equal(stats[:13], np.arange(13.0))
        assert np.all(stats[13:] == 0.0)

    def test_two_frames_formula(self, rng):
        v, w = rng.standard_normal(13), rng.standard_normal(13)
        stats = mfcc_stats(np.stack([v, w], axis=1))
        assert np.allclose(stats[:13], (v + w) / 2)
        assert np.allclose(stats[13:], np.abs(v - w) / 2)

    def test_frame_order_invariant(self, rng):
        frames = rng.standard_normal((13, 40))
        perm = rng.permutation(40)
        assert np.allclose(mfcc_stats(frames), mfcc_stats(frames[:, perm]))

    def test_too_few_frames(self):
        with pytest.raises(TooFewFramesError):
            mfcc_stats(np.zeros((13, 1)))

    def test_utterance_dim(self, rng):
        w = Waveform(rng.standard_normal(8000) * 0.1, FS)
        assert mfcc_utterance(w).shape == (26,)
