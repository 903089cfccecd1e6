import numpy as np
import pytest

from scatfeat.audio_io import Waveform
from scatfeat.errors import (AxisTooShortError, InvalidSpecError,
                             LengthMismatchError, SampleRateError)
from scatfeat.filterbank import cached_bank
from scatfeat.scattering import (FrequencyScatteringPath, ScatteringConfig,
                                 ScatteringFeatures, ScatteringPath,
                                 frequency_scattering, lowpass_average,
                                 next_pow2, time_scattering, wavelet_modulus)

from conftest import FS, bandlimited_noise

# Small, fast configuration shared across this module; n == n_fft so circular
# shifts of the input are true circular shifts of the transform input.
CFG = ScatteringConfig(q1=3, q2=1, t=1024, n=4096)
N_FFT = CFG.n_fft
BANK1 = cached_bank(CFG.q1, CFG.t, N_FFT)
BANK2 = cached_bank(CFG.q2, CFG.t, N_FFT)


def sine_norm(freq_normalized, n, amp=1.0, phase=0.1):
    return amp * np.cos(2 * np.pi * freq_normalized * np.arange(n) + phase)


class TestWaveletModulus:
    def test_zero_in_zero_out(self):
        u1 = wavelet_modulus(np.zeros(N_FFT), BANK1)
        assert u1.shape == (len(BANK1.filters), N_FFT)
        assert np.all(u1 == 0.0)

    def test_sine_at_center_argmax(self):
        idx = 5  # geometric-region filter
        lam = BANK1.filters[idx].center_freq_normalized
        u1 = wavelet_modulus(sine_norm(lam, N_FFT), BANK1)
        assert int(np.argmax(u1.mean(axis=1))) == idx

    def test_modulus_homogeneity(self, rng):
        x = rng.standard_normal(N_FFT)
        a = wavelet_modulus(x, BANK1)
        b = wavelet_modulus(0.5 * x, BANK1)
        assert np.allclose(b, 0.5 * a, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            wavelet_modulus(np.zeros(N_FFT // 2), BANK1)


def order2(feats):
    """{(lambda1, lambda2): frame row} of the order-2 paths."""
    return {(p.lambda1_index, p.lambda2_index): row
            for p, row in zip(feats.paths_order, feats.frames) if p.order == 2}


class TestScatterLayer2:
    def test_constant_envelopes_give_zero(self):
        # A bin-aligned sine over exactly n == n_fft samples has a constant
        # envelope under every analytic first-layer wavelet, so every
        # second-layer modulus (zero-mean wavelets) vanishes.
        k = round(BANK1.filters[4].center_freq_normalized * N_FFT)
        feats = time_scattering(Waveform(sine_norm(k / N_FFT, CFG.n), FS), CFG)
        u2 = order2(feats)
        assert u2
        assert np.min(feats.frames[1 + 4]) > 0.1  # order 1 does see the sine
        worst = max(np.max(seq) for seq in u2.values())
        assert worst < 1e-9

    def test_am_tone_argmax_at_modulation_bin(self):
        lam_c = BANK1.filters[4].center_freq_normalized
        lam_m = 16.0 / N_FFT  # bin-aligned modulation, no leakage
        n = np.arange(N_FFT)
        x = (1 + 0.5 * np.cos(2 * np.pi * lam_m * n)) * np.cos(2 * np.pi * lam_c * n)
        u2 = order2(time_scattering(Waveform(x, FS), CFG))
        strengths = {i2: float(np.mean(seq)) for (i1, i2), seq in u2.items()
                     if i1 == 4}
        got = max(strengths, key=strengths.get)
        mod_bin = round(lam_m * N_FFT)
        admissible = sorted(strengths)
        expected = admissible[int(np.argmax(BANK2.responses[admissible, mod_bin]))]
        assert got == expected

    def test_path_count_matches_admissibility(self):
        u2 = order2(time_scattering(Waveform(np.zeros(CFG.n), FS), CFG))
        centers2 = BANK2.center_freqs
        expected = sum(int(np.sum(centers2 < f.bandwidth)) for f in BANK1.filters)
        assert len(u2) == expected

    def test_lexicographic_order(self):
        keys = list(order2(time_scattering(Waveform(np.zeros(CFG.n), FS), CFG)))
        assert keys == sorted(keys)


class TestLowpassAverage:
    def test_dc_response(self):
        frames = lowpass_average(np.ones(N_FFT), BANK1.lowpass, CFG.hop)
        assert np.allclose(frames, 1.0, atol=1e-9)

    def test_impulse_traces_lowpass_shape(self):
        u = np.zeros(N_FFT)
        u[100] = 1.0
        frames = lowpass_average(u, BANK1.lowpass, CFG.hop)
        phi_time = np.real(np.fft.ifft(BANK1.lowpass))
        expected = np.maximum(np.roll(phi_time, 100)[::CFG.hop], 0.0)
        assert np.allclose(frames, expected, atol=1e-12)

    def test_shift_by_hop_rolls_frames(self, rng):
        u = np.abs(rng.standard_normal(N_FFT))
        a = lowpass_average(u, BANK1.lowpass, CFG.hop)
        b = lowpass_average(np.roll(u, CFG.hop), BANK1.lowpass, CFG.hop)
        assert np.allclose(b, np.roll(a, 1), atol=1e-9)

    def test_hop_must_divide(self):
        with pytest.raises(ValueError):
            lowpass_average(np.zeros(N_FFT), BANK1.lowpass, 1000)

    @pytest.mark.parametrize("n, hop", [(9, 3), (15, 5), (27, 9), (12, 3), (16, 4)])
    def test_matches_full_length_convolution(self, rng, n, hop):
        u = np.abs(rng.standard_normal(n))
        lowpass = np.exp(-0.5 * (np.fft.fftfreq(n) * 4.0) ** 2)  # real, even
        direct = np.real(np.fft.ifft(np.fft.fft(u) * lowpass))[::hop]
        frames = lowpass_average(u, lowpass, hop)
        assert frames.shape == (n // hop,)
        assert np.max(np.abs(frames - np.maximum(direct, 0.0))) < 1e-12


class TestTimeScattering:
    def test_zero_signal_zero_vector(self):
        feats = time_scattering(Waveform(np.zeros(CFG.n), FS), CFG)
        assert np.all(feats.utterance_vector == 0.0)

    def test_path_layout(self):
        feats = time_scattering(Waveform(np.zeros(CFG.n), FS), CFG)
        orders = [p.order for p in feats.paths_order]
        n1 = len(BANK1.filters)
        assert orders[0] == 0
        assert orders[1:n1 + 1] == [1] * n1
        assert set(orders[n1 + 1:]) == {2}
        lam1s = [p.lambda1_index for p in feats.paths_order if p.order == 1]
        assert lam1s == sorted(lam1s)
        pairs = [(p.lambda1_index, p.lambda2_index) for p in feats.paths_order
                 if p.order == 2]
        assert pairs == sorted(pairs)
        assert feats.frames.shape == (len(feats.paths_order), N_FFT // CFG.hop)

    def test_non_expansive(self, rng):
        x = bandlimited_noise(rng, CFG.n, peak=0.4)
        y = bandlimited_noise(rng, CFG.n, peak=0.4)
        sx = time_scattering(Waveform(x, FS), CFG).frames
        sy = time_scattering(Waveform(y, FS), CFG).frames
        assert np.linalg.norm(sx - sy) <= np.linalg.norm(x - y) + 1e-6

    def test_scale_homogeneity(self, rng):
        x = bandlimited_noise(rng, CFG.n, peak=0.4)
        a = time_scattering(Waveform(x, FS), CFG)
        b = time_scattering(Waveform(0.25 * x, FS), CFG)
        ref = np.linalg.norm(a.frames)
        assert np.linalg.norm(b.frames - 0.25 * a.frames) < 1e-9 * ref

    def test_translation_covariance_one_hop(self, rng):
        # n == n_fft here, so rolling the input is circular for the FFT
        x = bandlimited_noise(rng, CFG.n, peak=0.4)
        a = time_scattering(Waveform(x, FS), CFG).frames
        b = time_scattering(Waveform(np.roll(x, CFG.hop), FS), CFG).frames
        assert np.allclose(b, np.roll(a, 1, axis=1), atol=1e-9)

    def test_non_negative(self, rng):
        x = bandlimited_noise(rng, CFG.n, peak=0.4)
        feats = time_scattering(Waveform(x, FS), CFG)
        assert np.all(feats.frames >= 0.0)
        assert np.all(feats.utterance_vector >= 0.0)

    def test_wrong_sample_rate(self):
        with pytest.raises(SampleRateError):
            time_scattering(Waveform(np.zeros(CFG.n), 8000), CFG)

    def test_arbitrary_length_fixed_internally(self, rng):
        x = rng.standard_normal(2 * CFG.n) * 0.1
        feats = time_scattering(Waveform(x, FS), CFG)
        ref = time_scattering(Waveform(x[CFG.n // 2:CFG.n // 2 + CFG.n], FS), CFG)
        assert np.allclose(feats.utterance_vector, ref.utterance_vector)

    def test_log_compress(self, rng):
        x = bandlimited_noise(rng, CFG.n, peak=0.4)
        from dataclasses import replace
        raw = time_scattering(Waveform(x, FS), CFG)
        logged = time_scattering(Waveform(x, FS), replace(CFG, log_compress=True))
        expect = np.log(raw.frames + CFG.log_eps)
        assert np.allclose(logged.frames, expect, atol=1e-12)

    def test_invalid_config(self):
        with pytest.raises(InvalidSpecError):
            time_scattering(Waveform(np.zeros(100), FS),
                            ScatteringConfig(t=8192, n=100))


class TestFrequencyScattering:
    FCFG = ScatteringConfig(q1=3, q2=1, t=1024, n=4096, f_wavelet_len=8)

    def test_constant_s1_gives_zero(self):
        n_geo = len(BANK1.geometric_indices())
        n1 = len(BANK1.filters)
        paths = tuple(ScatteringPath(1, i) for i in range(n1))
        feats = ScatteringFeatures(paths, np.full((n1, 4), 3.5))
        out = frequency_scattering(feats, self.FCFG)
        assert all(isinstance(p, FrequencyScatteringPath)
                   for p in out.paths_order[n1:])
        assert np.array_equal(out.frames[:n1], feats.frames)
        fs_vals = out.frames[n1:]
        assert fs_vals.size > 0
        assert np.max(np.abs(fs_vals)) < 1e-9 * 3.5
        assert n_geo >= 2

    def test_path_count(self, rng):
        x = bandlimited_noise(rng, CFG.n, peak=0.4)
        base = time_scattering(Waveform(x, FS), self.FCFG)
        out = frequency_scattering(base, self.FCFG)
        n_geo = len(BANK1.geometric_indices())
        n_fr_filters = len(cached_bank(1, 8, next_pow2(max(n_geo, 8))).filters)
        added = len(out.paths_order) - len(base.paths_order)
        assert added == n_fr_filters * n_geo
        assert out.utterance_vector.shape == (len(out.paths_order),)

    def test_transposition_covariance(self):
        # One octave up moves the order-1 pattern by q1 geometric bins;
        # unaveraged moduli should follow within 10% on interior bins.
        cfg = ScatteringConfig(q1=5, q2=1, t=4096, n=16000, f_wavelet_len=16)
        n = np.arange(16000)
        wa = Waveform(0.5 * np.cos(2 * np.pi * (500.0 / FS) * n), FS)
        wb = Waveform(0.5 * np.cos(2 * np.pi * (1000.0 / FS) * n), FS)
        fa = frequency_scattering(time_scattering(wa, cfg), cfg)
        fb = frequency_scattering(time_scattering(wb, cfg), cfg)

        def tensor(feats):
            fps = [(p, v) for p, v in zip(feats.paths_order, feats.utterance_vector)
                   if isinstance(p, FrequencyScatteringPath)]
            mus = 1 + max(p.wavelet_index for p, _ in fps)
            bins = 1 + max(p.lambda1_bin for p, _ in fps)
            out = np.zeros((mus, bins))
            for p, v in fps:
                out[p.wavelet_index, p.lambda1_bin] = v
            return out

        ta, tb = tensor(fa), tensor(fb)
        aligned = np.roll(ta, -cfg.q1, axis=1)  # f -> 2f lowers the bin index
        interior = slice(8, ta.shape[1] - 8)
        err = np.linalg.norm(aligned[:, interior] - tb[:, interior])
        assert err < 0.10 * np.linalg.norm(tb[:, interior])

    def test_axis_too_short(self):
        feats = ScatteringFeatures((ScatteringPath(1, 0),), np.ones((1, 4)))
        tiny = ScatteringConfig(q1=1, q2=1, t=4, n=8, f_wavelet_len=2)
        with pytest.raises(AxisTooShortError):
            frequency_scattering(feats, tiny)


class TestPoolUtterance:
    def test_single_frame(self):
        feats = ScatteringFeatures((ScatteringPath(1, 0),), np.array([[2.5]]))
        assert np.array_equal(feats.utterance_vector, [2.5])

    def test_two_frames_mean(self):
        p0, p1 = ScatteringPath(1, 0), ScatteringPath(1, 1)
        feats = ScatteringFeatures((p0, p1), np.array([[1.0, 3.0], [4.0, 0.0]]))
        assert np.array_equal(feats.utterance_vector, [2.0, 2.0])

    def test_frame_permutation_invariant(self, rng):
        p = ScatteringPath(1, 0)
        vals = rng.standard_normal(16)
        a = ScatteringFeatures((p,), vals[None, :]).utterance_vector
        b = ScatteringFeatures((p,), rng.permutation(vals)[None, :]).utterance_vector
        assert a == pytest.approx(b)
