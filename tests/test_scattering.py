import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import fft as sfft

from scatfeat import filterbank, scattering
from scatfeat.audio_io import Waveform, fix_length, pad_or_crop_center
from scatfeat.config import RunConfig
from scatfeat.errors import (AxisTooShortError, InvalidSpecError,
                             LengthMismatchError, SampleRateError)
from scatfeat.features import extract_vector
from scatfeat.filterbank import FilterBank, FilterBankSpec, cached_bank
from scatfeat.scattering import (frequency_scattering, lowpass_average,
                                 next_pow2, scattering_paths, time_scattering,
                                 wavelet_modulus)

from testkit import FS, band_support, bandlimited_noise, run_python

# Small, fast configuration shared across this module; n == n_fft so circular
# shifts of the input are true circular shifts of the transform input.
CFG = RunConfig(q1=3, t=1024, n=4096)
N_FFT = CFG.n_fft
BANK1 = cached_bank(CFG.q1, CFG.t, N_FFT)
BANK2 = cached_bank(CFG.q2, CFG.t, N_FFT)


def sine_norm(freq_normalized, n, amp=1.0, phase=0.1):
    return amp * np.cos(2 * np.pi * freq_normalized * np.arange(n) + phase)


# The full-length transform, kept as the oracle: one n_fft inverse FFT per
# filter, and a low-pass by rfft, product with phi, folding onto n_frames
# bins and a short inverse FFT.
def reference_wavelet_modulus(x, bank):
    return np.abs(sfft.ifft(sfft.fft(x)[None, :] * bank.responses, axis=1))


def reference_lowpass_average(u, lowpass, hop):
    n_fft = lowpass.shape[0]
    spectra = sfft.rfft(u, axis=1) * lowpass[: n_fft // 2 + 1]
    full = np.concatenate([spectra, np.conj(spectra[:, (n_fft - 1) // 2:0:-1])], axis=1)
    folded = full.reshape(u.shape[0], hop, n_fft // hop).sum(axis=1)
    return np.maximum(np.real(sfft.ifft(folded, axis=1)) / hop, 0.0)


def reference_time_scattering(w, cfg):
    """(row labels, frames) of the full-length transform, labelled as
    scattering_paths labels them."""
    n_fft = cfg.n_fft
    x = pad_or_crop_center(fix_length(w, cfg.n).samples, n_fft)
    bank1 = cached_bank(cfg.q1, cfg.t, n_fft)
    bank2 = cached_bank(cfg.q2, cfg.t, n_fft)
    u1 = reference_wavelet_modulus(x, bank1)
    paths = [(0,)] + [(1, i1) for i1 in range(len(u1))]
    hop = bank1.spec.hop
    blocks = [reference_lowpass_average(x[None, :], bank1.lowpass, hop),
              reference_lowpass_average(u1, bank1.lowpass, hop)]
    for i1, f1 in enumerate(bank1.filters):
        admissible = np.flatnonzero(bank2.center_freqs < f1.bandwidth)
        if admissible.size == 0:
            continue
        u2 = np.abs(sfft.ifft(sfft.fft(u1[i1])[None, :] * bank2.responses[admissible],
                              axis=1))
        blocks.append(reference_lowpass_average(u2, bank1.lowpass, hop))
        paths += [(2, i1, int(i2)) for i2 in admissible]
    return paths, np.concatenate(blocks)


def assert_rows_close(got, want, rel=1e-12):
    """Every entry within rel times the largest |entry| of its row."""
    assert got.shape == want.shape
    bound = rel * np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= bound)


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

    @pytest.mark.parametrize("q", [1, 3, 8])
    def test_matches_full_length_reference(self, rng, q):
        bank = cached_bank(q, CFG.t, N_FFT)
        x = rng.standard_normal(N_FFT)
        assert_rows_close(wavelet_modulus(x, bank), reference_wavelet_modulus(x, bank))


def order2(frames):
    """{(lambda1, lambda2): frame row} of CFG's order-2 paths."""
    return {p[1:]: row for p, row in zip(scattering_paths(CFG), frames) if p[0] == 2}


class TestScatterLayer2:
    def test_constant_envelopes_give_zero(self):
        # A bin-aligned sine over exactly n == n_fft samples has a constant
        # envelope under every analytic first-layer wavelet, so every
        # second-layer modulus (zero-mean wavelets) vanishes.
        k = round(BANK1.filters[4].center_freq_normalized * N_FFT)
        frames = time_scattering(Waveform(sine_norm(k / N_FFT, CFG.n), FS), CFG)
        u2 = order2(frames)
        assert u2
        assert np.min(frames[1 + 4]) > 0.1  # order 1 does see the sine
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
        frames = time_scattering(Waveform(np.zeros(CFG.n), FS), CFG)
        centers2 = BANK2.center_freqs
        expected = sum(int(np.sum(centers2 < f.bandwidth)) for f in BANK1.filters)
        assert len(order2(frames)) == expected
        assert frames.shape[0] == len(scattering_paths(CFG))

    def test_lexicographic_order(self):
        keys = [p[1:] for p in scattering_paths(CFG) if p[0] == 2]
        assert keys == sorted(keys)


class TestLowpassAverage:
    HOP = BANK1.spec.hop

    def test_dc_response(self):
        frames = lowpass_average(np.ones(N_FFT), BANK1)
        assert np.allclose(frames, 1.0, atol=1e-9)

    def test_impulse_traces_lowpass_shape(self):
        u = np.zeros(N_FFT)
        u[100] = 1.0
        frames = lowpass_average(u, BANK1)
        phi_time = np.real(np.fft.ifft(BANK1.lowpass))
        expected = np.maximum(np.roll(phi_time, 100)[::self.HOP], 0.0)
        assert np.allclose(frames, expected, atol=1e-12)

    def test_shift_by_hop_rolls_frames(self, rng):
        u = np.abs(rng.standard_normal(N_FFT))
        a = lowpass_average(u, BANK1)
        b = lowpass_average(np.roll(u, self.HOP), BANK1)
        assert np.allclose(b, np.roll(a, 1), atol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            lowpass_average(np.zeros(N_FFT // 2), BANK1)

    def test_matches_folded_reference(self, rng):
        u = np.abs(rng.standard_normal((5, N_FFT)))
        want = reference_lowpass_average(u, BANK1.lowpass, self.HOP)
        assert_rows_close(lowpass_average(u, BANK1), want)
        # The taps are built from the low-pass once, with the bank: neither
        # can be written, so they cannot drift apart.
        for table in (BANK1.lowpass, BANK1.taps, BANK1.tap_offsets):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.5

    @pytest.mark.parametrize("t", [16384, 512, 64, 16])
    def test_memory_does_not_grow_with_frames(self, rng, t):
        """The bank's taps hold at most n_fft floats at every t. A dense
        (n_fft, n_frames) averaging matrix would take 1 GiB at n_fft =
        65536 and t = 64 (2048 frames per row)."""
        n_fft = 65536
        bank = cached_bank(1, t, n_fft)
        hop = bank.spec.hop
        u = np.abs(rng.standard_normal((3, n_fft)))
        want = reference_lowpass_average(u, bank.lowpass, hop)
        tracemalloc.start()
        try:
            got = lowpass_average(u, bank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_rows_close(got, want)
        assert bank.taps.nbytes <= 8 * n_fft
        # every dropped tap is rounding noise of phi
        phi = np.real(sfft.ifft(bank.lowpass))
        dropped = np.setdiff1d(np.arange(n_fft // hop), bank.tap_offsets)
        dropped_taps = phi[(dropped[:, None] * hop - np.arange(hop)) % n_fft]
        assert np.all(np.abs(dropped_taps) <= 4 * np.finfo(float).eps * np.abs(phi).max())
        assert peak < 4 * 16 * u.size  # a few complex copies of u

    @pytest.mark.parametrize("n, hop", [(9, 3), (15, 5), (27, 9), (12, 3), (16, 4),
                                        (99, 1), (256, 4), (512, 2)])
    def test_matches_full_length_convolution(self, rng, n, hop):
        """Odd and even lengths, and a phi that does not decay: a random
        positive even spectrum keeps every frame offset. (The banks'
        Gaussian drops most offsets at many frames; see
        test_memory_does_not_grow_with_frames.) The banks hold no
        band-pass and are built directly, outside build_morlet_bank's
        limits on t and n_fft."""
        u = np.abs(rng.standard_normal(n))
        half = rng.uniform(0.5, 1.5, n // 2 + 1)
        flat = np.concatenate([half, half[(n - 1) // 2:0:-1]])
        banks = [FilterBank((), lowpass, FilterBankSpec(1, 2 * hop, n))
                 for lowpass in (np.exp(-0.5 * (np.fft.fftfreq(n) * 4.0) ** 2), flat)]
        assert len(banks[1].tap_offsets) == n // hop
        for bank in banks:  # real, even low-passes
            direct = np.real(np.fft.ifft(np.fft.fft(u) * bank.lowpass))[::hop]
            frames = lowpass_average(u, bank)
            assert frames.shape == (n // hop,)
            assert np.max(np.abs(frames - np.maximum(direct, 0.0))) < 1e-12


class TestTimeScattering:
    def test_zero_signal_zero_vector(self):
        frames = time_scattering(Waveform(np.zeros(CFG.n), FS), CFG)
        assert np.all(frames == 0.0)

    def test_path_layout(self):
        paths = scattering_paths(CFG)
        orders = [p[0] for p in paths]
        n1 = len(BANK1.filters)
        assert paths[:n1 + 1] == [(0,)] + [(1, i) for i in range(n1)]
        assert set(orders[n1 + 1:]) == {2}
        pairs = [p[1:] for p in paths if p[0] == 2]
        assert pairs == sorted(pairs)
        frames = time_scattering(Waveform(np.zeros(CFG.n), FS), CFG)
        assert frames.shape == (len(paths), N_FFT // BANK1.spec.hop)

    def test_non_expansive(self, rng):
        x = bandlimited_noise(rng, CFG.n, peak=0.4)
        y = bandlimited_noise(rng, CFG.n, peak=0.4)
        sx = time_scattering(Waveform(x, FS), CFG)
        sy = time_scattering(Waveform(y, FS), CFG)
        assert np.linalg.norm(sx - sy) <= np.linalg.norm(x - y) + 1e-6

    def test_scale_homogeneity(self, rng):
        x = bandlimited_noise(rng, CFG.n, peak=0.4)
        a = time_scattering(Waveform(x, FS), CFG)
        b = time_scattering(Waveform(0.25 * x, FS), CFG)
        ref = np.linalg.norm(a)
        assert np.linalg.norm(b - 0.25 * a) < 1e-9 * ref

    def test_translation_covariance_one_hop(self, rng):
        # n == n_fft here, so rolling the input is circular for the FFT
        x = bandlimited_noise(rng, CFG.n, peak=0.4)
        a = time_scattering(Waveform(x, FS), CFG)
        b = time_scattering(Waveform(np.roll(x, BANK1.spec.hop), FS), CFG)
        assert np.allclose(b, np.roll(a, 1, axis=1), atol=1e-9)

    def test_non_negative(self, rng):
        x = bandlimited_noise(rng, CFG.n, peak=0.4)
        assert np.all(time_scattering(Waveform(x, FS), CFG) >= 0.0)

    def test_same_bytes_with_one_blas_thread(self):
        """The low-pass's matrix products give the same frames whatever
        number of threads the BLAS library runs, here at CFG and at the
        default config."""
        code = ("import hashlib, numpy as np\n"
                "from scatfeat import RunConfig, Waveform, time_scattering\n"
                "for cfg in (RunConfig(q1=3, t=1024, n=4096), RunConfig()):\n"
                "    x = 0.1 * np.random.default_rng(7).standard_normal(cfg.n)\n"
                "    frames = time_scattering(Waveform(x, 16000), cfg)\n"
                "    print(hashlib.sha256(frames.tobytes()).hexdigest())\n")
        want = []
        for cfg in (CFG, RunConfig()):
            x = 0.1 * np.random.default_rng(7).standard_normal(cfg.n)
            frames = time_scattering(Waveform(x, FS), cfg)
            want.append(hashlib.sha256(frames.tobytes()).hexdigest())
        one = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS")}
        assert run_python(code, **one).split() == want

    def test_wrong_sample_rate(self):
        with pytest.raises(SampleRateError):
            time_scattering(Waveform(np.zeros(CFG.n), 8000), CFG)

    def test_arbitrary_length_fixed_internally(self, rng):
        x = rng.standard_normal(2 * CFG.n) * 0.1
        frames = time_scattering(Waveform(x, FS), CFG)
        ref = time_scattering(Waveform(x[CFG.n // 2:CFG.n // 2 + CFG.n], FS), CFG)
        assert np.allclose(frames.mean(axis=1), ref.mean(axis=1))

    def test_log_compress(self, rng):
        """The frames are linear; extract_vector takes one log of every row,
        frequency-scattering rows included, then pools."""
        cfg = replace(CFG, f_wavelet_len=8)
        w = Waveform(bandlimited_noise(rng, CFG.n, peak=0.4), FS)
        linear = time_scattering(w, cfg)
        for kind, frames in (("scatnet", linear),
                             ("f-scatnet", frequency_scattering(linear, cfg))):
            want = np.log(frames + cfg.log_eps).mean(axis=1)
            assert np.array_equal(extract_vector(kind, w, cfg), want)

    def test_invalid_config(self):
        with pytest.raises(InvalidSpecError):
            time_scattering(Waveform(np.zeros(100), FS),
                            RunConfig(t=8192, n=100))


class TestMaxOrder:
    """max_order=1 returns the order-0 and order-1 rows alone, without
    running layer 2."""

    @pytest.mark.parametrize("cfg", [CFG, RunConfig()], ids=["small", "default"])
    def test_order1_is_a_prefix_of_the_full_matrix(self, rng, cfg):
        w = Waveform(bandlimited_noise(rng, cfg.n, peak=0.4), FS)
        n_low = 1 + len(cached_bank(cfg.q1, cfg.t, cfg.n_fft).filters)
        full = time_scattering(w, cfg)
        low = time_scattering(w, cfg, max_order=1)
        assert low.shape == (n_low, full.shape[1])
        assert low.tobytes() == full[:n_low].tobytes()

    @pytest.mark.parametrize("max_order", [1, 2])
    def test_layer2_moduli_run_only_at_order_2(self, rng, monkeypatch, max_order):
        """Layer 1 runs one _modulus per filter; _moduli runs once per
        layer-2 block, and only at order 2."""
        calls = []
        moduli = scattering._moduli
        monkeypatch.setattr(scattering, "_moduli",
                            lambda *args: calls.append(1) or moduli(*args))
        time_scattering(Waveform(rng.standard_normal(CFG.n), FS), CFG,
                        max_order=max_order)
        n_blocks = len({p[1] for p in scattering_paths(CFG) if p[0] == 2})
        assert len(calls) == (0 if max_order == 1 else n_blocks)

    @pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(q1=2, t=512),
                                     RunConfig(q1=3, t=1024, n=4096, f_wavelet_len=8)],
                             ids=["default", "many-frames", "frequency"])
    def test_order1_rows_are_the_layer1_lowpass(self, rng, cfg):
        """Row by row, the order-1 rows are bit for bit the whole-bank
        low-pass of the whole-bank moduli."""
        w = Waveform(bandlimited_noise(rng, cfg.n, peak=0.4), FS)
        bank1 = cached_bank(cfg.q1, cfg.t, cfg.n_fft)
        x = pad_or_crop_center(fix_length(w, cfg.n).samples, cfg.n_fft)
        want = lowpass_average(wavelet_modulus(x, bank1), bank1)
        got = time_scattering(w, cfg, max_order=1)[1:]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("max_order", [0, 3])
    def test_other_orders_rejected(self, max_order):
        with pytest.raises(InvalidSpecError):
            time_scattering(Waveform(np.zeros(CFG.n), FS), CFG, max_order=max_order)


class TestMemory:
    """Traced peaks of one default time_scattering: one first-order row is
    in flight, with at most one layer-2 block."""

    @pytest.mark.parametrize("max_order, bound_mb", [(2, 20), (1, 8)])
    def test_time_scattering_peak(self, max_order, bound_mb):
        cfg = RunConfig()
        w = Waveform(0.1 * np.random.default_rng(3).standard_normal(cfg.n), FS)
        time_scattering(w, cfg, max_order=max_order)  # banks and twiddle tables
        tracemalloc.start()
        try:
            time_scattering(w, cfg, max_order=max_order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 2**20


def oracle_signal(kind, cfg):
    n = np.arange(cfg.n)
    if kind == "zero":
        return np.zeros(cfg.n)
    if kind == "impulse":
        return (n == cfg.n // 3).astype(float)
    if kind == "band-edge-sine":
        # the lowest non-zero bin of the narrowest first-layer band
        bank1 = cached_bank(cfg.q1, cfg.t, cfg.n_fft)
        k = np.flatnonzero(bank1.responses[-1])[0]
        return 0.5 * np.cos(2 * np.pi * k * n / cfg.n_fft)
    seed = int(kind.split("-")[1])
    return 0.1 * np.random.default_rng(seed).standard_normal(cfg.n)


class TestFullLengthOracle:
    """time_scattering against the kept full-length transform at the
    default config, on the linear frames and on the log frames that
    extract_vector pools."""

    @pytest.mark.parametrize("kind", ["zero", "impulse", "band-edge-sine",
                                      "noise-1", "noise-2"])
    @pytest.mark.parametrize("log", [True, False], ids=["run-default", "linear"])
    def test_matches(self, log, kind):
        cfg = RunConfig()
        w = Waveform(oracle_signal(kind, cfg), FS)
        paths, want = reference_time_scattering(w, cfg)
        assert scattering_paths(cfg) == paths
        got = time_scattering(w, cfg)
        if log:
            got, want = np.log(got + cfg.log_eps), np.log(want + cfg.log_eps)
        assert_rows_close(got, want)

    def test_matches_at_many_frames(self):
        """t = 512 gives 256 frames per path. Linear frames: at this t,
        frames over the zero padding are near 0, where the log scales
        rounding by 1 / log_eps."""
        cfg = RunConfig(q1=2, t=512)
        w = Waveform(oracle_signal("noise-1", cfg), FS)
        paths, frames = reference_time_scattering(w, cfg)
        assert scattering_paths(cfg) == paths
        assert_rows_close(time_scattering(w, cfg), frames)

    def test_tables_built_once(self, rng, monkeypatch):
        """Supports and low-pass taps are built with a bank, and each
        twiddle table once per band width: none of them per utterance or
        per row. Each support is the one a scan of the dense response
        finds."""
        time_scattering(Waveform(rng.standard_normal(CFG.n), FS), CFG)  # banks
        for f in BANK1.filters + BANK2.filters:
            assert (f.start, f.width) == band_support(f.response)
        supports, taps = [], []
        monkeypatch.setattr(filterbank, "_support",
                            lambda first, gains, n_fft: supports.append(first) or (0, gains))
        monkeypatch.setattr(filterbank, "lowpass_taps",
                            lambda lowpass, hop: taps.append(hop) or ((), ()))
        scattering._twiddles.cache_clear()
        for _ in range(3):
            time_scattering(Waveform(rng.standard_normal(CFG.n), FS), CFG)
        twiddles = scattering._twiddles.cache_info()
        assert supports == [] and taps == []
        widths = {next_pow2(f.width) for f in BANK1.filters + BANK2.filters}
        assert twiddles.misses == len(widths)


class TestFrequencyScattering:
    FCFG = RunConfig(q1=3, t=1024, n=4096, f_wavelet_len=8)
    N_GEO = len(BANK1.geometric_indices())
    N_WAVELETS = len(cached_bank(1, 8, next_pow2(max(N_GEO, 8))).filters)

    def test_constant_s1_gives_zero(self):
        n1 = len(BANK1.filters)
        frames = np.full((1 + n1, 4), 3.5)
        out = frequency_scattering(frames, self.FCFG)
        assert np.array_equal(out[:1 + n1], frames)
        assert out.shape == (1 + n1 + self.N_WAVELETS * self.N_GEO, 4)
        assert np.max(np.abs(out[1 + n1:])) < 1e-9 * 3.5
        assert self.N_GEO >= 2

    def test_reads_the_geometric_order1_rows(self, rng):
        """Only rows 1 .. n_geo reach the appended block: the order-0 row,
        the linear-region order-1 rows and order 2 do not."""
        frames = time_scattering(Waveform(bandlimited_noise(rng, CFG.n, peak=0.4), FS),
                                 self.FCFG)
        out = frequency_scattering(frames, self.FCFG)
        changed = frames.copy()
        changed[0] *= 7.0
        changed[1 + self.N_GEO:] *= 3.0
        again = frequency_scattering(changed, self.FCFG)
        assert np.array_equal(again[len(frames):], out[len(frames):])
        changed[self.N_GEO] *= 2.0
        assert not np.allclose(frequency_scattering(changed, self.FCFG)[len(frames):],
                               out[len(frames):])

    def test_path_count(self, rng):
        x = bandlimited_noise(rng, CFG.n, peak=0.4)
        base = time_scattering(Waveform(x, FS), self.FCFG)
        out = frequency_scattering(base, self.FCFG)
        assert out.shape[0] - base.shape[0] == self.N_WAVELETS * self.N_GEO
        assert np.array_equal(out[:len(base)], base)

    def test_transposition_covariance(self):
        # One octave up moves the order-1 pattern by q1 geometric bins;
        # unaveraged moduli should follow within 10% on interior bins.
        cfg = RunConfig(q1=5, t=4096, n=16000, f_wavelet_len=16)
        n = np.arange(16000)
        wa = Waveform(0.5 * np.cos(2 * np.pi * (500.0 / FS) * n), FS)
        wb = Waveform(0.5 * np.cos(2 * np.pi * (1000.0 / FS) * n), FS)
        n_time = len(scattering_paths(cfg))
        n_geo = len(cached_bank(cfg.q1, cfg.t, cfg.n_fft).geometric_indices())

        def tensor(w):
            out = frequency_scattering(time_scattering(w, cfg), cfg)
            return out[n_time:].mean(axis=1).reshape(-1, n_geo)

        ta, tb = tensor(wa), tensor(wb)
        aligned = np.roll(ta, -cfg.q1, axis=1)  # f -> 2f lowers the bin index
        interior = slice(8, ta.shape[1] - 8)
        err = np.linalg.norm(aligned[:, interior] - tb[:, interior])
        assert err < 0.10 * np.linalg.norm(tb[:, interior])

    def test_axis_too_short(self):
        tiny = RunConfig(q1=1, t=4, n=8, f_wavelet_len=2)
        with pytest.raises(AxisTooShortError):
            frequency_scattering(np.ones((1, 4)), tiny)

    def test_rows_without_an_order1_block(self):
        with pytest.raises(LengthMismatchError):
            frequency_scattering(np.ones((len(BANK1.filters), 4)), self.FCFG)
