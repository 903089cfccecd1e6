import math
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sfft

from scatfeat import filterbank
from scatfeat.config import RunConfig
from scatfeat.errors import InvalidSpecError
from scatfeat.filterbank import (FilterBank, FilterBankSpec, _morlet_gains,
                                 _periodized_gaussian, bank_to_csv_rows,
                                 build_morlet_bank, gaussian_lowpass,
                                 littlewood_paley_bounds, littlewood_paley_sum,
                                 lowpass_taps, max_center_freq, real_fft)
from scatfeat.scattering import frequency_bank
from testkit import dense_morlet, dense_morlet_bank, full_grid_gaussian


def geo_centers(bank):
    return [bank.filters[i].center_freq_normalized for i in bank.geometric_indices()]


def lin_centers(bank):
    return [f.center_freq_normalized for f in bank.filters if f.region == "lin"]


class TestConstruction:
    def test_q1_octave_ratios(self):
        bank = build_morlet_bank(FilterBankSpec(1, 1024, 8192))
        centers = geo_centers(bank)
        ratios = np.array(centers[1:]) / np.array(centers[:-1])
        assert np.all(np.abs(ratios - 0.5) < 1e-9)

    def test_paper_operating_point(self):
        bank = build_morlet_bank(FilterBankSpec(5, 16384, 65536))
        centers = geo_centers(bank)
        ratios = np.array(centers[1:]) / np.array(centers[:-1])
        assert np.all(np.abs(ratios - 2 ** (-1 / 5)) < 1e-9)

    def test_dc_bin_exactly_zero(self):
        bank = build_morlet_bank(FilterBankSpec(3, 1024, 8192))
        for f in bank.filters:
            assert abs(f.response[0]) < 1e-12

    def test_responses_real_nonnegative(self):
        bank = build_morlet_bank(FilterBankSpec(2, 2048, 8192))
        resp = bank.responses
        assert resp.dtype == np.float64
        assert np.all(resp >= 0.0)
        assert np.all(bank.lowpass >= 0.0)

    def test_centers_strictly_decreasing(self):
        bank = build_morlet_bank(FilterBankSpec(5, 4096, 16384))
        centers = bank.center_freqs
        assert np.all(np.diff(centers) < 0)

    def test_linear_region_spacing(self):
        bank = build_morlet_bank(FilterBankSpec(5, 4096, 16384))
        lin = lin_centers(bank)
        assert len(lin) >= 2
        diffs = -np.diff(lin)
        assert np.all(np.abs(diffs - 1.0 / 4096) < 1e-9)

    def test_linear_region_reaches_one_over_t(self):
        bank = build_morlet_bank(FilterBankSpec(5, 4096, 16384))
        assert bank.filters[-1].center_freq_normalized < 1.0 / 4096

    def test_geometric_count_formula(self):
        for q, t in [(1, 1024), (3, 4096), (5, 16384), (8, 4096)]:
            bank = build_morlet_bank(FilterBankSpec(q, t, 65536))
            count = len(bank.geometric_indices())
            predicted = math.ceil(q * math.log2(max_center_freq(q) * t / q))
            assert abs(count - predicted) <= 1

    @pytest.mark.parametrize("q", [1, 3, 5, 8])
    @pytest.mark.parametrize("t", [4096, 16384, 32768])
    def test_geometric_filters_come_first(self, q, t):
        """frequency_scattering takes the order-1 rows right after order 0
        as its log-frequency axis, so every bank lists its geometric
        filters first."""
        bank = build_morlet_bank(FilterBankSpec(q, t, 65536))
        n_geo = len(bank.geometric_indices())
        assert n_geo >= 2
        assert bank.geometric_indices() == list(range(n_geo))

    def test_doubling_nfft_keeps_geometry(self):
        a = build_morlet_bank(FilterBankSpec(5, 4096, 16384))
        b = build_morlet_bank(FilterBankSpec(5, 4096, 32768))
        assert np.allclose(a.center_freqs, b.center_freqs, atol=1e-9, rtol=0)
        assert np.allclose([f.bandwidth for f in a.filters], [f.bandwidth for f in b.filters],
                           atol=1e-9, rtol=0)

    def test_bandwidth_fields(self):
        q, t = 5, 4096
        bank = build_morlet_bank(FilterBankSpec(q, t, 16384))
        for f in bank.filters:
            expected = f.center_freq_normalized / q if f.region == "geo" else 1.0 / t
            assert f.bandwidth == pytest.approx(expected, rel=0, abs=0)


def bank_bytes(bank):
    """Every value a bank holds, as bytes: each filter's start, band,
    centre, bandwidth and region, then the low-pass, taps and tap offsets."""
    parts = [np.array([f.start, f.center_freq_normalized, f.bandwidth]).tobytes()
             + f.band.tobytes() + f.region.encode() for f in bank.filters]
    return parts + [bank.lowpass.tobytes(), bank.taps.tobytes(),
                    bank.tap_offsets.tobytes()]


# n_fft small enough that the Gaussians wrap round the grid
WRAPPING_SPECS = [(1, 4, 8), (2, 16, 32), (1, 8, 32), (3, 32, 64), (1, 16, 64)]


class TestPeriodizedGaussian:
    """The windowed build is bit for bit the build over all n_fft bins that
    testkit keeps: full-grid Gaussians, dense Morlet responses, a scan of
    every bin for each support, the dense rescale and dense energy sums."""

    @pytest.mark.parametrize("q", [1, 3, 5, 8])
    @pytest.mark.parametrize("t", [4096, 16384, 32768])
    def test_matches_full_grid_on_a1_banks(self, q, t):
        spec = FilterBankSpec(q, t, 65536)
        assert bank_bytes(build_morlet_bank(spec)) == bank_bytes(dense_morlet_bank(spec))

    @pytest.mark.parametrize("make_bank", [
        lambda cfg: build_morlet_bank(FilterBankSpec(cfg.q2, cfg.t, cfg.n_fft)),
        frequency_bank,
    ] + [lambda cfg, spec=spec: build_morlet_bank(FilterBankSpec(*spec))
         for spec in WRAPPING_SPECS],
        ids=["bank2", "frequency"] + ["-".join(map(str, s)) for s in WRAPPING_SPECS])
    def test_matches_full_grid_bank(self, make_bank):
        """The default pair's q2 bank (its q1 bank is in the A1 grid), the
        frequency bank and banks whose Gaussians wrap."""
        bank = make_bank(RunConfig())
        assert bank_bytes(bank) == bank_bytes(dense_morlet_bank(bank.spec))

    @pytest.mark.parametrize("n_fft", [8, 32, 64])
    @pytest.mark.parametrize("sigma", [1e-3, 0.02, 0.1, 0.4, 1.5])
    @pytest.mark.parametrize("center", [0.0, 0.1, 0.37, 0.49])
    def test_matches_full_grid_when_wrapping(self, n_fft, sigma, center):
        """The Gaussian and the Morlet gains, placed on the grid."""
        lo, values = _periodized_gaussian(n_fft, center, sigma)
        dense = np.zeros(n_fft)
        dense[(np.arange(lo, lo + values.shape[0]) + n_fft // 2) % n_fft] = values
        assert dense.tobytes() == full_grid_gaussian(n_fft, center, sigma).tobytes()
        first, gains = _morlet_gains(n_fft, center, sigma)
        dense = np.zeros(n_fft)
        dense[(first + np.arange(gains.shape[0])) % n_fft] = gains
        assert dense.tobytes() == dense_morlet(n_fft, center, sigma).tobytes()


INVALID_SPECS = [
    (0, 1024, 8192),      # q < 1
    (3, 1000, 8192),      # t not a power of two
    (3, 1024, 6000),      # n_fft not a power of two
    (3, 16384, 8192),     # t > n_fft
    (8, 2, 8192),         # geometric region empty
]


class TestInvalidSpecs:
    @pytest.mark.parametrize("q,t,n_fft", INVALID_SPECS)
    def test_rejected(self, q, t, n_fft):
        with pytest.raises(InvalidSpecError):
            build_morlet_bank(FilterBankSpec(q, t, n_fft))

    @pytest.mark.parametrize("q,t,n_fft", INVALID_SPECS)
    def test_validate_rejects(self, q, t, n_fft):
        """Every rule lives in FilterBankSpec.validate, so a spec can be
        checked without building its bank."""
        with pytest.raises(InvalidSpecError):
            FilterBankSpec(q, t, n_fft).validate()


class TestLittlewoodPaley:
    @pytest.mark.parametrize("q", [1, 3, 5, 8])
    @pytest.mark.parametrize("t", [1024, 4096])
    def test_bounds(self, q, t):
        bank = build_morlet_bank(FilterBankSpec(q, t, 16384))
        bounds = littlewood_paley_bounds(bank)
        assert bounds["max"] <= 1.0 + 1e-6
        assert bounds["min"] >= 0.5

    def test_min_scanned_over_covered_band(self):
        bank = build_morlet_bank(FilterBankSpec(5, 1024, 8192))
        lp = littlewood_paley_sum(bank)
        freqs = np.abs(np.fft.fftfreq(8192))
        band = (freqs >= 1.0 / 1024 - 1e-12) & \
               (freqs <= bank.filters[0].center_freq_normalized + 1e-12)
        assert lp[band].min() == pytest.approx(littlewood_paley_bounds(bank)["min"])
        assert lp[band].min() >= 0.5

    def test_lowpass_only_degenerate_bank(self):
        spec = FilterBankSpec(1, 256, 2048)
        bank = FilterBank((), gaussian_lowpass(2048, 0.25 / 256), spec)
        bounds = littlewood_paley_bounds(bank)
        assert bounds["max"] == pytest.approx(1.0, abs=1e-12)


class TestStorage:
    def test_default_pair_held_memory(self):
        """Each filter is stored over its band: the default pair of banks
        holds at most 12 MB, where its dense responses would take 36 MB."""
        cfg = RunConfig()
        tracemalloc.start()
        try:
            banks = [build_morlet_bank(FilterBankSpec(q, cfg.t, cfg.n_fft))
                     for q in (cfg.q1, cfg.q2)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(len(bank.filters) for bank in banks) == 72
        assert held <= 12 * 2**20

    def test_dense_responses_are_read_only(self):
        bank = build_morlet_bank(FilterBankSpec(1, 64, 256))
        assert not bank.responses.flags.writeable
        assert not bank.filters[0].response.flags.writeable


class TestScipyBits:
    """numpy.fft, called as the package calls it, returns scipy.fft's bits,
    which the package used before and the tests keep as the oracle."""

    @pytest.mark.parametrize("shape", [(64,), (65536,), (5, 1024)])
    def test_real_fft_is_scipy_fft(self, rng, shape):
        x = rng.standard_normal(shape)
        assert real_fft(x).tobytes() == sfft.fft(x).tobytes()

    @pytest.mark.parametrize("make_bank", [
        lambda cfg: filterbank.cached_bank(cfg.q1, cfg.t, cfg.n_fft),
        lambda cfg: filterbank.cached_bank(cfg.q2, cfg.t, cfg.n_fft),
        frequency_bank,
        lambda cfg: build_morlet_bank(FilterBankSpec(3, 1024, 4096)),
    ], ids=["bank1", "bank2", "frequency", "small"])
    def test_lowpass_taps_are_scipys(self, make_bank):
        """The taps and offsets equal those of phi = real(scipy ifft)."""
        bank = make_bank(RunConfig())
        phi = np.real(sfft.ifft(bank.lowpass))
        n_fft, hop = phi.shape[0], bank.spec.hop
        taps = phi[(np.arange(n_fft // hop)[:, None] * hop - np.arange(hop)) % n_fft]
        peak = np.max(np.abs(taps), axis=1)
        offsets = np.argsort(peak, kind="stable")
        offsets = offsets[peak[offsets] > 4 * np.finfo(np.float64).eps * peak.max()]
        got_taps, got_offsets = lowpass_taps(bank.lowpass, hop)
        assert got_offsets.tobytes() == offsets.tobytes()
        assert got_taps.tobytes() == taps[offsets].tobytes()


class TestCsvDump:
    def test_rows(self):
        bank = build_morlet_bank(FilterBankSpec(3, 1024, 4096))
        rows = bank_to_csv_rows(bank)
        assert rows[0] == "index,center_freq_hz,bandwidth_hz,region"
        assert len(rows) == len(bank.filters) + 1
        first = rows[1].split(",")
        assert first[0] == "0"
        assert first[3] == "geo"
        assert float(first[1]) == pytest.approx(
            bank.filters[0].center_freq_normalized * 16000)
        regions = {r.split(",")[3] for r in rows[1:]}
        assert regions == {"geo", "lin"}
