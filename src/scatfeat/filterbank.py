"""Constant-Q Morlet filter banks defined in the frequency domain.

A bank holds analytic band-pass wavelets psi and one Gaussian low-pass phi,
all sampled on the n_fft DFT grid in normalized frequency (cycles/sample).
Center frequencies follow two regimes:

  * geometric: lambda_k = lambda_max * 2^(-k/q) while lambda_k >= q/t,
    with bandwidth proportional to lambda/q so that neighboring filters
    cross at their half-power points;
  * linear: below the geometric bottom, centers continue downward in exact
    steps of 1/t with a fixed bandwidth proportional to 1/t, until the 1/t
    line is passed. Anchoring the linear grid at the last geometric center
    keeps every gap equal to 1/t, which is what keeps the Littlewood-Paley
    sum free of junction spikes.

After construction all band-pass responses are rescaled by one global
factor so that the Littlewood-Paley sum peaks at exactly 1, making the
wavelet transform non-expansive.

Memory: each band-pass filter is stored over its band alone, the width
bins from the start of its support that hold every non-zero gain; a wavelet
modulus zero-pads them to the m = next_pow2(width) bins it inverts
(scattering._modulus). About 80% of a dense response is exact zeros, so the
default pair of banks holds 7 MB of bands in place of 36 MB of dense
(n_filters, n_fft) responses. BandpassFilter.response and
FilterBank.responses build the dense gains when read; nothing keeps them.
The build makes one response at a time, over the bins where its Gaussians
do not underflow (_morlet_gains), and keeps its band. Besides the
low-pass and the two n_fft-bin energy sums, it holds one (n_filters,
_ENERGY_BLOCK) block at a time, never an (n_filters, n_fft) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .audio_io import SAMPLE_RATE_HZ
from .errors import InvalidSpecError

_LN2 = float(np.log(2.0))

# Frequency-domain std of the low-pass, in units of 1/t. The equivalent
# time-domain std is t/(2*pi*0.25) ~ 0.64*t.
_SIGMA_PHI_FACTOR = 0.25
# Frequency-domain std of linear-region wavelets, in units of 1/t.
_SIGMA_LIN_FACTOR = 0.6
# Drop a trailing linear filter whose center would sit below this many 1/t;
# such a wavelet degenerates into a clipped near-DC bump.
_MIN_CENTER_FACTOR = 0.25

_PERIODIZATION_EPS = 1e-7
# exp(-x) underflows to exactly 0.0 in float64 for x > 745.14, i.e. beyond
# sqrt(2 * 745.2) standard deviations from a Gaussian's centre.
_UNDERFLOW_SIGMAS = float(np.sqrt(2.0 * 745.2))
# Columns summed at a time by _wavelet_energy: a (n_filters, 4096) block.
_ENERGY_BLOCK = 4096


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class FilterBankSpec:
    """Parameters of one bank: q wavelets per octave, averaging scale t
    (samples, power of two) and DFT length n_fft (power of two, >= t).
    validate also requires t large enough for q that the geometric region
    holds at least one filter (lambda_max >= q/t)."""

    q: int
    t: int
    n_fft: int

    @property
    def hop(self) -> int:
        """Spacing of the low-pass's frames in samples: t/2."""
        return self.t // 2

    def validate(self) -> None:
        if self.q < 1:
            raise InvalidSpecError(f"q must be >= 1, got {self.q}")
        if not _is_pow2(self.t):
            raise InvalidSpecError(f"t must be a power of two, got {self.t}")
        if not _is_pow2(self.n_fft):
            raise InvalidSpecError(f"n_fft must be a power of two, got {self.n_fft}")
        if self.t > self.n_fft:
            raise InvalidSpecError(f"t={self.t} exceeds n_fft={self.n_fft}")
        lam_max, cutoff = max_center_freq(self.q), self.q / self.t
        if lam_max < cutoff - 1e-12:
            raise InvalidSpecError(
                f"geometric region is empty: lambda_max={lam_max:.4g} < q/t={cutoff:.4g}")


@dataclass(frozen=True)
class BandpassFilter:
    """One analytic wavelet: nominal center (cycles/sample), nominal
    bandwidth (lambda/q in the geometric region, 1/t in the linear one),
    region, and its non-negative gain stored over its support alone: band
    holds, read-only, the gains of the bins from start on, circularly, over
    the shortest span of the n_fft DFT bins that holds every non-zero one
    (see _support)."""

    center_freq_normalized: float
    bandwidth: float
    region: str  # "geo" | "lin"
    start: int
    band: np.ndarray
    n_fft: int

    @property
    def width(self) -> int:
        return self.band.shape[0]

    @property
    def response(self) -> np.ndarray:
        """The gain over all n_fft bins, built on each read; read-only."""
        out = np.zeros(self.n_fft)
        _place(out, self.band, self.start, self.n_fft)
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class FilterBank:
    """Band-pass filters, the low-pass and their spec; taps and tap_offsets
    hold phi sampled every spec.hop over its frame offsets (see
    lowpass_taps). Per-filter values (start, width, bandwidth) are read
    from filters; the bank derives only what callers read of it: the center
    frequencies and geometric indices the transforms use, and the dense
    responses the references compare against."""

    filters: tuple[BandpassFilter, ...]
    lowpass: np.ndarray
    spec: FilterBankSpec
    taps: np.ndarray = field(init=False, repr=False)
    tap_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        taps, offsets = lowpass_taps(self.lowpass, self.spec.hop)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "tap_offsets", offsets)

    @property
    def responses(self) -> np.ndarray:
        """Every band-pass gain over all n_fft bins, an (n_filters, n_fft)
        matrix built on each read; read-only."""
        out = np.zeros((len(self.filters), self.spec.n_fft))
        for f, row in zip(self.filters, out):
            row[:] = f.response
        out.flags.writeable = False
        return out

    @property
    def center_freqs(self) -> np.ndarray:
        return np.array([f.center_freq_normalized for f in self.filters])

    def geometric_indices(self) -> list[int]:
        return [i for i, f in enumerate(self.filters) if f.region == "geo"]


def circular_window(v: np.ndarray, start: int, m: int) -> np.ndarray:
    """v[start:start + m], wrapping past the end of v."""
    over = start + m - v.shape[0]
    return v[start:start + m] if over <= 0 else np.concatenate((v[start:], v[:over]))


def _place(out: np.ndarray, band: np.ndarray, start: int, n_fft: int,
           lo: int = 0) -> None:
    """Copy band, the gains of the len(band) bins from bin start on of an
    n_fft-bin axis, into out, which holds the len(out) bins from bin lo on:
    only the bins both hold. Both spans wrap past the axis's last bin."""
    m, n = band.shape[0], out.shape[0]
    d = (lo - start) % n_fft  # the band index of bin lo, if below m
    if d < m:
        out[:min(m - d, n)] = band[d:d + n]
    s = n_fft - d  # the out index of bin start, if below n
    if s < n:
        out[s:s + m] = band[:n - s]


def _support(first: int, gains: np.ndarray, n_fft: int) -> tuple[int, np.ndarray]:
    """(start, band) of gains, which hold the len(gains) bins from bin first
    on of an n_fft-bin axis (wrapping past its last bin) and which are 0 on
    every other bin: band is a read-only copy of the gains over the shortest
    span, from bin start on, that holds every non-zero one. Gains are cut
    where exp() underflows, so the support is exact.

    The span is found as a scan of the dense n_fft-bin gains would find it:
    the non-zero bins in ascending order, and the longest circular zero run
    between them (the first of equal ones) ends the support. Only the
    non-zero bins of gains are visited."""
    nz = np.flatnonzero(gains) + first
    k = int(np.searchsorted(nz, n_fft))
    nz = np.concatenate((nz[k:] - n_fft, nz[:k]))
    gaps = np.diff(nz, append=nz[0] + n_fft)
    k = int(np.argmax(gaps))
    start = int(nz[(k + 1) % nz.size])
    band = np.zeros(n_fft - gaps[k] + 1)
    _place(band, gains, first, n_fft, start)
    band.flags.writeable = False
    return start, band


def real_fft(x: np.ndarray, norm: str = "backward") -> np.ndarray:
    """The full DFT of real x along its last axis, built as scipy.fft.fft
    builds it for real input, so bit for bit its result: numpy's real FFT
    gives bins 0 to n // 2, and each bin k of it is also written to bin
    (n - k) mod n as its conjugate (bin 0, and n / 2 for even n, onto
    itself). np.fft.fft transforms real x as complex and rounds
    differently."""
    n, m = x.shape[-1], (x.shape[-1] + 1) // 2
    half = np.fft.rfft(x, norm=norm)
    out = np.empty(x.shape[:-1] + (n,), dtype=complex)
    out[..., :m] = half[..., :m]
    np.conjugate(half[..., :0:-1], out=out[..., m:])
    np.conjugate(half[..., 0], out=out[..., 0])
    return out


def lowpass_taps(lowpass: np.ndarray, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """(taps, offsets) of phi = real(ifft(lowpass)) at stride hop: row k of
    taps holds phi[offsets[k] * hop - b] for b < hop (indices mod n_fft).
    An offset whose taps are all at most 4 eps max|phi| holds only the
    rounding that the ifft leaves in phi, and is dropped; at most n_fft
    floats remain. The offsets ascend in their largest |tap|, so the
    shift-and-add of scattering.lowpass_average adds the smallest terms
    first. Both arrays are read-only.

    phi is real_fft(lowpass, norm="forward").real: scipy inverts real input
    as a forward real FFT scaled by 1/n_fft and conjugated, which leaves the
    real part alone, so phi holds scipy.fft.ifft's bits; np.fft.ifft(lowpass)
    misses them by up to 2e-20, and every feature would move."""
    phi = real_fft(lowpass, norm="forward").real
    n_fft = phi.shape[0]
    taps = phi[(np.arange(n_fft // hop)[:, None] * hop - np.arange(hop)) % n_fft]
    peak = np.max(np.abs(taps), axis=1)  # every sample of phi is one tap
    offsets = np.argsort(peak, kind="stable")
    offsets = offsets[peak[offsets] > 4 * np.finfo(np.float64).eps * peak.max()]
    taps = taps[offsets]
    taps.flags.writeable = offsets.flags.writeable = False
    return taps, offsets


def _periodized_gaussian(n_fft: int, center: float, sigma: float) -> tuple[int, np.ndarray]:
    """(lo, values): exp(-(w-center)^2 / 2 sigma^2) summed over enough unit
    periods that the wrap-around error stays below _PERIODIZATION_EPS, on
    bins lo to lo + len(values) - 1 of the ascending DFT grid; it is 0 on
    every other bin. Ascending bin m is frequency (m - n_fft//2) / n_fft,
    DFT bin (m + n_fft//2) mod n_fft.

    Each period's Gaussian is evaluated only on the bins within
    _UNDERFLOW_SIGMAS * sigma of its centre (plus one bin of rounding
    slack), and values spans the union of those windows. Beyond that radius
    exp() underflows to exactly 0.0 in float64, so a skipped bin or term is
    one that a sum of every period over the full DFT grid leaves at, or adds
    as, exact 0.0; the periods are added in the same order, so the result
    is bit for bit that sum's.
    """
    n_periods = int(np.ceil(np.sqrt(-2.0 * sigma**2 * np.log(_PERIODIZATION_EPS)))) + 1
    half = n_fft // 2
    radius = _UNDERFLOW_SIGMAS * sigma
    windows = []
    for p in range(-n_periods, n_periods + 1):
        lo = max(int(np.floor((center - p - radius) * n_fft)) + half, 0)
        hi = min(int(np.ceil((center - p + radius) * n_fft)) + half + 1, n_fft)
        if lo < hi:
            windows.append((p, lo, hi))
    first = min(lo for _, lo, _ in windows)
    out = np.zeros(max(hi for _, _, hi in windows) - first) if len(windows) > 1 else None
    for p, lo, hi in windows:
        # bins lo..hi-1 of the ascending DFT grid, exactly as
        # fftshift(fftfreq(n_fft)) holds them: (m - n_fft//2) * (1/n_fft);
        # then exp(-((freqs - center + p) ** 2) / (2.0 * sigma**2)) in place
        g = np.arange(lo - half, hi - half, dtype=float)
        g *= 1.0 / n_fft
        g -= center
        g += p
        np.negative(np.square(g, out=g), out=g)
        g /= 2.0 * sigma**2
        np.exp(g, out=g)
        if out is None:  # one period: 0.0 + g is g
            return lo, g
        out[lo - first:hi - first] += g
    return first, out


def _morlet_gains(n_fft: int, center: float, sigma: float) -> tuple[int, np.ndarray]:
    """(first, gains): the frequency response of an analytic Morlet wavelet
    on the len(gains) DFT bins from bin first on (wrapping past the last
    bin); it is 0 on every other bin.

    A Gaussian bump at +center minus a DC-centered Gaussian scaled so the
    response at bin 0 is exactly zero (zero-mean wavelet); the residual
    negative lobe on the negative-frequency side is clipped to keep the
    response non-negative and one-sided. The gains span the union of the two
    Gaussians' windows (_periodized_gaussian); off it both are exact 0.0, so
    is max(bump - kappa * base, 0), and on it each bin takes the same
    operations as over the full grid.
    """
    half = n_fft // 2
    b_lo, bump = _periodized_gaussian(n_fft, center, sigma)
    d_lo, base = _periodized_gaussian(n_fft, 0.0, sigma)
    lo = min(b_lo, d_lo)
    out = np.zeros(max(b_lo + bump.shape[0], d_lo + base.shape[0]) - lo)
    out[b_lo - lo:b_lo - lo + bump.shape[0]] = bump
    dc = half - b_lo  # DC is ascending bin half
    kappa = (bump[dc] if 0 <= dc < bump.shape[0] else 0.0) / base[half - d_lo]
    # off base's window, bump - kappa * 0.0 is bump
    base *= kappa
    out[d_lo - lo:d_lo - lo + base.shape[0]] -= base
    np.maximum(out, 0.0, out=out)
    return (lo + half) % n_fft, out


def gaussian_lowpass(n_fft: int, sigma: float) -> np.ndarray:
    """Gaussian low-pass with unit gain at DC."""
    lo, values = _periodized_gaussian(n_fft, 0.0, sigma)
    out = np.zeros(n_fft)
    _place(out, values, (lo + n_fft // 2) % n_fft, n_fft)
    return out / out[0]


def sigma_for_q(q: int) -> float:
    """Bandwidth-to-center ratio making adjacent geometric filters cross at
    their half-power points: sigma = c_q * lambda."""
    ratio = 2.0 ** (-1.0 / q)
    return ((1.0 - ratio) / (1.0 + ratio)) / np.sqrt(_LN2)


def max_center_freq(q: int) -> float:
    """Highest center frequency: the top filter's half-power point lands on
    the Nyquist bin, i.e. lambda_max * (1 + c_q*sqrt(ln 2)) = 1/2."""
    return 0.5 / (1.0 + sigma_for_q(q) * np.sqrt(_LN2))


def build_morlet_bank(spec: FilterBankSpec) -> FilterBank:
    """Construct the Morlet bank described in the module docstring.

    Every gain, support and sum is computed over the bins where a filter
    can be non-zero (_morlet_gains, _support, _wavelet_energy). The bins
    skipped are the ones a build over all n_fft bins holds at exact 0.0,
    and every sum keeps that build's order, so the bank is bit for bit the
    one it gives.

    Raises InvalidSpecError when the spec is invalid (FilterBankSpec.validate).
    """
    spec.validate()
    q, t, n_fft = spec.q, spec.t, spec.n_fft
    c_q = sigma_for_q(q)
    ratio = 2.0 ** (-1.0 / q)

    lam_max = max_center_freq(q)
    cutoff = q / t

    centers: list[float] = []
    regions: list[str] = []
    lam = lam_max
    while lam >= cutoff - 1e-12:
        centers.append(lam)
        regions.append("geo")
        lam *= ratio

    # linear tail anchored at the geometric bottom, exact 1/t spacing
    lam = centers[-1] - 1.0 / t
    while lam > _MIN_CENTER_FACTOR / t:
        centers.append(lam)
        regions.append("lin")
        lam -= 1.0 / t

    sigma_lin = _SIGMA_LIN_FACTOR / t
    bands = [_support(*_morlet_gains(n_fft, center,
                                     c_q * center if region == "geo" else sigma_lin), n_fft)
             for center, region in zip(centers, regions)]

    lowpass = gaussian_lowpass(n_fft, _SIGMA_PHI_FACTOR / t)

    # Global rescale: largest s with max over bins of
    # |phi|^2 + s * psi_sum <= 1. phi keeps unit DC gain.
    psi_sum = _wavelet_energy(bands, n_fft)
    head = lowpass**2
    mask = psi_sum > 1e-12
    scale = float(np.sqrt(np.min((1.0 - head[mask]) / psi_sum[mask])))
    # the scaled gains may underflow where the unscaled ones did not, so each
    # support is found again on the scaled band
    filters = [BandpassFilter(center, center / q if region == "geo" else 1.0 / t,
                              region, *_support(start, band * scale, n_fft), n_fft)
               for center, region, (start, band) in zip(centers, regions, bands)]
    # banks are cached and shared, and the taps are built from phi
    lowpass.flags.writeable = False
    return FilterBank(tuple(filters), lowpass, spec)


@lru_cache(maxsize=32)
def cached_bank(q: int, t: int, n_fft: int) -> FilterBank:
    """Memoized build_morlet_bank; banks are immutable and shareable."""
    return build_morlet_bank(FilterBankSpec(q, t, n_fft))


def _wavelet_energy(bands, n_fft: int) -> np.ndarray:
    """Per-bin 1/2 sum_lambda (|psi(w)|^2 + |psi(-w)|^2) over the filters
    whose gains bands gives as (start, band) pairs (see _place).

    Both sums are bit for bit numpy's sums over the dense (n_filters, n_fft)
    squares sq. rows adds each filter's squares over its band, in filter
    order: that is sq.sum(axis=0), which adds the rows in order, without the
    exact 0.0 it would add off each band. The mirrored sum takes each
    column's pairwise sum, as numpy reduces the column-major gather
    sq[:, mirror], so it keeps numpy's own reduction: each column of a block
    is laid out contiguously so that its sum over axis 0 is that pairwise
    sum; blocks of _ENERGY_BLOCK columns keep the scratch small.
    """
    squares = [(start, band**2) for start, band in bands]
    rows, cols = np.zeros(n_fft), np.empty(n_fft)
    for start, sq in squares:
        m = min(sq.shape[0], n_fft - start)
        rows[start:start + m] += sq[:m]
        rows[:sq.shape[0] - m] += sq[m:]
    for lo in range(0, n_fft, _ENERGY_BLOCK):
        hi = min(lo + _ENERGY_BLOCK, n_fft)
        block = np.zeros((hi - lo, len(squares))).T  # column-major
        for (start, sq), row in zip(squares, block):
            _place(row, sq, start, n_fft, lo)
        cols[lo:hi] = block.sum(axis=0)
    return 0.5 * (rows + cols[(-np.arange(n_fft)) % n_fft])


def littlewood_paley_sum(bank: FilterBank) -> np.ndarray:
    """Per-bin sum |phi(w)|^2 + 1/2 sum_lambda (|psi(w)|^2 + |psi(-w)|^2)."""
    return bank.lowpass**2 + _wavelet_energy(
        [(f.start, f.band) for f in bank.filters], bank.spec.n_fft)


def littlewood_paley_bounds(bank: FilterBank) -> dict:
    """Max of the Littlewood-Paley sum over all DFT bins, and its min over
    the covered band [1/t, lambda_max] (all bins when the bank is empty)."""
    lp = littlewood_paley_sum(bank)
    freqs = np.abs(np.fft.fftfreq(bank.spec.n_fft))
    if bank.filters:
        lam_top = bank.filters[0].center_freq_normalized
        band = (freqs >= 1.0 / bank.spec.t - 1e-12) & (freqs <= lam_top + 1e-12)
    else:
        band = np.ones_like(lp, dtype=bool)
    return {"min": float(lp[band].min()), "max": float(lp.max())}


def bank_to_csv_rows(bank: FilterBank) -> list[str]:
    """CSV dump rows: index,center_freq_hz,bandwidth_hz,region(geo|lin),
    frequencies at SAMPLE_RATE_HZ."""
    rows = ["index,center_freq_hz,bandwidth_hz,region"]
    for i, f in enumerate(bank.filters):
        rows.append(f"{i},{f.center_freq_normalized * SAMPLE_RATE_HZ:.6f},"
                    f"{f.bandwidth * SAMPLE_RATE_HZ:.6f},{f.region}")
    return rows
