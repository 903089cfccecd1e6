"""Two-layer time scattering and log-frequency scattering.

The transform cascades wavelet-modulus stages and closes each path with a
Gaussian low-pass at scale t, sampled every t/2 samples:

  order 0:  x * phi
  order 1:  |x * psi_l1| * phi               for every first-bank wavelet
  order 2:  ||x * psi_l1| * psi_l2| * phi    for admissible (l1, l2) pairs

A second-layer path is admissible when the l2 center frequency lies strictly
below the l1 filter's bandwidth; the envelope |x * psi_l1| carries no energy
above that bandwidth, so higher l2 paths are omitted rather than zero-filled
(_first_admissible states the rule).

The frames are linear coefficients: the transform is non-expansive and
stable to deformations, and no log is taken here. Feature extraction takes
the one log, just before pooling (features.extract_vector).

Both layers are exact at full resolution, computed without full-length work
where the filters allow it. Each wavelet modulus multiplies one FFT of its
input by the filter's response and inverts only the filter's band: a band
of m = next_pow2(W) bins (W the width of the response's non-zero support)
takes n_fft / m inverse FFTs of length m, a decimation-in-time split of the
full-length inverse (see _modulus); each bank holds its filters' gains over
their supports alone (filterbank). Every forward FFT is of real input and
is filterbank.real_fft, numpy's real FFT mirrored as scipy.fft mirrors it,
so the frames keep scipy.fft's bits; numpy's complex FFT of real input
rounds differently.
Each low-pass is one small matrix product, with no full-length FFT: each
bank holds phi sampled every hop as taps over the frame offsets where it is
above rounding, built once with the bank, and a shift-and-add of the
products over those offsets gives the frames (see lowpass_average). For
the banks' Gaussian that keeps all 8 offsets at the default 8 frames per
path, and 22 at 32 frames or more. A dropped offset holds only taps of at
most 4 eps max|phi|, so a frame moves by at most 4 eps max|phi| sum|u|
beyond the rounding of the exact circular convolution.

Memory: time_scattering runs depth first. After one FFT of x it takes the
first bank's filters in order, and for each computes the envelope
|x * psi_l1|, its order-1 low-pass and, at max_order=2, the block of its
admissible order-2 paths, before it moves to the next filter. So each
worker holds one first-order row, one order-2 block and the frames, not all
n_order1 envelopes: at the default config a transform's traced peak is
about 16 MB, and the 58 envelopes alone would take 30 MB. wavelet_modulus
keeps the whole-bank moduli for callers that want them, and every order-1
row of time_scattering is, bit for bit, the low-pass of that row.

Frequency scattering additionally runs a q=1 wavelet modulus along the
log-frequency axis of the order-1 coefficients (geometric-region bins only,
which are the uniformly log-spaced ones). Per protocol those outputs are not
low-pass averaged along the axis; the classifier supplies the invariance.

Every kind is a slice of one (n_paths, n_frames) matrix of frames.
time_scattering returns its rows in the order scattering_paths(cfg) labels
them: (0,), then (1, l1) for ascending l1, then (2, l1, l2) in
lexicographic order. frequency_scattering appends its rows below them,
wavelet-major. Pooling is a row mean, so the layer-wise vectors are slices
of the full one: orders 0 and 1 are its first 1 + n_order1 entries, order 2
the rest. A kind that keeps only orders 0 and 1 asks time_scattering for
max_order=1, which computes that prefix alone, bit for bit, and skips
layer 2, most of the transform's work.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .audio_io import (SAMPLE_RATE_HZ, Waveform, fix_length, next_pow2,
                       pad_or_crop_center)
from .config import RunConfig
from .errors import (AxisTooShortError, InvalidSpecError, LengthMismatchError,
                     SampleRateError)
from .filterbank import (BandpassFilter, FilterBank, cached_bank, circular_window,
                         real_fft)


@lru_cache(maxsize=32)
def _twiddles(n_fft: int, m: int) -> np.ndarray:
    """(n_fft // m, m) table (m / n_fft) * exp(2 pi i r j / n_fft), shared
    by every filter whose band spans m bins."""
    r = np.arange(n_fft // m)[:, None]
    j = np.arange(m)[None, :]
    table = (m / n_fft) * np.exp(2j * np.pi * ((r * j) % n_fft) / n_fft)
    table.flags.writeable = False
    return table


def _modulus(spectrum: np.ndarray, f: BandpassFilter, out: np.ndarray) -> np.ndarray:
    """|ifft(spectrum * f.response)| into out, inverted over the filter's
    band only: the m = next_pow2(width) bins from the start of its support
    (f.band holds the width of them that can be non-zero).

    With the band's m bins Y[start + j] and n_fft = L * m, the inverse DFT
    splits by decimation in time: y[r + L * k] = exp(2 pi i start n / n_fft)
    * (m / n_fft) * ifft_m(Y[start + j] * exp(2 pi i r j / n_fft))[k]. The
    modulus drops the band's phase, so L inverse FFTs of length m give the
    full-resolution |x * psi| exactly. For m == n_fft this is the plain
    inverse FFT of the rotated spectrum.
    """
    n_fft, m = spectrum.shape[0], next_pow2(f.width)
    band = np.zeros(m, dtype=complex)
    np.multiply(circular_window(spectrum, f.start, f.width), f.band, out=band[:f.width])
    z = _twiddles(n_fft, m) * band
    np.fft.ifft(z, axis=1, out=z)
    np.abs(z.T, out=out.reshape(m, n_fft // m))
    return out


def _moduli(spectrum: np.ndarray, filters) -> np.ndarray:
    """_modulus of spectrum for each filter: an (n_filters, n_fft) array."""
    out = np.empty((len(filters), spectrum.shape[0]))
    for f, row in zip(filters, out):
        _modulus(spectrum, f, row)
    return out


def wavelet_modulus(x: np.ndarray, bank: FilterBank) -> np.ndarray:
    """|x * psi| for every filter at full resolution: one FFT of x, then
    each filter's product with the spectrum is inverted over the filter's
    band only (see _modulus). Returns an (n_filters, n_fft) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != bank.spec.n_fft:
        raise LengthMismatchError(
            f"signal length {x.shape} does not match bank n_fft={bank.spec.n_fft}")
    return _moduli(real_fft(x), bank.filters)


def lowpass_average(u: np.ndarray, bank: FilterBank) -> np.ndarray:
    """Convolve path sequences with the bank's phi (circularly) and sample
    every hop = bank.spec.hop samples. Accepts a single sequence or a
    matrix of them.

    Split n = a * hop + b: frame k is the sum over frame offsets d of
    g_d[(k - d) mod n_frames], where g_d[a] = sum_b phi[d * hop - b] *
    u[a * hop + b]. One small matrix product of the bank's taps with the
    (hop, n_frames) view of each sequence gives every g_d, and a
    shift-and-add over d gives the frames, at O(n_fft * W) per path for
    the W offsets kept. Only offsets where phi is rounding noise are
    dropped (filterbank.lowpass_taps): each frame then differs from the
    exact circular convolution by at most 4 eps max|phi| sum|u| beyond the
    rounding of the sums. A phi that does not decay keeps every offset.
    Tiny negative rounding residue is clamped so averaged moduli stay
    non-negative.
    """
    u = np.asarray(u, dtype=np.float64)
    n_fft = bank.spec.n_fft
    if u.shape[-1] != n_fft:
        raise LengthMismatchError(
            f"sequence length {u.shape[-1]} does not match bank n_fft={n_fft}")
    hop = bank.spec.hop
    n_frames = n_fft // hop
    g = bank.taps @ u.reshape(u.shape[:-1] + (n_frames, hop)).swapaxes(-1, -2)
    frames = np.zeros(u.shape[:-1] + (n_frames,))
    for d, g_d in zip(bank.tap_offsets, np.moveaxis(g, -2, 0)):
        frames[..., d:] += g_d[..., :n_frames - d]
        frames[..., :d] += g_d[..., n_frames - d:]
    return np.maximum(frames, 0.0, out=frames)


def _first_admissible(f1, bank2: FilterBank) -> int:
    """Index of the first second-bank filter admissible under first-bank
    filter f1: its center lies strictly below f1's bandwidth. Centers
    descend, so the admissible filters are the suffix from there, empty
    when it equals the bank size."""
    return len(bank2.filters) - int(np.sum(bank2.center_freqs < f1.bandwidth))


def scattering_paths(cfg: RunConfig) -> list[tuple]:
    """Label of each row time_scattering returns under cfg: (0,), then
    (1, l1) for every first-bank filter, then (2, l1, l2) for every
    admissible pair, in that order; l1 and l2 index the two banks."""
    bank1 = cached_bank(cfg.q1, cfg.t, cfg.n_fft)
    bank2 = cached_bank(cfg.q2, cfg.t, cfg.n_fft)
    paths = [(0,)] + [(1, i1) for i1 in range(len(bank1.filters))]
    for i1, f1 in enumerate(bank1.filters):
        paths += [(2, i1, i2)
                  for i2 in range(_first_admissible(f1, bank2), len(bank2.filters))]
    return paths


def time_scattering(w: Waveform, cfg: RunConfig, max_order: int = 2) -> np.ndarray:
    """Order-0/1/2 scattering frames, linear: an (n_paths, n_frames) matrix
    whose rows scattering_paths(cfg) labels.

    max_order=1 stops after order 1: the rows are the order-0 and order-1
    ones, the first 1 + len(bank1.filters) labels of scattering_paths(cfg),
    computed by the same loop in the same order, so they are a bit-identical
    prefix of the full matrix. No layer-2 modulus or low-pass runs. Any
    other value than 1 or 2 raises InvalidSpecError.

    The waveform is forced to cfg.n samples (center crop / symmetric pad),
    then symmetrically zero-padded to n_fft = next_pow2(n) for circular FFT
    filtering. Expects 16 kHz input.
    """
    if max_order not in (1, 2):
        raise InvalidSpecError(f"max_order must be 1 or 2, got {max_order!r}")
    if w.sample_rate_hz != SAMPLE_RATE_HZ:
        raise SampleRateError(
            f"expected {SAMPLE_RATE_HZ} Hz input, got {w.sample_rate_hz}")
    x = pad_or_crop_center(fix_length(w, cfg.n).samples, cfg.n_fft)
    bank1 = cached_bank(cfg.q1, cfg.t, cfg.n_fft)
    bank2 = cached_bank(cfg.q2, cfg.t, cfg.n_fft)

    spectrum = real_fft(x)
    rows, order2 = [lowpass_average(x, bank1)], []
    u = np.empty(cfg.n_fft)  # |x * psi_l1|, one l1 at a time
    for f1 in bank1.filters:
        rows.append(lowpass_average(_modulus(spectrum, f1, u), bank1))
        first = _first_admissible(f1, bank2)
        if max_order == 2 and first < len(bank2.filters):
            u2 = _moduli(real_fft(u), bank2.filters[first:])
            order2.append(lowpass_average(u2, bank1))
    return np.concatenate([np.stack(rows)] + order2)


def frequency_bank(cfg: RunConfig) -> FilterBank:
    """The q=1 bank, at averaging scale cfg.f_wavelet_len, that
    frequency_scattering runs along the log-frequency axis of the first
    bank's geometric order-1 rows. Raises when that axis has fewer than 2
    bins or f_wavelet_len exceeds the first bank's filter count."""
    bank1 = cached_bank(cfg.q1, cfg.t, cfg.n_fft)
    n_bins = len(bank1.geometric_indices())
    if n_bins < 2:
        raise AxisTooShortError(
            f"log-frequency axis has {n_bins} bins, need at least 2")
    if cfg.f_wavelet_len > len(bank1.filters):
        raise InvalidSpecError(
            f"f_wavelet_len={cfg.f_wavelet_len} exceeds the layer-1 filter "
            f"count {len(bank1.filters)}")
    return cached_bank(1, cfg.f_wavelet_len, next_pow2(max(n_bins, cfg.f_wavelet_len)))


def frequency_scattering(frames: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """Append wavelet-modulus coefficients computed along the log-frequency
    axis of the order-1 frames.

    frames is time_scattering's matrix. Geometric filters come first in
    every bank, so its order-1 geometric rows are frames[1:1 + n_geo]. For
    each time frame they form a 1-D signal over log-lambda; the q=1 bank
    of frequency_bank(cfg) decomposes it. The moduli are kept unaveraged
    and appended below frames, an (n_wavelets, n_geo) block of rows in
    wavelet-major order. It runs on the linear frames.
    """
    bank_fr = frequency_bank(cfg)
    bank1 = cached_bank(cfg.q1, cfg.t, cfg.n_fft)
    n_bins = len(bank1.geometric_indices())
    if frames.shape[0] <= len(bank1.filters):
        raise LengthMismatchError(f"{frames.shape[0]} rows hold no order-1 block")

    axis = frames[1:1 + n_bins]  # (bins, frames)
    n_fft_fr = bank_fr.spec.n_fft

    # Edge-replicated padding: a constant axis signal stays constant, so the
    # zero-mean wavelets return exactly zero on it.
    pad_left = (n_fft_fr - n_bins) // 2
    padded = np.pad(axis.T, ((0, 0), (pad_left, n_fft_fr - n_bins - pad_left)),
                    mode="edge")
    spectra = real_fft(padded)
    moduli = np.abs(np.fft.ifft(spectra[None, :, :] * bank_fr.responses[:, None, :],
                                axis=2))  # (wavelets, frames, n_fft_fr)
    moduli = moduli[:, :, pad_left:pad_left + n_bins].transpose(0, 2, 1)
    return np.concatenate([frames, moduli.reshape(-1, frames.shape[1])])
