"""Two-layer time scattering and log-frequency scattering.

The transform cascades wavelet-modulus stages and closes each path with a
Gaussian low-pass at scale t, sampled every t/2 samples:

  order 0:  x * phi
  order 1:  |x * psi_l1| * phi               for every first-bank wavelet
  order 2:  ||x * psi_l1| * psi_l2| * phi    for admissible (l1, l2) pairs

A second-layer path is admissible when the l2 center frequency lies strictly
below the l1 filter's bandwidth; the envelope |x * psi_l1| carries no energy
above that bandwidth, so higher l2 paths are omitted rather than zero-filled.

Frequency scattering additionally runs a q=1 wavelet modulus along the
log-frequency axis of the order-1 coefficients (geometric-region bins only,
which are the uniformly log-spaced ones). Per protocol those outputs are not
low-pass averaged along the axis; the classifier supplies the invariance.

Every kind is a view of one (paths_order, frames) pair: frames is an
(n_paths, n_frames) matrix whose row k holds the frames of path
paths_order[k]. time_scattering fills rows for order 0, then order 1
(ascending lambda1), then order 2 (lexicographic (lambda1, lambda2));
frequency_scattering appends its rows below them. The utterance vector is
the row mean, so the layer-wise vectors are slices of the full one: orders
0 and 1 are its first 1 + n_order1 entries, order 2 the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .audio_io import SAMPLE_RATE_HZ, Waveform, fix_length, pad_or_crop_center
from .errors import (AxisTooShortError, InvalidSpecError, LengthMismatchError,
                     SampleRateError)
from .filterbank import FilterBank, cached_bank


def next_pow2(n: int) -> int:
    return 1 << max(int(n) - 1, 0).bit_length()


@dataclass(frozen=True)
class ScatteringConfig:
    """Parameters of the two-layer decomposition.

    q1/q2 are wavelets per octave of the first/second bank, t the averaging
    scale in samples, n the fixed signal length. f_wavelet_len is the
    averaging-scale analogue (in log-frequency bins) of the bank used for
    frequency scattering. log_compress applies ln(s + log_eps) to every
    coefficient before pooling. The transform itself stays linear by
    default, since non-expansiveness and deformation stability are
    properties of the linear coefficients; RunConfig turns the log on for
    classification runs.
    """

    q1: int = 5
    q2: int = 1
    t: int = 16384
    n: int = 51000
    f_wavelet_len: int = 32
    log_compress: bool = False
    log_eps: float = 1e-7

    @property
    def n_fft(self) -> int:
        return next_pow2(self.n)

    @property
    def hop(self) -> int:
        return self.t // 2

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidSpecError("n must be positive")
        if self.log_eps <= 0:
            raise InvalidSpecError("log_eps must be positive")


@dataclass(frozen=True)
class ScatteringPath:
    """Time-scattering path: order 0 has no indices, order 1 carries its
    first-bank filter index, order 2 both indices."""

    order: int
    lambda1_index: int | None = None
    lambda2_index: int | None = None


@dataclass(frozen=True)
class FrequencyScatteringPath:
    """One frequency-scattering output: wavelet_index along the log-frequency
    axis, lambda1_bin the position on that axis (geometric bins, ordered by
    ascending first-bank filter index, i.e. descending center frequency)."""

    wavelet_index: int
    lambda1_bin: int


@dataclass(frozen=True)
class ScatteringFeatures:
    """One utterance's scattering: row k of the (n_paths, n_frames) frames
    matrix belongs to paths_order[k], in the order the module docstring
    gives. Every path holds the same number of frames (hop t/2)."""

    paths_order: tuple
    frames: np.ndarray

    @property
    def utterance_vector(self) -> np.ndarray:
        """Per-path mean over time frames."""
        return self.frames.mean(axis=1)


def wavelet_modulus(x: np.ndarray, bank: FilterBank) -> np.ndarray:
    """|x * psi| for every filter, computed by frequency-domain products
    with the analytic responses. Returns an (n_filters, n_fft) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != bank.spec.n_fft:
        raise LengthMismatchError(
            f"signal length {x.shape} does not match bank n_fft={bank.spec.n_fft}")
    spectrum = sfft.fft(x)
    return np.abs(sfft.ifft(spectrum[None, :] * bank.responses, axis=1))


def lowpass_average(u: np.ndarray, lowpass: np.ndarray, hop: int) -> np.ndarray:
    """Convolve path sequences with phi (circularly, in frequency) and sample
    every `hop` samples. Tiny negative FFT residue is clamped so averaged
    moduli stay non-negative. Accepts a single sequence or a matrix of them.
    """
    u = np.asarray(u, dtype=np.float64)
    single = u.ndim == 1
    if single:
        u = u[None, :]
    n_fft = lowpass.shape[0]
    if u.shape[1] != n_fft:
        raise LengthMismatchError(
            f"sequence length {u.shape[1]} does not match lowpass length {n_fft}")
    if hop < 1 or n_fft % hop != 0:
        raise ValueError(f"hop={hop} must divide n_fft={n_fft}")
    spectra = sfft.rfft(u, axis=1) * lowpass[: n_fft // 2 + 1]
    # Decimating (u*phi) by hop aliases its spectrum: fold the n_fft bins
    # onto n_frames bins and invert at the short length. Exact for any
    # n_frames >= 1, and far cheaper than a full-length inverse FFT per path.
    # Bins n_fft - k mirror bins k = (n_fft - 1) // 2 .. 1, for odd n_fft too.
    full = np.concatenate([spectra, np.conj(spectra[:, (n_fft - 1) // 2:0:-1])], axis=1)
    folded = full.reshape(u.shape[0], hop, n_fft // hop).sum(axis=1)
    frames = np.maximum(np.real(sfft.ifft(folded, axis=1)) / hop, 0.0)
    return frames[0] if single else frames


def time_scattering(w: Waveform, cfg: ScatteringConfig) -> ScatteringFeatures:
    """Order-0/1/2 scattering frames.

    The waveform is forced to cfg.n samples (center crop / symmetric pad),
    then symmetrically zero-padded to n_fft = next_pow2(n) for circular FFT
    filtering. Expects 16 kHz input.
    """
    if w.sample_rate_hz != SAMPLE_RATE_HZ:
        raise SampleRateError(
            f"expected {SAMPLE_RATE_HZ} Hz input, got {w.sample_rate_hz}")
    cfg.validate()
    n_fft = cfg.n_fft
    x = pad_or_crop_center(fix_length(w, cfg.n).samples, n_fft)
    bank1 = cached_bank(cfg.q1, cfg.t, n_fft)
    bank2 = cached_bank(cfg.q2, cfg.t, n_fft)

    u1 = wavelet_modulus(x, bank1)

    paths = [ScatteringPath(0)] + [ScatteringPath(1, i1) for i1 in range(len(u1))]
    blocks = [lowpass_average(x, bank1.lowpass, cfg.hop)[None, :],
              lowpass_average(u1, bank1.lowpass, cfg.hop)]
    centers2 = bank2.center_freqs
    for i1, f1 in enumerate(bank1.filters):
        admissible = np.flatnonzero(centers2 < f1.bandwidth)
        if admissible.size == 0:
            continue
        u2 = np.abs(sfft.ifft(sfft.fft(u1[i1])[None, :] * bank2.responses[admissible],
                              axis=1))
        blocks.append(lowpass_average(u2, bank1.lowpass, cfg.hop))
        paths += [ScatteringPath(2, i1, int(i2)) for i2 in admissible]

    frames = np.concatenate(blocks)
    if cfg.log_compress:
        frames = np.log(frames + cfg.log_eps)
    return ScatteringFeatures(tuple(paths), frames)


def frequency_scattering(s_time: ScatteringFeatures,
                         cfg: ScatteringConfig) -> ScatteringFeatures:
    """Append wavelet-modulus coefficients computed along the log-frequency
    axis of the order-1 frames.

    For each time frame, the order-1 coefficients on geometric-region bins
    form a 1-D signal over log-lambda; a q=1 Morlet bank with averaging scale
    cfg.f_wavelet_len decomposes it. The moduli are kept unaveraged and
    appended after the time-scattering rows, wavelet-major. With
    cfg.log_compress set (the RunConfig default) the order-1 frames are
    already log-compressed, so the decomposition runs on log order-1 frames.
    """
    bank1 = cached_bank(cfg.q1, cfg.t, cfg.n_fft)
    geo = bank1.geometric_indices()
    if len(geo) < 2:
        raise AxisTooShortError(
            f"log-frequency axis has {len(geo)} bins, need at least 2")
    if cfg.f_wavelet_len > len(bank1.filters):
        raise InvalidSpecError(
            f"f_wavelet_len={cfg.f_wavelet_len} exceeds the layer-1 filter "
            f"count {len(bank1.filters)}")

    n_bins = len(geo)
    row = {p: k for k, p in enumerate(s_time.paths_order)}
    axis = s_time.frames[[row[ScatteringPath(1, i)] for i in geo]]  # (bins, frames)
    n_fft_fr = next_pow2(max(n_bins, cfg.f_wavelet_len))
    bank_fr = cached_bank(1, cfg.f_wavelet_len, n_fft_fr)

    # Edge-replicated padding: a constant axis signal stays constant, so the
    # zero-mean wavelets return exactly zero on it.
    pad_left = (n_fft_fr - n_bins) // 2
    padded = np.pad(axis.T, ((0, 0), (pad_left, n_fft_fr - n_bins - pad_left)),
                    mode="edge")
    spectra = sfft.fft(padded, axis=1)
    moduli = np.abs(sfft.ifft(spectra[None, :, :] * bank_fr.responses[:, None, :],
                              axis=2))  # (wavelets, frames, n_fft_fr)
    moduli = moduli[:, :, pad_left:pad_left + n_bins].transpose(0, 2, 1)

    paths = [FrequencyScatteringPath(mu, b)
             for mu in range(len(bank_fr.filters)) for b in range(n_bins)]
    return ScatteringFeatures(
        s_time.paths_order + tuple(paths),
        np.concatenate([s_time.frames, moduli.reshape(len(paths), -1)]))
