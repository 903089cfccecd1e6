"""Independent references for the correctness checks.

These are plain numpy computations written from the method's definition,
not stored copies of the program's output. They are slow on purpose: every
path gets its own full-length transform.
"""

from __future__ import annotations

import numpy as np

# Absolute tolerance on pooled log coefficients. ln(S(1 + d) + eps) differs
# from ln(S + eps) by at most |d|, so a frame error of 1e-6 relative (what a
# band-limited transform may introduce) moves a pooled log coefficient by at
# most 1e-6. A wrong filter, a missing modulus or a misordered path moves
# coefficients by 1e-2 or more.
SCATTERING_LOG_TOL = 1e-5
# Absolute tolerance on the 26 MFCC statistics: pocketfft against an explicit
# DFT matrix agrees to ~1e-12 on these magnitudes.
MFCC_TOL = 1e-8
KKT_BOUND = 1e-3


def center_fit(x: np.ndarray, n: int) -> np.ndarray:
    """Center-crop, or zero-pad with the extra sample on the right."""
    if x.size >= n:
        start = (x.size - n) // 2
        return x[start:start + n]
    left = (n - x.size) // 2
    return np.concatenate([np.zeros(left), x, np.zeros(n - x.size - left)])


def scattering_paths(bank1, bank2):
    """Canonical path list: (0,), (1, l1) ascending, then admissible
    (2, l1, l2) pairs lexicographically (l2 center below l1's bandwidth)."""
    paths = [(0,)] + [(1, i) for i in range(len(bank1.filters))]
    for i1, f1 in enumerate(bank1.filters):
        for i2, f2 in enumerate(bank2.filters):
            if f2.center_freq_normalized < f1.bandwidth:
                paths.append((2, i1, i2))
    return paths


def scatnet_reference(samples: np.ndarray, n: int, t: int, bank1, bank2,
                      log_eps: float) -> np.ndarray:
    """Pooled log scattering vector at full resolution.

    The signal is fitted to n samples and centered in n_fft; each path takes
    one length-n_fft modulus, a full-length circular low-pass with the bank's
    phi, decimation by t/2, ln(S + log_eps) and the mean over frames.
    """
    n_fft = bank1.spec.n_fft
    x = center_fit(center_fit(np.asarray(samples, dtype=np.float64), n), n_fft)
    phi = bank1.lowpass
    hop = t // 2

    def averaged(u):
        s = np.real(np.fft.ifft(np.fft.fft(u) * phi))[::hop]
        return np.mean(np.log(np.maximum(s, 0.0) + log_eps))

    spectrum = np.fft.fft(x)
    order1, order2 = [], []
    for i1, f1 in enumerate(bank1.filters):
        u1 = np.abs(np.fft.ifft(spectrum * f1.response))
        order1.append(averaged(u1))
        u1_spectrum = np.fft.fft(u1)
        for f2 in bank2.filters:
            if f2.center_freq_normalized < f1.bandwidth:
                order2.append(averaged(np.abs(np.fft.ifft(u1_spectrum * f2.response))))
    return np.array([averaged(x)] + order1 + order2)


def peak_filter(bank, freq_hz: float, sample_rate_hz: int) -> int:
    """Index of the filter whose response is largest at freq_hz."""
    n_fft = bank.spec.n_fft
    k = int(round(freq_hz / sample_rate_hz * n_fft))
    return int(np.argmax([f.response[k] for f in bank.filters]))


def mfcc_reference(x: np.ndarray, sample_rate_hz: int = 16000, win_ms=20.0,
                   hop_ms=10.0, n_fft=512, n_mels=26, n_coeffs=13,
                   fmin_hz=0.0, fmax_hz=8000.0) -> np.ndarray:
    """Mean and population std of MFCCs, by an explicit DFT matrix, mel
    triangles built bin by bin and an explicit orthonormal DCT-II."""
    win = int(round(win_ms * sample_rate_hz / 1000.0))
    hop = int(round(hop_ms * sample_rate_hz / 1000.0))
    n_frames = 1 + (x.size - win) // hop
    k = np.arange(n_fft // 2 + 1)
    dft = np.exp(-2j * np.pi * np.outer(k, np.arange(win)) / n_fft)
    hamming = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(win) / (win - 1))

    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    edges = 700.0 * (10.0 ** (np.linspace(mel(fmin_hz), mel(fmax_hz), n_mels + 2)
                              / 2595.0) - 1.0)
    bins_hz = k * sample_rate_hz / n_fft
    tri = np.zeros((n_mels, k.size))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        for b, f in enumerate(bins_hz):
            if lo <= f <= mid:
                tri[m, b] = (f - lo) / (mid - lo)
            elif mid < f <= hi:
                tri[m, b] = (hi - f) / (hi - mid)
    dct = np.array([[np.cos(np.pi * (2 * m + 1) * q / (2 * n_mels)) for m in range(n_mels)]
                    for q in range(n_coeffs)]) * np.sqrt(2.0 / n_mels)
    dct[0] /= np.sqrt(2.0)

    frames = np.stack([x[j * hop:j * hop + win] * hamming for j in range(n_frames)])
    power = np.abs(frames @ dft.T) ** 2
    coeffs = dct @ np.log(tri @ power.T + 1e-10)
    return np.concatenate([coeffs.mean(axis=1), coeffs.std(axis=1)])


def kkt_residual(kernel: np.ndarray, y: np.ndarray, alpha: np.ndarray, c: float) -> float:
    """max over I_up of g minus min over I_low of g, g = y - K (alpha * y):
    the largest violation of the dual's KKT conditions."""
    g = y - kernel @ (alpha * y)
    pos = y > 0
    up = np.where(pos, alpha < c, alpha > 0.0)
    low = np.where(pos, alpha > 0.0, alpha < c)
    return float(np.max(g[up], initial=-np.inf) - np.min(g[low], initial=np.inf))


def uar_from_counts(counts: np.ndarray) -> float:
    """Mean recall over the classes that have rows."""
    rows = counts.sum(axis=1)
    filled = rows > 0
    return float(np.mean(np.diag(counts)[filled] / rows[filled]))
