"""Shared test helpers: small deterministic signals, WAV writers, a naive
MFCC reference, an SVM dual's KKT residual and a dense Morlet bank build.
Imported by name, so the module name is unique across every test directory;
fixtures stay in conftest.py."""

import os
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import scatfeat
from scatfeat import filterbank

FS = 16000


def write_wav_stdlib(path, samples, sample_rate=FS):
    """PCM16 writer via the stdlib wave module (independent of scatfeat)."""
    pcm = np.round(np.clip(samples, -1.0, 32767 / 32768) * 32768.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


def write_wav_raw(path, fmt_tag, n_channels, sample_rate, bits, payload,
                  data_size=None):
    """Hand-rolled RIFF container for exercising header edge cases.
    data_size overrides the data chunk's declared size."""
    block = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, n_channels, sample_rate,
                      sample_rate * block, block, bits)
    if data_size is None:
        data_size = len(payload)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", data_size) + payload
    blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    with open(path, "wb") as fh:
        fh.write(blob)


def sine(freq_hz, n, fs=FS, amp=0.5, phase=0.0):
    return amp * np.sin(2 * np.pi * freq_hz * np.arange(n) / fs + phase)


def bandlimited_noise(rng, n, f_lo_hz=50.0, f_hi_hz=7000.0, fs=FS, peak=0.5):
    spec = np.zeros(n // 2 + 1, dtype=complex)
    k1, k2 = int(f_lo_hz * n / fs), int(f_hi_hz * n / fs)
    spec[k1:k2] = rng.standard_normal(k2 - k1) + 1j * rng.standard_normal(k2 - k1)
    x = np.fft.irfft(spec, n)
    return peak * x / np.max(np.abs(x))


def kkt_residual(kernel, y, alpha, c) -> float:
    """Recompute the maximal KKT violation of a full SVM dual solution:
    max over I_up of v minus min over I_low of v, v = y - K (alpha * y)."""
    y = np.asarray(y, dtype=np.float64)
    v = y - kernel @ (alpha * y)
    pos = y > 0
    up = np.where(pos, alpha < c, alpha > 0.0)
    low = np.where(pos, alpha > 0.0, alpha < c)
    return float(np.max(np.where(up, v, -np.inf)) -
                 np.min(np.where(low, v, np.inf)))


def reference_mfcc(x):
    """Naive O(n^2) MFCC reference: explicit DFT matrix, hand-built mel
    triangles and an explicit orthonormal DCT-II matrix."""
    win, hop, n_fft, n_mels, n_coeffs = 320, 160, 512, 26, 13
    n_frames = 1 + (len(x) - win) // hop
    ham = np.hamming(win)
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n_fft), np.arange(n_fft)) / n_fft)

    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_inv(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = mel_inv(np.linspace(mel(0.0), mel(8000.0), n_mels + 2))
    bins_hz = np.arange(n_fft // 2 + 1) * FS / n_fft
    tri = np.zeros((n_mels, n_fft // 2 + 1))
    for i in range(n_mels):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        for k, f in enumerate(bins_hz):
            if lo < f < mid:
                tri[i, k] = (f - lo) / (mid - lo)
            elif mid <= f < hi:
                tri[i, k] = (hi - f) / (hi - mid)
            elif f == mid:
                tri[i, k] = 1.0

    dct = np.zeros((n_coeffs, n_mels))
    for k in range(n_coeffs):
        for m in range(n_mels):
            dct[k, m] = np.cos(np.pi * (2 * m + 1) * k / (2 * n_mels))
    dct *= np.sqrt(2.0 / n_mels)
    dct[0] /= np.sqrt(2.0)

    out = np.zeros((n_coeffs, n_frames))
    for j in range(n_frames):
        frame = np.zeros(n_fft)
        frame[:win] = x[j * hop:j * hop + win] * ham
        spectrum = dft @ frame
        power = np.abs(spectrum[: n_fft // 2 + 1]) ** 2
        out[:, j] = dct @ np.log(tri @ power + 1e-10)
    return out


def run_python(code, **env):
    """stdout of `python -c code` in a fresh interpreter that imports the
    scatfeat these tests import, with env added to the environment."""
    src = str(Path(scatfeat.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path, **env})
    assert done.returncode == 0, done.stderr
    return done.stdout


def full_grid_gaussian(n_fft, center, sigma):
    """Every period's Gaussian evaluated on every DFT bin, in DFT order."""
    n_periods = int(np.ceil(np.sqrt(
        -2.0 * sigma**2 * np.log(filterbank._PERIODIZATION_EPS)))) + 1
    freqs = np.fft.fftfreq(n_fft)
    out = np.zeros(n_fft)
    for p in range(-n_periods, n_periods + 1):
        out += np.exp(-((freqs - center + p) ** 2) / (2.0 * sigma**2))
    return out


def dense_morlet(n_fft, center, sigma):
    """A Morlet response over all n_fft bins, from full-grid Gaussians."""
    bump = full_grid_gaussian(n_fft, center, sigma)
    base = full_grid_gaussian(n_fft, 0.0, sigma)
    kappa = bump[0] / base[0]
    return np.maximum(bump - kappa * base, 0.0)


def band_support(response):
    """(start, width) of a non-zero dense response, by a scan of all its
    bins: the longest circular zero run (the first of equal ones) ends the
    smallest span that holds every non-zero bin."""
    n_fft = response.shape[0]
    nz = np.flatnonzero(response)
    gaps = np.diff(nz, append=nz[0] + n_fft)
    k = int(np.argmax(gaps))
    return int(nz[(k + 1) % nz.size]), int(n_fft - gaps[k] + 1)


def _dense_band(response):
    start, width = band_support(response)
    return start, filterbank.circular_window(response, start, width).copy()


def _dense_energy(bands, n_fft, block=4096):
    """1/2 sum (|psi(w)|^2 + |psi(-w)|^2) over dense blocks of the
    (n_filters, n_fft) squares: rows summed in order, as a C-order sum over
    axis 0 adds them, and columns by numpy's pairwise sum of each
    contiguous column."""
    rows, cols = np.empty(n_fft), np.empty(n_fft)
    for lo in range(0, n_fft, block):
        hi = min(lo + block, n_fft)
        sq = np.zeros((hi - lo, len(bands))).T  # column-major
        for (start, band), row in zip(bands, sq):
            j = (np.arange(lo, hi) - start) % n_fft  # the band index of each bin
            inside = j < band.shape[0]
            row[inside] = band[j[inside]] ** 2
        cols[lo:hi] = sq.sum(axis=0)
        rows[lo:hi] = np.ascontiguousarray(sq).sum(axis=0)
    return 0.5 * (rows + cols[(-np.arange(n_fft)) % n_fft])


def dense_morlet_bank(spec):
    """The Morlet bank of spec built over all n_fft bins: full-grid
    Gaussians, dense responses, a scan of every bin for each support, and
    the rescale applied to dense responses. The oracle that
    filterbank.build_morlet_bank must match bit for bit."""
    q, t, n_fft = spec.q, spec.t, spec.n_fft
    c_q = filterbank.sigma_for_q(q)
    ratio = 2.0 ** (-1.0 / q)
    centers, regions = [], []
    lam = filterbank.max_center_freq(q)
    while lam >= q / t - 1e-12:
        centers.append(lam)
        regions.append("geo")
        lam *= ratio
    lam = centers[-1] - 1.0 / t
    while lam > filterbank._MIN_CENTER_FACTOR / t:
        centers.append(lam)
        regions.append("lin")
        lam -= 1.0 / t
    sigma_lin = filterbank._SIGMA_LIN_FACTOR / t
    bands = [_dense_band(dense_morlet(n_fft, center,
                                      c_q * center if region == "geo" else sigma_lin))
             for center, region in zip(centers, regions)]
    lowpass = full_grid_gaussian(n_fft, 0.0, filterbank._SIGMA_PHI_FACTOR / t)
    lowpass = lowpass / lowpass[0]
    psi_sum = _dense_energy(bands, n_fft)
    mask = psi_sum > 1e-12
    scale = float(np.sqrt(np.min((1.0 - lowpass[mask]**2) / psi_sum[mask])))
    filters = []
    for center, region, (start, band) in zip(centers, regions, bands):
        response = np.zeros(n_fft)
        response[(start + np.arange(band.shape[0])) % n_fft] = band * scale
        filters.append(filterbank.BandpassFilter(
            center, center / q if region == "geo" else 1.0 / t, region,
            *_dense_band(response), n_fft))
    return filterbank.FilterBank(tuple(filters), lowpass, spec)
