"""Shared test helpers: small deterministic signals, WAV writers and a naive
MFCC reference. Imported by name, so the module name is unique across
every test directory; fixtures stay in conftest.py."""

import struct
import wave

import numpy as np

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
