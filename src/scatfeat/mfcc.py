"""13-coefficient MFCC baseline with mean + std utterance pooling.

Its settings are the standard baseline's (Davis & Mermelstein, IEEE TASSP
1980), fixed as RunConfig class constants: 20 ms Hamming windows every
10 ms, a 512-point DFT, 26 mel bands over 0-8000 Hz and 13 coefficients,
at SAMPLE_RATE_HZ. No function here takes a config.
"""

from __future__ import annotations

import functools

import numpy as np

from .audio_io import SAMPLE_RATE_HZ, Waveform
from .config import RunConfig
from .errors import SampleRateError, SignalTooShortError, TooFewFramesError

_LOG_FLOOR = 1e-10


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=None)
def mel_filterbank() -> np.ndarray:
    """Triangular filters, peaks uniformly spaced on the mel scale, each
    peak-normalized to 1. Shape (n_mels, mfcc_n_fft//2 + 1); built once and
    shared, so read-only."""
    cfg = RunConfig
    edges = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin_hz), hz_to_mel(cfg.fmax_hz),
                                  cfg.n_mels + 2))
    bins_hz = np.arange(cfg.mfcc_n_fft // 2 + 1) * SAMPLE_RATE_HZ / cfg.mfcc_n_fft
    bank = np.zeros((cfg.n_mels, bins_hz.size))
    for i in range(cfg.n_mels):
        left, center, right = edges[i], edges[i + 1], edges[i + 2]
        rising = (bins_hz - left) / (center - left)
        falling = (right - bins_hz) / (right - center)
        bank[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.flags.writeable = False
    return bank


def mfcc_frames(w: Waveform) -> np.ndarray:
    """MFCC matrix of shape (n_coeffs, n_frames).

    Hamming window, magnitude-squared DFT, mel energies, natural log with a
    1e-10 floor, orthonormal DCT-II, coefficients 0..n_coeffs-1 kept.
    """
    if w.sample_rate_hz != SAMPLE_RATE_HZ:
        raise SampleRateError(
            f"expected {SAMPLE_RATE_HZ} Hz input, got {w.sample_rate_hz}")
    win, hop = RunConfig.win_samples, RunConfig.hop_samples
    x = w.samples
    if x.size < win:
        raise SignalTooShortError(f"signal of {x.size} samples < window {win}")
    from scipy import fft as sfft  # numpy has no DCT; only MFCC loads scipy.fft

    n_frames = 1 + (x.size - win) // hop
    idx = hop * np.arange(n_frames)[:, None] + np.arange(win)[None, :]
    frames = x[idx] * np.hamming(win)
    power = np.abs(sfft.rfft(frames, n=RunConfig.mfcc_n_fft, axis=1)) ** 2
    mel_energy = mel_filterbank() @ power.T
    log_mel = np.log(mel_energy + _LOG_FLOOR)
    return sfft.dct(log_mel, type=2, axis=0, norm="ortho")[: RunConfig.n_coeffs]


def mfcc_stats(frames: np.ndarray) -> np.ndarray:
    """Utterance vector: per-coefficient mean then population std."""
    if frames.ndim != 2 or frames.shape[1] < 2:
        raise TooFewFramesError("need at least two frames for statistics")
    return np.concatenate([frames.mean(axis=1), frames.std(axis=1)])


def mfcc_utterance(w: Waveform) -> np.ndarray:
    return mfcc_stats(mfcc_frames(w))
