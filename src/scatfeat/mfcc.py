"""13-coefficient MFCC baseline with mean + std utterance pooling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .audio_io import SAMPLE_RATE_HZ, Waveform
from .errors import (InvalidSpecError, SampleRateError, SignalTooShortError,
                     TooFewFramesError)

_LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class MfccConfig:
    n_coeffs: int = 13
    win_ms: float = 20.0
    hop_ms: float = 10.0
    n_fft: int = 512
    n_mels: int = 26
    fmin_hz: float = 0.0
    fmax_hz: float = 8000.0

    def validate(self, sample_rate_hz: int) -> None:
        if self.n_coeffs > self.n_mels:
            raise InvalidSpecError("n_coeffs must not exceed n_mels")
        if self.win_samples(sample_rate_hz) > self.n_fft:
            raise InvalidSpecError("window longer than n_fft")

    def win_samples(self, sample_rate_hz: int) -> int:
        return int(round(self.win_ms * sample_rate_hz / 1000.0))

    def hop_samples(self, sample_rate_hz: int) -> int:
        return int(round(self.hop_ms * sample_rate_hz / 1000.0))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: MfccConfig, sample_rate_hz: int) -> np.ndarray:
    """Triangular filters, peaks uniformly spaced on the mel scale, each
    peak-normalized to 1. Shape (n_mels, n_fft//2 + 1)."""
    edges = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin_hz), hz_to_mel(cfg.fmax_hz),
                                  cfg.n_mels + 2))
    bins_hz = np.arange(cfg.n_fft // 2 + 1) * sample_rate_hz / cfg.n_fft
    bank = np.zeros((cfg.n_mels, bins_hz.size))
    for i in range(cfg.n_mels):
        left, center, right = edges[i], edges[i + 1], edges[i + 2]
        rising = (bins_hz - left) / (center - left)
        falling = (right - bins_hz) / (right - center)
        bank[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


def mfcc_frames(w: Waveform, cfg: MfccConfig = MfccConfig()) -> np.ndarray:
    """MFCC matrix of shape (n_coeffs, n_frames).

    Hamming window, magnitude-squared DFT, mel energies, natural log with a
    1e-10 floor, orthonormal DCT-II, coefficients 0..n_coeffs-1 kept.
    """
    if w.sample_rate_hz != SAMPLE_RATE_HZ:
        raise SampleRateError(
            f"expected {SAMPLE_RATE_HZ} Hz input, got {w.sample_rate_hz}")
    cfg.validate(w.sample_rate_hz)
    win = cfg.win_samples(w.sample_rate_hz)
    hop = cfg.hop_samples(w.sample_rate_hz)
    x = w.samples
    if x.size < win:
        raise SignalTooShortError(f"signal of {x.size} samples < window {win}")
    n_frames = 1 + (x.size - win) // hop
    idx = hop * np.arange(n_frames)[:, None] + np.arange(win)[None, :]
    frames = x[idx] * np.hamming(win)
    power = np.abs(sfft.rfft(frames, n=cfg.n_fft, axis=1)) ** 2
    mel_energy = mel_filterbank(cfg, w.sample_rate_hz) @ power.T
    log_mel = np.log(mel_energy + _LOG_FLOOR)
    return sfft.dct(log_mel, type=2, axis=0, norm="ortho")[: cfg.n_coeffs]


def mfcc_stats(frames: np.ndarray) -> np.ndarray:
    """Utterance vector: per-coefficient mean then population std."""
    if frames.ndim != 2 or frames.shape[1] < 2:
        raise TooFewFramesError("need at least two frames for statistics")
    return np.concatenate([frames.mean(axis=1), frames.std(axis=1)])


def mfcc_utterance(w: Waveform, cfg: MfccConfig = MfccConfig()) -> np.ndarray:
    return mfcc_stats(mfcc_frames(w, cfg))
