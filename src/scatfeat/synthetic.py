"""Deterministic synthetic AM-tone corpus for end-to-end pipeline checks.

Class identity is the amplitude-modulation rate, speaker identity the
carrier frequency. The modulation envelope multiplies both the carrier and
a broadband noise floor, so the class signature survives the unseen-carrier
test speaker of a LOSO fold. That invariance holds for the scattering
vectors features.extract_vector returns, row means of the log of the
frames; on linear coefficients the unseen carrier's order-1 bins dominate
the standardized vector.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .audio_io import SAMPLE_RATE_HZ

DEFAULT_CARRIERS_HZ = {"spk1": 600.0, "spk2": 1200.0, "spk3": 2400.0,
                       "spk4": 4800.0}
DEFAULT_MOD_RATES_HZ = {"mod4": 4.0, "mod16": 16.0, "mod64": 64.0}


def write_wav_pcm16(path, samples: np.ndarray, sample_rate_hz: int) -> None:
    """Minimal PCM16 mono WAV writer (for generated corpora)."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 32767.0 / 32768.0)
    pcm = np.round(clipped * 32768.0).astype("<i2")
    data = pcm.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sample_rate_hz,
                                    sample_rate_hz * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(data))
    Path(path).write_bytes(header + data)


def am_utterance(rng: np.random.Generator, carrier_hz: float, mod_hz: float,
                 n_samples: int = 51000, sample_rate_hz: int = 16000) -> np.ndarray:
    """One modulated utterance with per-utterance phase/level jitter."""
    t = np.arange(n_samples) / sample_rate_hz
    depth = 0.8 + 0.1 * rng.uniform(-1.0, 1.0)
    amp = 0.35 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0))
    envelope = 1.0 + depth * np.cos(2.0 * np.pi * mod_hz * t + rng.uniform(0, 2 * np.pi))
    carrier = np.cos(2.0 * np.pi * carrier_hz * t + rng.uniform(0, 2 * np.pi))
    noise = 0.35 * rng.standard_normal(n_samples)
    x = amp * envelope * (carrier + noise)
    return 0.9 * x / np.max(np.abs(x))


def write_am_dataset(root, carriers_hz: dict = None, mod_rates_hz: dict = None,
                     utterances_per_cell: int = 10, n_samples: int = 51000,
                     seed: int = 2024):
    """Generate PCM16 WAVs at SAMPLE_RATE_HZ plus a manifest.csv under
    root; returns the manifest path.

    Deterministic for a fixed seed: every (speaker, class, index) cell gets
    its own child generator.
    """
    carriers_hz = carriers_hz or DEFAULT_CARRIERS_HZ
    mod_rates_hz = mod_rates_hz or DEFAULT_MOD_RATES_HZ
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for si, (speaker, carrier) in enumerate(sorted(carriers_hz.items())):
        for ci, (label, rate) in enumerate(sorted(mod_rates_hz.items())):
            for k in range(utterances_per_cell):
                rng = np.random.default_rng([seed, si, ci, k])
                x = am_utterance(rng, carrier, rate, n_samples, SAMPLE_RATE_HZ)
                uid = f"{speaker}_{label}_{k:03d}"
                wav_path = root / f"{uid}.wav"
                write_wav_pcm16(wav_path, x, SAMPLE_RATE_HZ)
                rows.append((uid, str(wav_path), speaker, label))
    manifest_path = root / "manifest.csv"
    with open(manifest_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["utterance_id", "path", "speaker_id", "label"])
        for row in sorted(rows):
            writer.writerow(row)
    return manifest_path
