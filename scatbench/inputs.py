"""Seeded input generators for the benchmark's workloads.

Every generator is a pure function of its seed: the same seed writes the
same bytes. The layout of each input (row counts, sample rates, encodings,
lengths) is fixed; the seed only drives signal and feature content, so the
work per run does not depend on the seed.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

# EmoDB (Burkhardt et al., Interspeech 2005): 535 utterances, 7 emotions,
# 10 speakers.
EMODB_CLASS_COUNTS = {"anger": 127, "boredom": 81, "disgust": 46, "fear": 69,
                      "happiness": 71, "neutral": 79, "sadness": 62}
EMODB_SPEAKER_COUNTS = {"03": 49, "08": 58, "09": 43, "10": 38, "11": 55,
                        "12": 35, "13": 61, "14": 69, "15": 56, "16": 71}
EMODB_DIM = 392  # the default scatnet dimension

# Latent geometry of the EmoDB-shaped features (see README, "UAR floor").
LATENT_DIM = 24
CLASS_DISTANCE = 3.5   # every pair of class means is this far apart
SPEAKER_STD = 0.5      # per-speaker offset, per latent dimension
AMBIENT_STD = 0.3      # isotropic noise over all 392 dimensions
FEATURE_OFFSET = -12.0  # log-scattering coefficients sit well below 0

# Mixed-rate corpus: 4 speakers (carriers), 2 classes (modulation rates).
MIXED_CARRIERS_HZ = {"spk1": 600.0, "spk2": 1200.0, "spk3": 2400.0,
                     "spk4": 4800.0}
MIXED_MOD_RATES_HZ = {"mod16": 16.0, "mod64": 64.0}
MIXED_RATES_HZ = (22050, 44100)
MIXED_ENCODINGS = ("pcm16-mono", "float32-stereo")
MIXED_SECONDS = (2.5, 4.0)  # below and above n = 51000 samples at 16 kHz


def emodb_allocation() -> np.ndarray:
    """Rows per (speaker, class), shape (10, 7), in sorted key order.

    Row sums are EmoDB's per-speaker counts and column sums its per-class
    counts: the product of the marginals, rounded by largest remainder.
    """
    speakers = sorted(EMODB_SPEAKER_COUNTS)
    classes = sorted(EMODB_CLASS_COUNTS)
    spk = np.array([EMODB_SPEAKER_COUNTS[s] for s in speakers])
    cls = np.array([EMODB_CLASS_COUNTS[c] for c in classes])
    want = spk[:, None] * cls[None, :] / spk.sum()
    table = np.floor(want).astype(int)
    remainder = want - table
    while table.sum() < spk.sum():
        open_cells = ((spk - table.sum(1))[:, None] > 0) & ((cls - table.sum(0))[None, :] > 0)
        i, j = np.unravel_index(np.argmax(np.where(open_cells, remainder, -1.0)),
                                table.shape)
        table[i, j] += 1
        remainder[i, j] = -1.0
    return table


def emodb_shaped_rows(seed: int):
    """(utterance_id, speaker, label, vector) tuples shaped like EmoDB.

    vector = B (m_class + o_speaker + z) + AMBIENT_STD * e + FEATURE_OFFSET,
    with B a random orthonormal 392 x 24 basis, m_class the 7 vertices of a
    regular simplex (pairwise distance CLASS_DISTANCE), o_speaker ~
    N(0, SPEAKER_STD^2 I), z ~ N(0, I) and e ~ N(0, I).
    """
    rng = np.random.default_rng([seed, 535])
    speakers = sorted(EMODB_SPEAKER_COUNTS)
    classes = sorted(EMODB_CLASS_COUNTS)
    basis = np.linalg.qr(rng.standard_normal((EMODB_DIM, LATENT_DIM)))[0]
    means = np.zeros((len(classes), LATENT_DIM))
    means[:, :len(classes)] = CLASS_DISTANCE / np.sqrt(2.0) * np.eye(len(classes))
    table = emodb_allocation()
    rows = []
    for si, speaker in enumerate(speakers):
        offset = SPEAKER_STD * rng.standard_normal(LATENT_DIM)
        for ci, label in enumerate(classes):
            for k in range(table[si, ci]):
                latent = means[ci] + offset + rng.standard_normal(LATENT_DIM)
                vec = (basis @ latent + AMBIENT_STD * rng.standard_normal(EMODB_DIM)
                       + FEATURE_OFFSET)
                rows.append((f"{speaker}_{label}_{k:03d}", speaker, label, vec))
    return rows


def write_emodb_shaped_file(path, seed: int) -> Path:
    """Write the EmoDB-shaped rows as a SCATFEAT v1 feature file."""
    rows = sorted(emodb_shaped_rows(seed))
    with open(path, "w", newline="") as fh:
        fh.write(f"#SCATFEAT v1 kind=scatnet dim={EMODB_DIM} "
                 f"config_hash=emodbshape{seed}\n")
        for uid, speaker, label, vec in rows:
            values = ",".join(f"{v:.17g}" for v in vec)
            fh.write(f"{uid},{speaker},{label},{values}\n")
    return Path(path)


def write_wav(path, samples: np.ndarray, sample_rate_hz: int, encoding: str) -> None:
    """RIFF/WAVE writer: "pcm16-mono" for a 1-D array, "float32-stereo" for
    an (n, 2) array."""
    if encoding == "pcm16-mono":
        clipped = np.clip(samples, -1.0, 32767.0 / 32768.0)
        data = np.round(clipped * 32768.0).astype("<i2").tobytes()
        tag, channels, bits = 1, 1, 16
    elif encoding == "float32-stereo":
        data = np.asarray(samples, dtype="<f4").reshape(-1, 2).tobytes()
        tag, channels, bits = 3, 2, 32
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, sample_rate_hz,
                      sample_rate_hz * block, block, bits)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


def write_manifest(path, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["utterance_id", "path", "speaker_id", "label"])
        writer.writerows(sorted(rows))
    return Path(path)


def mixed_layout():
    """(speaker, label, rate, encoding, seconds) for the 4 mixed-rate
    utterances. Speakers alternate between the two classes, so every LOSO
    fold trains on both. The (rate, encoding, length) choices are the half
    fraction of the 2 x 2 x 2 design with an even number of second levels:
    each rate comes in both encodings and both lengths."""
    speakers = sorted(MIXED_CARRIERS_HZ)
    labels = sorted(MIXED_MOD_RATES_HZ)
    out = []
    for k, speaker in enumerate(speakers):
        r, e = k // 2, k % 2
        out.append((speaker, labels[k % 2], MIXED_RATES_HZ[r], MIXED_ENCODINGS[e],
                    MIXED_SECONDS[r ^ e]))
    return out


def write_mixed_corpus(root, seed: int, am_utterance) -> Path:
    """Write the mixed-rate corpus and its manifest; returns the manifest path.

    am_utterance is scatfeat.synthetic.am_utterance. A stereo file carries
    the tone on both channels (the right one at 0.8 gain plus independent
    noise), so the mono downmix keeps the speaker's carrier.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for k, (speaker, label, rate, encoding, seconds) in enumerate(mixed_layout()):
        rng = np.random.default_rng([seed, 4410, k])
        n_samples = int(round(seconds * rate))
        x = am_utterance(rng, MIXED_CARRIERS_HZ[speaker], MIXED_MOD_RATES_HZ[label],
                         n_samples, rate)
        if encoding == "float32-stereo":
            right = 0.8 * x + 0.05 * rng.standard_normal(n_samples)
            x = np.stack([x, right], axis=1)
        uid = f"{speaker}_{label}_{rate}_{encoding}"
        wav = root / f"{uid}.wav"
        write_wav(wav, x, rate, encoding)
        rows.append((uid, str(wav), speaker, label))
    return write_manifest(root / "manifest.csv", rows)
