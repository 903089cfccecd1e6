"""Feature extraction dispatch and the SCATFEAT v1 feature file format."""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .audio_io import SAMPLE_RATE_HZ, Waveform, fix_length, load_wav, resample
from .config import FEATURE_KINDS, RunConfig
from .errors import NonFiniteFeatureError, ScatFeatError, SignalTooShortError
from .evaluation import FeatureRow, ManifestRow
from .filterbank import cached_bank
from .mfcc import mfcc_utterance
from .scattering import (frequency_bank, frequency_scattering,
                         scattering_paths, time_scattering)

FORMAT_TAG = "SCATFEAT v1"


def extract_vector(kind: str, w: Waveform, cfg: RunConfig) -> np.ndarray:
    """Utterance-level feature vector of the requested kind.

    The waveform is resampled to SAMPLE_RATE_HZ when needed; every kind
    operates on exactly cfg.n samples. n is the only field the mfcc kind
    reads: its other settings are fixed (see mfcc). A scattering vector is
    the row mean of ln(frames + cfg.log_eps): the log is taken once, here,
    on every row of the linear frames, frequency-scattering rows included.
    The layer subsets are slices of the scatnet vector: scat-layer1 keeps
    orders 0 and 1, scat-layer2 order 2. scat-layer1 runs time_scattering
    with max_order=1, which returns those rows alone, bit for bit, without
    layer 2; pooling is per row, so its vector is still the slice.

    Classifying log coefficients follows Anden & Mallat, "Deep Scattering
    Spectrum" (IEEE TSP 2014). Linear coefficients fail on an unseen
    speaker: bins that the training speakers leave almost empty get a tiny
    standardizer std, so the held-out speaker's energy there yields huge
    z-scores and the RBF kernel to every support vector vanishes. Frequency
    scattering runs before the log for the same reason: run on log order-1
    frames, its rows had such dimensions (held-out |z| above 100), and
    f-scatnet fell to chance.
    """
    if kind not in FEATURE_KINDS:
        raise ScatFeatError(f"unknown feature kind {kind!r}")
    w = resample(w, SAMPLE_RATE_HZ)
    if kind == "mfcc":
        return mfcc_utterance(fix_length(w, cfg.n))
    if kind == "scat-layer1":
        frames = time_scattering(w, cfg, max_order=1)
    else:
        frames = time_scattering(w, cfg)
    if kind == "f-scatnet":
        frames = frequency_scattering(frames, cfg)
    vector = np.log(frames + cfg.log_eps).mean(axis=1)
    if kind == "scat-layer2":
        return vector[1 + len(cached_bank(cfg.q1, cfg.t, cfg.n_fft).filters):]
    return vector


def extract_many(manifest: list[ManifestRow], kind: str, cfg: RunConfig,
                 n_workers: int | None = None):
    """Extract features for every manifest row with a bounded thread pool.

    Returns (feature_rows sorted by utterance_id, errors), where errors is a
    list of (utterance_id, message) for rows that failed. A kind outside
    FEATURE_KINDS or n_workers below 1 raises ScatFeatError before anything
    else. The kind's banks are built once, before any worker starts, so a
    config they reject raises here before any WAV is read. So does an n
    too short for the two MFCC frames that mfcc_stats pools, since every
    utterance is cut to n.
    n_workers defaults to the CPUs the process may run on, which taskset
    or a cpuset can make fewer than the machine's.
    """
    if kind not in FEATURE_KINDS:
        raise ScatFeatError(f"unknown feature kind {kind!r}")
    if n_workers is None:
        n_workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
    if n_workers < 1:
        raise ScatFeatError(f"n_workers must be at least 1, got {n_workers}")
    if kind == "mfcc" and cfg.n < cfg.win_samples + cfg.hop_samples:
        raise SignalTooShortError(
            f"n={cfg.n} samples < {cfg.win_samples + cfg.hop_samples}, two MFCC "
            f"frames (window {cfg.win_samples}, hop {cfg.hop_samples})")
    if kind != "mfcc":
        scattering_paths(cfg)
    if kind == "f-scatnet":
        frequency_bank(cfg)

    def one(row: ManifestRow):
        vec = extract_vector(kind, load_wav(row.path), cfg)
        return FeatureRow(row.utterance_id, row.speaker_id, row.label, vec)

    ordered = sorted(manifest, key=lambda r: r.utterance_id)
    rows, errors = [], []
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [(r, pool.submit(one, r)) for r in ordered]
        for row, fut in futures:
            try:
                rows.append(fut.result())
            except Exception as exc:  # collected, reported by the caller
                errors.append((row.utterance_id, str(exc)))
    return rows, errors


def write_feature_file(path, kind: str, rows: list[FeatureRow],
                       config_hash: str) -> None:
    """Write `#SCATFEAT v1 kind=<kind> dim=<d> config_hash=<hex>` plus one
    CSV row per utterance, floats at 17 significant digits, sorted by id.
    Ids and labels holding a comma or a quote are CSV-quoted. kind must be
    one of FEATURE_KINDS, config_hash may hold no whitespace (the header
    is split on it), and no utterance_id may appear twice."""
    if kind not in FEATURE_KINDS:
        raise ScatFeatError(f"unknown feature kind {kind!r}")
    if any(c.isspace() for c in config_hash):
        raise ScatFeatError(f"config_hash {config_hash!r} holds whitespace")
    rows = sorted(rows, key=lambda r: r.utterance_id)
    if not rows:
        raise ScatFeatError("no feature rows to write")
    dim = rows[0].vector.shape[0]
    # checked before the file is opened, so no partial file is left
    for k, r in enumerate(rows):
        if k and r.utterance_id == rows[k - 1].utterance_id:  # sorted, so adjacent
            raise ScatFeatError(f"{r.utterance_id}: duplicate utterance_id")
        if r.vector.shape[0] != dim:
            raise ScatFeatError(f"{r.utterance_id}: dim {r.vector.shape[0]} != {dim}")
        if not np.isfinite(r.vector).all():  # read_feature_file rejects them
            raise NonFiniteFeatureError(f"{r.utterance_id}: non-finite value")
    with open(path, "w", newline="") as fh:
        fh.write(f"#{FORMAT_TAG} kind={kind} dim={dim} config_hash={config_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        for r in rows:
            writer.writerow([r.utterance_id, r.speaker_id, r.label,
                             *(f"{v:.17g}" for v in r.vector)])


def read_feature_file(path):
    """Parse a SCATFEAT v1 file; returns (kind, config_hash, rows). A kind
    outside FEATURE_KINDS is rejected, and so are a header key that
    appears twice and an utterance_id that appears twice (the error names
    the line of the second)."""
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if not header.startswith(f"#{FORMAT_TAG} "):
            raise ScatFeatError(f"{path}: not a {FORMAT_TAG} file")
        try:
            meta = dict(part.split("=", 1) for part in header[1:].split()[2:])
            kind, dim, config_hash = meta["kind"], int(meta["dim"]), meta["config_hash"]
        except (KeyError, ValueError):
            raise ScatFeatError(f"{path}: malformed header {header!r}") from None
        if len(meta) + 2 < len(header.split()):  # dict() keeps the last of a key
            raise ScatFeatError(f"{path}:1: repeated key in header {header!r}")
        if kind not in FEATURE_KINDS:
            raise ScatFeatError(f"{path}:1: unknown feature kind {kind!r}")
        if dim < 1:
            raise ScatFeatError(f"{path}:1: dim must be at least 1, got {dim}")
        rows, first_line = [], {}
        reader = csv.reader(fh)  # the header line is already consumed
        for parts in reader:
            if not parts:
                continue
            if len(parts) != 3 + dim:
                raise ScatFeatError(
                    f"{path}:{reader.line_num + 1}: expected {3 + dim} fields")
            if parts[0] in first_line:
                raise ScatFeatError(
                    f"{path}:{reader.line_num + 1}: duplicate utterance_id "
                    f"{parts[0]!r}, first on line {first_line[parts[0]]}")
            first_line[parts[0]] = reader.line_num + 1
            try:
                vec = np.array(parts[3:], dtype=np.float64)
            except ValueError as exc:
                raise ScatFeatError(f"{path}:{reader.line_num + 1}: {exc}") from None
            if not np.isfinite(vec).all():
                raise NonFiniteFeatureError(
                    f"{path}:{reader.line_num + 1}: non-finite value "
                    f"{parts[3 + np.argmin(np.isfinite(vec))]!r}")
            rows.append(FeatureRow(parts[0], parts[1], parts[2], vec))
    if not rows:
        raise ScatFeatError(f"{path}: no feature rows")
    return kind, config_hash, rows

