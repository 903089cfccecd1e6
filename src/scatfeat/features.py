"""Feature extraction dispatch and the SCATFEAT v1 feature file format."""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .audio_io import Waveform, fix_length, load_wav, resample
from .config import FEATURE_KINDS, RunConfig, feature_config_hash
from .errors import ScatFeatError
from .evaluation import FeatureRow, ManifestRow
from .filterbank import cached_bank
from .mfcc import mfcc_utterance
from .scattering import frequency_scattering, time_scattering

FORMAT_TAG = "SCATFEAT v1"


def default_workers() -> int:
    env = os.environ.get("SCATFEAT_THREADS", "")
    if env.strip():
        return max(1, int(env))
    return os.cpu_count() or 1


def extract_vector(kind: str, w: Waveform, cfg: RunConfig) -> np.ndarray:
    """Utterance-level feature vector of the requested kind.

    The waveform is resampled to cfg.sample_rate_hz when needed; every kind
    operates on exactly cfg.n samples. The layer subsets are slices of the
    scatnet vector: scat-layer1 keeps orders 0 and 1, scat-layer2 order 2.
    """
    if kind not in FEATURE_KINDS:
        raise ScatFeatError(f"unknown feature kind {kind!r}")
    w = resample(w, cfg.sample_rate_hz)
    if kind == "mfcc":
        return mfcc_utterance(fix_length(w, cfg.n), cfg.mfcc_config())
    scfg = cfg.scattering_config()
    features = time_scattering(w, scfg)
    if kind == "f-scatnet":
        features = frequency_scattering(features, scfg)
    vector = features.utterance_vector
    n_low = 1 + len(cached_bank(scfg.q1, scfg.t, scfg.n_fft).filters)
    return {"scat-layer1": vector[:n_low], "scat-layer2": vector[n_low:]}.get(kind, vector)


def extract_many(manifest: list[ManifestRow], kind: str, cfg: RunConfig,
                 n_workers: int | None = None):
    """Extract features for every manifest row with a bounded thread pool.

    Returns (feature_rows sorted by utterance_id, errors), where errors is a
    list of (utterance_id, message) for rows that failed.
    """
    if n_workers is None:
        n_workers = default_workers()

    def one(row: ManifestRow):
        vec = extract_vector(kind, load_wav(row.path), cfg)
        return FeatureRow(row.utterance_id, row.speaker_id, row.label, vec)

    ordered = sorted(manifest, key=lambda r: r.utterance_id)
    rows, errors = [], []
    with ThreadPoolExecutor(max_workers=max(1, n_workers)) as pool:
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
    Ids and labels holding a comma or a quote are CSV-quoted."""
    rows = sorted(rows, key=lambda r: r.utterance_id)
    if not rows:
        raise ScatFeatError("no feature rows to write")
    dim = rows[0].vector.shape[0]
    with open(path, "w", newline="") as fh:
        fh.write(f"#{FORMAT_TAG} kind={kind} dim={dim} config_hash={config_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        for r in rows:
            if r.vector.shape[0] != dim:
                raise ScatFeatError(f"{r.utterance_id}: dim {r.vector.shape[0]} != {dim}")
            writer.writerow([r.utterance_id, r.speaker_id, r.label,
                             *(f"{v:.17g}" for v in r.vector)])


def read_feature_file(path):
    """Parse a SCATFEAT v1 file; returns (kind, config_hash, rows)."""
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if not header.startswith(f"#{FORMAT_TAG} "):
            raise ScatFeatError(f"{path}: not a {FORMAT_TAG} file")
        try:
            meta = dict(part.split("=", 1) for part in header[1:].split()[2:])
            kind, dim, config_hash = meta["kind"], int(meta["dim"]), meta["config_hash"]
        except (KeyError, ValueError):
            raise ScatFeatError(f"{path}: malformed header {header!r}") from None
        rows = []
        reader = csv.reader(fh)  # the header line is already consumed
        for parts in reader:
            if not parts:
                continue
            if len(parts) != 3 + dim:
                raise ScatFeatError(
                    f"{path}:{reader.line_num + 1}: expected {3 + dim} fields")
            try:
                vec = np.array(parts[3:], dtype=np.float64)
            except ValueError as exc:
                raise ScatFeatError(f"{path}:{reader.line_num + 1}: {exc}") from None
            rows.append(FeatureRow(parts[0], parts[1], parts[2], vec))
    if not rows:
        raise ScatFeatError(f"{path}: no feature rows")
    return kind, config_hash, rows


def extract_to_file(manifest: list[ManifestRow], kind: str, cfg: RunConfig,
                    out_path, n_workers: int | None = None):
    """Extract and persist; returns the error list (empty on full success)."""
    rows, errors = extract_many(manifest, kind, cfg, n_workers=n_workers)
    if rows:
        write_feature_file(out_path, kind, rows, feature_config_hash(cfg, kind))
    return errors
