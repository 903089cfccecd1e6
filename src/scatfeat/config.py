"""Run configuration: file round-trip and feature config hashing."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields

from .audio_io import SAMPLE_RATE_HZ
from .errors import ScatFeatError
from .mfcc import MfccConfig
from .scattering import ScatteringConfig

FEATURE_KINDS = ("scatnet", "f-scatnet", "mfcc", "scat-layer1", "scat-layer2")

# Fields whose values change extracted feature vectors, per kind family.
_SCAT_HASH_FIELDS = ("sample_rate_hz", "q1", "q2", "t", "n", "f_wavelet_len",
                     "log_compress", "log_eps")
_MFCC_HASH_FIELDS = ("sample_rate_hz", "n", "n_coeffs", "win_ms", "hop_ms",
                     "mfcc_n_fft", "n_mels", "fmin_hz", "fmax_hz")


@dataclass(frozen=True)
class RunConfig:
    """Flat bag of protocol parameters; round-trips through key=value text
    or JSON. SVM grid entries are lists; gamma scales are divided by the
    feature dimension at evaluation time.

    Unlike ScatteringConfig, a run log-compresses each scattering frame by
    default (ln(s + log_eps) before pooling), as Anden & Mallat, "Deep
    Scattering Spectrum" (IEEE TSP 2014) classify log scattering
    coefficients. Linear coefficients fail on an unseen speaker: bins that
    the training speakers leave almost empty get a tiny standardizer std,
    so the held-out speaker's energy there yields huge z-scores and the RBF
    kernel to every support vector vanishes."""

    feature_kind: str = "scatnet"
    sample_rate_hz: int = SAMPLE_RATE_HZ
    # scattering
    q1: int = 5
    q2: int = 1
    t: int = 16384
    n: int = 51000
    f_wavelet_len: int = 32
    log_compress: bool = True
    log_eps: float = 1e-7
    # mfcc
    n_coeffs: int = 13
    win_ms: float = 20.0
    hop_ms: float = 10.0
    mfcc_n_fft: int = 512
    n_mels: int = 26
    fmin_hz: float = 0.0
    fmax_hz: float = 8000.0
    # svm grid
    svm_c: tuple = (0.1, 1.0, 10.0, 100.0)
    svm_gamma_scale: tuple = (0.1, 1.0, 10.0)

    def scattering_config(self) -> ScatteringConfig:
        return ScatteringConfig(q1=self.q1, q2=self.q2, t=self.t, n=self.n,
                                f_wavelet_len=self.f_wavelet_len,
                                log_compress=self.log_compress,
                                log_eps=self.log_eps)

    def mfcc_config(self) -> MfccConfig:
        return MfccConfig(n_coeffs=self.n_coeffs, win_ms=self.win_ms,
                          hop_ms=self.hop_ms, n_fft=self.mfcc_n_fft,
                          n_mels=self.n_mels, fmin_hz=self.fmin_hz,
                          fmax_hz=self.fmax_hz)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(name: str, raw):
    if isinstance(raw, str):
        raw = raw.strip()
    kind = _FIELD_TYPES.get(name)
    if kind is None:
        raise ScatFeatError(f"unknown config key {name!r}")
    if kind == "tuple":
        if isinstance(raw, (list, tuple)):
            return tuple(float(v) for v in raw)
        return tuple(float(v) for v in str(raw).split(",") if v.strip())
    if kind == "bool":
        if isinstance(raw, bool):
            return raw
        if str(raw).lower() in ("true", "1", "yes", "on"):
            return True
        if str(raw).lower() in ("false", "0", "no", "off"):
            return False
        raise ScatFeatError(f"bad boolean for {name}: {raw!r}")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return str(raw)


def config_from_text(text: str) -> RunConfig:
    """Parse either a JSON object or flat key=value lines (# comments)."""
    text = text.strip()
    values = {}
    if text.startswith("{"):
        for key, val in json.loads(text).items():
            values[key] = _parse_value(key, val)
    else:
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ScatFeatError(f"config line {lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip()] = _parse_value(key.strip(), val)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return config_from_text(fh.read())


def config_to_text(cfg: RunConfig) -> str:
    """Canonical key=value dump (sorted keys); parses back losslessly."""
    lines = []
    for key, val in sorted(asdict(cfg).items()):
        if isinstance(val, tuple):
            val = ",".join(f"{v:.17g}" for v in val)
        elif isinstance(val, float):
            val = f"{val:.17g}"
        lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def feature_config_hash(cfg: RunConfig, feature_kind: str) -> str:
    """Short hash of the parameters that determine a feature file's values.

    The SVM grid is deliberately excluded: the same features can be
    evaluated under different grids without a provenance break.
    """
    if feature_kind not in FEATURE_KINDS:
        raise ScatFeatError(f"unknown feature kind {feature_kind!r}")
    names = _MFCC_HASH_FIELDS if feature_kind == "mfcc" else _SCAT_HASH_FIELDS
    values = asdict(cfg)
    parts = [f"kind={feature_kind}"]
    for name in names:
        val = values[name]
        parts.append(f"{name}={val:.17g}" if isinstance(val, float) else f"{name}={val}")
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return digest[:12]
