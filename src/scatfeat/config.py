"""Run configuration: the one parameter set, its file round-trip and feature
config hashing.

RunConfig has six settable fields. The values the protocol fixes are class
constants, read as cfg.<name> like fields: the 16 kHz working rate, one
wavelet per octave in the second scattering layer (q2, as in Anden & Mallat,
"Deep Scattering Spectrum", IEEE TSP 2014), the offset of the log taken
before pooling (log_eps) and the standard MFCC baseline's window, hop, DFT
length, mel bands, band edges and coefficient count. The feature kind is
not part of a config: every function that extracts or hashes features
takes it from its caller. A config is checked once, when it is made
(RunConfig.__post_init__), so every RunConfig in existence is valid,
whether it came from the constructor, dataclasses.replace or load_config.
Filter-bank limits on q1 and t are FilterBankSpec's to check, when a
scattering kind builds its banks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields

from .audio_io import SAMPLE_RATE_HZ, next_pow2
from .classify import svm_axis
from .errors import InvalidSpecError, ScatFeatError

FEATURE_KINDS = ("scatnet", "f-scatnet", "mfcc", "scat-layer1", "scat-layer2")

# Fields whose values change extracted feature vectors, per kind family.
_SCAT_HASH_FIELDS = ("sample_rate_hz", "q1", "q2", "t", "n", "f_wavelet_len",
                     "log_compress", "log_eps")
_MFCC_HASH_FIELDS = ("sample_rate_hz", "n", "n_coeffs", "win_ms", "hop_ms",
                     "mfcc_n_fft", "n_mels", "fmin_hz", "fmax_hz")
# Bumped when a kind's values change while its fields stay: since definition
# 2, f-scatnet frequency-scatters the linear order-1 frames.
_DEFINITIONS = {"f-scatnet": 2}


@dataclass(frozen=True)
class RunConfig:
    """Every protocol parameter; round-trips through key=value text or JSON.

    Fields: q1 is the first scattering bank's wavelets per octave, t the
    averaging scale in samples, n the fixed signal length, f_wavelet_len
    the averaging-scale analogue (in log-frequency bins) of the bank used
    for frequency scattering. SVM grid entries are lists; gamma scales are
    divided by the feature dimension at evaluation time.

    The class constants below are not fields: they are fixed, and configs
    that state them load only at these values. log_eps is the offset of
    the log taken before pooling (see features.extract_vector). The MFCC
    ones are in milliseconds and Hz at SAMPLE_RATE_HZ.
    """

    sample_rate_hz = SAMPLE_RATE_HZ  # input is resampled to it
    q2 = 1
    log_eps = 1e-7
    n_coeffs = 13
    win_ms = 20.0
    hop_ms = 10.0
    mfcc_n_fft = 512
    n_mels = 26
    fmin_hz = 0.0
    fmax_hz = 8000.0
    win_samples = int(round(win_ms * SAMPLE_RATE_HZ / 1000.0))
    hop_samples = int(round(hop_ms * SAMPLE_RATE_HZ / 1000.0))

    q1: int = 5
    t: int = 16384
    n: int = 51000
    f_wavelet_len: int = 32
    svm_c: tuple = (0.1, 1.0, 10.0, 100.0)
    svm_gamma_scale: tuple = (0.1, 1.0, 10.0)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpecError(f"n must be positive, got {self.n}")
        svm_axis("C", self.svm_c)
        svm_axis("gamma scale", self.svm_gamma_scale)

    @property
    def n_fft(self) -> int:
        return next_pow2(self.n)


# Keys that once were settable and can take only these values now. Configs
# that carry them still load, and hashes still include them, so every
# feature file keeps its hash.
_RETIRED = {"log_compress": True, "feature_kind": "scatnet", **{
    name: getattr(RunConfig, name) for name in (
        "sample_rate_hz", "q2", "log_eps", "n_coeffs", "win_ms", "hop_ms",
        "mfcc_n_fft", "n_mels", "fmin_hz", "fmax_hz")}}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(name: str, raw):
    """raw as the key's type; a retired key's value is compared as that
    type, so win_ms=20 and win_ms=20.0 both load."""
    if isinstance(raw, str):
        raw = raw.strip()
    kind = type(_RETIRED[name]).__name__ if name in _RETIRED else _FIELD_TYPES.get(name)
    if kind is None:
        raise ScatFeatError(f"unknown config key {name!r}")
    items = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
    try:
        if kind != "bool" and any(isinstance(v, bool) for v in (raw, *items)):
            raise ValueError  # int() and float() would take JSON true as 1
        if kind == "tuple":  # an empty item fails float(); an empty value is ()
            value = tuple(float(v) for v in items) if raw != "" else ()
        elif kind == "int" and isinstance(raw, float):
            raise ValueError  # int() would truncate 8.7
        else:
            value = {"int": int, "float": float, "str": str,
                     "bool": lambda v: str(v).lower() == "true"}[kind](raw)
    except (TypeError, ValueError):
        raise ScatFeatError(f"config key {name!r}: not a valid {kind}: {raw!r}") from None
    if name in _RETIRED and value != _RETIRED[name]:
        raise ScatFeatError(f"config key {name!r}: only {_RETIRED[name]} is "
                            f"supported, got {raw!r}")
    return value


def config_from_text(text: str) -> RunConfig:
    """Parse either a JSON object or flat key=value lines (# comments).
    A repeated key is an error, which names the lines of key=value text.
    Retired keys are checked, then dropped."""
    text = text.strip()
    if text.startswith("{"):
        try:  # pairs in file order, so a repeated key is still there to see
            pairs = [(key, val, None) for key, val in
                     json.loads(text, object_pairs_hook=list)]
        except json.JSONDecodeError as exc:
            raise ScatFeatError(f"malformed JSON config: {exc}") from None
    else:
        pairs = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ScatFeatError(f"config line {lineno}: expected key=value")
            key, _, val = line.partition("=")
            pairs.append((key.strip(), val, lineno))
    values, first_line = {}, {}
    for key, val, lineno in pairs:
        if key in values:
            where = f" on lines {first_line[key]} and {lineno}" if lineno else ""
            raise ScatFeatError(f"config key {key!r} repeated{where}")
        values[key], first_line[key] = _parse_value(key, val), lineno
    return RunConfig(**{k: v for k, v in values.items() if k not in _RETIRED})


def load_config(path) -> RunConfig:
    """config_from_text on a file; its errors keep their type and name the
    file."""
    try:
        with open(path) as fh:
            return config_from_text(fh.read())
    except ScatFeatError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def config_to_text(cfg: RunConfig) -> str:
    """Canonical key=value dump (sorted keys); parses back losslessly."""
    lines = []
    for key, val in sorted(asdict(cfg).items()):
        if isinstance(val, tuple):
            val = ",".join(f"{v:.17g}" for v in val)
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
    values = {**_RETIRED, **asdict(cfg)}
    parts = [f"kind={feature_kind}"]
    for name in names:
        val = values[name]
        parts.append(f"{name}={val:.17g}" if isinstance(val, float) else f"{name}={val}")
    if feature_kind in _DEFINITIONS:
        parts.append(f"definition={_DEFINITIONS[feature_kind]}")
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return digest[:12]
