"""WAV loading, band-limited resampling and length normalization."""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (CorruptHeaderError, NonFiniteFeatureError,
                     UnsupportedEncodingError)

# The rate the scattering and MFCC stages expect.
SAMPLE_RATE_HZ = 16000

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# Anti-aliasing design: 85 dB Kaiser stopband (past the 60 dB target) with
# the stopband edge placed at the output Nyquist, not centered on it.
_STOPBAND_DB = 85.0
_TRANSITION_WIDTH = 0.1  # fraction of the narrower Nyquist band


@dataclass(frozen=True)
class Waveform:
    """Mono audio signal with a fixed sample rate.

    Samples are dimensionless amplitudes, nominally in [-1, 1], stored as
    float64. Instances are immutable values, safe to share across threads.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("waveform must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains NaN or Inf samples")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


def load_wav(path) -> Waveform:
    """Load a RIFF/WAVE file as a mono Waveform.

    Accepts PCM 16-bit and IEEE float 32-bit encodings; multi-channel audio
    is averaged down to mono. Integer PCM is scaled to [-1, 1) by dividing
    by 32768.

    Raises FileNotFoundError, CorruptHeaderError, UnsupportedEncodingError,
    or NonFiniteFeatureError for a NaN or infinite sample, which only a
    float32 file can hold.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeaderError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + chunk_size]
        if chunk_id in (b"fmt ", b"data") and len(body) < chunk_size:
            raise CorruptHeaderError(
                f"{path}: {chunk_id.decode()!r} chunk declares {chunk_size} bytes, "
                f"file holds {len(body)}")
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise CorruptHeaderError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _WAVE_FORMAT_EXTENSIBLE:
                # true codec sits in the first two bytes of the SubFormat GUID
                if len(body) < 26:
                    raise CorruptHeaderError(f"{path}: extensible fmt truncated")
                (sub_code,) = struct.unpack_from("<H", body, 24)
                fmt = (sub_code,) + fmt[1:]
        elif chunk_id == b"data":
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise CorruptHeaderError(f"{path}: missing fmt or data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1 or sample_rate <= 0:
        raise CorruptHeaderError(f"{path}: invalid channel count or rate")

    if audio_format == _WAVE_FORMAT_PCM and bits == 16:
        dtype, full_scale = "<i2", 32768.0
    elif audio_format == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        dtype, full_scale = "<f4", 1.0
    else:
        raise UnsupportedEncodingError(
            f"{path}: format tag {audio_format} with {bits} bits "
            "(only PCM16 and float32 are supported)")
    if len(payload) % (n_channels * bits // 8) != 0:
        raise CorruptHeaderError(
            f"{path}: data chunk of {len(payload)} bytes is not a whole number "
            f"of {n_channels}-channel {bits}-bit samples")
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float64) / full_scale
    if samples.size == 0:
        raise CorruptHeaderError(f"{path}: empty data chunk")
    finite = np.isfinite(samples)
    if not finite.all():  # before the downmix, which would warn on +-inf
        i = int(np.argmin(finite))
        raise NonFiniteFeatureError(
            f"{path}: non-finite audio sample {samples[i]} at index "
            f"{i // n_channels}, channel {i % n_channels}")
    if n_channels > 1:
        samples = samples.reshape(-1, n_channels).mean(axis=1)
    return Waveform(samples, int(sample_rate))


# Held around each _antialias_taps lookup: lru_cache does not serialize its
# misses, so workers that miss a cold cache together would each design the
# filter.
_TAPS_LOCK = threading.Lock()


@lru_cache(maxsize=8)
def _antialias_taps(max_rate: int) -> np.ndarray:
    """Read-only Kaiser-windowed sinc taps for a rate change whose larger
    reduced factor, max(up, down), is max_rate: the design depends on
    nothing else."""
    from scipy import signal

    width = _TRANSITION_WIDTH / max_rate  # Nyquist units at the upsampled rate
    numtaps, beta = signal.kaiserord(_STOPBAND_DB, width)
    taps = signal.firwin(numtaps | 1, 1.0 / max_rate - width / 2.0,
                         window=("kaiser", beta))
    taps.flags.writeable = False
    return taps


def resample(w: Waveform, target_hz: int) -> Waveform:
    """Resample with a Kaiser-windowed sinc anti-aliasing filter.

    Output length is round(len * target / source). When the target rate
    equals the source rate the input is returned unchanged. The filter is
    designed once per max(up, down) of the reduced ratio and cached, so
    22.05 and 44.1 kHz to 16 kHz (both 441) share one design, also when
    threads resample at once.
    """
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    if target_hz == w.sample_rate_hz:
        return w
    from scipy import signal  # loads scipy.fft too; 16 kHz scattering loads neither

    g = math.gcd(target_hz, w.sample_rate_hz)
    up, down = target_hz // g, w.sample_rate_hz // g
    with _TAPS_LOCK:
        taps = _antialias_taps(max(up, down))
    # resample_poly copies the taps and scales the copy by `up` itself
    out = signal.resample_poly(w.samples, up, down, window=taps)
    n_out = int(math.floor(len(w) * target_hz / w.sample_rate_hz + 0.5))
    return Waveform(out[:n_out], target_hz)


def fix_length(w: Waveform, n_samples: int) -> Waveform:
    """Force a waveform to exactly n_samples.

    Longer signals are center-cropped; shorter ones are zero-padded
    symmetrically with the extra sample on the right when the padding is odd.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if len(w) == n_samples:
        return w
    return Waveform(pad_or_crop_center(w.samples, n_samples), w.sample_rate_hz)


def pad_or_crop_center(x: np.ndarray, n: int) -> np.ndarray:
    """Center-crop or symmetrically zero-pad a 1-D array to length n."""
    cur = x.shape[0]
    if cur == n:
        return x
    if cur > n:
        start = (cur - n) // 2
        return x[start:start + n]
    left = (n - cur) // 2
    return np.pad(x, (left, n - cur - left))


def next_pow2(n: int) -> int:
    return 1 << max(int(n) - 1, 0).bit_length()
