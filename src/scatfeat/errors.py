"""Exception types shared across the package."""


class ScatFeatError(Exception):
    """Base class for all scatfeat errors."""


class CorruptHeaderError(ScatFeatError):
    """WAV container is malformed or truncated."""


class UnsupportedEncodingError(ScatFeatError):
    """WAV codec other than PCM16 / IEEE float32."""


class InvalidSpecError(ScatFeatError):
    """Filter bank or scattering configuration is inconsistent."""


class LengthMismatchError(ScatFeatError):
    """Signal length does not match the bank transform length."""


class AxisTooShortError(ScatFeatError):
    """Log-frequency axis has too few bins for frequency scattering."""


class SampleRateError(ScatFeatError):
    """Waveform sample rate differs from the one the pipeline expects."""


class SignalTooShortError(ScatFeatError):
    """Signal shorter than one analysis window."""


class TooFewFramesError(ScatFeatError):
    """Statistics need at least two frames."""


class TooFewRowsError(ScatFeatError):
    """Standardizer or LOSO evaluation given too few feature rows."""


class DegenerateClassError(ScatFeatError):
    """A class pair cannot be trained (missing samples or single class)."""


class InvalidSvmParamError(ScatFeatError):
    """SVM C or gamma is not a finite number > 0, or a grid axis is empty."""


class DimensionMismatchError(ScatFeatError):
    """Feature dimension differs from what the model was trained on."""


class NonFiniteFeatureError(ScatFeatError):
    """A feature value or audio sample is NaN or infinite."""


class TooFewSpeakersError(ScatFeatError):
    """Leave-one-speaker-out needs at least three speakers."""


class UnknownLabelError(ScatFeatError):
    """Label not present in the declared class list."""


class EmptyMatrixError(ScatFeatError):
    """Confusion matrix holds no samples."""
