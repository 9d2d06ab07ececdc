"""Exception types shared across the package."""


class PabeamError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(PabeamError):
    pass


class NotPositiveDefinite(PabeamError):
    """Cholesky factorization hit a non-positive pivot.

    Usually means the covariance matrix was not diagonally loaded (or the
    input is identically zero).
    """


class InvalidBandwidth(PabeamError):
    pass


class TargetOutOfRange(PabeamError):
    pass


class ZeroSignal(PabeamError):
    pass


class ConfigError(PabeamError):
    """Invalid or missing configuration value; message names the JSON path."""


class DegenerateImage(PabeamError):
    pass


class DepthOutOfGrid(PabeamError):
    pass


class NoPeakFound(PabeamError):
    pass


class WidthUnbounded(PabeamError):
    pass
