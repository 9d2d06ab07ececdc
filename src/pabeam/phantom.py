"""Analytic forward model for point-absorber phantoms.

Generates synthetic RF channel data for a linear array: a bandlimited
Gaussian-modulated pulse radiated from each point absorber, spherical 1/d
spreading, sub-sample arrival times split linearly between adjacent samples,
plus optional Gaussian channel noise.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, InvalidBandwidth, TargetOutOfRange, ZeroSignal

# Envelope level (relative to peak) below which the synthetic pulse is truncated.
PULSE_TRUNCATION = 1e-4


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array in the z=0 plane, elements centered on x=0."""

    n_elements: int
    pitch: float            # m
    sound_speed: float      # m/s
    sampling_rate: float    # Hz
    center_frequency: float  # Hz
    fractional_bandwidth: float

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        for name in ("pitch", "sound_speed", "sampling_rate", "center_frequency"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 < self.fractional_bandwidth <= 1.0:
            raise InvalidBandwidth(
                f"fractional_bandwidth must be in (0, 1], got {self.fractional_bandwidth}"
            )
        nyquist = 2.0 * self.center_frequency * (1.0 + self.fractional_bandwidth / 2.0)
        if self.sampling_rate < nyquist:
            raise ValueError(
                f"sampling_rate {self.sampling_rate} below pulse-band Nyquist {nyquist}"
            )

    @cached_property
    def element_x(self) -> np.ndarray:
        """Element x positions (m), derived from the pitch."""
        return (np.arange(self.n_elements) - (self.n_elements - 1) / 2.0) * self.pitch


@dataclass(frozen=True)
class Absorber:
    x: float          # m
    z: float          # m, depth > 0
    amplitude: float = 1.0

    def __post_init__(self):
        if not all(abs(v) < np.inf for v in (self.x, self.z, self.amplitude)):
            raise ValueError(f"absorber x, z and amplitude must be finite, got {self}")
        if self.z <= 0:
            raise ValueError("absorber must be in front of the array (z > 0)")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be > 0")


@dataclass(frozen=True)
class Phantom:
    absorbers: tuple

    @classmethod
    def from_points(cls, points) -> "Phantom":
        return cls(absorbers=tuple(points))


def guarded_samples(n_elements: int, n_samples: int) -> np.ndarray:
    """Zeroed (n_elements, n_samples) float64 samples that are the interior
    of a fresh guarded record, which an ``RfFrame`` built on them adopts."""
    return np.zeros((n_elements, n_samples + 4))[:, 2:-2]


def _record_of(samples: np.ndarray) -> np.ndarray | None:
    """The (M, T + 4) record whose interior ``[:, 2:-2]`` is exactly
    ``samples`` (M, T), if its guard columns are all zero; else None."""
    record = samples.base
    if not (isinstance(record, np.ndarray) and record.dtype == samples.dtype == np.float64
            and record.flags.c_contiguous
            and record.shape == (len(samples), samples.shape[1] + 4)
            and record.strides == samples.strides
            and record.ctypes.data + 16 == samples.ctypes.data):
        return None
    return None if record[:, :2].any() or record[:, -2:].any() else record


@dataclass(frozen=True)
class RfFrame:
    """Raw multi-channel time series, one row per element.

    The frame lives in one guarded record, a zeroed (M, T + 4) float64
    array holding each channel between two zeros before and two after.
    ``samples`` is its interior ``[:, 2:-2]`` and ``guarded`` the whole
    record flattened (sample t of row m at m (T + 4) + t + 2), which
    ``gather_delayed`` reads; both are views of the one array, so a change
    to ``samples`` shows in the next gather. Samples that are already the
    interior of a record with zero guards (those of another frame, or of
    ``guarded_samples``) are adopted as they are; any others, of any dtype,
    are copied once into a new record.
    """

    geometry: ArrayGeometry
    samples: np.ndarray  # (M, T) float64
    channel_snr_db: float | None = None
    guarded: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.ndim != 2:
            raise ValueError(f"samples must be (M, T), got shape {samples.shape}")
        record = _record_of(samples)
        if record is None:
            given, samples = samples, guarded_samples(*samples.shape)
            samples[...] = given
            record = samples.base
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "guarded", record.reshape(-1))

    def __reduce__(self):
        # a copy or unpickled frame gets its own record, not two arrays
        return RfFrame, (self.geometry, self.samples, self.channel_snr_db)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


def _pulse_shape(f0: float, fractional_bandwidth: float, fs: float) -> tuple[float, int]:
    """``synth_pulse``'s envelope constant a and half-length in samples,
    computed and checked before any pulse sample is allocated.

    Raises:
        InvalidBandwidth: bandwidth outside (0, 1].
        ConfigError: f0 or fs not finite and > 0, or a bandwidth so narrow
            that the pulse cutoff is not finite.
    """
    if not 0.0 < fractional_bandwidth <= 1.0:
        raise InvalidBandwidth(
            f"fractional bandwidth must be in (0, 1], got {fractional_bandwidth}"
        )
    for name, value in (("f0", f0), ("fs", fs)):
        if not 0.0 < value < np.inf:
            raise ConfigError(f"{name} must be finite and > 0, got {value}")
    tpr_db = 20.0 * np.log10(PULSE_TRUNCATION)
    a = -(np.pi * f0 * fractional_bandwidth) ** 2 / (4.0 * np.log(pow(10.0, -6 / 20.0)))
    with np.errstate(divide="ignore", over="ignore"):
        t_cut = np.sqrt(-np.log(pow(10.0, tpr_db / 20.0)) / a)
        n_half = t_cut * fs
    if not n_half < np.inf:
        raise ConfigError(
            f"geometry.fractional_bandwidth: {fractional_bandwidth} makes the "
            "pulse cutoff infinite"
        )
    return a, int(np.ceil(n_half))


def synth_pulse(f0: float, fractional_bandwidth: float, fs: float) -> np.ndarray:
    """Gaussian-modulated cosine pulse with a given -6 dB fractional bandwidth.

    The pulse is exp(-a t^2) cos(2 pi f0 t), a = -(pi f0 B)^2 / (4 ln 10^(-6/20)),
    symmetric with unit peak at its center sample and truncated at
    sqrt(-ln(tref) / a), where the envelope falls to tref = PULSE_TRUNCATION.
    The operations are those of SciPy's signal-module ``gausspulse``
    (bwr=-6), whose cutoff and samples this equals bit for bit.

    Raises:
        InvalidBandwidth, ConfigError: as ``_pulse_shape``.
        ConfigError: a bandwidth so narrow that the pulse's samples cannot be
            allocated.
    """
    a, half = _pulse_shape(f0, fractional_bandwidth, fs)
    try:
        t = np.arange(-half, half + 1) / fs
        return np.exp(-a * t * t) * np.cos(2 * np.pi * f0 * t)
    except (MemoryError, ValueError) as exc:
        # ValueError: more samples than an array can index
        raise ConfigError(
            f"fractional bandwidth {fractional_bandwidth} makes a pulse of "
            f"{2 * half + 1:.3g} samples, which cannot be allocated"
        ) from exc


def simulate_rf(geometry: ArrayGeometry, phantom: Phantom, t_max: float) -> RfFrame:
    """Simulates one RF frame for a point-absorber phantom.

    Each absorber contributes amplitude/d times the emission pulse delayed by
    d/c on every channel; fractional arrival times are split linearly between
    the two adjacent samples.

    Raises:
        TargetOutOfRange: an absorber lies beyond t_max * c of some element.
        ConfigError: the pulse's half-length exceeds the record, or as
            ``synth_pulse`` (both raised before anything is allocated); or a
            sample does not fit float32, the RF file's encoding.
    """
    fs = geometry.sampling_rate
    c = geometry.sound_speed
    n_t = int(np.ceil(t_max * fs))
    B = geometry.fractional_bandwidth
    _, half = _pulse_shape(geometry.center_frequency, B, fs)
    if half > n_t:
        raise ConfigError(
            f"geometry.fractional_bandwidth: {B} makes a pulse of half-length "
            f"{half} samples, longer than the {n_t}-sample record"
        )
    samples = guarded_samples(geometry.n_elements, n_t)
    pulse = synth_pulse(geometry.center_frequency, B, fs)
    center = (len(pulse) - 1) // 2
    idx = np.arange(len(pulse))
    rows = np.indices((geometry.n_elements, len(pulse)))[0]

    for ab in phantom.absorbers:
        dx = geometry.element_x - ab.x
        d = np.hypot(dx, ab.z)
        if np.any(d > t_max * c):
            raise TargetOutOfRange(
                f"absorber at ({ab.x}, {ab.z}) beyond t_max*c = {t_max * c:.4g} m"
            )
        tau = d / c * fs  # fractional sample index of arrival
        # (element, pulse sample); each channel's samples are added low
        # neighbours first, then high, as a loop over the elements would
        pos = tau[:, None] + idx - center
        k = np.floor(pos).astype(np.int64)
        frac = pos - k
        lo_ok = (k >= 0) & (k < n_t)
        hi_ok = (k + 1 >= 0) & (k + 1 < n_t)
        # overflow (inf, and inf * 0 = NaN) is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            contrib = (ab.amplitude / d[:, None]) * pulse
            np.add.at(samples, (rows[lo_ok], k[lo_ok]), (1.0 - frac[lo_ok]) * contrib[lo_ok])
            np.add.at(samples, (rows[hi_ok], k[hi_ok] + 1), frac[hi_ok] * contrib[hi_ok])
    # NaN fails the comparison too
    if not np.all(np.abs(samples) <= np.finfo(np.float32).max):
        raise ConfigError("phantom.absorbers: amplitudes make samples too large for float32")
    return RfFrame(geometry=geometry, samples=samples)


def add_channel_noise(frame: RfFrame, snr_db: float, rng_seed: int) -> RfFrame:
    """Adds i.i.d. Gaussian channel noise at a prescribed SNR.

    Signal power is the mean square over the nonzero-support samples. Noise
    streams are derived per channel from (seed, channel index), so output is
    deterministic and independent of how channels are iterated.

    Raises:
        ZeroSignal: the frame carries no signal to reference the SNR against.
        ConfigError: the SNR sets no positive, finite noise level, or the
            noisy frame does not fit float32, the RF file's encoding.
    """
    support = frame.samples != 0.0
    if not np.any(support):
        raise ZeroSignal("cannot set an SNR on an all-zero frame")
    p_sig = np.mean(frame.samples[support] ** 2)
    noisy = guarded_samples(*frame.samples.shape)
    noisy[...] = frame.samples
    # overflow is refused below, not warned about
    with np.errstate(over="ignore", divide="ignore"):
        try:
            sigma = np.sqrt(p_sig / 10.0 ** (snr_db / 10.0))
        except OverflowError:
            sigma = 0.0
        if not 0.0 < sigma < np.inf:
            raise ConfigError(f"noise.snr_db: {snr_db} dB sets no finite, positive noise level")
        for m in range(frame.samples.shape[0]):
            rng = np.random.default_rng([int(rng_seed), m])
            noisy[m] += sigma * rng.standard_normal(frame.samples.shape[1])
    if max(noisy.max(), -noisy.min()) > np.finfo(np.float32).max:
        raise ConfigError(f"noise.snr_db: {snr_db} dB makes samples too large for float32")
    return replace(frame, samples=noisy, channel_snr_db=float(snr_db))
