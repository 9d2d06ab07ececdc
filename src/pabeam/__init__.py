"""Linear-array photoacoustic image formation.

A numpy toolkit for synthesizing point-absorber RF data and
reconstructing it with delay-and-sum, minimum-variance (Capon) and
sparse-regularized minimum-variance beamformers, plus the image metrics
(SNR, FWHM, peak sidelobe) used to compare them.
"""

from .beamformers import (
    Method,
    MsmvConfig,
    WeightVector,
    das_weight,
    msmv_weight,
    mv_weight,
    sc_weight,
)
from .covariance import apply_dl, default_dl_factor
from .delays import FocalPoint, SnapshotMatrix
from .metrics import MetricsReport, TargetSpec, evaluate, fwhm, lateral_profile, peak_sidelobe, snr
from .phantom import (
    Absorber,
    ArrayGeometry,
    Phantom,
    RfFrame,
    add_channel_noise,
    simulate_rf,
    synth_pulse,
)
from .pipeline import (
    ImageGrid,
    PaImage,
    envelope_detect,
    finalize,
    log_compress,
    reconstruct,
    reconstruct_methods,
)

__version__ = "0.1.0"
