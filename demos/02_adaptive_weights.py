"""Compare the weight vectors the three beamformers produce at two pixels.

Delay-and-sum always applies uniform 1/L weights. The minimum-variance
(Capon) solution shapes its weights to the measured covariance while keeping
unit gain toward the focal point, and the sparse-regularized variant then
re-solves with the covariance augmented by a penalty on the snapshot outputs.
Run:

    python3 demos/02_adaptive_weights.py
"""

import numpy as np

from pabeam import (
    Absorber,
    ArrayGeometry,
    MsmvConfig,
    Phantom,
    add_channel_noise,
    das_weight,
    default_dl_factor,
    simulate_rf,
)
from pabeam.beamformers import beamform_outputs, capon_weights, msmv_weights
from pabeam.covariance import loaded_covariance
from pabeam.delays import gather_delayed, subarray_snapshots

geometry = ArrayGeometry(
    n_elements=64,
    pitch=0.38e-3,
    sound_speed=1540.0,
    sampling_rate=100e6,
    center_frequency=5e6,
    fractional_bandwidth=0.77,
)
phantom = Phantom.from_points([Absorber(0.0, 0.030, amplitude=10.0)])
frame = add_channel_noise(simulate_rf(geometry, phantom, 50e-6), 50.0, 1)

L, K = 32, 2
n_sub = geometry.n_elements - L + 1

# one tile of two focal points at 30 mm depth: right on the target and 2 mm
# off-axis (a sidelobe location), each stage run on both at once
labels = ["on target ", "2 mm off  "]
gathered = gather_delayed(frame, np.array([0.0, 2e-3]), 0.030, np.arange(-K, K + 1))
snaps = subarray_snapshots(gathered, L)  # (2 points, snapshots, L)
r = loaded_covariance(snaps, default_dl_factor(L))
w_das = np.tile(das_weight(L).values, (2, 1))
w_mv, _ = capon_weights(r)
w_ms, _, _ = msmv_weights(r, snaps, MsmvConfig(beta=1.0, n_iter=10))
center = snaps[:, K * n_sub:(K + 1) * n_sub]  # the offset-0 snapshots
out = {name: beamform_outputs(center, w)
       for name, w in (("das", w_das), ("mv", w_mv), ("msmv", w_ms))}
for p, label in enumerate(labels):
    print(f"{label} output  das {out['das'][p]:+9.3f}  mv {out['mv'][p]:+9.3f}  "
          f"msmv {out['msmv'][p]:+9.3f}")
    # every method keeps unit total gain toward the focal point
    print(f"{label} sum(w)  das {w_das[p].sum():.6f}  "
          f"mv {w_mv[p].sum():.6f}  msmv {w_ms[p].sum():.6f}")

print()
print("Off target, the adaptive weights cancel the interfering wavefront;")
print("the sparse penalty pushes that residual output further toward zero.")
