"""Watch the reweighted sparse iteration descend its objective.

The sparse-regularized beamformer with penalty weight beta descends
w'Rw + 2 beta * ||X'w||_1  under a unit-gain constraint by repeatedly solving a
weighted quadratic problem that majorizes it. This demo prints the objective
at beta itself, w'Rw + beta * ||X'w||_1, which a step may raise but here does
not, and the fraction of near-zero snapshot outputs after each iteration at an
off-axis pixel, where sparsification is what suppresses the sidelobe. Run:

    python3 demos/04_sparse_iteration.py
"""

import numpy as np

from pabeam import (
    Absorber,
    ArrayGeometry,
    MsmvConfig,
    Phantom,
    SnapshotMatrix,
    add_channel_noise,
    default_dl_factor,
    simulate_rf,
)
from pabeam.beamformers import capon_weights, msmv_objective, msmv_weights
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

# a pixel 1.5 mm off the target axis (a tile of one): DAS sees a sidelobe here
L, K = 32, 2
gathered = gather_delayed(frame, np.array([1.5e-3]), 0.030, np.arange(-K, K + 1))
snaps = subarray_snapshots(gathered, L)  # (1, snapshots, L)
r = loaded_covariance(snaps, default_dl_factor(L))
cols = SnapshotMatrix(
    columns=snaps[0].T, subarray_len=L, n_subarrays=geometry.n_elements - L + 1,
    temporal_half_window=K,
)

w0 = capon_weights(r)[0][0]
f0 = msmv_objective(r[0], cols, w0, beta=1.0)
mags0 = np.abs(snaps[0] @ w0)
print(f"iter  0 (mv start)  objective {f0:10.4f}  "
      f"outputs < 1% of max: {np.mean(mags0 < 0.01 * mags0.max()):.0%}")

for k in range(1, 11):
    w = msmv_weights(r, snaps, MsmvConfig(beta=1.0, n_iter=k))[0][0]
    f = msmv_objective(r[0], cols, w, beta=1.0)
    mags = np.abs(snaps[0] @ w)
    print(f"iter {k:2d}             objective {f:10.4f}  "
          f"outputs < 1% of max: {np.mean(mags < 0.01 * mags.max()):.0%}")

print()
print("The objective at beta falls here too (only the one at 2 beta is bound to),")
print("and more and more snapshot outputs are driven toward zero: that is the l1")
print("penalty at work.")
