"""Watch the reweighted sparse iteration descend its objective.

The sparse-regularized beamformer with penalty weight beta descends
w'Rw + 2 beta * ||S w||_1  under a unit-gain constraint, where S w holds the
beamformed output at each temporal offset summed over the subarrays
(``offset_sums``), by repeatedly solving a weighted quadratic problem that
majorizes it. Each step works in that (2K+1)-dimensional output space. This
demo prints that objective and the outputs at the 2K+1 offsets after each
iteration at an off-axis pixel, where driving outputs to zero is what
suppresses the sidelobe. Run:

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
from pabeam.beamformers import capon_weights, msmv_objective, msmv_weights, offset_sums
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

s = offset_sums(snaps, 2 * K + 1)  # (1, 2K+1, L)
w0 = capon_weights(r)[0][0]
f0 = msmv_objective(r[0], cols, w0, beta=2.0)
print(f"iter  0 (mv start)  objective {f0:10.4f}  |S w| {np.abs(s[0] @ w0).round(3)}")

for k in range(1, 11):
    w = msmv_weights(r, s, MsmvConfig(beta=1.0, n_iter=k))[0][0]
    f = msmv_objective(r[0], cols, w, beta=2.0)
    print(f"iter {k:2d}             objective {f:10.4f}  |S w| {np.abs(s[0] @ w).round(3)}")

print()
print("Every step lowers the objective, and the outputs grow sparse: some offsets")
print("are driven to zero while others keep the signal. That is the l1 penalty at")
print("work.")
