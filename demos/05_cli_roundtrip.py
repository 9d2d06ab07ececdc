"""Drive the full pipeline through the command-line interface.

Writes a config, synthesizes RF, reconstructs an image, and scores it — the
same four stages a shell user would run as `pabeam simulate / beamform /
metrics / compare`. Everything lands in a temporary directory, removed at
the end. Run:

    python3 demos/05_cli_roundtrip.py
"""

import json
import tempfile
from pathlib import Path

from pabeam.cli import main

with tempfile.TemporaryDirectory(prefix="pabeam-demo-") as tmp:
    workdir = Path(tmp)
    print(f"working in {workdir}\n")

    config = {
        "geometry": {"n_elements": 32, "sampling_rate": 40e6, "pitch": 0.38e-3},
        "phantom": {"absorbers": [{"x": 0.0, "z": 0.025, "amplitude": 10.0}]},
        "grid": {"x_min": -5e-3, "x_max": 5e-3, "z_min": 22e-3, "z_max": 28e-3,
                 "nx": 81, "nz": 41},
        "noise": {"snr_db": 50.0, "seed": 7},
        "workers": 4,
    }
    (workdir / "config.json").write_text(json.dumps(config, indent=2))

    targets = {"targets": [{"x": 0.0, "z": 0.025}]}
    (workdir / "targets.json").write_text(json.dumps(targets))

    steps = [
        ["simulate", "--config", str(workdir / "config.json"),
         "--out", str(workdir / "rf")],
        ["beamform", "--rf", str(workdir / "rf"), "--method", "mv",
         "--out", str(workdir / "image"), "--workers", "4",
         "--grid=-5e-3,5e-3,22e-3,28e-3,81,41", "--profile-depth", "0.025"],
        ["metrics", "--image", str(workdir / "image"),
         "--targets", str(workdir / "targets.json"),
         "--out", str(workdir / "metrics.json")],
        ["compare", "--config", str(workdir / "config.json"),
         "--out", str(workdir / "cmp")],
    ]

    for argv in steps:
        print(f"$ pabeam {' '.join(argv)}")
        rc = main(argv)
        assert rc == 0, f"step failed: {argv[0]}"
        print()

    print("metrics.json:")
    print((workdir / "metrics.json").read_text())
    print(f"comparison outputs: {sorted(p.name for p in (workdir / 'cmp').iterdir())}")
