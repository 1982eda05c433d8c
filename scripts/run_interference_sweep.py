#!/usr/bin/env python3
"""Sweep the dipole tilt and the ideal phase difference, writing the fringe
observables (phase, visibility, dynamical/geometric split, solid angle) to
CSV via the command-line front end.

Usage: python scripts/run_interference_sweep.py [outdir]
"""

import json
import math
import sys
from pathlib import Path

from spinphase.cli import main as cli_main


def run(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    config = {
        "mode": "sweep",
        "grid_theta": [0.0, math.pi, 25],
        "grid_phid": [-math.pi, math.pi, 49],
        "out": str(outdir / "interference_sweep.csv"),
    }
    cfg_path = outdir / "interference_sweep.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    status = cli_main(["--config", str(cfg_path)])
    if status == 0:
        print(f"wrote {config['out']}")
    return status


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    sys.exit(run(target))
