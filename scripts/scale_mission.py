"""Fly one fixed large navigator mission and print its cost as one JSON line.

    PYTHONPATH=src python3 scripts/scale_mission.py

The mission is `harness.build_experiment(SPEC, SEED)`: 1000 drones in 40^3
with 500 static and 500 moving obstacles, all on distinct random cells,
moving obstacles on cadence 5 from tick 0, `obstacles_avoid_drones` on and
the default tick budget. The line holds the scenario, ticks, mean ms per
tick and peak RSS of one untraced flight, then the `harness.mission_digest`
(routes, collisions, ticks and trace) of a second, traced flight.
"""

from __future__ import annotations

import json
import resource
import time

from swarmgrid.engine import run_mission
from swarmgrid.harness import ExperimentSpec, build_experiment, mission_digest

SPEC = ExperimentSpec(0, (40, 40, 40), 1000, 500, 500)
SEED = 0


def main() -> None:
    cfg = build_experiment(SPEC, SEED)
    start = time.perf_counter()
    result = run_mission(cfg)
    wall_ms = (time.perf_counter() - start) * 1000.0
    # ru_maxrss is in KiB on Linux; read it before the traced flight.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({
        "scenario": {
            "dims": list(SPEC.dims), "drones": SPEC.n_drones, "static": SPEC.n_static,
            "moving": SPEC.n_moving, "seed": SEED, "cadence": 5, "spawn_tick": 0,
        },
        "ticks": result.ticks,
        "arrived": sum(result.arrived.values()),
        "collisions": len(result.collisions),
        "wall_ms": round(wall_ms, 1),
        "ms_per_tick": round(wall_ms / max(result.ticks, 1), 2),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "mission_sha256": mission_digest(cfg),
    }))


if __name__ == "__main__":
    main()
