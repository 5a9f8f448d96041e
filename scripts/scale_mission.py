"""Fly two fixed large navigator missions and print each one's cost as a JSON line.

    PYTHONPATH=src python3 scripts/scale_mission.py

Each mission is `harness.build_experiment(spec, SEED)` for one spec of
SCENARIOS: 1000 drones in 40^3 and 3000 drones in 60^3, each with half as
many static and half as many moving obstacles as drones, all on distinct
random cells, moving obstacles on cadence 5 from tick 0,
`obstacles_avoid_drones` on and the default tick budget. A line holds the
scenario, ticks, mean ms per tick and peak RSS so far of one untraced
flight, then the `harness.mission_digest` (routes, collisions, ticks and
trace) of a second, traced flight. The 60^3 mission takes tens of seconds.

Both digests guard the navigator's routes at a scale too slow for the test
suite: a change that keeps routes byte-identical keeps them at DIGESTS. On
a mismatch the script prints one `error:` line naming the scenario to
standard error and exits 1.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from swarmgrid.engine import run_mission
from swarmgrid.harness import ExperimentSpec, build_experiment, mission_digest

SCENARIOS = (
    ExperimentSpec(0, (40, 40, 40), 1000, 500, 500),
    ExperimentSpec(0, (60, 60, 60), 3000, 1500, 1500),
)
# The mission_sha256 of each scenario of SCENARIOS, in the same order.
DIGESTS = (
    "072df5da1cd45f6e64a44687d6324354c5765dfa4f9ec65adfdd25ae81135962",
    "d9193fea70e91d92c2bc8c04f2eb34e45d77e35e44103a9d28547263409ae6d8",
)
SEED = 0


def measure(spec: ExperimentSpec) -> dict:
    """One untraced flight's cost and a traced flight's digest."""
    cfg = build_experiment(spec, SEED)
    start = time.perf_counter()
    result = run_mission(cfg)
    wall_ms = (time.perf_counter() - start) * 1000.0
    # ru_maxrss is in KiB on Linux; read it before the traced flight.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "scenario": {
            "dims": list(spec.dims), "drones": spec.n_drones, "static": spec.n_static,
            "moving": spec.n_moving, "seed": SEED, "cadence": 5, "spawn_tick": 0,
        },
        "ticks": result.ticks,
        "arrived": sum(result.arrived.values()),
        "collisions": len(result.collisions),
        "wall_ms": round(wall_ms, 1),
        "ms_per_tick": round(wall_ms / max(result.ticks, 1), 2),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "mission_sha256": mission_digest(cfg),
    }


def main() -> None:
    for spec, want in zip(SCENARIOS, DIGESTS):
        line = measure(spec)
        print(json.dumps(line), flush=True)
        if line["mission_sha256"] != want:
            name = "x".join(map(str, spec.dims)) + f" with {spec.n_drones} drones"
            sys.exit(f"error: {name}: mission_sha256 {line['mission_sha256']} is not {want}")


if __name__ == "__main__":
    main()
