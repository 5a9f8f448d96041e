"""Seeded scenario generator and the fixed operation lists of each workload.

Nothing here imports swarmgrid: the benchmark makes its own inputs, so a
change to `swarmgrid.harness.build_experiment` cannot change a workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

Cell = tuple[int, int, int]

# Every moving obstacle steps on this cadence from this tick.
CADENCE = 5
SPAWN_TICK = 0


@dataclass(frozen=True)
class Shape:
    name: str
    dims: Cell
    drones: int
    static: int
    moving: int
    max_ticks: Optional[int] = None  # None: the program's default budget


SHAPES = {
    s.name: s
    for s in (
        # The paper's four experiments, as `swarmgrid experiment --id 1..4` runs them.
        Shape("exp1", (10, 10, 10), 20, 20, 20),
        Shape("exp2", (20, 20, 20), 50, 50, 50),
        Shape("exp3", (10, 10, 10), 20, 40, 40),
        Shape("exp4", (20, 20, 20), 100, 50, 50),
        # exp2's area and obstacles with 8 drones: a 20^3 fleet RRT* plans
        # in about a second, where exp2's 50 drones take ten.
        Shape("exp2-8", (20, 20, 20), 8, 50, 50),
        Shape("swarm", (20, 20, 20), 300, 50, 50),
        # The livelocked mission runs to its tick budget. 300 ticks is three
        # times the longest arriving mission here; the default 900 would
        # spend most of a round on the one failing mission.
        Shape("congested", (6, 6, 6), 30, 5, 5, max_ticks=300),
    )
}


@dataclass(frozen=True)
class Scenario:
    shape: str
    seed: int
    dims: Cell
    drones: tuple[tuple[Cell, Cell], ...]  # (start, dest)
    static_obstacles: tuple[Cell, ...]
    moving_obstacles: tuple[Cell, ...]
    max_ticks: Optional[int] = None

    @property
    def label(self) -> str:
        return f"{self.shape}/s{self.seed}"

    def to_json(self) -> dict:
        """The scenario-file document `swarmgrid run --scenario` reads."""
        doc = {
            "dims": list(self.dims),
            "seed": self.seed,
            "drones": [
                {"start": list(s), "dest": list(d)} for s, d in self.drones
            ],
            "static_obstacles": [list(c) for c in self.static_obstacles],
            "moving_obstacles": [
                {"cell": list(c), "cadence": CADENCE, "spawn_tick": SPAWN_TICK}
                for c in self.moving_obstacles
            ],
        }
        if self.max_ticks is not None:
            doc["max_ticks"] = self.max_ticks
        return doc


def generate(shape: Shape, seed: int) -> Scenario:
    """Distinct random start, destination and obstacle cells for one seed.

    Cells are drawn until enough distinct ones exist, then shuffled and cut
    into starts, destinations, static and moving obstacles.
    """
    dx, dy, dz = shape.dims
    needed = 2 * shape.drones + shape.static + shape.moving
    if needed > dx * dy * dz:
        raise ValueError(f"{shape.name}: {needed} cells needed, area has {dx * dy * dz}")
    rng = random.Random(seed)
    cells: set[Cell] = set()
    while len(cells) < needed:
        cells.add((rng.randrange(dx), rng.randrange(dy), rng.randrange(dz)))
    pool = sorted(cells)
    rng.shuffle(pool)
    n = shape.drones
    return Scenario(
        shape=shape.name,
        seed=seed,
        dims=shape.dims,
        drones=tuple(zip(pool[:n], pool[n: 2 * n])),
        static_obstacles=tuple(pool[2 * n: 2 * n + shape.static]),
        moving_obstacles=tuple(pool[2 * n + shape.static: needed]),
        max_ticks=shape.max_ticks,
    )


# Each workload flies the same scenarios on every run. One mission's host
# time and tick count vary up to threefold between placements (and between
# flight seeds of one placement), so a run that drew its scenarios from
# --seed would spread far past any bound a run of this length can hold.
MISSION_SEEDS = (0, 1, 2)
SWARM_SEEDS = (0,)
# Seed 2 livelocks at this shape (see README) and stays in on purpose. Seed 9
# livelocks too; seeds 0-5 keep a round short enough to repeat in one run.
CONGESTED_SEEDS = tuple(range(6))
BASELINE_SEED = 0
RRT_SHAPES = ("exp1", "exp2", "exp3", "exp4")
RRT_STAR_SHAPES = ("exp1", "exp3", "exp2-8")

WORKLOADS = ("missions", "swarm-scale", "congested", "baselines")


@dataclass(frozen=True)
class Op:
    """One operation: a navigator mission, or one planner's whole fleet."""

    kind: str  # "mission" (run_mission) | "cli" (swarmgrid run) | "rrt" | "rrt-star"
    scenario: Scenario


def workload_ops(workload: str) -> list[Op]:
    """The operations of one round of a workload, in a canonical order."""
    if workload == "missions":
        return [
            Op("mission", generate(SHAPES[s], seed))
            for s in ("exp1", "exp2", "exp3", "exp4")
            for seed in MISSION_SEEDS
        ]
    if workload == "swarm-scale":
        return [Op("mission", generate(SHAPES["swarm"], seed)) for seed in SWARM_SEEDS]
    if workload == "congested":
        return [Op("cli", generate(SHAPES["congested"], seed)) for seed in CONGESTED_SEEDS]
    if workload == "baselines":
        return [
            Op("rrt", generate(SHAPES[s], BASELINE_SEED)) for s in RRT_SHAPES
        ] + [
            Op("rrt-star", generate(SHAPES[s], BASELINE_SEED)) for s in RRT_STAR_SHAPES
        ]
    raise ValueError(f"unknown workload {workload!r}")
