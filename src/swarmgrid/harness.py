"""Experiments, metrics, multi-run batches, and scenario I/O.

The four built-in experiment shapes (small / large / cluttered / high
collision risk) place drones and obstacles randomly per seed; metrics are
averaged over a batch of seeded runs and written as CSV.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .avoidance import BacktrackConfig
from .baselines import PlanFailure, execute_open_loop, rrt_plan, rrt_star_plan
from .engine import ConfigError, SimConfig, SimResult, run_mission
from .world import Cell, SafetyParams

ALGORITHMS = ("proposed", "rrt", "rrt-star")

CSV_COLUMNS = (
    "run", "algorithm", "experiment", "ARL", "LLR", "NC", "T_ms", "ticks", "timeouts",
)


class PlacementFailure(ValueError):
    """The area cannot fit the required number of distinct cells."""


@dataclass(frozen=True)
class Metrics:
    arl: float   # mean moves per drone, hovers excluded
    llr: int     # moves of the longest route
    nc: int      # ground-truth collision count
    t_ms: float  # algorithm wall-clock time

    def __post_init__(self) -> None:
        if self.nc < 0 or self.arl < 0 or self.llr < self.arl:
            raise ValueError("inconsistent metrics")


@dataclass(frozen=True)
class ExperimentSpec:
    id: int
    dims: Cell
    n_drones: int
    n_static: int
    n_moving: int


EXPERIMENTS: dict[int, ExperimentSpec] = {
    1: ExperimentSpec(1, (10, 10, 10), 20, 20, 20),
    2: ExperimentSpec(2, (20, 20, 20), 50, 50, 50),
    3: ExperimentSpec(3, (10, 10, 10), 20, 40, 40),
    4: ExperimentSpec(4, (20, 20, 20), 100, 50, 50),
}


def route_moves(route: list[Cell]) -> int:
    """Number of actual moves in a route; hover entries do not count."""
    return sum(1 for a, b in zip(route, route[1:]) if a != b)


def compute_metrics(result: SimResult, wall_ms: float) -> Metrics:
    moves = [route_moves(r) for r in result.routes.values()]
    if not moves:
        return Metrics(0.0, 0, len(result.collisions), wall_ms)
    return Metrics(
        arl=sum(moves) / len(moves),
        llr=max(moves),
        nc=len(result.collisions),
        t_ms=wall_ms,
    )


def build_experiment(spec: ExperimentSpec, seed: int) -> SimConfig:
    """Random unique placements for one experiment run.

    Starts, destinations, and obstacle cells are all mutually distinct, so
    takeoff is collision-free and no destination is occupied.
    """
    rng = random.Random(seed)
    dx, dy, dz = spec.dims
    needed = 2 * spec.n_drones + spec.n_static + spec.n_moving
    if needed > dx * dy * dz:
        raise PlacementFailure(
            f"{needed} distinct cells needed, area has {dx * dy * dz}"
        )
    cells: set[Cell] = set()
    while len(cells) < needed:
        cells.add((rng.randrange(dx), rng.randrange(dy), rng.randrange(dz)))
    pool = sorted(cells)
    rng.shuffle(pool)
    starts = pool[: spec.n_drones]
    dests = pool[spec.n_drones: 2 * spec.n_drones]
    statics = pool[2 * spec.n_drones: 2 * spec.n_drones + spec.n_static]
    movings = pool[2 * spec.n_drones + spec.n_static: needed]
    return SimConfig(
        dims=spec.dims,
        drones=list(zip(starts, dests)),
        static_obstacles=statics,
        moving_obstacles=[(c, 5, 0) for c in movings],
        seed=seed,
    )


def _run_proposed(cfg: SimConfig) -> tuple[SimResult, float]:
    t0 = time.perf_counter()
    result = run_mission(cfg)
    return result, (time.perf_counter() - t0) * 1000.0


def _run_baseline(cfg: SimConfig, algorithm: str) -> tuple[SimResult, float]:
    area = cfg.area()
    planner = rrt_plan if algorithm == "rrt" else rrt_star_plan
    rng = random.Random(cfg.seed)
    t0 = time.perf_counter()
    routes = {
        i: planner(start, dest, cfg.static_obstacles, area, rng)
        for i, (start, dest) in enumerate(cfg.drones)
    }
    plan_ms = (time.perf_counter() - t0) * 1000.0
    result = execute_open_loop(routes, cfg)
    return result, plan_ms


@dataclass
class RunRow:
    run: int
    algorithm: str
    experiment: int
    metrics: Optional[Metrics]
    ticks: int
    timed_out: bool

    def as_csv(self, deterministic_timing: bool = False) -> list[str]:
        m = self.metrics
        t_ms = 0.0 if deterministic_timing else (m.t_ms if m else 0.0)
        return [
            str(self.run),
            self.algorithm,
            str(self.experiment),
            f"{m.arl:.4f}" if m else "",
            str(m.llr) if m else "",
            str(m.nc) if m else "",
            f"{t_ms:.3f}",
            str(self.ticks),
            "1" if self.timed_out else "0",
        ]


def parse_metrics_row(row: list[str]) -> Optional[Metrics]:
    if row[3] == "":
        return None
    return Metrics(float(row[3]), int(row[4]), int(row[5]), float(row[6]))


def run_batch(
    spec: ExperimentSpec,
    algorithm: str,
    n_runs: int = 10,
    base_seed: int = 0,
) -> tuple[Optional[Metrics], list[RunRow]]:
    """Run one experiment n_runs times; returns mean metrics and per-run rows.

    Timed-out or plan-failed runs become flagged rows and are excluded from
    the means.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    seed_rng = random.Random(base_seed)
    rows: list[RunRow] = []
    for run in range(n_runs):
        seed = seed_rng.randrange(2**62)
        cfg = build_experiment(spec, seed)
        try:
            if algorithm == "proposed":
                result, wall_ms = _run_proposed(cfg)
            else:
                result, wall_ms = _run_baseline(cfg, algorithm)
        except PlanFailure:
            rows.append(RunRow(run, algorithm, spec.id, None, 0, True))
            continue
        metrics = compute_metrics(result, wall_ms)
        rows.append(
            RunRow(run, algorithm, spec.id, metrics, result.ticks, result.timed_out)
        )
    ok = [r.metrics for r in rows if r.metrics is not None and not r.timed_out]
    aggregate = None
    if ok:
        aggregate = Metrics(
            arl=sum(m.arl for m in ok) / len(ok),
            llr=round(sum(m.llr for m in ok) / len(ok)),
            nc=sum(m.nc for m in ok),
            t_ms=sum(m.t_ms for m in ok) / len(ok),
        )
    return aggregate, rows


def rows_to_csv(rows: list[RunRow], deterministic_timing: bool = False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in sorted(rows, key=lambda r: r.run):
        writer.writerow(row.as_csv(deterministic_timing))
    return buf.getvalue()


# -- scenario files ---------------------------------------------------------

def load_scenario(path: Path) -> SimConfig:
    """Read a scenario JSON document (schema in the README) into a SimConfig.

    A document of the wrong shape, such as a missing key or a number where
    a list belongs, raises ConfigError.
    """
    data = json.loads(Path(path).read_text())
    try:
        return _scenario_config(data)
    except KeyError as exc:
        raise ConfigError(f"scenario has no {exc} entry") from exc
    except (TypeError, AttributeError) as exc:
        raise ConfigError(f"scenario document is malformed: {exc}") from exc


def _scenario_config(data: dict) -> SimConfig:
    safety = data.get("safety", {})
    backtrack = data.get("backtrack", {})
    return SimConfig(
        dims=tuple(data["dims"]),
        drones=[(tuple(d["start"]), tuple(d["dest"])) for d in data["drones"]],
        static_obstacles=[tuple(c) for c in data.get("static_obstacles", [])],
        moving_obstacles=[
            (tuple(m["cell"]), m.get("cadence", 5), m.get("spawn_tick", 0))
            for m in data.get("moving_obstacles", [])
        ],
        seed=data.get("seed", 0),
        spacing=data.get("spacing", 10.0),
        sensing_range=data.get("sensing_range", 30.0),
        safety=SafetyParams(
            max_speed=safety.get("max_speed", 5.0),
            comm_latency=safety.get("comm_latency", 0.2),
            processing_time=safety.get("processing_time", 0.5),
        ),
        tick_len_ms=data.get("tick_len_ms", 50),
        max_ticks=data.get("max_ticks"),
        backtrack=BacktrackConfig(
            required_steps=backtrack.get("required_steps", 3),
            max_attempts=backtrack.get("max_attempts", 10),
            hover_threshold=backtrack.get("hover_threshold", 5),
            stall_threshold=backtrack.get("stall_threshold", 15),
        ),
        obstacles_avoid_drones=data.get("obstacles_avoid_drones", True),
        detection_radius=data.get("detection_radius", 2),
        algorithm=data.get("algorithm", "proposed"),
    )
