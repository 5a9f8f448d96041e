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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .avoidance import BacktrackConfig
from .baselines import PlanFailure, execute_open_loop, rrt_plan, rrt_star_plan
from .engine import ConfigError, SimConfig, SimResult, run_mission
from .entities import MovingObstacle
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


def mission_parts(cfg: SimConfig) -> list[str]:
    """Fly the navigator on `cfg` with a trace and return what a mission
    digest hashes: the reprs of its routes, collisions, ticks and trace
    lines, each line without its ending newline, in that order."""
    lines: list[str] = []
    result = run_mission(cfg, trace=lines.append)
    lines = [line[:-1] for line in lines]
    return [repr(result.routes), repr(result.collisions), repr(result.ticks), repr(lines)]


def mission_digest(cfg: SimConfig) -> str:
    """SHA-256 of one mission's `mission_parts`."""
    # Imported here: hashlib loads OpenSSL, about 3.5 MB of RSS that a
    # mission run without a digest should not pay.
    import hashlib

    h = hashlib.sha256()
    for part in mission_parts(cfg):
        h.update(part.encode())
    return h.hexdigest()


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
    failed_ms: float = 0.0  # a failed plan's wall-clock time, in place of metrics

    def as_csv(self, deterministic_timing: bool = False) -> list[str]:
        m = self.metrics
        t_ms = 0.0 if deterministic_timing else (m.t_ms if m else self.failed_ms)
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


def run_batch(
    spec: ExperimentSpec,
    algorithm: str,
    n_runs: int = 10,
    base_seed: int = 0,
) -> tuple[Optional[Metrics], list[RunRow]]:
    """Run one experiment n_runs times; returns mean metrics and per-run rows.

    The aggregate's LLR is the mean rounded up and its NC the total.
    Timed-out or plan-failed runs become flagged rows and are excluded from
    the aggregate. A plan-failed row keeps the time the failed attempt took.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    seed_rng = random.Random(base_seed)
    rows: list[RunRow] = []
    for run in range(n_runs):
        seed = seed_rng.randrange(2**62)
        cfg = build_experiment(spec, seed)
        t0 = time.perf_counter()
        try:
            if algorithm == "proposed":
                result = run_mission(cfg)
                wall_ms = result.wall_ms
            else:
                result, wall_ms = _run_baseline(cfg, algorithm)
        except PlanFailure:
            failed_ms = (time.perf_counter() - t0) * 1000.0
            rows.append(RunRow(run, algorithm, spec.id, None, 0, True, failed_ms))
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
            # The mean's ceiling, in integers: never below the mean ARL,
            # since each run's LLR is at least its ARL.
            llr=-(-sum(m.llr for m in ok) // len(ok)),
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
    """Read a scenario JSON document (schema in the README) into a validated
    SimConfig. This checks only the shape (objects, arrays, required and
    unknown keys) and passes on only the keys present, so the config classes'
    field defaults are the only copy; `SimConfig.validate` checks the values."""
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError:
        raise ConfigError(f"{path} nests its arrays or objects too deeply") from None
    kw = _object(data, "scenario", {f.name for f in fields(SimConfig)}, "dims", "drones")
    kw["dims"] = _tuple(kw["dims"])
    kw["drones"] = [
        (_tuple(d["start"]), _tuple(d["dest"]))
        for d in _objects(kw, "drones", {"start", "dest"}, "start", "dest")
    ]
    if "static_obstacles" in kw:
        kw["static_obstacles"] = list(map(_tuple, _array(kw, "static_obstacles")))
    if "moving_obstacles" in kw:
        kw["moving_obstacles"] = [
            (_tuple(m["cell"]), m.get("cadence", MovingObstacle.cadence),
             m.get("spawn_tick", MovingObstacle.spawn_tick))
            for m in _objects(kw, "moving_obstacles", {"cell", "cadence", "spawn_tick"}, "cell")
        ]
    for name, cls in (("safety", SafetyParams), ("backtrack", BacktrackConfig)):
        if name in kw:
            kw[name] = cls(**_object(kw[name], name, {f.name for f in fields(cls)}))
    cfg = SimConfig(**kw)
    cfg.validate()
    return cfg


def _object(v: object, where: str, keys: set[str], *required: str) -> dict:
    """v as a JSON object holding every required key and no key outside `keys`."""
    if not isinstance(v, dict):
        raise ConfigError(f"{where} must be an object, got {v!r}")
    unknown = sorted(set(v) - keys)
    if unknown:
        raise ConfigError(f"{where} has unknown key {unknown[0]!r}")
    missing = [k for k in required if k not in v]
    if missing:
        raise ConfigError(f"{where} has no {missing[0]!r} entry")
    return v


def _objects(doc: dict, name: str, keys: set[str], *required: str) -> list[dict]:
    """doc[name] as a JSON array of objects."""
    return [_object(v, f"{name}[{i}]", keys, *required) for i, v in enumerate(_array(doc, name))]


def _array(doc: dict, name: str) -> list:
    """doc[name] as a JSON array."""
    v = doc[name]
    if not isinstance(v, list):
        raise ConfigError(f"{name} must be a list, got {v!r}")
    return v


def _tuple(v: object) -> object:
    """A JSON array as a tuple; SimConfig.validate checks what a cell holds."""
    return tuple(v) if isinstance(v, list) else v
