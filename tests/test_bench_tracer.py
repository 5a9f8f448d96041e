"""The benchmark's tracer still finds every name it wraps in swarmgrid.

`swarmbench/tracer.install` replaces functions and methods by name and
raises KeyError when one is missing, so a rename in swarmgrid fails here
rather than in the next benchmark run.
"""

import random
import sys
from pathlib import Path
from types import SimpleNamespace

from swarmgrid import avoidance, baselines, cep, cli, coordination, engine, entities
from swarmgrid.harness import EXPERIMENTS, build_experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "swarmbench"))

import tracer as tracing  # noqa: E402

MODULES = SimpleNamespace(
    engine=engine, cli=cli, baselines=baselines, cep=cep,
    coordination=coordination, avoidance=avoidance,
)


def test_tracer_installs_on_swarmgrid_and_undoes():
    originals = (engine.avoid, engine.backtrack_step, coordination.LockTable.try_acquire)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, MODULES)
    try:
        assert engine.avoid is not originals[0]
        cfg = engine.SimConfig(dims=(6, 6, 6), drones=[((0, 0, 0), (5, 5, 5))], seed=1)
        engine.run_mission(cfg)
    finally:
        patches.undo()
    assert (engine.avoid, engine.backtrack_step, coordination.LockTable.try_acquire) == originals
    assert tracer.counts["engine.run_tick.calls"] == 15
    assert tracer.counts["coordination.try_acquire.calls"] == 16


def _due(o, tick: int) -> bool:
    """Is the moving obstacle due to step on the tick: live, spawned, and on
    its cadence?"""
    return o.alive and tick >= o.spawn_tick and (tick - o.spawn_tick) % o.cadence == 0


def _untraced_counts(cfg, routes) -> tuple[int, int]:
    """The obstacle steps and ticks of one navigator mission of `cfg` and of
    one open-loop flight of `routes` over it, counted by the cadence rule
    and not by any wrapper: the mission tick by tick, the flight replayed
    with its obstacles stepped in id order on its own generator."""
    sim = engine.Simulation(cfg)
    steps = 0
    while not sim.all_arrived() and sim.tick < cfg.effective_max_ticks():
        steps += sum(_due(o, sim.tick) for o in sim.field.movings)
        sim.run_tick()
    ticks = sim.tick
    rng, area = random.Random(cfg.seed), cfg.area()
    movings = [
        entities.MovingObstacle(id=i, cell=c, cadence=cad, spawn_tick=sp)
        for i, (c, cad, sp) in enumerate(cfg.moving_obstacles)
    ]
    flight_ticks = max(len(r) for r in routes.values()) - 1
    for tick in range(flight_ticks):
        for o in movings:
            if _due(o, tick):
                steps += 1
                entities.step_moving_obstacle(o, tick, rng, area, frozenset(), False)
    return steps, ticks + flight_ticks


def test_tracer_counts_every_obstacle_step_and_scan():
    """Both the navigator and the open-loop flight step their obstacles and
    scan through the functions in their module's globals, which the tracer
    wraps: one step call per due obstacle and one scan per tick."""
    cfg = build_experiment(EXPERIMENTS[1], 0)
    routes = {
        i: [start] + [(x, start[1], start[2]) for x in range(start[0] + 1, 10)]
        for i, (start, _) in enumerate(cfg.drones)
    }
    steps, ticks = _untraced_counts(cfg, routes)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, MODULES)
    try:
        engine.run_mission(cfg)
        baselines.execute_open_loop(routes, cfg)
    finally:
        patches.undo()
    assert steps > 0
    assert tracer.counts["entities.step_moving_obstacle.calls"] == steps
    assert tracer.counts["engine.scan.calls"] == ticks
