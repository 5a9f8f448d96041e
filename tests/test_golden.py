"""Golden digests: missions and the CEP match stream stay byte-identical.

`GOLDEN_SHA256` covers routes, collisions, ticks and traces
(`harness.mission_parts`). It was computed before the ground-truth scan,
obstacle detection and planner neighbour queries were indexed by cell. Any
change to what the navigator or the baselines do changes it.

`MATCH_STREAM_SHA256` covers every `WindowStore.ingest` result on the event
stream of fixed missions, in order, with its ingestion time. The tick does
not feed the CEP, so the test rebuilds that stream from the simulation: per
tick, every drone's cell before the tick, then each static obstacle first
detected, then each detected moving obstacle. It was computed before the
on-arrival join moved to int cell keys and one probe pass, so any change to
which rows the CEP emits, or in what order, or to the drone cells and
detections the missions produce, changes it.

`PLANNER_SHA256` covers the `rrt_plan` and `rrt_star_plan` routes and their
open-loop collisions and ticks on exp1 and exp3 seeds 0-2 and on the first 8
drones of exp2 seed 0. It was computed before the planners' neighbour queries
returned distances and before in-tree samples skipped `nearest()`, so any
change to a route, or to how many draws the planners take from the RNG,
changes it.

`SWARM_SHA256` is `harness.mission_digest` (routes, collisions, ticks and
trace) of one dense mission: 300 drones in 20^3 with 50 static and 50
moving obstacles, seed 0.
It was computed at commit 416c0df, before the tick kept one obstacle-margin
map across ticks, one decision context per tick and a bucketed hazard test
for other drones, so any change to a dense swarm's decisions changes it.

`DENSE_SHA256` holds the `mission_digest` of two congested missions, 30
drones in 6^3 with `max_ticks` 300, at seeds where drones enter and leave
backtracking: a backtrack dispatched on the wrong counter changes both. They
were taken while the engine still stored each drone's mode beside its
counters.

`MIXED_SHA256` is the `mission_parts` digest of the missions
`mixed_missions` builds: small seeded areas whose moving obstacles have
cadences 1-5 and spawn ticks 0-40, at detection radii 0-2, each flown with
`obstacles_avoid_drones` on and off. Every other digest flies cadence 5 from
tick 0, where all moving obstacles step on the same ticks in id order. It
was taken while phase 1 still called `step_moving_obstacle` for every
moving obstacle every tick, so obstacles that step on a tick in any order
but their ids', or on a tick off their cadence, change it.
"""

import dataclasses
import hashlib
import random

import pytest

from swarmgrid.baselines import execute_open_loop, rrt_plan, rrt_star_plan
from swarmgrid.cep import DroneLocEvent, MObsEvent, SObsEvent, WindowStore
from swarmgrid.engine import Simulation
from swarmgrid.harness import (
    EXPERIMENTS, ExperimentSpec, build_experiment, mission_digest, mission_parts,
)

GOLDEN_SHA256 = "8266e06d44896c0b71a95333d96547e055c7b0e0a087cfb159e42897366cbd11"
MATCH_STREAM_SHA256 = "fbf196fcea8fea4028d2a4b47590ed32ebea787bdb81cf06efd6781868652a22"
PLANNER_SHA256 = "54d8f98e549c4348bef3a8fbd14474f5f0364d3f14d3530d610b56e8251f44b1"
SWARM_SHA256 = "6795e7f39c893855842cabc84c994b71c566f02eaf1dc7ac883f7b5c1e541a6f"
DENSE_SHA256 = {
    5: "d495e33db520ab87f64f83ee47bf9e72a8772dd753bd6ecec714179fe7a21e17",
    35: "17577c0f9d488449da0f0f306581f0d89d68ed90ced532423e390f8ab61c8293",
}
MIXED_SHA256 = "d47b60f793011a24ac5317e81629dd0dfce1b51045d0e52cdcd3dfa165333ecc"

# The tick length in ms that timestamped the CEP events when
# MATCH_STREAM_SHA256 was taken; the event times are tick * TICK_LEN_MS.
TICK_LEN_MS = 50

# 30 drones in 6^3: every drone sees many stale positions of its neighbours.
CONGESTED = ExperimentSpec(0, (6, 6, 6), 30, 5, 5)
# 300 drones in 20^3: most decisions have other drones within two cells.
SWARM = ExperimentSpec(0, (20, 20, 20), 300, 50, 50)


def golden_digest() -> str:
    h = hashlib.sha256()
    for exp in (1, 2, 3, 4):
        for seed in (0, 1, 2):
            cfg = build_experiment(EXPERIMENTS[exp], seed)
            for variant in (cfg, dataclasses.replace(cfg, obstacles_avoid_drones=False)):
                for part in mission_parts(variant):
                    h.update(part.encode())
    _hash_planners(h, build_experiment(EXPERIMENTS[1], 0))
    return h.hexdigest()


def _hash_planners(h, cfg) -> None:
    area = cfg.area()
    for planner in (rrt_plan, rrt_star_plan):
        rng = random.Random(cfg.seed)
        routes = {
            i: planner(start, dest, cfg.static_obstacles, area, rng)
            for i, (start, dest) in enumerate(cfg.drones)
        }
        flown = execute_open_loop(routes, cfg)
        for part in (repr(routes), repr(flown.collisions), repr(flown.ticks)):
            h.update(part.encode())


def test_golden_digest_matches():
    assert golden_digest() == GOLDEN_SHA256


def test_swarm_digest_matches():
    assert mission_digest(build_experiment(SWARM, 0)) == SWARM_SHA256


@pytest.mark.parametrize("seed", sorted(DENSE_SHA256))
def test_dense_digest_matches(seed):
    cfg = dataclasses.replace(build_experiment(CONGESTED, seed), max_ticks=300)
    assert mission_digest(cfg) == DENSE_SHA256[seed]


def mixed_missions():
    """Thirty seeded missions with mixed obstacle cadences and spawn ticks,
    each with `obstacles_avoid_drones` on, then off.

    Areas are 4-8 by 4-8 by 12-20 cells, so most missions fly past tick 20
    and many obstacles spawn mid-mission; many walk off the area and die.
    """
    for seed in range(30):
        rng = random.Random(seed)
        dims = (rng.randint(4, 8), rng.randint(4, 8), rng.randint(12, 20))
        cells = dims[0] * dims[1] * dims[2]
        spec = ExperimentSpec(
            0, dims, rng.randint(4, cells // 16), rng.randint(0, cells // 20),
            rng.randint(cells // 20, cells // 8),
        )
        cfg = build_experiment(spec, seed)
        moving = [(c, rng.randint(1, 5), rng.randint(0, 40)) for c, _, _ in cfg.moving_obstacles]
        cfg = dataclasses.replace(
            cfg, moving_obstacles=moving, detection_radius=seed % 3, max_ticks=200
        )
        for avoid in (True, False):
            yield dataclasses.replace(cfg, obstacles_avoid_drones=avoid)


def test_mixed_cadence_digest_matches():
    h = hashlib.sha256()
    for cfg in mixed_missions():
        for part in mission_parts(cfg):
            h.update(part.encode())
    assert h.hexdigest() == MIXED_SHA256


def planner_digest() -> str:
    h = hashlib.sha256()
    for exp in (1, 3):
        for seed in (0, 1, 2):
            _hash_planners(h, build_experiment(EXPERIMENTS[exp], seed))
    cfg = build_experiment(EXPERIMENTS[2], 0)
    _hash_planners(h, dataclasses.replace(cfg, drones=cfg.drones[:8]))
    return h.hexdigest()


def test_planner_digest_matches():
    assert planner_digest() == PLANNER_SHA256


def _stream_missions():
    for seed in (0, 1, 2):
        yield build_experiment(EXPERIMENTS[1], seed)
    yield build_experiment(EXPERIMENTS[3], 0)
    for seed in (0, 1):
        yield dataclasses.replace(build_experiment(CONGESTED, seed), max_ticks=300)


def _near(cell, drone_cells, r) -> bool:
    """Is a drone cell within Chebyshev r of the cell?"""
    x, y, z = cell
    return any(
        abs(qx - x) <= r and abs(qy - y) <= r and abs(qz - z) <= r for qx, qy, qz in drone_cells
    )


def _mission_events(cfg):
    """Each tick's CEP events with their ingestion time, in engine order.

    A drone detects an obstacle within Chebyshev `detection_radius` of its
    cell at the start of the tick, after the obstacles moved."""
    sim = Simulation(cfg)
    r = cfg.detection_radius
    detected_static: set = set()
    max_ticks = cfg.effective_max_ticks()
    while not sim.all_arrived() and sim.tick < max_ticks:
        tick = sim.tick
        now_ms = tick * TICK_LEN_MS
        cells = [d.current for d in sim.drones]
        sim.run_tick()
        for d, cell in zip(sim.drones, cells):
            yield DroneLocEvent(d.id, cell, now_ms), now_ms
        for i, c in enumerate(cfg.static_obstacles):
            if i not in detected_static and _near(c, cells, r):
                detected_static.add(i)
                yield SObsEvent(i, c), now_ms
        for mo in sim.field.movings:
            if mo.alive and tick >= mo.spawn_tick and _near(mo.cell, cells, r):
                yield MObsEvent(mo.id, mo.cell, now_ms), now_ms


def match_stream_digest() -> str:
    h = hashlib.sha256()
    for cfg in _stream_missions():
        store = WindowStore()
        for event, now_ms in _mission_events(cfg):
            rows = [
                (m.kind.value, m.subject_id, m.other_id, m.subject_cell, m.other_cell)
                for m in store.ingest(event, now_ms)
            ]
            h.update(repr((now_ms, rows)).encode())
    return h.hexdigest()


def test_match_stream_digest_matches():
    assert match_stream_digest() == MATCH_STREAM_SHA256
