"""Oracle for the per-drone state the simulation keeps across ticks.

The engine keeps the flying drones, the set of drone cells, the parked
drones' cells and buckets, and the static obstacles not yet detected from
one tick to the next, instead of rebuilding them from every drone each
tick. These tests fly seeded missions tick by tick and check that state
against the drones themselves:

- before the first tick and after every tick, the flying list is the
  drones not yet arrived in id order, the parked map is the arrived drones'
  cells to their ids, the drone-cell set is every drone's current cell, the
  parked buckets are `_drone_blocks` of the parked cells, and the
  undetected statics are those not in `known_static`, in id order,
  the lock table holds each drone's current cell and nothing else, and the
  kept blocked cells are the known statics' cells and the last tick's live
  moving obstacles' cells (at the default `detection_radius` of 2);
- every bucket map a tick hands to detection or to a decision equals
  `_drone_blocks` over all the drones' cells at the start of that tick.
"""

import dataclasses

import pytest

from swarmgrid.coordination import LockTable
from swarmgrid.engine import SimConfig, Simulation
from swarmgrid.harness import EXPERIMENTS, ExperimentSpec, build_experiment

# 300 drones in 20^3 and 30 drones in 6^3, as the benchmark flies them.
SWARM = ExperimentSpec(0, (20, 20, 20), 300, 50, 50)
DENSE = ExperimentSpec(0, (6, 6, 6), 30, 5, 5)


def _as_sorted(blocks) -> dict:
    return {key: sorted(cells) for key, cells in blocks.items()}


def check_kept_state(sim: Simulation) -> None:
    arrived = [d for d in sim.drones if d.arrived]
    assert [d.id for d in sim._flying] == [d.id for d in sim.drones if not d.arrived]
    assert sim._parked == {d.current: d.id for d in arrived}
    assert sim._drone_cells == {d.current for d in sim.drones}
    # Between ticks each drone holds exactly its own cell's lock; the
    # conflict test relies on it to keep drones out of each other's cells.
    assert sim.locks._holders == {d.current: d.id for d in sim.drones}
    assert _as_sorted(sim._parked_blocks) == _as_sorted(
        sim._drone_blocks([d.current for d in arrived])
    )
    assert [so.id for so in sim._undetected] == [
        so.id for so in sim.statics if so.id not in sim.known_static
    ]
    # From radius 2 up the decisions take every live moving obstacle as
    # known. The obstacles have not moved since the last tick's phase 1.
    assert sim.cfg.detection_radius >= 2
    moving = {mo.cell for mo in sim.movings if mo.alive and sim.tick - 1 >= mo.spawn_tick}
    assert sim._blocked == {*sim.known_static.values(), *moving}


def fly_with_oracle(cfg: SimConfig, monkeypatch) -> dict:
    """Fly cfg to its end, checking the kept state after every tick and
    every bucket map the tick reads. Returns counts of what was checked."""
    sim = Simulation(cfg)
    seen = {"ticks": 0, "bucket_maps": 0, "parked_ticks": 0}
    tick_blocks: dict = {}

    def checked(blocks):
        if id(blocks) not in tick_blocks:
            tick_blocks[id(blocks)] = blocks
            want = sim._drone_blocks([d.current for d in sim.drones])
            assert _as_sorted(blocks) == _as_sorted(want), sim.tick
            seen["bucket_maps"] += 1

    detected = Simulation._detected
    normal_decision = Simulation._normal_decision

    def checked_detected(self, cell, drone_blocks):
        checked(drone_blocks)
        return detected(self, cell, drone_blocks)

    def checked_decision(self, d, ctx, drone_blocks):
        checked(drone_blocks)
        return normal_decision(self, d, ctx, drone_blocks)

    monkeypatch.setattr(Simulation, "_detected", checked_detected)
    monkeypatch.setattr(Simulation, "_normal_decision", checked_decision)

    check_kept_state(sim)
    max_ticks = cfg.effective_max_ticks()
    while not sim.all_arrived() and sim.tick < max_ticks:
        tick_blocks.clear()
        seen["parked_ticks"] += bool(sim._parked)
        sim.run_tick()
        check_kept_state(sim)
        seen["ticks"] += 1
    assert sim.all_arrived() == all(d.arrived for d in sim.drones)
    return seen


@pytest.mark.parametrize("avoid_drones", [True, False])
@pytest.mark.parametrize("exp", [1, 2, 3, 4])
def test_experiments_keep_their_state(exp, avoid_drones, monkeypatch):
    cfg = dataclasses.replace(
        build_experiment(EXPERIMENTS[exp], 0), obstacles_avoid_drones=avoid_drones
    )
    seen = fly_with_oracle(cfg, monkeypatch)
    assert seen["parked_ticks"] > 0
    assert seen["bucket_maps"] >= seen["ticks"]


@pytest.mark.parametrize("seed", [0, 2])
def test_dense_grid_keeps_its_state(seed, monkeypatch):
    """Seed 2 livelocks until max_ticks with most drones parked around it."""
    cfg = dataclasses.replace(build_experiment(DENSE, seed), max_ticks=300)
    seen = fly_with_oracle(cfg, monkeypatch)
    assert seen["parked_ticks"] > 0


def test_dense_swarm_keeps_its_state(monkeypatch):
    seen = fly_with_oracle(build_experiment(SWARM, 0), monkeypatch)
    assert seen["parked_ticks"] > 0
    assert seen["bucket_maps"] >= seen["ticks"]


def test_a_drone_following_into_a_cell_vacated_this_tick_keeps_its_cell(monkeypatch):
    """The decisions never pick a cell another drone started the tick on, but
    the drone-cell set must not depend on that: drone 0 enters the cell
    drone 1 leaves, and drone 1 is committed after drone 0. The lock of that
    cell passes to drone 0 when it asks, and drone 1's release skips it."""
    cfg = SimConfig(dims=(6, 6, 6), drones=[((0, 0, 0), (5, 0, 0)), ((1, 0, 0), (5, 5, 5))])
    sim = Simulation(cfg)
    monkeypatch.setattr(
        Simulation, "_normal_decision",
        lambda self, d, ctx, near: ((d.current[0] + 1, 0, 0), "advance"),
    )

    def hand_over(self, drone_id, cell):
        self._holders[cell] = drone_id
        return True

    def release_if_held(self, drone_id, cell):
        if self._holders.get(cell) == drone_id:
            del self._holders[cell]

    monkeypatch.setattr(LockTable, "try_acquire", hand_over)
    monkeypatch.setattr(LockTable, "release", release_if_held)
    sim.run_tick()
    assert [d.current for d in sim.drones] == [(1, 0, 0), (2, 0, 0)]
    assert sim.collisions == []
    check_kept_state(sim)


def test_drones_starting_on_their_dest_are_parked_from_the_start(monkeypatch):
    cfg = SimConfig(
        dims=(6, 6, 6),
        drones=[((2, 2, 2), (2, 2, 2)), ((0, 0, 0), (4, 4, 4)), ((5, 5, 5), (5, 5, 5))],
        static_obstacles=[(3, 3, 3)],
        moving_obstacles=[((2, 3, 2), 1, 0)],
    )
    sim = Simulation(cfg)
    assert sim._parked == {(2, 2, 2): 0, (5, 5, 5): 2}
    assert [d.id for d in sim._flying] == [1]
    assert fly_with_oracle(cfg, monkeypatch)["parked_ticks"] > 0
