"""Oracle for the tick's obstacle-margin map and its hazard test.

The engine keeps the clearance margin of the known obstacles as one
cell -> count map across ticks and tests a deciding drone's candidate cells
against the other drones within two cells of it. These tests fly seeded
missions tick by tick and check both against the definitions they replace:

- after every tick, the map's cells equal `clearance_margin` of the known
  static obstacles united with `clearance_margin` of the cells of the moving
  obstacles a drone detected this tick, both found here by brute force, and
  each cell counts the known obstacles whose margin holds it;
- every hazard answer the decisions take equals the 27-probe test the
  engine used before (`reference_in_hazard_margin` below).
"""

import dataclasses
from collections import Counter
from itertools import product

import pytest

from swarmgrid import engine
from swarmgrid.engine import SimConfig, Simulation, clearance_margin
from swarmgrid.harness import EXPERIMENTS, ExperimentSpec, build_experiment

CUBE = list(product((-1, 0, 1), repeat=3))


def reference_in_hazard_margin(cell, own, obstacle_margin, drone_cells) -> bool:
    """Is the cell within Chebyshev 1 of a known hazard or another drone?"""
    if cell in obstacle_margin:
        return True
    x, y, z = cell
    for dx, dy, dz in CUBE:
        c = (x + dx, y + dy, z + dz)
        if c in drone_cells and c != own:
            return True
    return False


def _near_a_drone(cell, drone_cells, r) -> bool:
    x, y, z = cell
    return any(
        (x + dx, y + dy, z + dz) in drone_cells
        for dx, dy, dz in product(range(-r, r + 1), repeat=3)
    )


def fly_with_oracle(cfg: SimConfig, monkeypatch) -> dict:
    """Fly cfg to its end, checking the margin map and every hazard answer.

    Returns counts of the cases the oracle saw: hazard answers checked,
    known moving obstacles that died, and ticks where two known moving
    obstacles shared a cell.
    """
    sim = Simulation(cfg)
    r = cfg.detection_radius
    seen_static: dict = {}
    seen = {"hazard_checks": 0, "known_died": 0, "shared_cell": 0}
    tick_ref: dict = {}
    deciding: list = []

    def known_moving(drone_cells, tick):
        return {
            mo.id: mo.cell for mo in sim.movings
            if mo.alive and tick >= mo.spawn_tick
            and _near_a_drone(mo.cell, drone_cells, r)
        }

    normal_decision = Simulation._normal_decision

    def recording_decision(self, d, *args):
        deciding.append(d)
        try:
            return normal_decision(self, d, *args)
        finally:
            deciding.pop()

    in_hazard_margin = engine._in_hazard_margin

    def checked_in_hazard_margin(cell, margin, near):
        got = in_hazard_margin(cell, margin, near)
        if "margin" not in tick_ref:
            drone_cells = {d.current for d in sim.drones}
            moving = set(known_moving(drone_cells, sim.tick).values())
            tick_ref["drone_cells"] = drone_cells
            tick_ref["margin"] = clearance_margin(set(seen_static.values())) | clearance_margin(moving)
        want = reference_in_hazard_margin(
            cell, deciding[-1].current, tick_ref["margin"], tick_ref["drone_cells"]
        )
        assert got == want, (sim.tick, deciding[-1].id, cell)
        seen["hazard_checks"] += 1
        return got

    monkeypatch.setattr(Simulation, "_normal_decision", recording_decision)
    monkeypatch.setattr(engine, "_in_hazard_margin", checked_in_hazard_margin)

    last_known: dict = {}
    max_ticks = cfg.effective_max_ticks()
    while not sim.all_arrived() and sim.tick < max_ticks:
        tick_ref.clear()
        drone_cells = {d.current for d in sim.drones}
        seen_static.update(
            (so.id, so.cell) for so in sim.statics
            if so.id not in seen_static and _near_a_drone(so.cell, drone_cells, r)
        )
        tick = sim.tick
        sim.run_tick()
        known = known_moving(drone_cells, tick)
        cells = list(seen_static.values()) + list(known.values())
        want = clearance_margin(set(cells))
        assert {c for c, n in sim._margin.items() if n > 0} == want, tick
        assert sim._margin == Counter(c for o in cells for c in clearance_margin({o})), tick
        dead = {mo.id for mo in sim.movings if not mo.alive}
        seen["known_died"] += len(dead & last_known.keys())
        seen["shared_cell"] += len(set(known.values())) < len(known)
        last_known = known
    return seen


# 300 drones in 20^3 and 30 drones in 6^3, as the benchmark flies them.
SWARM = ExperimentSpec(0, (20, 20, 20), 300, 50, 50)
DENSE = ExperimentSpec(0, (6, 6, 6), 30, 5, 5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cluttered_missions_match_the_oracle(seed, monkeypatch):
    seen = fly_with_oracle(build_experiment(EXPERIMENTS[3], seed), monkeypatch)
    assert seen["hazard_checks"] > 0
    assert seen["known_died"] > 0  # known obstacles left the area


def test_dense_swarm_matches_the_oracle(monkeypatch):
    seen = fly_with_oracle(build_experiment(SWARM, 0), monkeypatch)
    assert seen["hazard_checks"] > 10_000
    assert seen["known_died"] > 0
    assert seen["shared_cell"] > 0  # two known moving obstacles on one cell


@pytest.mark.parametrize("seed", [0, 1])
def test_dense_grid_matches_the_oracle(seed, monkeypatch):
    cfg = dataclasses.replace(build_experiment(DENSE, seed), max_ticks=300)
    assert fly_with_oracle(cfg, monkeypatch)["hazard_checks"] > 0


@pytest.mark.parametrize("radius", [0, 1, 3])
def test_other_detection_radii_match_the_oracle(radius, monkeypatch):
    """Detection and the hazard test read one bucket side for any radius."""
    cfg = dataclasses.replace(build_experiment(EXPERIMENTS[3], 0), detection_radius=radius)
    assert fly_with_oracle(cfg, monkeypatch)["hazard_checks"] > 0
