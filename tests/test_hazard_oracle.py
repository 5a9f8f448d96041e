"""Oracle for the tick's hazard-count grid, its hazard test and its blocked
cells.

The engine keeps one grid of counts across ticks, in which each known
obstacle adds 2 and each drone 1 over its 27-cell cube, keeps the blocked
cells as one set across ticks, and takes a deciding drone's candidate cell
as in the hazard margin when its count is at least 2. From
`detection_radius` 2 up it takes every static and every live moving
obstacle as known without a detection test. These tests fly seeded
missions tick by tick and check all three against the definitions they
replace:

- after every tick, the grid's obstacle part (each count less the drones
  whose cube holds the cell, halved) is nonzero exactly on
  `clearance_margin` of the cells of the obstacles the engine takes as
  known (every static and every live moving one from radius 2 up; below it
  the statics a drone has detected and the moving ones a drone detected
  this tick), found here by brute force, and each cell counts the
  obstacles whose margin holds it;
- every hazard answer the decisions take equals the 27-probe test the
  engine used before (`reference_in_hazard_margin` below) against the margin
  of the known statics and of the moving obstacles a drone detected this
  tick, found by brute force at every radius;
- every `ctx.blocked_cells` membership a decision reads equals membership
  in the cells of those same brute-force known obstacles.

The last two are what show that skipping obstacle detection from radius 2
up changes no decision.
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
    """Fly cfg to its end, checking the grid, every hazard answer and
    every blocked-cell answer.

    Returns counts of the cases the oracle saw: hazard and blocked-cell
    answers checked, known moving obstacles that died, ticks where two known
    moving obstacles shared a cell, and ticks where a live moving obstacle
    no drone detected was in the grid.
    """
    sim = Simulation(cfg)
    r = cfg.detection_radius
    seen_static: dict = {}
    seen = {
        "hazard_checks": 0, "blocked_checks": 0, "known_died": 0, "shared_cell": 0,
        "undetected_in_margin": 0,
    }
    tick_ref: dict = {}
    deciding: list = []

    def live_moving(tick):
        return {mo.id: mo.cell for mo in sim.field.movings if mo.alive and tick >= mo.spawn_tick}

    def known_moving(drone_cells, tick):
        return {
            i: cell for i, cell in live_moving(tick).items()
            if _near_a_drone(cell, drone_cells, r)
        }

    class CheckedCells(set):
        """The engine's blocked cells; each membership test is checked
        against the cells of the brute-force known obstacles."""

        def __contains__(self, cell):
            got = set.__contains__(self, cell)
            assert got == (cell in tick_ref["blocked"]), (sim.tick, deciding[-1].id, cell)
            seen["blocked_checks"] += 1
            return got

    decision_context = engine.DecisionContext

    def checked_context(area, blocked_cells, locks):
        # The decision phase starts: the obstacles have moved, the drones not.
        drone_cells = {d.current for d in sim.drones}
        moving = set(known_moving(drone_cells, sim.tick).values())
        tick_ref["drone_cells"] = drone_cells
        tick_ref["margin"] = clearance_margin(set(seen_static.values())) | clearance_margin(moving)
        tick_ref["blocked"] = set(seen_static.values()) | moving
        return decision_context(area=area, blocked_cells=CheckedCells(blocked_cells), locks=locks)

    def recording(decide):
        def recording_decision(self, d, *args):
            deciding.append(d)
            try:
                return decide(self, d, *args)
            finally:
                deciding.pop()
        return recording_decision

    in_hazard_margin = engine._in_hazard_margin
    sy = cfg.dims[2] + 2
    sx = (cfg.dims[1] + 2) * sy

    def padded_cell(i):
        """The cell at flat index i of the grid over the padded area."""
        return (i // sx - 1, i % sx // sy - 1, i % sy - 1)

    def checked_in_hazard_margin(counts, i):
        got = in_hazard_margin(counts, i)
        cell = padded_cell(i)
        want = reference_in_hazard_margin(
            cell, deciding[-1].current, tick_ref["margin"], tick_ref["drone_cells"]
        )
        assert got == want, (sim.tick, deciding[-1].id, cell)
        seen["hazard_checks"] += 1
        return got

    monkeypatch.setattr(engine, "DecisionContext", checked_context)
    for name in ("_normal_decision", "_backtrack_decision"):
        monkeypatch.setattr(Simulation, name, recording(getattr(Simulation, name)))
    monkeypatch.setattr(engine, "_in_hazard_margin", checked_in_hazard_margin)

    last_known: dict = {}
    max_ticks = cfg.effective_max_ticks()
    while not sim.all_arrived() and sim.tick < max_ticks:
        tick_ref.clear()
        drone_cells = {d.current for d in sim.drones}
        seen_static.update(
            (i, c) for i, c in enumerate(cfg.static_obstacles)
            if i not in seen_static and _near_a_drone(c, drone_cells, r)
        )
        tick = sim.tick
        sim.run_tick()
        known = known_moving(drone_cells, tick)
        in_margin = live_moving(tick) if r >= 2 else known
        statics = list(cfg.static_obstacles) if r >= 2 else list(seen_static.values())
        cells = statics + list(in_margin.values())
        want = clearance_margin(set(cells))
        drones = Counter(c for d in sim.drones for c in clearance_margin({d.current}))
        obstacle_part = Counter()
        for i, n in enumerate(sim._grid.counts):
            cell = padded_cell(i)
            assert (n - drones[cell]) % 2 == 0, (tick, cell)
            obstacle_part[cell] = (n - drones[cell]) // 2
        assert {c for c, n in obstacle_part.items() if n > 0} == want, tick
        assert {c: n for c, n in obstacle_part.items() if n} == Counter(
            c for o in cells for c in clearance_margin({o})
        ), tick
        dead = {mo.id for mo in sim.field.movings if not mo.alive}
        seen["known_died"] += len(dead & last_known.keys())
        seen["shared_cell"] += len(set(known.values())) < len(known)
        seen["undetected_in_margin"] += len(in_margin) > len(known)
        last_known = known
    return seen


# 300 drones in 20^3 and 30 drones in 6^3, as the benchmark flies them.
SWARM = ExperimentSpec(0, (20, 20, 20), 300, 50, 50)
DENSE = ExperimentSpec(0, (6, 6, 6), 30, 5, 5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cluttered_missions_match_the_oracle(seed, monkeypatch):
    seen = fly_with_oracle(build_experiment(EXPERIMENTS[3], seed), monkeypatch)
    assert seen["hazard_checks"] > 0
    assert seen["blocked_checks"] > 0
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


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_other_detection_radii_match_the_oracle(radius, monkeypatch):
    """The hazard and blocked-cell answers a decision reads are the detected
    obstacles' at each radius."""
    cfg = dataclasses.replace(build_experiment(EXPERIMENTS[3], 0), detection_radius=radius)
    seen = fly_with_oracle(cfg, monkeypatch)
    assert seen["hazard_checks"] > 0
    assert seen["blocked_checks"] > 0
    # From radius 2 up the margin holds moving obstacles no drone detected.
    assert (seen["undetected_in_margin"] > 0) == (radius >= 2)
