"""Mission engine: config validation, tick pipeline, collision scanning."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from swarmgrid.cep import WindowStore
from swarmgrid.cli import EXIT_OK, main
from swarmgrid.coordination import LockTable
from swarmgrid.engine import (
    GRID_CELLS_MAX,
    ConfigError,
    EngineInvariantViolation,
    HazardGrid,
    SimConfig,
    Simulation,
    _choice,
    _shuffle,
    clearance_margin,
    detect_collisions_ground_truth,
    run_mission,
)
from swarmgrid.harness import EXPERIMENTS, ExperimentSpec, build_experiment, mission_digest
from swarmgrid.entities import MovingObstacle, step_moving_obstacle
from swarmgrid.world import SafetyParams, manhattan, new_area


def simple_cfg(**kw):
    base = dict(
        dims=(8, 8, 8),
        drones=[((0, 0, 0), (7, 7, 7))],
        seed=1,
    )
    base.update(kw)
    return SimConfig(**base)


class TestConfigValidation:
    def test_duplicate_starts(self):
        cfg = simple_cfg(drones=[((0, 0, 0), (1, 1, 1)), ((0, 0, 0), (2, 2, 2))])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_duplicate_dests(self):
        cfg = simple_cfg(drones=[((0, 0, 0), (2, 2, 2)), ((1, 0, 0), (2, 2, 2))])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_out_of_area_cells(self):
        with pytest.raises(ConfigError):
            simple_cfg(drones=[((0, 0, 0), (8, 0, 0))]).validate()
        with pytest.raises(ConfigError):
            simple_cfg(static_obstacles=[(0, 0, 9)]).validate()

    def test_obstacle_on_start_or_dest(self):
        with pytest.raises(ConfigError):
            simple_cfg(static_obstacles=[(0, 0, 0)]).validate()
        with pytest.raises(ConfigError):
            simple_cfg(moving_obstacles=[((7, 7, 7), 5, 0)]).validate()

    def test_bad_obstacle_cadence(self):
        with pytest.raises(ConfigError):
            simple_cfg(moving_obstacles=[((4, 4, 4), 0, 0)]).validate()

    @pytest.mark.parametrize("radius", [2.5, -1, "2", True])
    def test_bad_detection_radius(self, radius):
        with pytest.raises(ConfigError, match="detection_radius"):
            simple_cfg(detection_radius=radius).validate()

    @pytest.mark.parametrize("kw", [
        dict(drones=[((0.5, 0, 0), (7, 7, 7))]),
        dict(drones=[((0, 0, 0), (7, 7.0, 7))]),
        dict(static_obstacles=[(4, 4, 4.0)]),
        dict(moving_obstacles=[((4, "4", 4), 5, 0)]),
        dict(static_obstacles=[(4, 4)]),
    ])
    def test_non_int_cells(self, kw):
        with pytest.raises(ConfigError, match="three ints"):
            simple_cfg(**kw).validate()

    @pytest.mark.parametrize("max_ticks", [0, -3, 2.5])
    def test_bad_max_ticks(self, max_ticks):
        with pytest.raises(ConfigError, match="max_ticks"):
            simple_cfg(max_ticks=max_ticks).validate()

    @pytest.mark.parametrize("dims", [(6.5, 6, 6), (6, True, 6), (6, 6), "666"])
    def test_non_int_dims(self, dims):
        with pytest.raises(ConfigError, match="dims"):
            simple_cfg(dims=dims, drones=[((0, 0, 0), (5, 5, 5))]).validate()

    @pytest.mark.parametrize("cadence, spawn", [(2.5, 0), (True, 0), (5, 1.5), (5, False)])
    def test_non_int_cadence_or_spawn_tick(self, cadence, spawn):
        with pytest.raises(ConfigError, match="cadence"):
            simple_cfg(moving_obstacles=[((4, 4, 4), cadence, spawn)]).validate()

    def test_edge_values_accepted(self):
        simple_cfg(detection_radius=0, max_ticks=1).validate()

    def test_an_area_padding_to_the_grid_cap_is_accepted(self):
        """Padded by one cell on each side, these dims make a hazard grid
        of exactly GRID_CELLS_MAX cells."""
        dims = (2, 2, 2**20 - 2)
        assert (2 + 2) * (2 + 2) * (dims[2] + 2) == GRID_CELLS_MAX == 2**24
        simple_cfg(dims=dims, drones=[((0, 0, 0), (1, 1, 2**20 - 3))]).validate()

    @pytest.mark.parametrize("dims", [(2, 2, 2**20 - 1), (10**6, 10**6, 10**6)])
    def test_an_area_padding_past_the_grid_cap_is_rejected_before_allocating(
        self, dims, monkeypatch,
    ):
        def no_grid(self, dims):
            raise AssertionError("allocated a hazard grid")

        monkeypatch.setattr(HazardGrid, "__init__", no_grid)
        cfg = simple_cfg(dims=dims, drones=[((0, 0, 0), (1, 1, 1))])
        with pytest.raises(ConfigError, match=r"^dims .* over the cap of 2\*\*24 = 16777216$"):
            cfg.validate()
        with pytest.raises(ConfigError, match="dims"):
            Simulation(cfg)

    def test_default_tick_budget(self):
        assert simple_cfg().effective_max_ticks() == 50 * 24
        assert simple_cfg(max_ticks=77).effective_max_ticks() == 77


def test_a_radius_past_the_area_flies_as_its_longest_side():
    """From radius 2 up the decisions know every obstacle that can change
    them, so radii 2, 3, the area's longest side (past which no two cells are
    farther apart) and beyond all fly one mission. Radii 0 and 1 leave
    obstacles two cells from a drone unknown, and fly differently."""
    for exp in (1, 3):
        cfg = build_experiment(EXPERIMENTS[exp], 0)
        digests = {
            r: mission_digest(dataclasses.replace(cfg, detection_radius=r))
            for r in (0, 1, 2, 3, max(cfg.dims), 10**9)
        }
        assert len({digests[r] for r in (2, 3, max(cfg.dims), 10**9)}) == 1, exp
        assert digests[0] != digests[2] and digests[1] != digests[2], exp


def _stacked_cfg(radius: int) -> SimConfig:
    """130 static and 40 moving obstacles start on one cell, with five
    drones flying through or past it."""
    return SimConfig(
        dims=(8, 8, 8),
        drones=[
            ((0, 4, 4), (7, 4, 4)), ((4, 0, 4), (4, 7, 4)), ((4, 4, 0), (4, 4, 7)),
            ((0, 0, 0), (7, 7, 7)), ((3, 3, 3), (5, 5, 5)),
        ],
        static_obstacles=[(4, 4, 4)] * 130,
        moving_obstacles=[((4, 4, 4), 1 + i % 3, i % 4) for i in range(40)],
        detection_radius=radius,
    )


# `mission_digest` of `_stacked_cfg` by detection radius, taken before the
# hazard-count grid replaced the obstacle-margin map and the drone buckets.
STACKED_DIGESTS = {
    0: "e658e47336ba02dd9ff6ab2b3c1b2a7d68defe8f0f7c933bed361aab37a6fe9e",
    1: "d9aac5685e92025b60a3d60b5b15e61ab18c7e65a3d8c43d1eb4696f30b76173",
    2: "196c18030fc80cdfb54f57d326ddd798dc0f8557dd3e93cf17a216e9dd460759",
}


@pytest.mark.parametrize("radius", sorted(STACKED_DIGESTS))
def test_hazard_counts_past_one_byte_keep_the_mission(radius):
    """Each known obstacle adds 2 to the counts of its cube, so once the
    stack is known the counts around it pass 255, which a one-byte cell
    would wrap."""
    cfg = _stacked_cfg(radius)
    sim = Simulation(cfg)
    peak = 0
    while not sim.all_arrived():
        sim.run_tick()
        peak = max(peak, max(sim._grid.counts))
    assert peak > 255
    assert mission_digest(cfg) == STACKED_DIGESTS[radius]


def test_clearance_margin_size():
    assert len(clearance_margin({(5, 5, 5)})) == 27
    assert (4, 4, 4) in clearance_margin({(5, 5, 5)})
    assert clearance_margin(set()) == set()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_moving_the_margin_keeps_the_counts_of_random_walks(seed):
    """Obstacles take random walks in a small area, some spawning late and
    some sharing cells. An obstacle that steps off the area dies there, as
    `step_moving_obstacle` does, so many die. Each tick a random fifth is
    left out, as detection would. After every move from the last tick's
    cells, each cell of the padded grid counts twice the present obstacles
    whose cube holds it, whether an obstacle stepped (two faces), died, left
    or came back (all 27 cells)."""
    rng = random.Random(seed)
    area = new_area((5, 5, 5), 10.0, 30.0, SafetyParams())
    obstacles = [
        MovingObstacle(
            id=i, cell=(rng.randrange(5), rng.randrange(5), rng.randrange(5)),
            cadence=rng.randint(1, 3), spawn_tick=rng.randrange(8),
        )
        for i in range(40)
    ]
    grid = HazardGrid(area.dims)
    last: dict = {}
    steps = 0
    for tick in range(60):
        for o in obstacles:
            step_moving_obstacle(o, tick, rng, area, set())
        now = {
            o.id: o.cell for o in obstacles
            if o.alive and tick >= o.spawn_tick and rng.random() < 0.8
        }
        steps += sum(now[i] != last[i] for i in now.keys() & last.keys())
        grid.move(last, now, 2)
        want = Counter(c for cell in now.values() for c in clearance_margin({cell}))
        assert list(grid.counts) == [
            2 * want[(x, y, z)] for x in range(-1, 6) for y in range(-1, 6) for z in range(-1, 6)
        ]
        last = now
    assert steps > 20
    assert sum(not o.alive for o in obstacles) > 20


# Sizes 1-9 and each side of every power of two up to 1024, where the bit
# length, and so the rejection rate, changes.
CHOICE_SIZES = sorted({*range(1, 10), *(2**k + s for k in range(2, 11) for s in (-1, 1))})


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_choice_draws_as_random_choice(seed):
    """The decisions' inline choice picks rng.choice's element and leaves
    the generator in the same state, so every later draw matches too."""
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in CHOICE_SIZES:
        xs = [(n, i) for i in range(n)]
        for _ in range(50):
            assert _choice(ours, xs) == theirs.choice(xs)
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_shuffle_matches_random_shuffle(seed):
    """The tick's inline shuffle gives rng.shuffle's order and leaves the
    generator in the same state, for every list length the draws differ on."""
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in range(65):
        a, b = list(range(n)), list(range(n))
        _shuffle(ours, a)
        theirs.shuffle(b)
        assert a == b
        assert ours.getstate() == theirs.getstate()


class TestGroundTruthScan:
    def test_clean_tick(self):
        before = {1: (0, 0, 0), 2: (5, 5, 5)}
        after = {1: (1, 0, 0), 2: (5, 5, 4)}
        assert detect_collisions_ground_truth(before, after, {}, 3, {}) == []

    def test_colocation(self):
        before = {1: (0, 0, 0), 2: (2, 0, 0)}
        after = {1: (1, 0, 0), 2: (1, 0, 0)}
        recs = detect_collisions_ground_truth(before, after, {}, 0, {})
        assert len(recs) == 1
        assert recs[0].kind == "colocation" and recs[0].ids == (1, 2)

    def test_obstacle_overlap(self):
        before = {1: (0, 0, 0)}
        after = {1: (1, 0, 0)}
        recs = detect_collisions_ground_truth(
            before, after, {(1, 0, 0): ("s0",)}, 2, {}
        )
        assert [r.kind for r in recs] == ["obstacle"]
        assert recs[0].ids == (1, "s0")

    def test_edge_swap(self):
        before = {1: (0, 0, 0), 2: (1, 0, 0)}
        after = {1: (1, 0, 0), 2: (0, 0, 0)}
        recs = detect_collisions_ground_truth(before, after, {}, 5, {})
        assert [r.kind for r in recs] == ["swap"]

    def test_hovering_pair_is_not_a_swap(self):
        before = {1: (0, 0, 0), 2: (1, 0, 0)}
        after = dict(before)
        assert detect_collisions_ground_truth(before, after, {}, 0, {}) == []


def test_single_drone_reaches_dest_in_empty_area():
    res = run_mission(simple_cfg())
    assert res.arrived[0]
    assert not res.timed_out
    assert res.collisions == []
    route = res.routes[0]
    assert route[0] == (0, 0, 0) and route[-1] == (7, 7, 7)
    # empty area: nothing to detour around, so the route is shortest
    assert len(route) - 1 == manhattan((0, 0, 0), (7, 7, 7))


def test_routes_are_connected_and_inside():
    cfg = simple_cfg(
        drones=[((0, 0, 0), (7, 7, 7)), ((7, 0, 0), (0, 7, 7)), ((0, 7, 0), (7, 0, 7))],
        static_obstacles=[(4, 4, 4), (3, 3, 3)],
        moving_obstacles=[((5, 5, 0), 2, 0), ((2, 5, 5), 3, 0)],
        seed=9,
    )
    res = run_mission(cfg)
    area = cfg.area()
    for route in res.routes.values():
        for a, b in zip(route, route[1:]):
            assert manhattan(a, b) <= 1
            assert b in area


def test_static_obstacles_never_entered():
    statics = [(4, 4, 4), (4, 4, 3), (3, 4, 4), (4, 3, 4)]
    cfg = simple_cfg(static_obstacles=statics, seed=5)
    res = run_mission(cfg)
    assert res.arrived[0]
    assert set(res.routes[0]).isdisjoint(statics)


def test_two_crossing_drones_never_collide():
    for seed in range(10):
        cfg = simple_cfg(
            drones=[((0, 4, 4), (7, 4, 4)), ((7, 4, 4), (0, 4, 4))],
            seed=seed,
        )
        res = run_mission(cfg)
        assert res.collisions == []
        assert all(res.arrived.values())


def test_arrived_drone_parks_and_stays():
    cfg = simple_cfg(drones=[((0, 0, 0), (2, 0, 0)), ((7, 7, 7), (0, 7, 7))])
    res = run_mission(cfg)
    r = res.routes[0]
    first = r.index((2, 0, 0))
    assert all(c == (2, 0, 0) for c in r[first:])


def test_determinism_same_seed_same_routes():
    cfg = simple_cfg(
        drones=[((0, 0, 0), (7, 7, 7)), ((7, 7, 0), (0, 0, 7))],
        moving_obstacles=[((4, 4, 4), 1, 0)],
        seed=33,
    )
    a = run_mission(cfg)
    b = run_mission(cfg)
    assert a.routes == b.routes
    assert a.ticks == b.ticks
    assert [
        (c.tick, c.kind, c.ids, c.cell) for c in a.collisions
    ] == [
        (c.tick, c.kind, c.ids, c.cell) for c in b.collisions
    ]


def test_different_seeds_usually_differ():
    routes = {
        tuple(run_mission(simple_cfg(seed=s)).routes[0]) for s in range(6)
    }
    assert len(routes) > 1


def test_timeout_flagged():
    res = run_mission(simple_cfg(max_ticks=3))
    assert res.timed_out
    assert res.ticks == 3
    assert not res.arrived[0]


def test_lock_table_stays_consistent_during_run():
    cfg = simple_cfg(
        drones=[((0, 0, 0), (7, 7, 7)), ((7, 0, 0), (0, 7, 7))], seed=4
    )
    sim = Simulation(cfg)
    area = [(x, y, z) for x in range(8) for y in range(8) for z in range(8)]
    while not sim.all_arrived() and sim.tick < 200:
        sim.run_tick()
        # Between ticks each drone holds exactly its current cell, and no
        # other cell is held.
        held = {d.current: d.id for d in sim.drones}
        assert len(held) == len(sim.drones)
        assert {c: sim.locks.holder(c) for c in area} == {c: held.get(c) for c in area}


def test_trace_output_shape():
    lines = []
    run_mission(simple_cfg(drones=[((0, 0, 0), (3, 0, 0))]), trace=lines.append)
    # Every line, the headers too, ends in exactly one newline.
    assert all(l.endswith("\n") and l.count("\n") == 1 for l in lines)
    assert lines[0] == "# swarmgrid-trace v1\n"
    assert lines[1] == "# area 8 8 8\n"
    assert lines[2] == "# fields tick drone mode x y z action npred\n"
    body = [l for l in lines if not l.startswith("#")]
    assert body, "trace has no data rows"
    fields = body[0][:-1].split("\t")
    assert len(fields) == 8
    int(fields[0]); int(fields[1]); int(fields[7])  # tick, drone id and npred parse


def test_drone_starting_on_dest_is_arrived():
    cfg = simple_cfg(drones=[((3, 3, 3), (3, 3, 3))])
    res = run_mission(cfg)
    assert res.arrived[0]
    assert res.ticks == 0
    assert res.routes[0] == [(3, 3, 3)]


_ROUTES_SCRIPT = """
from swarmgrid.engine import run_mission
from swarmgrid.harness import EXPERIMENTS, build_experiment
print(repr(run_mission(build_experiment(EXPERIMENTS[1], 3)).routes))
"""


def test_routes_do_not_change_under_python_O():
    """Start-cell locks are taken by code, not by an assert that -O strips."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = [
        subprocess.run(
            [sys.executable, *flags, "-c", _ROUTES_SCRIPT],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout
        for flags in ([], ["-O"])
    ]
    assert outs[0].startswith("{0: [")
    assert outs[0] == outs[1]


def test_a_denied_lock_is_an_invariant_violation(monkeypatch):
    """Every intent passes cell_is_safe before its lock is taken, so a denial
    means the conflict model and the lock table disagree."""
    sim = Simulation(simple_cfg())
    sim.run_tick()
    monkeypatch.setattr(LockTable, "try_acquire", lambda self, drone_id, cell: False)
    with pytest.raises(EngineInvariantViolation, match="denied"):
        sim.run_tick()


def test_two_drones_committing_one_cell_is_an_invariant_violation(monkeypatch):
    """The commit phase checks that no two drones end the tick on one cell,
    whatever the decisions and the lock table said."""
    cfg = simple_cfg(drones=[((0, 0, 0), (5, 5, 5)), ((2, 0, 0), (0, 5, 5))])
    sim = Simulation(cfg)
    monkeypatch.setattr(
        Simulation, "_normal_decision", lambda self, d, ctx: ((1, 0, 0), "advance")
    )
    monkeypatch.setattr(LockTable, "try_acquire", lambda self, drone_id, cell: True)
    with pytest.raises(EngineInvariantViolation, match=r"2 drones committed \(1, 0, 0\)"):
        sim.run_tick()


def test_a_drone_committing_a_parked_drones_cell_is_an_invariant_violation(monkeypatch):
    """Parked drones are not among the tick's decisions, but the commit
    check still counts them."""
    cfg = simple_cfg(drones=[((1, 0, 0), (1, 0, 0)), ((0, 0, 0), (5, 5, 5))])
    sim = Simulation(cfg)
    monkeypatch.setattr(
        Simulation, "_normal_decision", lambda self, d, ctx: ((1, 0, 0), "advance")
    )
    monkeypatch.setattr(LockTable, "try_acquire", lambda self, drone_id, cell: True)
    with pytest.raises(EngineInvariantViolation, match=r"2 drones committed \(1, 0, 0\)"):
        sim.run_tick()


def test_the_tick_does_not_feed_the_cep(monkeypatch, tmp_path):
    """No decision reads CEP matches, so a mission never ingests an event."""
    def ingest(self, event, now_ms):
        raise AssertionError(f"the tick ingested {event!r}")

    monkeypatch.setattr(WindowStore, "ingest", ingest)
    congested = build_experiment(ExperimentSpec(0, (6, 6, 6), 30, 5, 5), 0)
    for cfg in (build_experiment(EXPERIMENTS[1], 0), congested):
        assert not run_mission(cfg).timed_out
    scenario = tmp_path / "congested.json"
    scenario.write_text(json.dumps({
        "dims": congested.dims,
        "seed": congested.seed,
        "drones": [{"start": s, "dest": d} for s, d in congested.drones],
        "static_obstacles": congested.static_obstacles,
        "moving_obstacles": [
            {"cell": c, "cadence": cad, "spawn_tick": sp}
            for c, cad, sp in congested.moving_obstacles
        ],
    }))
    trace = tmp_path / "congested.trace"
    assert main(["run", "--scenario", str(scenario), "--trace", str(trace)]) == EXIT_OK
    assert trace.read_text().startswith("# swarmgrid-trace v1")
