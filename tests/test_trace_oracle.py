"""The engine's trace lines against the per-drone formatting loop they replaced.

The engine keeps every drone's trace row by id, writes a parked drone's row
once when it parks, rebuilds only the rows of the drones that decided on a
tick, and ends every line in a newline. Each line, without its newline,
must equal the line the old loop built: that loop read each drone's action
for the tick, wrote a parked line from a suffix kept since the drone
parked, and formatted every other line afresh.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from swarmgrid.engine import SimConfig, Simulation

# The trace's `npred` column, as the old loop read it.
_NPRED = {"redirect": 1, "hover": 1}


def old_headers(sim):
    """The three header lines, as the old constructor wrote them."""
    return [
        "# swarmgrid-trace v1",
        f"# area {sim.area.dim_x} {sim.area.dim_y} {sim.area.dim_z}",
        "# fields tick drone mode x y z action npred",
    ]


def old_park(drones, parked_lines):
    """The old `_park`'s trace part, kept verbatim: each newly parked
    drone's line after its tick number."""
    for d in drones:
        x, y, z = d.current
        mode = "backtrack" if d.bt_attempts else "hover" if d.hover_streak else "normal"
        parked_lines[d.id] = f"\t{d.id}\t{mode}\t{x}\t{y}\t{z}\tparked\t0"


def old_tick_lines(sim, tick, actions, parked_lines):
    """The old trace phase, kept verbatim but for collecting its lines."""
    out = []
    for d in sim.drones:
        # Drones that had arrived before this tick took no decision.
        action = actions.get(d.id)
        if action is None:
            out.append(f"{tick}{parked_lines[d.id]}")
            continue
        x, y, z = d.current
        mode = "backtrack" if d.bt_attempts else "hover" if d.hover_streak else "normal"
        out.append(
            f"{tick}\t{d.id}\t{mode}\t{x}\t{y}\t{z}"
            f"\t{action}\t{_NPRED.get(action, 0)}"
        )
    return out


def recording(decide, actions):
    """`decide` (a decision method), noting each drone's final action of the
    tick in `actions`. A normal decision that falls back to a backtrack
    calls the backtrack decision inside it, so its own note comes last."""
    def wrapped(d, ctx):
        intent, action = decide(d, ctx)
        actions[d.id] = action
        return intent, action
    return wrapped


def assert_trace_as_before(cfg):
    """Fly `cfg` tick by tick with a trace on; every tick's lines must equal
    the old loop's. Returns the (mode, action) pairs seen and whether the
    mission ended on a tick a drone landed."""
    emitted: list[str] = []
    sim = Simulation(cfg, trace=emitted.append)
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in emitted)
    assert [line[:-1] for line in emitted] == old_headers(sim)
    actions: dict[int, str] = {}
    sim._normal_decision = recording(sim._normal_decision, actions)
    sim._backtrack_decision = recording(sim._backtrack_decision, actions)
    parked_lines: dict[int, str] = {}
    old_park([d for d in sim.drones if d.arrived], parked_lines)
    seen = set()
    landed_last = False
    max_ticks = cfg.effective_max_ticks()
    while not sim.all_arrived() and sim.tick < max_ticks:
        tick = sim.tick
        emitted.clear()
        actions.clear()
        sim.run_tick()
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in emitted)
        want = old_tick_lines(sim, tick, actions, parked_lines)
        assert [line[:-1] for line in emitted] == want, f"tick {tick}"
        for line in want:
            fields = line.split("\t")
            seen.add((fields[2], fields[6]))
        landed = [d for d in sim.drones if d.arrived and d.id not in parked_lines]
        landed_last = bool(landed)
        old_park(landed, parked_lines)
    return seen, landed_last and sim.all_arrived()


def scenario(seed, side, n_drones, n_home, n_static, n_moving, cadence, spawn, radius, avoid):
    """A small seeded mission: `n_drones` drones, `n_home` of them starting
    on their destination, and static and moving obstacles on distinct cells
    of a `side`-sided cube (cut to fit)."""
    rng = random.Random(seed)
    cells = [(x, y, z) for x in range(side) for y in range(side) for z in range(side)]
    rng.shuffle(cells)
    n_drones = min(n_drones, len(cells) // 2)
    n_home = min(n_home, n_drones)
    starts = cells[:n_drones]
    dests = starts[:n_home] + cells[n_drones:2 * n_drones - n_home]
    rest = cells[2 * n_drones - n_home:]
    statics = rest[:n_static]
    movings = rest[n_static:n_static + n_moving]
    return SimConfig(
        dims=(side,) * 3,
        drones=list(zip(starts, dests)),
        static_obstacles=statics,
        moving_obstacles=[(c, cadence, spawn) for c in movings],
        seed=seed,
        max_ticks=80,
        detection_radius=radius,
        obstacles_avoid_drones=avoid,
    )


@st.composite
def scenarios(draw):
    side = draw(st.integers(2, 5))
    return scenario(
        seed=draw(st.integers(0, 2**16)),
        side=side,
        n_drones=draw(st.integers(1, side**3 // 3)),
        n_home=draw(st.integers(0, 3)),
        n_static=draw(st.integers(0, side)),
        n_moving=draw(st.integers(0, side)),
        cadence=draw(st.integers(1, 5)),
        spawn=draw(st.integers(0, 6)),
        radius=draw(st.integers(0, 2)),
        avoid=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_trace_lines_match_the_old_loop(cfg):
    assert_trace_as_before(cfg)


def test_fixed_missions_cover_every_mode_and_action():
    """Dense 4^3 missions reach every mode and action the engine writes,
    with drones starting on their destination and missions that end on a
    drone's landing, at every radius and cadence the draws take."""
    seen = set()
    ends_on_landing = 0
    for seed in range(15):
        cfg = scenario(seed, 4, 18, 2, 3, 4, 1 + seed % 5, seed % 3, seed % 3, seed % 2 == 0)
        pairs, landed_last = assert_trace_as_before(cfg)
        seen |= pairs
        ends_on_landing += landed_last
    modes = {mode for mode, _ in seen}
    actions = {action for _, action in seen}
    assert modes == {"normal", "hover", "backtrack"}
    assert actions == {"advance", "redirect", "hover", "backtrack", "bt-hover", "parked"}
    assert ends_on_landing
