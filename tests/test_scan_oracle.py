"""Cell-indexed scan and obstacle detection against the pairwise checks they replaced.

The engine passes parked drones to the scan as a cell -> id map, outside
`before` and `after`, and the obstacles as a cell -> labels map; its
records must equal the pairwise scan over every drone, which takes the
obstacles as label -> cell.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from swarmgrid.engine import (
    CollisionRecord,
    SimConfig,
    Simulation,
    detect_collisions_ground_truth,
)

OBSTACLE_IDS = ("s2", "s10", "m1", "s1", "m10")


def obstacles_at(obstacle_cells):
    """The scan's obstacle map, cell -> labels, of a label -> cell map."""
    at = {}
    for label, cell in obstacle_cells.items():
        at[cell] = at.get(cell, ()) + (label,)
    return at


def scan(before, after, obstacle_cells, tick, parked):
    """The engine's scan, given the obstacles as label -> cell."""
    return detect_collisions_ground_truth(before, after, obstacles_at(obstacle_cells), tick, parked)


def pairwise_scan(before, after, obstacle_cells, tick):
    """The original O(drones^2) scan, kept verbatim as the oracle."""
    records = []
    by_cell = {}
    for drone_id in sorted(after):
        by_cell.setdefault(after[drone_id], []).append(drone_id)
    for cell, ids in sorted(by_cell.items()):
        if len(ids) >= 2:
            records.append(CollisionRecord(tick, "colocation", tuple(ids), cell))
    for drone_id in sorted(after):
        for obs_id, cell in sorted(obstacle_cells.items(), key=lambda kv: str(kv[0])):
            if after[drone_id] == cell:
                records.append(
                    CollisionRecord(tick, "obstacle", (drone_id, obs_id), cell)
                )
    ids = sorted(after)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if (
                before[a] != before[b]
                and before[a] == after[b]
                and before[b] == after[a]
            ):
                records.append(CollisionRecord(tick, "swap", (a, b), after[a]))
    return records


coord = st.integers(0, 2)
cells = st.tuples(coord, coord, coord)


@st.composite
def ticks(draw):
    """A tick on a 3x3x3 grid with forced co-locations, swaps and pile-ups."""
    ids = draw(st.lists(st.integers(0, 30), unique=True, max_size=9))
    before = {i: draw(cells) for i in ids}
    pairs = st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3)
    for a, b in draw(pairs) if ids else ():
        before[a] = before[b]  # already co-located before the tick
    after = {i: draw(st.one_of(st.just(before[i]), cells)) for i in ids}
    for a, b in draw(pairs) if ids else ():
        after[a], after[b] = before[b], before[a]  # swap
    for a, b in draw(pairs) if ids else ():
        after[a] = after[b]  # co-locate
    occupied = st.sampled_from(sorted(after.values())) if after else cells
    obstacles = {
        obs_id: draw(st.one_of(occupied, cells))
        for obs_id in draw(st.lists(st.sampled_from(OBSTACLE_IDS), unique=True))
    }
    return before, after, obstacles, draw(st.integers(0, 500))


@settings(max_examples=400, deadline=None)
@given(ticks())
def test_scan_matches_pairwise_oracle(tick_input):
    assert scan(*tick_input, {}) == pairwise_scan(*tick_input)


def test_record_order_on_a_busy_tick():
    before = {4: (0, 0, 0), 1: (1, 0, 0), 7: (2, 2, 2), 3: (2, 2, 2), 9: (0, 1, 0)}
    after = {4: (1, 0, 0), 1: (0, 0, 0), 7: (2, 2, 1), 3: (2, 2, 1), 9: (0, 1, 0)}
    obstacles = {"s2": (0, 1, 0), "m1": (2, 2, 1), "s10": (0, 1, 0)}
    recs = scan(before, after, obstacles, 6, {})
    assert recs == pairwise_scan(before, after, obstacles, 6)
    assert [(r.kind, r.ids) for r in recs] == [
        ("colocation", (3, 7)),
        ("obstacle", (3, "m1")),
        ("obstacle", (7, "m1")),
        ("obstacle", (9, "s10")),  # "s10" sorts before "s2"
        ("obstacle", (9, "s2")),
        ("swap", (1, 4)),
    ]


@st.composite
def split_ticks(draw):
    """A tick from `ticks()` with some unmoved drones, on distinct cells,
    taken out of before/after and passed as parked."""
    before, after, obstacles, tick = draw(ticks())
    parked = {}
    for i in sorted(after):
        if before[i] == after[i] and after[i] not in parked and draw(st.booleans()):
            parked[after[i]] = i
    flying = [i for i in after if i not in parked.values()]
    return (
        {i: before[i] for i in flying}, {i: after[i] for i in flying},
        obstacles, tick, parked, (before, after, obstacles, tick),
    )


@settings(max_examples=400, deadline=None)
@given(split_ticks())
def test_scan_with_parked_drones_matches_pairwise_oracle(split):
    *scan_input, whole = split
    assert scan(*scan_input) == pairwise_scan(*whole)


def test_obstacle_on_a_parked_drone_alone_in_its_cell():
    """A moving obstacle stepping onto a parked drone, as in the missions
    where obstacles do not avoid drones."""
    before = {1: (0, 0, 0), 3: (2, 2, 2)}
    after = {1: (0, 0, 1), 3: (2, 2, 2)}
    parked = {(1, 1, 1): 5, (2, 1, 1): 0}
    obstacles = {"m4": (1, 1, 1), "s0": (0, 2, 0)}
    recs = scan(before, after, obstacles, 9, parked)
    assert recs == [CollisionRecord(9, "obstacle", (5, "m4"), (1, 1, 1))]
    everyone = ({**before, 5: (1, 1, 1), 0: (2, 1, 1)}, {**after, 5: (1, 1, 1), 0: (2, 1, 1)})
    assert recs == pairwise_scan(*everyone, obstacles, 9)


def test_flying_drone_moving_onto_a_parked_drone():
    before = {2: (0, 1, 1), 7: (1, 0, 1)}
    after = {2: (1, 1, 1), 7: (1, 0, 0)}
    parked = {(1, 1, 1): 5, (0, 0, 0): 1}
    obstacles = {"m0": (1, 1, 1)}
    recs = scan(before, after, obstacles, 4, parked)
    assert [(r.kind, r.ids, r.cell) for r in recs] == [
        ("colocation", (2, 5), (1, 1, 1)),
        ("obstacle", (2, "m0"), (1, 1, 1)),
        ("obstacle", (5, "m0"), (1, 1, 1)),
    ]
    everyone = ({**before, 5: (1, 1, 1), 1: (0, 0, 0)}, {**after, 5: (1, 1, 1), 1: (0, 0, 0)})
    assert recs == pairwise_scan(*everyone, obstacles, 4)


def test_stacked_obstacles_on_a_crowded_and_a_parked_cell():
    """A static and a moving obstacle share the cell two flying drones end
    on, and a third obstacle sits on a parked drone's cell."""
    before = {6: (0, 0, 1), 2: (1, 0, 0), 8: (2, 2, 2)}
    after = {6: (0, 0, 0), 2: (0, 0, 0), 8: (2, 2, 1)}
    parked = {(1, 1, 1): 4}
    at = {(0, 0, 0): ("s12", "m3"), (1, 1, 1): ("s1",), (2, 0, 0): ("m0",)}
    recs = detect_collisions_ground_truth(before, after, at, 7, parked)
    assert [(r.kind, r.ids, r.cell) for r in recs] == [
        ("colocation", (2, 6), (0, 0, 0)),
        ("obstacle", (2, "m3"), (0, 0, 0)),
        ("obstacle", (2, "s12"), (0, 0, 0)),
        ("obstacle", (4, "s1"), (1, 1, 1)),
        ("obstacle", (6, "m3"), (0, 0, 0)),
        ("obstacle", (6, "s12"), (0, 0, 0)),
    ]
    obstacles = {label: cell for cell, labels in at.items() for label in labels}
    everyone = ({**before, 4: (1, 1, 1)}, {**after, 4: (1, 1, 1)})
    assert recs == pairwise_scan(*everyone, obstacles, 7)


def chebyshev(a, b):
    """Oracle: the largest per-axis distance."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2]))


@settings(max_examples=300, deadline=None)
@given(
    radius=st.integers(0, 1),
    drone_cells=st.sets(st.tuples(*[st.integers(0, 9)] * 3), max_size=30),
    obstacle=st.tuples(*[st.integers(0, 9)] * 3),
)
def test_detection_matches_every_drone_check(radius, drone_cells, obstacle):
    """Phase 2 asks `_detected` only below radius 2."""
    sim = Simulation(SimConfig(dims=(10, 10, 10), drones=[], detection_radius=radius))
    sim._drone_cells = drone_cells
    expected = any(chebyshev(obstacle, dc) <= radius for dc in drone_cells)
    assert sim._detected(obstacle) == expected
