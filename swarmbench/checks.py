"""Output checks computed apart from the program.

Nothing here imports swarmgrid. A route is the list of cells a drone
occupied, one per tick from its start; a drone whose route ends early stays
on its last cell, as an arrived drone parks on its destination.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from scenarios import Cell, Scenario

TRACE_HEADER = "# swarmgrid-trace v1"
TRACE_FIELDS = "# fields tick drone mode x y z action npred"
MODES = frozenset({"normal", "hover", "backtrack"})
ACTIONS = ("advance", "redirect", "hover", "lock-denied", "backtrack", "bt-hover", "parked")


class TraceError(ValueError):
    """A trace file that does not follow trace format v1."""


def _dist(a: Cell, b: Cell) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) + abs(a[2] - b[2])


def moves(route: Sequence[Cell]) -> int:
    """Steps that change cell; hovers do not count."""
    return sum(1 for a, b in zip(route, route[1:]) if a != b)


def frames(routes: Sequence[Sequence[Cell]], ticks: int) -> list[list[Cell]]:
    """Every drone's cell at ticks 0..ticks (0 is the start)."""
    return [[r[min(t, len(r) - 1)] for r in routes] for t in range(ticks + 1)]


def conflicts(cells_by_tick: list[list[Cell]]) -> tuple[int, int]:
    """Co-located groups and swapped pairs over ticks 1.., counted per tick.

    A co-location is one cell holding two or more drones after a tick; a
    swap is two drones that trade cells within one tick.
    """
    colocations = swaps = 0
    for before, after in zip(cells_by_tick, cells_by_tick[1:]):
        occupancy = Counter(after)
        colocations += sum(1 for n in occupancy.values() if n > 1)
        was_at: dict[Cell, list[int]] = {}
        for i, c in enumerate(before):
            was_at.setdefault(c, []).append(i)
        for a, target in enumerate(after):
            if target == before[a]:
                continue
            for b in was_at.get(target, ()):
                if b > a and after[b] == before[a]:
                    swaps += 1
    return colocations, swaps


def _route_problems(
    scenario: Scenario, i: int, route: Sequence[Cell], unit_steps: bool
) -> list[str]:
    start, dest = scenario.drones[i]
    statics = set(scenario.static_obstacles)
    dx, dy, dz = scenario.dims
    out = []
    if not route or route[0] != start:
        out.append(f"drone {i}: route does not begin at its start {start}")
    for c in route:
        if not (0 <= c[0] < dx and 0 <= c[1] < dy and 0 <= c[2] < dz):
            out.append(f"drone {i}: {c} is outside the area")
            break
        if c in statics:
            out.append(f"drone {i}: enters static obstacle {c}")
            break
    for a, b in zip(route, route[1:]):
        step = _dist(a, b)
        if step > 1 or (unit_steps and step != 1):
            out.append(f"drone {i}: illegal step {a} -> {b}")
            break
    return out


def navigator_problems(
    scenario: Scenario,
    routes: Sequence[Sequence[Cell]],
    arrived: Sequence[bool],
    ticks: int,
    timed_out: bool,
    collisions: int,
) -> list[str]:
    """Everything wrong with one navigator mission's result."""
    out = []
    if collisions:
        out.append(f"program reported {collisions} collisions")
    if len(routes) != len(scenario.drones) or len(arrived) != len(routes):
        return out + [f"{len(routes)} routes for {len(scenario.drones)} drones"]
    for i, route in enumerate(routes):
        out += _route_problems(scenario, i, route, unit_steps=False)
        start, dest = scenario.drones[i]
        if len(route) - 1 > ticks or (not arrived[i] and len(route) - 1 != ticks):
            out.append(f"drone {i}: route covers {len(route) - 1} of {ticks} ticks")
        if arrived[i]:
            if route[-1] != dest:
                out.append(f"drone {i}: arrived away from its destination {dest}")
            if moves(route) < _dist(start, dest):
                out.append(f"drone {i}: {moves(route)} moves, shorter than the distance")
        elif not timed_out:
            out.append(f"drone {i}: not arrived, but the mission did not time out")
    if out:
        return out
    colocations, swaps = conflicts(frames(routes, ticks))
    if colocations or swaps:
        out.append(f"own scan: {colocations} co-locations, {swaps} swaps")
    return out


def baseline_problems(
    scenario: Scenario,
    routes: Sequence[Sequence[Cell]],
    records: Sequence[tuple[str, tuple]],
) -> list[str]:
    """Everything wrong with one planned and open-loop-flown fleet.

    `records` holds the (kind, ids) of each collision record the open-loop
    flight returned; the own co-location and swap counts must match them.
    """
    out = []
    if len(routes) != len(scenario.drones):
        return [f"{len(routes)} routes for {len(scenario.drones)} drones"]
    for i, route in enumerate(routes):
        out += _route_problems(scenario, i, route, unit_steps=True)
        if route and route[-1] != scenario.drones[i][1]:
            out.append(f"drone {i}: route does not end at its destination")
    kinds = Counter(kind for kind, _ in records)
    if any(kind == "obstacle" and not str(ids[1]).startswith("m") for kind, ids in records):
        out.append("open-loop flight hit a static obstacle")
    ticks = max((len(r) - 1 for r in routes), default=0)
    colocations, swaps = conflicts(frames(routes, ticks))
    if (colocations, swaps) != (kinds["colocation"], kinds["swap"]):
        out.append(
            f"own scan: {colocations} co-locations, {swaps} swaps; program: "
            f"{kinds['colocation']} and {kinds['swap']}"
        )
    return out


@dataclass
class Trace:
    dims: Cell
    cells_by_tick: list[list[Cell]]  # drone cells after each tick
    actions: Counter


def parse_trace(text: str, n_drones: int) -> Trace:
    """Read trace format v1: one line per drone per tick, drones in id order."""
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != TRACE_HEADER or lines[2] != TRACE_FIELDS:
        raise TraceError("missing trace v1 headers")
    area = lines[1].split()
    if area[:2] != ["#", "area"] or len(area) != 5:
        raise TraceError(f"bad area header {lines[1]!r}")
    dims = tuple(int(v) for v in area[2:])
    body = lines[3:]
    if len(body) % n_drones:
        raise TraceError(f"{len(body)} lines is not a whole number of ticks")
    cells_by_tick: list[list[Cell]] = []
    actions: Counter = Counter()
    for n, line in enumerate(body):
        fields = line.split("\t")
        if len(fields) != 8:
            raise TraceError(f"line {n + 4}: {len(fields)} fields")
        tick, drone, mode, x, y, z, action, npred = fields
        if (int(tick), int(drone)) != divmod(n, n_drones):
            raise TraceError(f"line {n + 4}: tick {tick} drone {drone} out of order")
        if mode not in MODES or action not in ACTIONS or int(npred) < 0:
            raise TraceError(f"line {n + 4}: bad mode, action or npred")
        if int(drone) == 0:
            cells_by_tick.append([])
        cells_by_tick[-1].append((int(x), int(y), int(z)))
        actions[action] += 1
    return Trace(dims, cells_by_tick, actions)  # type: ignore[arg-type]
