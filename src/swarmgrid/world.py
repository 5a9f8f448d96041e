"""Discretized 3D flying zone: cells, areas, and grid distances."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields

Cell = tuple[int, int, int]

# Axis-aligned unit moves; 6-connected grid.
DIRECTIONS: tuple[Cell, ...] = (
    (-1, 0, 0), (1, 0, 0),
    (0, -1, 0), (0, 1, 0),
    (0, 0, -1), (0, 0, 1),
)


class SpacingViolation(ValueError):
    """Grid spacing is below the safe distance or beyond the sensing range."""


class OutOfBounds(ValueError):
    """A cell lies outside the area."""


def is_int(v: object) -> bool:
    """An int other than a bool. Plain ints, the common case, pass the first test."""
    return type(v) is int or isinstance(v, int) and not isinstance(v, bool)


def is_finite_number(v: object) -> bool:
    """An int or float other than a bool, NaN or an infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class SafetyParams:
    """Vehicle parameters that determine the minimum safe grid spacing.

    max_speed is in meters/second; comm_latency and processing_time in seconds.
    The defaults give a 9 m safe distance.
    """

    max_speed: float = 5.0
    comm_latency: float = 0.2
    processing_time: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not is_finite_number(v) or v < 0:
                raise ValueError(f"safety {f.name} must be a finite non-negative number, got {v!r}")


def safe_distance(p: SafetyParams) -> float:
    """Minimum spacing in meters for two vehicles closing head-on."""
    return 2.0 * p.max_speed * (2.0 * p.comm_latency + p.processing_time)


@dataclass(frozen=True)
class Area:
    """A finite 3D grid. Physical position of a cell is index * spacing meters."""

    dim_x: int
    dim_y: int
    dim_z: int
    spacing: float        # meters between adjacent cells
    sensing_range: float  # meters
    safe_dist: float      # meters

    def __post_init__(self) -> None:
        if min(self.dim_x, self.dim_y, self.dim_z) < 2:
            raise ValueError(f"dims must each be at least 2, got {self.dims}")
        if not (self.safe_dist <= self.spacing <= self.sensing_range):
            raise SpacingViolation(
                f"need the safe distance of the safety params <= spacing <= sensing_range, got "
                f"{self.safe_dist} / {self.spacing} / {self.sensing_range}"
            )

    @property
    def dims(self) -> Cell:
        return (self.dim_x, self.dim_y, self.dim_z)

    def __contains__(self, c: Cell) -> bool:
        x, y, z = c
        return 0 <= x < self.dim_x and 0 <= y < self.dim_y and 0 <= z < self.dim_z


def new_area(dims: Cell, spacing: float, sensing_range: float, params: SafetyParams) -> Area:
    """Build an Area, validating spacing against the derived safe distance."""
    return Area(*dims, spacing, sensing_range, safe_distance(params))


def neighbors(area: Area, c: Cell) -> list[Cell]:
    """In-bounds axis-adjacent cells of c, in the order of DIRECTIONS.

    The bounds are compared inline, without `Area.__contains__` calls,
    since the per-drone decisions (sidesteps and `avoid`) call it.
    """
    x, y, z = c
    dim_x, dim_y, dim_z = area.dim_x, area.dim_y, area.dim_z
    if not (0 <= x < dim_x and 0 <= y < dim_y and 0 <= z < dim_z):
        raise OutOfBounds(f"{c} outside {area.dims}")
    out = []
    if x > 0:
        out.append((x - 1, y, z))
    if x + 1 < dim_x:
        out.append((x + 1, y, z))
    if y > 0:
        out.append((x, y - 1, z))
    if y + 1 < dim_y:
        out.append((x, y + 1, z))
    if z > 0:
        out.append((x, y, z - 1))
    if z + 1 < dim_z:
        out.append((x, y, z + 1))
    return out


def _choice(rng: random.Random, xs):
    """Pick an element of the non-empty sequence xs exactly as CPython's
    rng.choice(xs) does: draw j below len(xs) with getrandbits of its bit
    length until the value is below it. So the element and the generator's
    state match rng.choice's, without its two nested method calls. The
    decisions and the obstacle steps both draw through it."""
    n = len(xs)
    k = n.bit_length()
    j = rng.getrandbits(k)
    while j >= n:
        j = rng.getrandbits(k)
    return xs[j]


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) + abs(a[2] - b[2])
