"""Fly one large navigator mission on two swarmgrid trees in lockstep and compare their tick times.

    python3 scripts/lockstep_ab.py SRC_A SRC_B [--size {40,60,80}] [--rounds N]

SRC_A and SRC_B are `src` directories, each holding a `swarmgrid` package.
Both load into this one process, SRC_A first, as the packages `swarmgrid_a`
and `swarmgrid_b`. Each side builds the same mission with its own
`harness.build_experiment`: SIZE^3 cells holding SPECS[SIZE] drones, static
and moving obstacles, seed 0, with a trace on. The two sides then fly it
tick by tick, with one side first on even ticks and the other on odd
ticks, so a slow spell of the host hits both sides within milliseconds of
each other. After every tick the two sides' trace lines must be equal; at
the first tick where they are not, the script prints one `error:` line
naming the tick to standard error and exits 1.

The mission is flown N times (`--rounds`, default 1). Each round builds
both sides afresh, and odd rounds swap which side goes first on even ticks
(and builds first), so neither side keeps the first slot.

It prints one JSON line: the ticks of one flight, each round's total time
ratio B/A over all `run_tick` calls and their median, and the median and
quartiles of the per-tick ratio B/A, pooled over the rounds, in three bands
of the share of drones flying at the start of the tick. Run it in both load
orders, and beside it an A/A run (a tree against a copy of itself, in both
orders too), which shows how far from 1 the ratios read with no change. On
a shared 2-core VM the A/A total ratios read 0.98-1.01 at every size, with
one 40^3 run at 1.041; without `gc.freeze()` they read 0.96-1.07, depending
on the load order.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

# Drones, static and moving obstacles by area side, as `scripts/scale_mission.py`
# flies them at 40 and 60.
SPECS = {40: (1000, 500, 500), 60: (3000, 1500, 1500), 80: (10000, 5000, 5000)}
# Bands of the share of drones flying at the start of a tick: (name, lowest share).
BANDS = (("over_half", 0.5), ("5pct_to_half", 0.05), ("under_5pct", 0.0))


def load(src: str, name: str):
    """Import the swarmgrid package under `src` as the package `name`."""
    init = Path(src, "swarmgrid", "__init__.py")
    if not init.is_file():
        sys.exit(f"error: {src} holds no swarmgrid package")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.engine"), importlib.import_module(f"{name}.harness")


def quartiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"n": len(xs), "median": xs[0] if xs else None}
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"n": len(xs), "median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def build(packages: list, size: int, order: tuple[int, int]) -> list:
    """Build the mission on each side, in `order`, with a trace collecting
    its lines; returns (simulation, lines) per side."""
    sides: list = [None, None]
    for k in order:
        engine, harness = packages[k]
        spec = harness.ExperimentSpec(0, (size,) * 3, *SPECS[size])
        lines: list[str] = []
        sides[k] = (engine.Simulation(harness.build_experiment(spec, 0), trace=lines.append), lines)
    return sides


def fly(sides: list, first: int, ratios: dict[str, list[float]]) -> tuple[int, list[float]]:
    """Fly both sides to the end in lockstep, side `first` first on even
    ticks, appending each tick's ratio B/A to its band in `ratios`; returns
    the ticks flown and each side's total seconds in `run_tick`."""
    (sim_a, lines_a), (sim_b, lines_b) = sides
    n_drones = len(sim_a.drones)
    max_ticks = sim_a.cfg.effective_max_ticks()
    total = [0.0, 0.0]
    clock = time.perf_counter
    orders = ((first, 1 - first), (1 - first, first))
    while not sim_a.all_arrived() and sim_a.tick < max_ticks:
        flying = sum(not d.arrived for d in sim_a.drones) / n_drones
        tick = sim_a.tick
        spent = [0.0, 0.0]
        for k in orders[tick % 2]:
            sim = sides[k][0]
            start = clock()
            sim.run_tick()
            spent[k] = clock() - start
        if lines_a != lines_b or sim_a.all_arrived() != sim_b.all_arrived():
            sys.exit(f"error: the trace lines of tick {tick} differ")
        lines_a.clear()
        lines_b.clear()
        total[0] += spent[0]
        total[1] += spent[1]
        band = next(name for name, low in BANDS if flying >= low)
        ratios[band].append(spent[1] / spent[0])
    return sim_a.tick, total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--size", type=int, choices=sorted(SPECS), default=40)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()
    if args.rounds < 1:
        sys.exit(f"error: --rounds must be at least 1, got {args.rounds}")
    packages = [load(args.src_a, "swarmgrid_a"), load(args.src_b, "swarmgrid_b")]
    ratios: dict[str, list[float]] = {band: [] for band, _ in BANDS}
    round_ratios = []
    totals = [0.0, 0.0]
    for r in range(args.rounds):
        first = r % 2
        sides = build(packages, args.size, (first, 1 - first))
        # Keep the collector off the two missions' set-up objects: a full
        # collection walks both sides' objects and lands on whichever
        # side's tick set it off.
        gc.freeze()
        ticks, total = fly(sides, first, ratios)
        n_drones = len(sides[0][0].drones)
        round_ratios.append(round(total[1] / total[0], 4))
        totals[0] += total[0]
        totals[1] += total[1]
        # Let the collector free this round's missions before the next.
        del sides
        gc.unfreeze()
        gc.collect()
    flights = ticks * args.rounds
    print(json.dumps({
        "a": args.src_a, "b": args.src_b, "size": args.size, "drones": n_drones,
        "ticks": ticks, "rounds": args.rounds,
        "a_ms_per_tick": round(totals[0] * 1000 / max(flights, 1), 2),
        "b_ms_per_tick": round(totals[1] * 1000 / max(flights, 1), 2),
        "total_ratio_b_over_a": round_ratios,
        "total_ratio_median": statistics.median(round_ratios),
        "per_tick_ratio_b_over_a": {band: quartiles(xs) for band, xs in ratios.items()},
    }))


if __name__ == "__main__":
    main()
