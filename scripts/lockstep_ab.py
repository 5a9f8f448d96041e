"""Fly navigator missions, or plan baseline fleets, on two swarmgrid trees in lockstep and compare their times.

    python3 scripts/lockstep_ab.py SRC_A SRC_B [--size {40,60,80} | --workload W] [--rounds N]

SRC_A and SRC_B are `src` directories, each holding a `swarmgrid` package.
Both load into this one process, SRC_A first, as the packages `swarmgrid_a`
and `swarmgrid_b`. Each side builds the same missions with its own
`SimConfig`:

- `--size N` (the default, 40): one mission, `harness.build_experiment` of
  N^3 cells holding SPECS[N] drones, static and moving obstacles, seed 0,
  with a trace on.
- `--workload W`, W one of `missions`, `swarm-scale` and `congested`: each
  fixed scenario of that `swarmbench/run.py` workload, from
  `swarmbench.scenarios`. `missions` and `swarm-scale` fly untraced, as
  `run.py --trace 0` flies them. `congested` flies with a trace on, since
  its `run.py` ops always write a trace file, but through the engine with
  its `max_ticks`, as `run_mission` would, not through the CLI: each side
  collects its lines in a list.
- `--workload baselines`: each RRT and RRT* fleet of that workload, from
  `swarmbench.scenarios`, planned drone by drone with one generator per
  fleet and side, then flown open loop, as `run.py` plans and flies it.
  This mode is described at the end.

The two sides fly each mission tick by tick, with one side first on even
ticks and the other on odd ticks, so a slow spell of the host hits both
sides within milliseconds of each other. After every tick the two sides'
trace lines must be equal, each taken without a trailing newline (so trees
that end their lines differently still compare), and at the end of each
mission their routes; at the first difference the script prints one
`error:` line to standard error and exits 1.

The missions are flown N times (`--rounds`, default 1). Each round builds
both sides afresh, and odd rounds swap which side goes first on even ticks
(and builds first), so neither side keeps the first slot.

It prints one JSON line: each round's total time ratio B/A over all
`run_tick` calls and their median; the median and quartiles of the
per-mission ratio B/A, pooled over the rounds; and those of the per-tick
ratio B/A, over all ticks and in three bands of the share of drones flying
at the start of the tick. Run it in both load orders, and beside it an A/A
run (a tree against a copy of itself, in both orders too), which shows how
far from 1 the ratios read with no change. On a shared 2-core VM the A/A
total ratios read 0.98-1.01 at every size, with one 40^3 run at 1.041;
without `gc.freeze()` they read 0.96-1.07, depending on the load order.
With `--workload congested --rounds 20` the A/A round ratios read
0.975-1.039, with medians of 1.005 in both load orders. So `--rounds 10`
cannot resolve a 2% bound there: three 10-round runs of one pair of trees
read 1.015-1.024 while a 10-round A/A read 0.986, and at 30 rounds the same
pair read 1.013-1.016. A 2% gate on `congested` needs 30 rounds or more.

With `--workload baselines` the two sides plan each fleet drone by drone,
and the side that plans first alternates per drone and per round. After
every plan the two routes (or plan failures) and the generators'
`getstate()` must be equal, and after each fleet's open-loop flight its
collisions and ticks; at the first difference the script prints one
`error:` line and exits 1. It prints one JSON line: each round's total
time ratio B/A over all plans and flights, their median, and per fleet the
ratio B/A of each round. Per planner kind (`rrt` and `rrt-star`) it also
reports each round's ratio B/A of the time spent planning alone, summed
over that kind's fleets, and their median (`plan_ratio_median`). The
open-loop flights are also timed apart from the planning, since they are
only 2-5% of a fleet's time, and tick by tick, as `swarmbench/run.py`
times `baselines`' `tick_ms`: a tick runs from the flight's start, or the
previous collision scan's return, to its own scan's return. The script
wraps each side's `baselines.detect_collisions_ground_truth` to stamp those
returns. It reports each round's flight ratio B/A over all fleets (the
sums of their ticks); the median of the rounds where A flies first (even rounds), that
of the rounds where B flies first (odd rounds), and the geometric mean of
the two; each side's flight-tick p50 and tail in ms over all rounds (the
tail is the highest tick with ten beyond it, as run.py takes it), the
median and quartiles of the per-tick ratio B/A, each tick against the same
tick of the same fleet on the other side, and per fleet the flight ratio
B/A of each round. The flight ratio swings with which side flies first:
on unchanged flight code it reads about 0.85-0.93 one way and 1.05-1.18
the other, so a median pooled over both orders falls anywhere between
them, while the geometric mean of the two orders' medians cancels the
swing to first order (a 4-round A/A read 0.913 and 1.193 by order and
1.044 for their geometric mean). On a shared 2-core VM its A/A round
totals read 0.99-1.02 and their medians 0.998-1.012, in both load orders;
single fleets spread about 5%.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import random
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# Drones, static and moving obstacles by area side, as `scripts/scale_mission.py`
# flies them at 40 and 60.
SPECS = {40: (1000, 500, 500), 60: (3000, 1500, 1500), 80: (10000, 5000, 5000)}
# The `swarmbench/run.py` workloads that fly navigator missions, and the one
# that plans baseline fleets.
WORKLOADS = ("missions", "swarm-scale", "congested", "baselines")
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
    return SimpleNamespace(**{
        m: importlib.import_module(f"{name}.{m}") for m in ("engine", "harness", "baselines")
    })


def workload_scenarios(workload: str) -> list:
    """The ops of one round of a `swarmbench/run.py` workload, read from
    this checkout's `swarmbench/scenarios.py` without writing bytecode
    there; returns them with the benchmark's cadence and spawn tick."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    write_bytecode = not sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        from swarmbench.scenarios import CADENCE, SPAWN_TICK, workload_ops
    finally:
        sys.dont_write_bytecode = not write_bytecode
        del sys.path[0]
    return [(op, CADENCE, SPAWN_TICK) for op in workload_ops(workload)]


def quartiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"n": len(xs), "median": xs[0] if xs else None}
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"n": len(xs), "median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def build(
    packages: list, size: int, scenarios: list | None, traced: bool, order: tuple[int, int]
) -> list:
    """Build the missions on each side, in `order`: the `size` mission, or
    one per workload scenario of `scenarios`, each traced if `traced`.
    Returns per side a list of (simulation, trace lines), one per mission."""
    sides: list = [None, None]
    for k in order:
        engine, harness = packages[k].engine, packages[k].harness
        if scenarios is None:
            spec = harness.ExperimentSpec(0, (size,) * 3, *SPECS[size])
            cfgs = [harness.build_experiment(spec, 0)]
        else:
            cfgs = [config(engine, op.scenario, cadence, spawn) for op, cadence, spawn in scenarios]
        sides[k] = []
        for cfg in cfgs:
            lines: list[str] = []
            sim = engine.Simulation(cfg, trace=lines.append if traced else None)
            sides[k].append((sim, lines))
    return sides


def config(engine, s, cadence: int, spawn: int):
    """The `SimConfig` of one workload scenario, as `swarmbench/run.py` builds it."""
    return engine.SimConfig(
        dims=s.dims,
        drones=list(s.drones),
        static_obstacles=list(s.static_obstacles),
        moving_obstacles=[(c, cadence, spawn) for c in s.moving_obstacles],
        seed=s.seed,
        max_ticks=s.max_ticks,
    )


def fly(pair: list, first: int, ratios: dict[str, list[float]]) -> tuple[int, list[float]]:
    """Fly one mission on both sides to the end in lockstep, side `first`
    first on even ticks, appending each tick's ratio B/A to its band in
    `ratios`; returns the ticks flown and each side's total seconds in
    `run_tick`."""
    (sim_a, lines_a), (sim_b, lines_b) = pair
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
            sim = pair[k][0]
            start = clock()
            sim.run_tick()
            spent[k] = clock() - start
        if (sim_a.all_arrived() != sim_b.all_arrived()
                or [s.rstrip("\n") for s in lines_a] != [s.rstrip("\n") for s in lines_b]):
            sys.exit(f"error: the trace lines of tick {tick} differ")
        lines_a.clear()
        lines_b.clear()
        total[0] += spent[0]
        total[1] += spent[1]
        band = next(name for name, low in BANDS if flying >= low)
        ratios[band].append(spent[1] / spent[0])
    if [d.route for d in sim_a.drones] != [d.route for d in sim_b.drones]:
        sys.exit(f"error: the routes differ after {sim_a.tick} ticks")
    return sim_a.tick, total


def plan_fleet(
    packages: list, op, cadence: int, spawn: int, rnd: int
) -> tuple[list[float], list[list[float]]]:
    """Plan one baselines fleet on both sides drone by drone, then fly it
    open loop on each; returns each side's seconds planning and the
    seconds of each of its flight's ticks (none when the planning failed).
    A flight tick is timed as `swarmbench/run.py`'s `TickClock` times it:
    from the flight's start, or the previous scan's return, to its scan's
    return, through a wrapper of that side's
    `baselines.detect_collisions_ground_truth`."""
    s = op.scenario
    cfgs = [config(pkg.engine, s, cadence, spawn) for pkg in packages]
    areas = [cfg.area() for cfg in cfgs]
    planners = [pkg.baselines.rrt_plan if op.kind == "rrt" else pkg.baselines.rrt_star_plan
                for pkg in packages]
    rngs = [random.Random(s.seed), random.Random(s.seed)]
    routes: list[list] = [[], []]
    statics = list(s.static_obstacles)
    spent = [0.0, 0.0]
    clock = time.perf_counter
    for j, (start, dest) in enumerate(s.drones):
        first = (j + rnd) % 2
        for k in (first, 1 - first):
            begin = clock()
            try:
                route = planners[k](start, dest, statics, areas[k], rngs[k])
            except packages[k].baselines.PlanFailure as exc:
                route = f"plan failure: {exc}"
            spent[k] += clock() - begin
            routes[k].append(route)
        if routes[0][-1] != routes[1][-1]:
            sys.exit(f"error: {op.kind} {s.label} drone {j}: the routes differ")
        if rngs[0].getstate() != rngs[1].getstate():
            sys.exit(f"error: {op.kind} {s.label} drone {j}: the generator states differ")
        if isinstance(route, str):
            # Both sides failed alike: run.py counts the fleet failed and flies nothing.
            return spent, [[], []]
    flown: list = [None, None]
    ticks: list[list[float]] = [[], []]
    for k in (rnd % 2, 1 - rnd % 2):
        bl = packages[k].baselines
        scan = bl.detect_collisions_ground_truth
        stamps: list[float] = []

        def stamped(*args, scan=scan, stamps=stamps):
            found = scan(*args)
            stamps.append(clock())
            return found

        bl.detect_collisions_ground_truth = stamped
        try:
            begin = clock()
            result = bl.execute_open_loop(dict(enumerate(routes[k])), cfgs[k])
        finally:
            bl.detect_collisions_ground_truth = scan
        edges = [begin] + stamps
        ticks[k] = [b - a for a, b in zip(edges, edges[1:])]
        flown[k] = (result.ticks, [(c.tick, c.kind, c.ids, c.cell) for c in result.collisions])
    if flown[0] != flown[1]:
        sys.exit(f"error: {op.kind} {s.label}: the open-loop collisions or ticks differ")
    return spent, ticks


def tail(xs: list[float]) -> float:
    """The highest value with at least ten values beyond it, as
    `swarmbench/run.py` takes `tick_ms.tail`."""
    return sorted(xs)[max(len(xs) - 11, 0)]


def baselines_main(args, packages: list, scenarios: list) -> None:
    """Plan and fly the baselines fleets in lockstep for `args.rounds` rounds."""
    names = [f"{op.kind} {op.scenario.label}" for op, _, _ in scenarios]
    fleet_ratios: dict[str, list[float]] = {name: [] for name in names}
    fleet_flight_ratios: dict[str, list[float]] = {name: [] for name in names}
    kinds = sorted({op.kind for op, _, _ in scenarios})
    # Per planner kind, each round's ratio B/A of the seconds spent planning.
    plan_ratios: dict[str, list[float]] = {kind: [] for kind in kinds}
    round_ratios = []
    round_flight_ratios = []
    # The rounds' flight ratios by which side flies first: A in even rounds.
    flight_by_order: tuple[list[float], list[float]] = ([], [])
    tick_ms: list[list[float]] = [[], []]
    for rnd in range(args.rounds):
        gc.freeze()
        round_total = [0.0, 0.0]
        round_flight = [0.0, 0.0]
        round_plan = {kind: [0.0, 0.0] for kind in kinds}
        for name, (op, cadence, spawn) in zip(names, scenarios):
            plan, ticks = plan_fleet(packages, op, cadence, spawn, rnd)
            for k in (0, 1):
                round_plan[op.kind][k] += plan[k]
            flight = [sum(ticks[0]), sum(ticks[1])]
            fleet_ratios[name].append(round((plan[1] + flight[1]) / (plan[0] + flight[0]), 4))
            if ticks[0]:
                fleet_flight_ratios[name].append(round(flight[1] / flight[0], 4))
            for k in (0, 1):
                round_total[k] += plan[k] + flight[k]
                round_flight[k] += flight[k]
                tick_ms[k] += [t * 1000 for t in ticks[k]]
        round_ratios.append(round(round_total[1] / round_total[0], 4))
        for kind, (a, b) in round_plan.items():
            plan_ratios[kind].append(round(b / a, 4))
        if round_flight[0]:
            round_flight_ratios.append(round(round_flight[1] / round_flight[0], 4))
            flight_by_order[rnd % 2].append(round_flight_ratios[-1])
        gc.unfreeze()
        gc.collect()
    order_medians = [statistics.median(xs) if xs else None for xs in flight_by_order]
    both = [m for m in order_medians if m is not None]
    ticks_of = [
        {"n": len(ms), "p50": round(statistics.median(ms), 5), "tail": round(tail(ms), 5)}
        if ms else {"n": 0} for ms in tick_ms
    ]
    print(json.dumps({
        "a": args.src_a, "b": args.src_b, "workload": args.workload,
        "fleets": len(scenarios), "rounds": args.rounds,
        "total_ratio_b_over_a": round_ratios,
        "total_ratio_median": statistics.median(round_ratios),
        "plan_ratio_b_over_a": plan_ratios,
        "plan_ratio_median": {kind: statistics.median(xs) for kind, xs in plan_ratios.items()},
        "flight_ratio_b_over_a": round_flight_ratios,
        "flight_ratio_median_a_first": order_medians[0],
        "flight_ratio_median_b_first": order_medians[1],
        "flight_ratio_geomean": round(statistics.geometric_mean(both), 4) if both else None,
        "a_flight_tick_ms": ticks_of[0],
        "b_flight_tick_ms": ticks_of[1],
        "per_tick_flight_ratio_b_over_a": quartiles([b / a for a, b in zip(*tick_ms)]),
        "per_fleet_ratio_b_over_a": fleet_ratios,
        "per_fleet_flight_ratio_b_over_a": fleet_flight_ratios,
    }))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    scope = parser.add_mutually_exclusive_group()
    scope.add_argument("--size", type=int, choices=sorted(SPECS), default=40)
    scope.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()
    if args.rounds < 1:
        sys.exit(f"error: --rounds must be at least 1, got {args.rounds}")
    scenarios = workload_scenarios(args.workload) if args.workload else None
    packages = [load(args.src_a, "swarmgrid_a"), load(args.src_b, "swarmgrid_b")]
    if args.workload == "baselines":
        baselines_main(args, packages, scenarios)
        return
    # The `--size` mission and the `congested` workload fly with a trace on.
    traced = args.workload in (None, "congested")
    ratios: dict[str, list[float]] = {band: [] for band, _ in BANDS}
    round_ratios = []
    mission_ratios = []
    totals = [0.0, 0.0]
    ticks = 0
    for r in range(args.rounds):
        first = r % 2
        sides = build(packages, args.size, scenarios, traced, (first, 1 - first))
        # Keep the collector off the missions' set-up objects: a full
        # collection walks both sides' objects and lands on whichever
        # side's tick set it off.
        gc.freeze()
        round_total = [0.0, 0.0]
        for pair in zip(*sides):
            n, total = fly(list(pair), first, ratios)
            mission_ratios.append(total[1] / total[0])
            round_total[0] += total[0]
            round_total[1] += total[1]
            ticks += n
        round_ratios.append(round(round_total[1] / round_total[0], 4))
        totals[0] += round_total[0]
        totals[1] += round_total[1]
        # Let the collector free this round's missions before the next.
        del sides, pair
        gc.unfreeze()
        gc.collect()
    ticks //= args.rounds
    tick_ratios = [x for xs in ratios.values() for x in xs]
    flown = (
        {"workload": args.workload} if args.workload
        else {"size": args.size, "drones": SPECS[args.size][0]}
    )
    print(json.dumps({
        "a": args.src_a, "b": args.src_b, **flown,
        "missions": len(mission_ratios) // args.rounds,
        "ticks": ticks, "rounds": args.rounds,
        "a_ms_per_tick": round(totals[0] * 1000 / max(ticks * args.rounds, 1), 4),
        "b_ms_per_tick": round(totals[1] * 1000 / max(ticks * args.rounds, 1), 4),
        "total_ratio_b_over_a": round_ratios,
        "total_ratio_median": statistics.median(round_ratios),
        "per_mission_ratio_b_over_a": quartiles(mission_ratios),
        "per_tick_ratio_b_over_a": {
            "all": quartiles(tick_ratios),
            **{band: quartiles(xs) for band, xs in ratios.items()},
        },
    }))


if __name__ == "__main__":
    main()
