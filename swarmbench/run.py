"""swarmgrid benchmark: one workload, one seed, one JSON result line.

    python3 swarmbench/run.py --workload missions --seed 0 --seconds 20 --trace 0

Runs from a checkout without installing the package: it imports swarmgrid
from the `src` directory beside this one. With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates untraced
and traced rounds and reports the per-layer metrics. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# One thread per workload: keep numpy's math libraries from starting more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import random
import re
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

import checks
import tracer as tracing
from scenarios import CADENCE, SPAWN_TICK, WORKLOADS, Op, workload_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
MODULES = ("engine", "cli", "baselines", "cep", "coordination", "avoidance")
clock = time.perf_counter

# On a shared host the same work can run 2x slower, in spells from under a
# second to a minute long. Two fixed kernels, a dict- and tuple-heavy flood
# fill and a numpy nearest-point search, slow in about the same proportion
# as swarmgrid's own code. The run times them every CALIBRATION_INTERVAL_S,
# between ticks and route plans, and scales each end-to-end host time by
# CALIBRATION_REF_MS / (their fastest time among the CALIBRATION_NEIGHBOURS
# timings just before it and those just after). CALIBRATION_REF_MS is the
# kernels' fastest time on the reference host, so values read as host ms
# there.
CALIBRATION_REF_MS = 7.6
CALIBRATION_INTERVAL_S = 0.1
CALIBRATION_NEIGHBOURS = 3
_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
_RNG = random.Random(0)
_POINTS = np.array([[_RNG.randrange(20) for _ in range(3)] for _ in range(500)])


def _flood_fill(n: int = 14) -> int:
    """Breadth of a flood fill over an n^3 grid of tuple cells."""
    seen = {(0, 0, 0): 0}
    todo = [(0, 0, 0)]
    while todo:
        c = todo.pop()
        for d in _STEPS:
            nxt = (c[0] + d[0], c[1] + d[1], c[2] + d[2])
            if 0 <= nxt[0] < n and 0 <= nxt[1] < n and 0 <= nxt[2] < n and nxt not in seen:
                seen[nxt] = seen[c] + 1
                todo.append(nxt)
    return len(seen)


def _nearest_points() -> int:
    """Nearest of 500 grid points to each of 300 of them, one numpy scan each."""
    return sum(int(np.abs(_POINTS - p).sum(axis=1).argmin()) for p in _POINTS[:300])


def calibration_ms() -> float:
    """Host time of both kernels, one after the other.

    The collector is off meanwhile. The kernels free all they allocate, so
    the program's collections fall where they would without them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        _flood_fill()
        _nearest_points()
        return (clock() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """The kernels' times along the run, each stamped with when it ended."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.ms: list[float] = []
        self.spent = 0.0  # seconds spent timing the kernels

    def sample(self) -> None:
        t0 = clock()
        self.ms.append(calibration_ms())
        self.ends.append(clock())
        self.spent += self.ends[-1] - t0

    def due(self) -> None:
        """Sample if CALIBRATION_INTERVAL_S has passed since the last sample."""
        if clock() - self.ends[-1] >= CALIBRATION_INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """The factor for host time spent from start to end: CALIBRATION_REF_MS
        over the fastest of the CALIBRATION_NEIGHBOURS samples before it and
        those after it."""
        n = CALIBRATION_NEIGHBOURS
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.ends, end)
        return CALIBRATION_REF_MS / min(
            self.ms[max(before - n, 0):before] + self.ms[after:after + n])


calibration = Calibration()


# -- inputs -----------------------------------------------------------------

@dataclass
class Prepared:
    op: Op
    cfg: object  # swarmgrid.engine.SimConfig
    area: object  # swarmgrid.world.Area
    scenario_path: Optional[Path] = None
    trace_path: Optional[Path] = None


def prepare(sw: SimpleNamespace, workload: str) -> list[Prepared]:
    """Generate a round's inputs; the congested ones become scenario files."""
    out = []
    for op in workload_ops(workload):
        s = op.scenario
        cfg = sw.engine.SimConfig(
            dims=s.dims,
            drones=list(s.drones),
            static_obstacles=list(s.static_obstacles),
            moving_obstacles=[(c, CADENCE, SPAWN_TICK) for c in s.moving_obstacles],
            seed=s.seed,
            max_ticks=s.max_ticks,
        )
        prep = Prepared(op, cfg, cfg.area())
        if op.kind == "cli":
            stem = OUT / workload / s.label.replace("/", "-")
            stem.parent.mkdir(parents=True, exist_ok=True)
            prep.scenario_path = stem.with_suffix(".json")
            prep.trace_path = stem.with_suffix(".trace")
            prep.scenario_path.write_text(json.dumps(s.to_json()))
        out.append(prep)
    return out


def set_up(workload: str) -> tuple[SimpleNamespace, list[Prepared], float]:
    """Import swarmgrid from this checkout's sources and generate the inputs.

    Done SETUP_REPEATS times, each time importing swarmgrid's modules afresh.
    Returns the last pass's modules and inputs, and the median scaled pass
    time.
    """
    if not (SRC / "swarmgrid" / "__init__.py").is_file():
        raise SystemExit(f"error: no swarmgrid sources at {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    calibration.sample()
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "swarmgrid"]:
            del sys.modules[name]
        t0 = clock()
        sw = SimpleNamespace(**{m: importlib.import_module(f"swarmgrid.{m}") for m in MODULES})
        preps = prepare(sw, workload)
        t1 = clock()
        calibration.sample()
        times.append((t1 - t0) * calibration.scale(t0, t1))
    if not Path(sw.engine.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: swarmgrid imported from {sw.engine.__file__}, not {SRC}")
    return sw, preps, statistics.median(times)


# -- one operation ------------------------------------------------------------

Span = tuple[float, float]  # (start, end) on the host clock, in seconds


@dataclass
class Outcome:
    ms: float  # host time of the op, less the kernels' timings inside it
    ticks: int
    route_moves: list[int]
    problems: list[str]
    failure: Optional[str]  # "timeout" | "plan-failure" | "check" | None
    fingerprint: int
    tick_spans: list[Span] = field(default_factory=list)
    plan_spans: list[Span] = field(default_factory=list)
    actions: Counter = field(default_factory=Counter)
    trace_bytes: int = 0
    span: Span = (0.0, 0.0)  # the whole op; set by run_round

    @property
    def tick_ms(self) -> list[float]:
        return [(b - a) * 1000.0 for a, b in self.tick_spans]

    @property
    def plan_ms(self) -> list[float]:
        return [(b - a) * 1000.0 for a, b in self.plan_spans]


class OpClock:
    """Host time of an op, less the calibration samples taken inside it."""

    def __init__(self) -> None:
        self.start, self.spent = clock(), calibration.spent

    def ms(self) -> float:
        return (clock() - self.start - (calibration.spent - self.spent)) * 1000.0


class TickClock:
    """Per-tick host time, taken at tick boundaries from outside the program.

    The navigator's ticks are `Simulation.run_tick` calls. An open-loop
    flight's ticks end where `execute_open_loop` calls its collision scan,
    so each is timed from the previous scan's return.
    """

    def __init__(self, sw: SimpleNamespace) -> None:
        self.spans: list[Span] = []
        self.stamps: list[float] = []
        self.patches = tracing.Patches()
        self.patches.patch(sw.engine.Simulation, "run_tick", self._timed)
        self.patches.patch(sw.baselines, "detect_collisions_ground_truth", self._stamped)

    def _timed(self, fn: Callable) -> Callable:
        spans, due = self.spans, calibration.due

        def run_tick(sim):
            due()
            t0 = clock()
            try:
                return fn(sim)
            finally:
                spans.append((t0, clock()))
        return run_tick

    def _stamped(self, fn: Callable) -> Callable:
        stamps = self.stamps

        def scan(*args, **kwargs):
            result = fn(*args, **kwargs)
            stamps.append(clock())
            return result
        return scan

    def take(self, flight_start: Optional[float] = None) -> list[Span]:
        """Tick spans since the last take; open-loop ones if flight_start is set."""
        if flight_start is not None:
            edges = [flight_start] + self.stamps
            out = list(zip(edges, edges[1:]))
        else:
            out = self.spans[:]
        self.spans.clear()
        self.stamps.clear()
        return out


def _route_fingerprint(ticks: int, routes) -> int:
    return hash((ticks, tuple(tuple(r) for r in routes)))


def fly_mission(sw, prep: Prepared, ticks_clock: Optional[TickClock], traced: bool) -> Outcome:
    """One navigator mission through `run_mission`."""
    lines: list[str] = []
    op = OpClock()
    result = sw.engine.run_mission(prep.cfg, trace=lines.append if traced else None)
    ms = op.ms()
    actions = Counter(line.rsplit("\t", 2)[1] for line in lines if line[0] != "#")
    s = prep.op.scenario
    routes = [result.routes.get(i, []) for i in range(len(s.drones))]
    arrived = [result.arrived.get(i, False) for i in range(len(s.drones))]
    problems = checks.navigator_problems(
        s, routes, arrived, result.ticks, result.timed_out, len(result.collisions))
    return Outcome(
        ms=ms,
        ticks=result.ticks,
        route_moves=[checks.moves(r) for r in routes],
        problems=problems,
        failure="check" if problems else ("timeout" if result.timed_out else None),
        fingerprint=_route_fingerprint(result.ticks, routes),
        tick_spans=ticks_clock.take() if ticks_clock else [],
        actions=actions,
    )


_SUMMARY = re.compile(r"ticks=(\d+) arrived=(\d+)/(\d+)\nARL=\S+ LLR=\d+ NC=(\d+) ")


def fly_cli(sw, prep: Prepared, ticks_clock: Optional[TickClock], traced: bool) -> Outcome:
    """One mission through `swarmgrid run --scenario ... --trace ...`, in-process."""
    argv = ["run", "--scenario", str(prep.scenario_path), "--trace", str(prep.trace_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    op = OpClock()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = sw.cli.main(argv)
    ms = op.ms()
    tick_spans = ticks_clock.take() if ticks_clock else []
    s = prep.op.scenario
    text = prep.trace_path.read_text()
    problems: list[str] = []
    summary = _SUMMARY.search(stdout.getvalue())
    try:
        trace = checks.parse_trace(text, len(s.drones))
    except checks.TraceError as exc:
        trace = None
        problems.append(f"trace: {exc}")
    if summary is None or code not in (0, 2) or trace is None:
        problems.append(f"exit code {code}, output {stdout.getvalue()!r} {stderr.getvalue()!r}")
        return Outcome(ms, 0, [], problems, "check", hash(text), tick_spans)
    ticks = len(trace.cells_by_tick)
    routes = [
        [start] + [cells[i] for cells in trace.cells_by_tick]
        for i, (start, _) in enumerate(s.drones)
    ]
    arrived = [r[-1] == dest for r, (_, dest) in zip(routes, s.drones)]
    timed_out = code == 2
    reported_ticks, reported_arrived, _, nc = (int(v) for v in summary.groups())
    if (reported_ticks, reported_arrived) != (ticks, sum(arrived)):
        problems.append(
            f"summary says {reported_ticks} ticks, {reported_arrived} arrived; "
            f"trace has {ticks} ticks, {sum(arrived)} arrived")
    if timed_out and ticks != prep.cfg.effective_max_ticks():
        problems.append(f"exit code 2 after {ticks} ticks")
    problems += checks.navigator_problems(s, routes, arrived, ticks, timed_out, nc)
    return Outcome(
        ms=ms,
        ticks=ticks,
        route_moves=[checks.moves(r) for r in routes],
        problems=problems,
        failure="check" if problems else ("timeout" if timed_out else None),
        fingerprint=hash(text),
        tick_spans=tick_spans,
        actions=trace.actions,
        trace_bytes=prep.trace_path.stat().st_size,
    )


def fly_baseline(sw, prep: Prepared, ticks_clock: Optional[TickClock], traced: bool) -> Outcome:
    """Plan every drone's route with RRT or RRT*, then fly the fleet open loop."""
    s = prep.op.scenario
    bl = sw.baselines
    planner = bl.rrt_plan if prep.op.kind == "rrt" else bl.rrt_star_plan
    statics = list(s.static_obstacles)
    rng = random.Random(s.seed)
    plan_spans: list[Span] = []
    routes = []
    op = OpClock()
    try:
        for start, dest in s.drones:
            calibration.due()
            t = clock()
            routes.append(planner(start, dest, statics, prep.area, rng))
            plan_spans.append((t, clock()))
    except bl.PlanFailure as exc:
        return Outcome(op.ms(), 0, [], [], "plan-failure", hash(str(exc)),
                       plan_spans=plan_spans)
    calibration.due()
    flight_start = clock()
    result = bl.execute_open_loop(dict(enumerate(routes)), prep.cfg)
    ms = op.ms()
    problems = checks.baseline_problems(s, routes, [(c.kind, c.ids) for c in result.collisions])
    if result.ticks != max(len(r) - 1 for r in routes):
        problems.append(f"open-loop flight took {result.ticks} ticks")
    return Outcome(
        ms=ms,
        ticks=result.ticks,
        route_moves=[checks.moves(r) for r in routes],
        problems=problems,
        failure="check" if problems else None,
        fingerprint=_route_fingerprint(result.ticks, routes),
        tick_spans=ticks_clock.take(flight_start) if ticks_clock else [],
        plan_spans=plan_spans,
    )


FLY = {"mission": fly_mission, "cli": fly_cli, "rrt": fly_baseline, "rrt-star": fly_baseline}


# -- rounds -------------------------------------------------------------------

@dataclass
class Round:
    traced: bool
    outcomes: list[Outcome]  # in canonical op order

    @property
    def wall_ms(self) -> float:
        return sum(o.ms for o in self.outcomes)


def run_round(sw, preps: list[Prepared], order: list[int], tracer: Optional[tracing.Tracer]) -> Round:
    if tracer is not None:
        ticks_clock, patches = None, tracing.install(tracer, sw)
    else:
        ticks_clock = TickClock(sw)
        patches = ticks_clock.patches
    outcomes: dict[int, Outcome] = {}
    calibration.sample()  # each op's last sample is also the next op's first
    try:
        for i in order:
            prep = preps[i]
            # Each op starts from the same collector state, so the cyclic
            # collections inside it fall at the same allocations every round
            # and never scan the benchmark's own objects.
            gc.collect()
            gc.freeze()
            start = clock()
            try:
                outcomes[i] = FLY[prep.op.kind](sw, prep, ticks_clock, tracer is not None)
            except Exception as exc:  # the program raised: a wrong output, not a crash of the run
                problem = f"raised {type(exc).__name__}: {exc}"
                outcomes[i] = Outcome(0.0, 0, [], [problem], "check", hash(problem))
            outcomes[i].span = (start, clock())
            calibration.sample()
    finally:
        patches.undo()
    return Round(tracer is not None, [outcomes[i] for i in range(len(preps))])


# -- metrics ------------------------------------------------------------------

def p50(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def tail(samples: list[float]) -> float:
    """The highest sample value with at least ten samples beyond it."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(len(ordered) - 11, 0)]


def fastest_ms(rounds: list[Round]) -> list[float]:
    """Each op's host time, the fastest of its rounds.

    Every round repeats the same deterministic work, so the fastest repeat
    is the one least slowed by other load on the machine.
    """
    return [min(r.outcomes[i].ms for r in rounds) for i in range(len(rounds[0].outcomes))]


def fastest_samples(rounds: list[Round], attr: str) -> list[list[float]]:
    """Per op, the fastest of its rounds for each tick or route sample."""
    return [
        [min(vs) for vs in zip(*(getattr(r.outcomes[i], attr) for r in rounds))]
        for i in range(len(rounds[0].outcomes))
    ]


def composed_ms(rounds: list[Round]) -> list[float]:
    """Each op's host time, with every part at its fastest round.

    The parts are the op's ticks, its route plans, and the rest of its time
    (set-up, scenario load, trace write). A short part's fastest repeat
    dodges the host's bursts of other load far more often than a whole op's.
    """
    samples = [a + b for a, b in zip(fastest_samples(rounds, "tick_ms"),
                                     fastest_samples(rounds, "plan_ms"))]
    rest = [
        min(o.ms - sum(o.tick_ms) - sum(o.plan_ms) for o in (r.outcomes[i] for r in rounds))
        for i in range(len(rounds[0].outcomes))
    ]
    return [sum(parts) + r for parts, r in zip(samples, rest)]


@dataclass
class Timing:
    """One op's host times in one round, scaled to the reference host's speed."""

    ms: float
    tick_ms: list[float]
    plan_ms: list[float]


def scaled(o: Outcome) -> Timing:
    """Each tick and route plan scaled by the samples around it; the rest of
    the op by those around the whole op."""
    scale = calibration.scale
    ticks = [(b - a) * 1000.0 * scale(a, b) for a, b in o.tick_spans]
    plans = [(b - a) * 1000.0 * scale(a, b) for a, b in o.plan_spans]
    rest = (o.ms - sum(o.tick_ms) - sum(o.plan_ms)) * scale(*o.span)
    return Timing(sum(ticks) + sum(plans) + rest, ticks, plans)


def end_to_end(rounds: list[Round], setup_s: float) -> dict[str, float]:
    first = rounds[0].outcomes
    rounds = [Round(r.traced, [scaled(o) for o in r.outcomes]) for r in rounds]
    op_ms = composed_ms(rounds)
    ticks = [t for op in fastest_samples(rounds, "tick_ms") for t in op]
    drone_ticks = sum(len(o.route_moves) * o.ticks for o in first)
    moves = [m for o in first for m in o.route_moves]
    return {
        "setup_s": setup_s,
        "mission_ms.p50": p50(op_ms),
        "tick_ms.p50": p50(ticks),
        "tick_ms.tail": tail(ticks),
        "drone_ticks_per_s": drone_ticks / (sum(op_ms) / 1000.0),
        "sim_ticks": sum(o.ticks for o in first),
        "route_moves_mean": statistics.fmean(moves) if moves else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


LAYER_MODULES = ("engine", "cep", "entities", "avoidance", "coordination", "cli", "baselines")


def per_layer(rounds: list[Round], preps: list[Prepared], tr: tracing.Tracer) -> dict[str, float]:
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    n = len(traced)
    total, own = tr.self_times()
    counts = tr.counts
    wall = sum(r.wall_ms for r in traced) / n

    def ms(name: str) -> float:
        return total.get(name, 0.0) * 1000.0 / n

    def self_ms(name: str) -> float:
        return own.get(name, 0.0) * 1000.0 / n

    def per_round(key: str) -> float:
        return counts[key] / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def plan_ms(rs: list[Round], kind: str) -> list[float]:
        return [
            v for op, prep in zip(fastest_samples(rs, "plan_ms"), preps)
            if prep.op.kind == kind for v in op
        ]

    actions: Counter = Counter()
    for r in traced:
        for o in r.outcomes:
            actions.update(o.actions)
    decisions = sum(actions.values()) - actions["parked"]
    m = {
        "engine.run_tick.self_ms": self_ms("engine.run_tick"),
        "engine.run_tick.calls": per_round("engine.run_tick.calls"),
        "engine.scan.ms": ms("engine.scan"),
        "engine.scan.calls": per_round("engine.scan.calls"),
        "engine.scan.records": per_round("engine.scan.records"),
        "engine.clearance_margin.ms": ms("engine.clearance_margin"),
    }
    for action in checks.ACTIONS:
        m[f"engine.actions.{action}"] = actions[action] / n
    m["engine.advance_ratio"] = ratio(actions["advance"], decisions)
    m.update({
        "cep.ingest.ms": ms("cep.ingest"),
        "cep.ingest.calls": per_round("cep.ingest.calls"),
        "cep.matches": per_round("cep.matches"),
        "entities.step_moving_obstacle.ms": ms("entities.step_moving_obstacle"),
        "entities.step_moving_obstacle.calls": per_round("entities.step_moving_obstacle.calls"),
        "entities.record_move.calls": per_round("entities.record_move.calls"),
        "avoidance.avoid.calls": per_round("avoidance.avoid.calls"),
        "avoidance.avoid.ms": ms("avoidance.avoid"),
        "avoidance.backtrack_step.calls": per_round("avoidance.backtrack_step.calls"),
        "avoidance.backtrack_step.moved_ratio": ratio(
            counts["avoidance.backtrack_step.moved"], counts["avoidance.backtrack_step.calls"]),
        "coordination.try_acquire.calls": per_round("coordination.try_acquire.calls"),
        "coordination.try_acquire.denied": per_round("coordination.try_acquire.denied"),
        "coordination.try_acquire.ms": ms("coordination.try_acquire"),
        "coordination.release.calls": per_round("coordination.release.calls"),
        "world.neighbors.calls": per_round("world.neighbors.calls"),
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.trace_bytes": sum(o.trace_bytes for r in traced for o in r.outcomes) / n,
        "baselines.nearest.ms": ms("baselines.nearest"),
        "baselines.nearest.calls": per_round("baselines.nearest.calls"),
        "baselines.within.ms": ms("baselines.within"),
        "baselines.within.calls": per_round("baselines.within.calls"),
        "baselines.straight_edge.calls": per_round("baselines.straight_edge.calls"),
        "baselines.straight_edge.ok_ratio": ratio(
            counts["baselines.straight_edge.ok"], counts["baselines.straight_edge.calls"]),
        "baselines.straight_edge.ms": ms("baselines.straight_edge"),
        "baselines.samples": per_round("baselines.samples.calls"),
        "baselines.tree_nodes": per_round("baselines.tree_nodes.calls"),
        "baselines.propagate_cost.ms": ms("baselines.propagate_cost"),
        "baselines.execute_open_loop.self_ms": self_ms("baselines.execute_open_loop"),
    })
    rrt_star_moves = [
        v for o, prep in zip(plain[0].outcomes, preps)
        if prep.op.kind == "rrt-star" for v in o.route_moves
    ]
    m.update({
        "rrt_plan_ms.p50": p50(plan_ms(plain, "rrt")),
        "rrt_star_plan_ms.p50": p50(plan_ms(plain, "rrt-star")),
        "rrt_star_plan_ms.tail": tail(plan_ms(plain, "rrt-star")),
        "rrt_star_route_moves_mean": statistics.fmean(rrt_star_moves) if rrt_star_moves else 0.0,
        "trace.overhead.mission_ms.p50": p50(fastest_ms(traced)) - p50(fastest_ms(plain)),
        "trace.overhead.rrt_star_plan_ms.p50": (
            p50(plan_ms(traced, "rrt-star")) - p50(plan_ms(plain, "rrt-star"))),
        "trace.wall_ms": wall,
        "trace.uncovered_share": ratio(wall - sum(own.values()) * 1000.0 / n, wall),
    })
    for module in LAYER_MODULES:
        layer_ms = sum(v for k, v in own.items() if k.split(".")[0] == module) * 1000.0 / n
        m[f"share.{module}"] = ratio(layer_ms, wall)
    return m


# -- main ---------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders each round's operations; the inputs are fixed per workload")
    parser.add_argument("--seconds", type=float, required=True,
                        help="start rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sw, preps, setup_s = set_up(args.workload)

    order_rng = random.Random(args.seed)
    tr = tracing.Tracer() if args.trace else None
    rounds: list[Round] = []
    start = clock()
    while True:
        order = list(range(len(preps)))
        order_rng.shuffle(order)
        traced = tr is not None and len(rounds) % 2 == 1
        rounds.append(run_round(sw, preps, order, tr if traced else None))
        if clock() - start >= args.seconds and (tr is None or len(rounds) >= 2):
            break

    wrong = [(preps[i].op.scenario.label, p) for r in rounds
             for i, o in enumerate(r.outcomes) for p in o.problems]
    for i, prep in enumerate(preps):
        if len({r.outcomes[i].fingerprint for r in rounds}) > 1:
            wrong.append((prep.op.scenario.label, "output differs between rounds"))
    for label, problem in wrong[:20]:
        print(f"check failed: {label}: {problem}", file=sys.stderr)
    # Every round repeats the same ops, so attempted and failed count one
    # round's ops, each failed if it failed in any round: the same counts
    # however many rounds fit in --seconds.
    failures = [{r.outcomes[i].failure for r in rounds} - {None} for i in range(len(preps))]
    for prep, kinds in zip(preps, failures):
        if kinds - {"check"}:
            print(f"failed op: {prep.op.scenario.label} ({', '.join(sorted(kinds))})",
                  file=sys.stderr)

    if tr is None:
        values, declared = end_to_end(rounds, setup_s), spec["end_to_end"]
    else:
        values, declared = per_layer(rounds, preps, tr), spec["per_layer"]
        tr.write(OUT / f"spans-{args.workload}")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    for name, v in metrics.items():
        print(f"{name:42s} {v['value']:14.6g} {v['unit']}")
    print(f"rounds={len(rounds)} ops/round={len(preps)} calibration samples="
          f"{len(calibration.ms)} at {min(calibration.ms):.3f}..{max(calibration.ms):.3f} ms")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(preps),
        "failed": sum(1 for kinds in failures if kinds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
