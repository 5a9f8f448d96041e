"""Layer spans and counters, recorded from outside the program.

The traced mode replaces the public functions of each swarmgrid module with
wrappers, on the object the caller looks them up on: a method on its class,
a function on the module that binds it by name at import time. Spans (name,
start, end, parent) stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace owner.attr by make(original).

        Raises KeyError if owner's own namespace (a module's, or a class's
        without its bases) has no attr, so a wrapper whose target was renamed
        or moved fails the run instead of reporting zeros.
        """
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span and counts `<name>.calls`."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            counts[calls] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so each call counts `<name>.calls`, without a span."""
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: total seconds, and seconds not covered by child spans."""
        n = len(self.starts)
        child = [0.0] * n
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += durations[i]
        for i in range(n):
            name = self.names[self.name_ids[i]]
            total[name] += durations[i]
            own[name] += durations[i] - child[i]
        return total, own

    def write(self, stem: Path) -> None:
        """Write spans as four little-endian binary columns plus a JSON index."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as f:
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(f)
        stem.with_suffix(".json").write_text(json.dumps({
            "spans": len(self.starts),
            "columns": [["name_id", "i"], ["parent", "i"], ["start_s", "d"], ["end_s", "d"]],
            "names": self.names,
            "counts": dict(self.counts),
        }, indent=1))


def install(tracer: Tracer, sw) -> Patches:
    """Wrap every layer the benchmark reports; `sw` holds the swarmgrid modules."""
    engine, baselines, avoidance = sw.engine, sw.baselines, sw.avoidance
    counts = tracer.counts
    patches = Patches()
    patch = patches.patch

    def tally(key: str, test: Callable) -> Callable:
        def on_result(result):
            if test(result):
                counts[key] += 1
        return on_result

    def add_len(key: str) -> Callable:
        def on_result(result):
            counts[key] += len(result)
        return on_result

    sim = engine.Simulation
    patch(sim, "__init__", lambda f: tracer.span("engine.init", f))
    patch(sim, "run", lambda f: tracer.span("engine.run", f))
    patch(sim, "run_tick", lambda f: tracer.span("engine.run_tick", f))
    for module in (engine, baselines):
        patch(module, "detect_collisions_ground_truth", lambda f: tracer.span(
            "engine.scan", f, add_len("engine.scan.records")))
        patch(module, "step_moving_obstacle", lambda f: tracer.span(
            "entities.step_moving_obstacle", f))
    patch(engine, "clearance_margin", lambda f: tracer.span("engine.clearance_margin", f))
    patch(engine, "record_move", lambda f: tracer.counter("entities.record_move", f))
    patch(engine, "avoid", lambda f: tracer.span("avoidance.avoid", f))
    patch(engine, "backtrack_step", lambda f: tracer.span(
        "avoidance.backtrack_step", f,
        tally("avoidance.backtrack_step.moved", lambda r: r is not None)))
    for module in (engine, avoidance):
        patch(module, "neighbors", lambda f: tracer.counter("world.neighbors", f))
    patch(sw.cep.WindowStore, "ingest", lambda f: tracer.span(
        "cep.ingest", f, add_len("cep.matches")))
    locks = sw.coordination.LockTable
    patch(locks, "try_acquire", lambda f: tracer.span(
        "coordination.try_acquire", f,
        tally("coordination.try_acquire.denied", lambda ok: not ok)))
    patch(locks, "release", lambda f: tracer.counter("coordination.release", f))
    patch(sw.cli, "main", lambda f: tracer.span("cli.main", f))

    patch(baselines, "rrt_plan", lambda f: tracer.span("baselines.rrt_plan", f))
    patch(baselines, "rrt_star_plan", lambda f: tracer.span("baselines.rrt_star_plan", f))
    patch(baselines, "execute_open_loop", lambda f: tracer.span(
        "baselines.execute_open_loop", f))
    patch(baselines._NearestIndex, "nearest", lambda f: tracer.span("baselines.nearest", f))
    patch(baselines._NearestIndex, "within", lambda f: tracer.span("baselines.within", f))
    patch(baselines, "_straight_edge", lambda f: tracer.span(
        "baselines.straight_edge", f,
        tally("baselines.straight_edge.ok", lambda r: r is not None)))
    patch(baselines, "_propagate_cost", lambda f: tracer.span(
        "baselines.propagate_cost", f))
    patch(baselines, "_sample", lambda f: tracer.counter("baselines.samples", f))
    patch(baselines.PlannerTree, "add", lambda f: tracer.counter("baselines.tree_nodes", f))
    return patches
