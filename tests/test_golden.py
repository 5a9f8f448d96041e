"""Golden digests: missions and the CEP match stream stay byte-identical.

`GOLDEN_SHA256` covers routes, collisions, ticks and traces. It was computed
before the ground-truth scan, obstacle detection and planner neighbour
queries were indexed by cell. Any change to what the navigator or the
baselines do changes it.

`MATCH_STREAM_SHA256` covers every `WindowStore.ingest` result the engine
produces on fixed missions, in order, with its ingestion time. It was
computed before the on-arrival join moved to int cell keys and one probe
pass, so any change to which rows the CEP emits, or in what order, changes it.

`PLANNER_SHA256` covers the `rrt_plan` and `rrt_star_plan` routes and their
open-loop collisions and ticks on exp1 and exp3 seeds 0-2 and on the first 8
drones of exp2 seed 0. It was computed before the planners' neighbour queries
returned distances and before in-tree samples skipped `nearest()`, so any
change to a route, or to how many draws the planners take from the RNG,
changes it.
"""

import dataclasses
import hashlib
import random

from swarmgrid.baselines import execute_open_loop, rrt_plan, rrt_star_plan
from swarmgrid.cep import WindowStore
from swarmgrid.engine import run_mission
from swarmgrid.harness import EXPERIMENTS, ExperimentSpec, build_experiment

GOLDEN_SHA256 = "8266e06d44896c0b71a95333d96547e055c7b0e0a087cfb159e42897366cbd11"
MATCH_STREAM_SHA256 = "fbf196fcea8fea4028d2a4b47590ed32ebea787bdb81cf06efd6781868652a22"
PLANNER_SHA256 = "54d8f98e549c4348bef3a8fbd14474f5f0364d3f14d3530d610b56e8251f44b1"

# 30 drones in 6^3: every drone sees many stale positions of its neighbours.
CONGESTED = ExperimentSpec(0, (6, 6, 6), 30, 5, 5)


def _mission_parts(cfg) -> list[str]:
    lines: list[str] = []
    result = run_mission(cfg, trace=lines.append)
    return [repr(result.routes), repr(result.collisions), repr(result.ticks), repr(lines)]


def golden_digest() -> str:
    h = hashlib.sha256()
    for exp in (1, 2, 3, 4):
        for seed in (0, 1, 2):
            cfg = build_experiment(EXPERIMENTS[exp], seed)
            for variant in (cfg, dataclasses.replace(cfg, obstacles_avoid_drones=False)):
                for part in _mission_parts(variant):
                    h.update(part.encode())
    _hash_planners(h, build_experiment(EXPERIMENTS[1], 0))
    return h.hexdigest()


def _hash_planners(h, cfg) -> None:
    area = cfg.area()
    for planner in (rrt_plan, rrt_star_plan):
        rng = random.Random(cfg.seed)
        routes = {
            i: planner(start, dest, cfg.static_obstacles, area, rng)
            for i, (start, dest) in enumerate(cfg.drones)
        }
        flown = execute_open_loop(routes, cfg)
        for part in (repr(routes), repr(flown.collisions), repr(flown.ticks)):
            h.update(part.encode())


def test_golden_digest_matches():
    assert golden_digest() == GOLDEN_SHA256


def planner_digest() -> str:
    h = hashlib.sha256()
    for exp in (1, 3):
        for seed in (0, 1, 2):
            _hash_planners(h, build_experiment(EXPERIMENTS[exp], seed))
    cfg = build_experiment(EXPERIMENTS[2], 0)
    _hash_planners(h, dataclasses.replace(cfg, drones=cfg.drones[:8]))
    return h.hexdigest()


def test_planner_digest_matches():
    assert planner_digest() == PLANNER_SHA256


def _stream_missions():
    for seed in (0, 1, 2):
        yield build_experiment(EXPERIMENTS[1], seed)
    yield build_experiment(EXPERIMENTS[3], 0)
    for seed in (0, 1):
        yield dataclasses.replace(build_experiment(CONGESTED, seed), max_ticks=300)


def match_stream_digest(monkeypatch) -> str:
    h = hashlib.sha256()
    ingest = WindowStore.ingest

    def recording(self, event, now_ms):
        matches = ingest(self, event, now_ms)
        rows = [
            (m.kind.value, m.subject_id, m.other_id, m.subject_cell, m.other_cell)
            for m in matches
        ]
        h.update(repr((now_ms, rows)).encode())
        return matches

    monkeypatch.setattr(WindowStore, "ingest", recording)
    for cfg in _stream_missions():
        run_mission(cfg)
    return h.hexdigest()


def test_match_stream_digest_matches(monkeypatch):
    assert match_stream_digest(monkeypatch) == MATCH_STREAM_SHA256
