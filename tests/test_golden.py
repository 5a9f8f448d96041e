"""Golden digest: routes, collisions, ticks and traces stay byte-identical.

The constant was computed before the ground-truth scan, obstacle detection
and planner neighbour queries were indexed by cell. Any change to what the
navigator or the baselines do changes the digest.
"""

import dataclasses
import hashlib
import random

from swarmgrid.baselines import execute_open_loop, rrt_plan, rrt_star_plan
from swarmgrid.engine import run_mission
from swarmgrid.harness import EXPERIMENTS, build_experiment

GOLDEN_SHA256 = "8266e06d44896c0b71a95333d96547e055c7b0e0a087cfb159e42897366cbd11"


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
    cfg = build_experiment(EXPERIMENTS[1], 0)
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
    return h.hexdigest()


def test_golden_digest_matches():
    assert golden_digest() == GOLDEN_SHA256
