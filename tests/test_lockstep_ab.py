"""`scripts/lockstep_ab.py`, the in-process A/B tool, still runs end to end.

One round of each navigator workload (`congested`, `missions` and
`swarm-scale`), a tree against itself, flies each mission on both sides and
compares their trace lines every tick (`congested` flies with a trace on).
One round of `baselines` plans each fleet on both sides, flies it open
loop, times the planning per planner kind and the flights tick by tick.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def lockstep_round(workload: str) -> dict:
    """One round of the workload, this tree against itself; its report."""
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "lockstep_ab.py"), src, src,
         "--workload", workload, "--rounds", "1"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# The missions of one round of each navigator workload.
MISSIONS = {"congested": 6, "missions": 12, "swarm-scale": 1}


@pytest.mark.parametrize("workload", sorted(MISSIONS))
def test_lockstep_navigator_round_runs_and_reports(workload):
    report = lockstep_round(workload)
    assert {
        "a", "b", "workload", "missions", "ticks", "rounds", "a_ms_per_tick", "b_ms_per_tick",
        "total_ratio_b_over_a", "total_ratio_median", "per_mission_ratio_b_over_a",
        "per_tick_ratio_b_over_a",
    } <= report.keys()
    assert report["workload"] == workload and report["rounds"] == 1
    assert report["missions"] == MISSIONS[workload] and report["ticks"] > 0
    assert set(report["per_tick_ratio_b_over_a"]) == {"all", "over_half", "5pct_to_half", "under_5pct"}


def test_lockstep_baselines_round_times_flight_ticks():
    report = lockstep_round("baselines")
    assert report["workload"] == "baselines" and report["rounds"] == 1
    assert report["fleets"] == 7
    # Planning alone, per planner kind: one round's ratio, which is its median.
    plan = report["plan_ratio_b_over_a"]
    assert set(plan) == {"rrt", "rrt-star"}
    assert all(len(r) == 1 and r[0] > 0 for r in plan.values())
    assert report["plan_ratio_median"] == {kind: r[0] for kind, r in plan.items()}
    a, b = report["a_flight_tick_ms"], report["b_flight_tick_ms"]
    # Both sides fly the same fleets, so they time the same ticks.
    assert a["n"] == b["n"] == report["per_tick_flight_ratio_b_over_a"]["n"] > 0
    assert 0 < a["p50"] <= a["tail"] and 0 < b["p50"] <= b["tail"]
    assert len(report["flight_ratio_b_over_a"]) == 1
    # One round flies A first only; the geometric mean is over the orders flown.
    assert report["flight_ratio_median_a_first"] == report["flight_ratio_b_over_a"][0]
    assert report["flight_ratio_median_b_first"] is None
    assert math.isclose(report["flight_ratio_geomean"], report["flight_ratio_median_a_first"],
                        abs_tol=1e-4)
    assert "flight_ratio_median" not in report
    assert all(len(r) == 1 for r in report["per_fleet_flight_ratio_b_over_a"].values())
