"""`scripts/lockstep_ab.py`, the in-process A/B tool, still runs end to end.

One round of the `congested` workload, a tree against itself, flies each
mission on both sides with a trace on and compares their lines every tick.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lockstep_congested_round_runs_and_reports():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "lockstep_ab.py"), src, src,
         "--workload", "congested", "--rounds", "1"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert {
        "a", "b", "workload", "missions", "ticks", "rounds", "a_ms_per_tick", "b_ms_per_tick",
        "total_ratio_b_over_a", "total_ratio_median", "per_mission_ratio_b_over_a",
        "per_tick_ratio_b_over_a",
    } <= report.keys()
    assert report["workload"] == "congested" and report["rounds"] == 1
    assert report["missions"] == 6 and report["ticks"] > 0
    assert set(report["per_tick_ratio_b_over_a"]) == {"all", "over_half", "5pct_to_half", "under_5pct"}
