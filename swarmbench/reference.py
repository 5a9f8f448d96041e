"""Regenerate the reference figures in README.md.

    python3 swarmbench/reference.py

Runs run.py with seeds 0-9 on every workload of BENCHMARK.json, for its
run_seconds and one process at a time, then once traced per workload. Prints
markdown tables: each end-to-end metric's median and quartile spread (as a
share of the median) against a third of its bound, every run's value (as
HTML comments), the failed and attempted ops of every run, and the traced
run's non-zero per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def machine() -> str:
    import numpy  # only for its version string
    return (f"{os.cpu_count()} cores (nproc {len(os.sched_getaffinity(0))}), "
            f"Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"{platform.machine()} {platform.system()} {platform.release()}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    print(f"machine: {machine()}\n")
    print("| workload | metric | median | spread | bound | steady |")
    print("|---|---|---|---|---|---|")
    for workload in workloads:
        results = [run(workload, seed, seconds, 0) for seed in range(10)]
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        wrong = sum(1 for r in results if not r["correct"])
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            s = spread(values)
            ok = "yes" if s < m["bound"] / 3 else "NO"
            print(f"| {workload} | {m['name']} | {statistics.median(values):.6g} "
                  f"{m['unit']} | {s:.4f} | {m['bound']} | {ok} |")
            print(f"<!-- {workload} {m['name']}: {' '.join(f'{v:.4g}' for v in values)} -->")
        print(f"| {workload} | failed / attempted | {', '.join(shares)} | | | "
              f"{'yes' if len(shares) == 1 and not wrong else 'NO'} |", flush=True)

    print("\n| workload | per-layer metric | value |")
    print("|---|---|---|")
    for workload in workloads:
        r = run(workload, 0, seconds, 1)
        for m in spec["per_layer"]:
            v = r["metrics"][m["name"]]["value"]
            if v:
                print(f"| {workload} | {m['name']} | {v:.6g} {m['unit']} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
