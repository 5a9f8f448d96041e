"""Command-line interface: run a scenario, run an experiment batch, replay a trace."""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .engine import ConfigError, run_mission
from .harness import (
    ALGORITHMS,
    EXPERIMENTS,
    compute_metrics,
    load_scenario,
    rows_to_csv,
    run_batch,
)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_TIMEOUT = 2


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_scenario(Path(args.scenario))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    trace_file = None
    trace_fn = None
    if args.trace:
        try:
            trace_file = open(args.trace, "w")
        except OSError as exc:
            print(f"error: cannot write the trace: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        # Every trace line ends in "\n", so the file's own write writes it.
        trace_fn = trace_file.write
    # A full disk fails a write mid-mission or the flush on closing.
    try:
        with trace_file or contextlib.nullcontext():
            result = run_mission(cfg, trace=trace_fn)
    except OSError as exc:
        print(f"error: cannot write the trace: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    metrics = compute_metrics(result, result.wall_ms)
    print(f"ticks={result.ticks} arrived={sum(result.arrived.values())}/{len(result.arrived)}")
    print(f"ARL={metrics.arl:.2f} LLR={metrics.llr} NC={metrics.nc} T_ms={metrics.t_ms:.1f}")
    return EXIT_TIMEOUT if result.timed_out else EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = EXPERIMENTS[args.id]
    if args.runs < 1:
        print(f"error: --runs must be at least 1, got {args.runs}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    # Open the CSV before the batch, so an unwritable path fails before any run.
    out_file = None
    if args.out:
        try:
            out_file = open(args.out, "w")
        except OSError as exc:
            print(f"error: cannot write the CSV: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    try:
        with out_file or contextlib.nullcontext():
            aggregate, rows = run_batch(
                spec, args.algorithm, n_runs=args.runs, base_seed=args.seed
            )
            if out_file:
                out_file.write(rows_to_csv(rows, deterministic_timing=args.no_timing))
    except OSError as exc:
        print(f"error: cannot write the CSV: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if aggregate is None:
        print("error: every run timed out or failed to plan", file=sys.stderr)
        return EXIT_TIMEOUT
    print(
        f"experiment={spec.id} algorithm={args.algorithm} runs={args.runs} "
        f"ARL={aggregate.arl:.2f} LLR={aggregate.llr} NC={aggregate.nc} "
        f"T_ms={aggregate.t_ms:.1f}"
    )
    if any(r.timed_out for r in rows):
        return EXIT_TIMEOUT
    return EXIT_OK


def _parse_trace(lines: list[str]) -> tuple[tuple[int, ...], dict[int, dict[int, tuple]]]:
    """The area dims and each tick's drone cells of a v1 trace. Raises
    ValueError naming the first line that is malformed (the area header
    needs three ints of at least 2), a second area header, or a row before
    the area header or outside the area."""
    dims = None
    ticks: dict[int, dict[int, tuple]] = {}
    for lineno, line in enumerate(lines, 1):
        if dims is not None and line.startswith("# area"):
            raise ValueError(f"line {lineno} is a second area header: {line!r}")
        try:
            if line.startswith("# area"):
                dims = tuple(int(v) for v in line.split()[2:])
                if len(dims) != 3 or min(dims) < 2:
                    raise ValueError
                continue
            if line.startswith("#") or not line.strip():
                continue
            tick, drone, _mode, x, y, z, _action, _npred = line.split("\t")
            cell = (int(x), int(y), int(z))
            tick, drone = int(tick), int(drone)
        except ValueError:
            raise ValueError(f"line {lineno} is malformed: {line!r}") from None
        if dims is None:
            raise ValueError(f"line {lineno} comes before the area header: {line!r}")
        if not all(0 <= c < n for c, n in zip(cell, dims)):
            raise ValueError(f"line {lineno} holds cell {cell} outside the area {dims}: {line!r}")
        ticks.setdefault(tick, {})[drone] = cell
    if dims is None:
        raise ValueError("trace has no area header")
    return dims, ticks


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        lines = Path(args.trace).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        dims, ticks = _parse_trace(lines)
    except ValueError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    for tick in sorted(ticks):
        print(f"== tick {tick} ==")
        by_layer: dict[int, dict[tuple[int, int], int]] = {}
        for drone, (x, y, z) in ticks[tick].items():
            by_layer.setdefault(z, {})[(x, y)] = drone
        for z in sorted(by_layer):
            print(f"-- z={z} --")
            for y in range(dims[1] - 1, -1, -1):
                row = []
                for x in range(dims[0]):
                    drone = by_layer[z].get((x, y))
                    row.append("." if drone is None else str(drone % 10))
                print("".join(row))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="swarmgrid",
        description="Online collision-free navigation for UAV swarms on a 3D grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--trace", help="write a per-tick trace to this file")
    p_run.set_defaults(func=_cmd_run)

    p_exp = sub.add_parser("experiment", help="run one of the built-in experiments")
    p_exp.add_argument("--id", type=int, choices=sorted(EXPERIMENTS), required=True)
    p_exp.add_argument(
        "--algorithm", choices=ALGORITHMS, default="proposed",
    )
    p_exp.add_argument("--runs", type=int, default=10)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", help="CSV output path")
    p_exp.add_argument(
        "--no-timing", action="store_true",
        help="write T_ms as 0 for byte-reproducible CSV output",
    )
    p_exp.set_defaults(func=_cmd_experiment)

    p_replay = sub.add_parser("replay", help="print ASCII grid slices from a trace")
    p_replay.add_argument("--trace", required=True)
    p_replay.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
