"""List the swarmgrid functions that the command-line entry points never enter.

    PYTHONPATH=src python3 scripts/reach.py

Under `sys.setprofile`, this calls `swarmgrid.cli.main` in-process for:

- `experiment --id K --algorithm A --runs 1` for every built-in experiment K
  and every algorithm A;
- `run --scenario` on experiment 1's seed-0 mission, written to a temporary
  scenario file with `detection_radius` 1, and with `--trace`;
- `replay --trace` on that trace.

It prints one JSON line: how many functions the package defines, and the
qualified names of those these calls never entered. A function is every
`def` in a module of the loaded `swarmgrid` package, methods and nested
functions included; class bodies, lambdas and comprehensions are left out.
The commands' own output is discarded. The whole run takes about 30 s on a
2-core VM.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path
from types import CodeType

import swarmgrid
from swarmgrid import cli
from swarmgrid.harness import ALGORITHMS, EXPERIMENTS, build_experiment


def _defined() -> dict[tuple[str, str, int], str]:
    """(module, qualname, first line) -> qualified name, for every def in the package."""
    out = {}
    for path in sorted(Path(swarmgrid.__file__).parent.glob("*.py")):
        module = "swarmgrid" if path.stem == "__init__" else f"swarmgrid.{path.stem}"
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            # Class bodies run at import and are not functions.
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                out[module, code.co_qualname, code.co_firstlineno] = f"{module}.{code.co_qualname}"
            stack += [c for c in code.co_consts if isinstance(c, CodeType)]
    return out


def _scenario(path: Path) -> None:
    """Write experiment 1's seed-0 mission as a scenario file, at detection radius 1."""
    cfg = build_experiment(EXPERIMENTS[1], 0)
    doc = {
        "dims": list(cfg.dims),
        "drones": [{"start": list(s), "dest": list(d)} for s, d in cfg.drones],
        "static_obstacles": [list(c) for c in cfg.static_obstacles],
        "moving_obstacles": [
            {"cell": list(c), "cadence": cad, "spawn_tick": sp}
            for c, cad, sp in cfg.moving_obstacles
        ],
        "seed": cfg.seed,
        "detection_radius": 1,
    }
    path.write_text(json.dumps(doc))


def main() -> int:
    entered: set[tuple[str, str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((frame.f_globals.get("__name__"), code.co_qualname, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        scenario, trace = Path(tmp) / "scenario.json", Path(tmp) / "trace.tsv"
        _scenario(scenario)
        commands = [
            ["experiment", "--id", str(k), "--algorithm", a, "--runs", "1"]
            for k in sorted(EXPERIMENTS)
            for a in ALGORITHMS
        ]
        commands += [
            ["run", "--scenario", str(scenario), "--trace", str(trace)],
            ["replay", "--trace", str(trace)],
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in commands:
                sys.setprofile(profile)
                try:
                    cli.main(argv)
                finally:
                    sys.setprofile(None)
    defined = _defined()
    never = sorted(name for key, name in defined.items() if key not in entered)
    print(json.dumps({"functions": len(defined), "never_entered": never}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
