"""The benchmark's tracer still finds every name it wraps in swarmgrid.

`swarmbench/tracer.install` replaces functions and methods by name and
raises KeyError when one is missing, so a rename in swarmgrid fails here
rather than in the next benchmark run.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

from swarmgrid import avoidance, baselines, cep, cli, coordination, engine

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "swarmbench"))

import tracer as tracing  # noqa: E402

MODULES = SimpleNamespace(
    engine=engine, cli=cli, baselines=baselines, cep=cep,
    coordination=coordination, avoidance=avoidance,
)


def test_tracer_installs_on_swarmgrid_and_undoes():
    originals = (engine.avoid, engine.backtrack_step, coordination.LockTable.try_acquire)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, MODULES)
    try:
        assert engine.avoid is not originals[0]
        cfg = engine.SimConfig(dims=(6, 6, 6), drones=[((0, 0, 0), (5, 5, 5))], seed=1)
        engine.run_mission(cfg)
    finally:
        patches.undo()
    assert (engine.avoid, engine.backtrack_step, coordination.LockTable.try_acquire) == originals
    assert tracer.counts["engine.run_tick.calls"] == 15
    assert tracer.counts["coordination.try_acquire.calls"] == 16
