"""Experiment construction, metrics, batches, CSV, scenario files."""

import json
import random
from pathlib import Path

import pytest

from swarmgrid import harness
from swarmgrid.baselines import PlanFailure
from swarmgrid.engine import SimResult, run_mission
from swarmgrid.harness import (
    CSV_COLUMNS,
    EXPERIMENTS,
    ExperimentSpec,
    Metrics,
    PlacementFailure,
    RunRow,
    build_experiment,
    compute_metrics,
    load_scenario,
    route_moves,
    rows_to_csv,
    run_batch,
)
from swarmgrid.world import manhattan


def result_with_routes(routes, collisions=0):
    return SimResult(
        routes=routes,
        collisions=[None] * collisions,
        ticks=max(len(r) for r in routes.values()),
        wall_ms=1.0,
        arrived={i: True for i in routes},
        timed_out=False,
    )


def straight_route(n):
    return [(x, 0, 0) for x in range(n + 1)]


def test_metrics_two_drones():
    res = result_with_routes({0: straight_route(10), 1: straight_route(20)})
    m = compute_metrics(res, 5.0)
    assert m.arl == 15.0
    assert m.llr == 20
    assert m.nc == 0
    assert m.t_ms == 5.0


def test_metrics_single_move_route():
    res = result_with_routes({0: [(0, 0, 0), (1, 0, 0)]})
    m = compute_metrics(res, 0.0)
    assert m.arl == 1.0 and m.llr == 1


def test_route_moves_ignores_hovers():
    route = [(0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 1, 0)]
    assert route_moves(route) == 2


def test_metrics_validation():
    with pytest.raises(ValueError):
        Metrics(arl=5.0, llr=4, nc=0, t_ms=0.0)
    with pytest.raises(ValueError):
        Metrics(arl=1.0, llr=2, nc=-1, t_ms=0.0)


def test_experiment_table_is_frozen():
    assert EXPERIMENTS[1] == ExperimentSpec(1, (10, 10, 10), 20, 20, 20)
    assert EXPERIMENTS[2] == ExperimentSpec(2, (20, 20, 20), 50, 50, 50)
    assert EXPERIMENTS[3] == ExperimentSpec(3, (10, 10, 10), 20, 40, 40)
    assert EXPERIMENTS[4] == ExperimentSpec(4, (20, 20, 20), 100, 50, 50)


def test_build_experiment_placement_rules():
    cfg = build_experiment(EXPERIMENTS[1], seed=3)
    starts = [s for s, _ in cfg.drones]
    dests = [d for _, d in cfg.drones]
    movings = [c for c, _, _ in cfg.moving_obstacles]
    everything = starts + dests + cfg.static_obstacles + movings
    assert len(cfg.drones) == 20
    assert len(cfg.static_obstacles) == 20
    assert len(movings) == 20
    assert len(set(everything)) == len(everything)
    cfg.validate()


def test_build_experiment_too_small():
    with pytest.raises(PlacementFailure):
        build_experiment(ExperimentSpec(9, (2, 2, 2), 20, 0, 0), seed=0)


def test_build_experiment_deterministic():
    a = build_experiment(EXPERIMENTS[3], seed=17)
    b = build_experiment(EXPERIMENTS[3], seed=17)
    assert a.drones == b.drones
    assert a.static_obstacles == b.static_obstacles


def test_arl_never_beats_the_manhattan_lower_bound():
    spec = EXPERIMENTS[1]
    for seed in (0, 1):
        cfg = build_experiment(spec, seed)
        res = run_mission(cfg)
        bound = sum(manhattan(s, d) for s, d in cfg.drones) / len(cfg.drones)
        m = compute_metrics(res, 0.0)
        assert m.arl >= bound


def test_run_batch_single_run_equals_aggregate():
    tiny = ExperimentSpec(8, (6, 6, 6), 3, 2, 2)
    aggregate, rows = run_batch(tiny, "proposed", n_runs=1, base_seed=5)
    assert len(rows) == 1
    assert aggregate.arl == rows[0].metrics.arl
    assert aggregate.llr == rows[0].metrics.llr
    assert aggregate.nc == rows[0].metrics.nc


def test_run_batch_times_the_navigator_by_its_mission_loop(monkeypatch):
    """T_ms of the online navigator is `SimResult.wall_ms`, as `swarmgrid
    run` reports it, not a timer around building the simulation too."""
    def stub(cfg, trace=None):
        result = result_with_routes({0: straight_route(3)})
        result.wall_ms = 42.5
        return result

    monkeypatch.setattr("swarmgrid.harness.run_mission", stub)
    tiny = ExperimentSpec(8, (6, 6, 6), 3, 2, 2)
    aggregate, rows = run_batch(tiny, "proposed", n_runs=2, base_seed=5)
    assert [r.metrics.t_ms for r in rows] == [42.5, 42.5]
    assert aggregate.t_ms == 42.5
    assert rows[0].as_csv()[6] == "42.500"
    assert rows[0].as_csv(deterministic_timing=True)[6] == "0.000"


def test_run_batch_rounds_the_mean_llr_up_to_stay_above_the_mean_arl():
    # Its runs read ARL/LLR 6/6 and 3/3: the mean LLR of 4.5 rounded to the
    # nearest even integer, 4, fell below the mean ARL of 4.5 and the
    # aggregate raised "inconsistent metrics".
    aggregate, rows = run_batch(ExperimentSpec(9, (6, 6, 6), 1, 0, 0), "proposed",
                                n_runs=2, base_seed=1)
    assert [(r.metrics.arl, r.metrics.llr) for r in rows] == [(6.0, 6), (3.0, 3)]
    assert aggregate.arl == 4.5 and aggregate.llr == 5
    assert aggregate.llr >= aggregate.arl


def test_run_batch_leaves_a_failed_plan_out_of_the_aggregate(monkeypatch):
    plan = harness.rrt_plan
    calls = []

    def failing_on_the_second_run(*args, **kwargs):
        calls.append(None)
        # Two drones a run: the third call is the second run's first plan,
        # which plans in full and then fails.
        if len(calls) == 3:
            plan(*args, **kwargs)
            raise PlanFailure("stubbed")
        return plan(*args, **kwargs)

    monkeypatch.setattr(harness, "rrt_plan", failing_on_the_second_run)
    tiny = ExperimentSpec(8, (6, 6, 6), 2, 2, 2)
    aggregate, rows = run_batch(tiny, "rrt", n_runs=3, base_seed=3)
    assert len(calls) == 5
    failed = rows[1]
    assert (failed.metrics, failed.ticks, failed.timed_out) == (None, 0, True)
    # The failed attempt's time is written, except under deterministic timing.
    timed = rows_to_csv(rows).strip().split("\n")[2].split(",")
    assert timed[:6] == ["1", "rrt", "8", "", "", ""] and timed[7:] == ["0", "1"]
    assert float(timed[6]) > 0 and failed.failed_ms > 0
    lines = rows_to_csv(rows, deterministic_timing=True).strip().split("\n")
    assert lines[2].split(",") == ["1", "rrt", "8", "", "", "", "0.000", "0", "1"]
    ok = [rows[0].metrics, rows[2].metrics]
    assert aggregate.arl == (ok[0].arl + ok[1].arl) / 2
    assert aggregate.llr == -(-(ok[0].llr + ok[1].llr) // 2)
    assert aggregate.nc == ok[0].nc + ok[1].nc
    assert aggregate.t_ms == (ok[0].t_ms + ok[1].t_ms) / 2


def test_run_batch_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        run_batch(EXPERIMENTS[1], "a-star", n_runs=1)


def parse_metrics_row(row: list[str]) -> Metrics | None:
    """The metrics of one CSV row, or None for a row without them."""
    if row[3] == "":
        return None
    return Metrics(float(row[3]), int(row[4]), int(row[5]), float(row[6]))


def test_csv_shape_and_round_trip():
    tiny = ExperimentSpec(8, (6, 6, 6), 3, 2, 2)
    _, rows = run_batch(tiny, "proposed", n_runs=3, base_seed=1)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    for row_obj, line in zip(rows, lines[1:]):
        parsed = parse_metrics_row(line.split(","))
        assert parsed.arl == pytest.approx(row_obj.metrics.arl, abs=1e-4)
        assert parsed.llr == row_obj.metrics.llr
        assert parsed.nc == row_obj.metrics.nc


def test_timeout_rows_excluded_from_means():
    good = RunRow(0, "proposed", 1, Metrics(10.0, 12, 0, 1.0), 20, False)
    bad = RunRow(1, "proposed", 1, Metrics(99.0, 120, 5, 1.0), 600, True)
    text = rows_to_csv([good, bad])
    assert text.count("\n") == 3
    assert "1" == text.strip().split("\n")[2].split(",")[-1]  # timeout flag set


def test_deterministic_timing_zeroes_t_column():
    row = RunRow(0, "proposed", 1, Metrics(10.0, 12, 0, 123.4), 20, False)
    assert row.as_csv(deterministic_timing=True)[6] == "0.000"
    assert row.as_csv(deterministic_timing=False)[6] == "123.400"


def test_load_scenario_full_document(tmp_path):
    doc = {
        "dims": [6, 6, 4],
        "seed": 11,
        "drones": [
            {"start": [0, 0, 0], "dest": [5, 5, 3]},
            {"start": [5, 0, 0], "dest": [0, 5, 3]},
        ],
        "static_obstacles": [[2, 2, 2]],
        "moving_obstacles": [{"cell": [3, 3, 0], "cadence": 2, "spawn_tick": 1}],
        "max_ticks": 400,
        "obstacles_avoid_drones": False,
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    cfg = load_scenario(p)
    assert cfg.dims == (6, 6, 4)
    assert cfg.seed == 11
    assert cfg.drones[1] == ((5, 0, 0), (0, 5, 3))
    assert cfg.static_obstacles == [(2, 2, 2)]
    assert cfg.moving_obstacles == [((3, 3, 0), 2, 1)]
    assert cfg.max_ticks == 400
    assert not cfg.obstacles_avoid_drones
    cfg.validate()


def test_load_scenario_defaults(tmp_path):
    doc = {"dims": [5, 5, 5], "drones": [{"start": [0, 0, 0], "dest": [4, 4, 4]}]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    cfg = load_scenario(p)
    assert cfg.seed == 0
    assert cfg.spacing == 10.0
    assert cfg.max_ticks is None


def test_readme_scenario_example_flies(tmp_path):
    """The ```json block under the README's "## Scenario JSON" loads and
    flies, so the documented example cannot drift from the schema."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Scenario JSON\n", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "readme.json"
    p.write_text(example)
    result = run_mission(load_scenario(p))
    assert all(result.arrived.values()) and not result.timed_out


def test_batch_seed_derivation_is_stable():
    tiny = ExperimentSpec(8, (6, 6, 6), 3, 2, 2)
    _, rows_a = run_batch(tiny, "proposed", n_runs=2, base_seed=9)
    _, rows_b = run_batch(tiny, "proposed", n_runs=2, base_seed=9)
    assert rows_to_csv(rows_a, True) == rows_to_csv(rows_b, True)
