"""Command-line entry points."""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import operator
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmgrid.baselines import PlanFailure
from swarmgrid.cli import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_TIMEOUT, main
from swarmgrid.engine import SimConfig, run_mission
from swarmgrid.harness import load_scenario


SCENARIO = {
    "dims": [6, 6, 4],
    "seed": 7,
    "drones": [
        {"start": [0, 0, 0], "dest": [5, 5, 3]},
        {"start": [5, 0, 0], "dest": [0, 5, 3]},
    ],
    "static_obstacles": [[3, 3, 1]],
    "moving_obstacles": [{"cell": [2, 2, 2], "cadence": 3}],
}


@pytest.fixture
def scenario(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(SCENARIO))
    return p


def test_run_scenario(scenario, capsys):
    assert main(["run", "--scenario", str(scenario)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "arrived=2/2" in out
    assert "NC=0" in out


def test_run_writes_trace(scenario, tmp_path):
    trace = tmp_path / "out.trace"
    assert main(["run", "--scenario", str(scenario), "--trace", str(trace)]) == EXIT_OK
    lines = trace.read_text().splitlines()
    assert lines[0] == "# swarmgrid-trace v1"
    assert any(not l.startswith("#") for l in lines)
    # The file holds exactly the engine's trace lines, each ending in "\n".
    emitted: list[str] = []
    run_mission(load_scenario(scenario), trace=emitted.append)
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in emitted)
    assert trace.read_bytes() == "".join(emitted).encode()


def test_run_missing_file_is_config_error(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == EXIT_CONFIG_ERROR
    assert "error" in capsys.readouterr().err


def test_run_invalid_scenario_is_config_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "dims": [6, 6, 4],
        "drones": [
            {"start": [0, 0, 0], "dest": [5, 5, 3]},
            {"start": [0, 0, 0], "dest": [1, 5, 3]},  # duplicate start
        ],
    }))
    assert main(["run", "--scenario", str(p)]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("change", [
    {"detection_radius": 2.5},
    {"detection_radius": -1},
    {"max_ticks": 0},
    {"tick_len_ms": 0},
    {"static_obstacles": [[3, 3.5, 1]]},
    {"dims": [6.5, 6, 4]},
    {"moving_obstacles": [{"cell": [2, 2, 2], "cadence": 2.5}]},
    {"moving_obstacles": [{"cell": [2, 2, 2], "spawn_tick": 1.5}]},
    {"algorithm": "rrt"},
    {"spacing": "10"},
    {"sensing_range": None},
    {"seed": "abc"},
    {"obstacles_avoid_drones": "no"},
    {"backtrack": {"required_steps": 2.5}},
    {"tick_len_ms": float("nan")},
    {"tick_len_ms": float("inf")},
    {"spacing": float("inf"), "sensing_range": float("inf")},
    {"safety": {"max_speed": True}},
    {"safety": {"max_speed": "5"}},
    {"safety": {"comm_latency": float("nan")}},
    {"safety": [1, 2]},
    {"colour": "red"},
    {"drones": [{"start": [0, 0, 0], "dest": [5, 5, 3], "speed": 2}]},
    {"moving_obstacles": [{"cell": [2, 2, 2], "speed": 2}]},
    {"safety": {"top_speed": 5.0}},
    {"backtrack": {"patience": 3}},
    {"dims": 4, "drones": []},
    {"drones": [{"start": 5, "dest": [5, 5, 3]}]},
    {"static_obstacles": 3},
    {"drones": 7},
    {"moving_obstacles": [{"cell": 2}]},
    {"dims": [1, 6, 4]},
    {"dims": [0, 6, 4]},
    {"static_obstacles": [[0, 0, 0]]},  # on drones[0].start
    {"tick_len_ms": 50},
    {"algorithm": "proposed"},
])
def test_run_rejects_bad_settings_in_one_line(scenario, change, capsys):
    doc = json.loads(scenario.read_text())
    doc.update(change)
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert any(key in err for key in _leaf_keys(change)), err


@pytest.mark.parametrize("dims", [[2, 2, 2**20 - 1], [10**6, 10**6, 10**6]])
def test_run_rejects_an_area_past_the_grid_cap_in_one_line(dims, tmp_path, capsys):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"dims": dims, "drones": [{"start": [0, 0, 0], "dest": [1, 1, 1]}]}))
    assert main(["run", "--scenario", str(p)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dims" in err and "2**24" in err, err


def _leaf_keys(value) -> list[str]:
    """The keys of a settings change whose values hold no further object."""
    if isinstance(value, list):
        return [k for item in value for k in _leaf_keys(item)]
    if isinstance(value, dict):
        return [k for key, item in value.items() for k in (_leaf_keys(item) or [key])]
    return []


# Values a mutation puts in place of a field: wrong types, out-of-range
# numbers, bools for ints, non-finite numbers, and containers for scalars.
_HOSTILE = (
    -1, 0, 1, 3, 2.5, 10**6, True, False, None, "5", [], {}, [1, 2, 3], {"x": 1},
    float("nan"), float("inf"), float("-inf"),
)
# Keys a mutation adds to an object: unknown ones, keys that belong at
# another level, and the two removed settings.
_EXTRA_KEYS = ("colour", "cell", "start", "seed", "cadence", "tick_len_ms", "algorithm")
# Every error line names one of these.
_FIELDS = {f.name for f in dataclasses.fields(SimConfig)} | {"scenario"}


def _containers(doc, path=()):
    """The path of every object and array in doc, the root first."""
    if isinstance(doc, (dict, list)):
        yield path
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _containers(value, path + (key,))


# The CLI fixture's document with every optional setting spelled out.
_FULL_SCENARIO = dict(
    SCENARIO,
    spacing=10.0,
    sensing_range=30.0,
    safety={"max_speed": 5.0, "comm_latency": 0.2, "processing_time": 0.5},
    max_ticks=30,
    backtrack={"required_steps": 3, "max_attempts": 10, "hover_threshold": 5, "stall_threshold": 15},
    obstacles_avoid_drones=True,
    detection_radius=2,
)


@st.composite
def _mutated_scenarios(draw):
    """_FULL_SCENARIO after one to three mutations: a value replaced, a key
    or entry deleted, or a key or entry added."""
    doc = copy.deepcopy(_FULL_SCENARIO)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_containers(doc))))
        parent = functools.reduce(operator.getitem, path, doc)
        value = copy.deepcopy(draw(st.sampled_from(_HOSTILE)))
        keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
        kind = draw(st.sampled_from(("replace", "delete", "add")))
        if kind == "add" or not keys:
            if isinstance(parent, dict):
                parent[draw(st.sampled_from(_EXTRA_KEYS))] = value
            else:
                parent.append(value)
        elif kind == "delete":
            del parent[draw(st.sampled_from(keys))]
        else:
            parent[draw(st.sampled_from(keys))] = value
    return doc


def test_mutated_scenarios_fail_in_one_line_or_fly(tmp_path):
    path = tmp_path / "mutated.json"

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_mutated_scenarios(), st.sampled_from(_HOSTILE)))
    def run(doc):
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--scenario", str(path)])
        err = err.getvalue()
        assert code in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_TIMEOUT)
        if code == EXIT_CONFIG_ERROR:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert any(name in err for name in _FIELDS), err
        else:
            assert err == ""

    run()


def test_run_timeout_exit_code(tmp_path):
    p = tmp_path / "slow.json"
    p.write_text(json.dumps({
        "dims": [6, 6, 4],
        "drones": [{"start": [0, 0, 0], "dest": [5, 5, 3]}],
        "max_ticks": 2,
    }))
    assert main(["run", "--scenario", str(p)]) == EXIT_TIMEOUT


def test_experiment_writes_csv(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    code = main([
        "experiment", "--id", "1", "--algorithm", "proposed",
        "--runs", "1", "--seed", "0", "--out", str(out), "--no-timing",
    ])
    assert code == EXIT_OK
    assert "experiment=1" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("run,algorithm,experiment")
    assert len(lines) == 2
    assert lines[1].split(",")[6] == "0.000"  # timing suppressed


def test_replay_prints_grids(scenario, tmp_path, capsys):
    trace = tmp_path / "r.trace"
    main(["run", "--scenario", str(scenario), "--trace", str(trace)])
    capsys.readouterr()
    assert main(["replay", "--trace", str(trace)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "== tick 0 ==" in out
    assert "-- z=" in out


def test_replay_missing_trace(tmp_path, capsys):
    assert main(["replay", "--trace", str(tmp_path / "x.trace")]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("bad, lineno", [
    ("garbage\tline", 4),
    ("0\t0\tnormal\t1\t2", 4),
    ("0\t0\tnormal\tx\t0\t0\tadvance\t0", 4),
    ("# area 6 six 4", 2),
    ("# area 4 4 -4", 2),
    ("# area 4 4 1", 2),
    ("0\t0\tnormal\t0\t0\t0\tadvance\t0", 2),
    ("0\t0\tnormal\t99\t99\t99\tadvance\t0", 4),
    ("0\t0\tnormal\t0\t-1\t0\tadvance\t0", 5),
    ("# area 8 8 8", 5),
], ids=[
    "two-fields", "short-row", "non-int-x", "bad-area-header", "negative-area-dim",
    "area-dim-below-two", "row-before-area-header", "cell-past-the-area", "negative-cell",
    "second-area-header",
])
def test_replay_malformed_trace_names_the_line(scenario, tmp_path, capsys, bad, lineno):
    trace = tmp_path / "r.trace"
    main(["run", "--scenario", str(scenario), "--trace", str(trace)])
    lines = trace.read_text().splitlines()
    lines.insert(lineno - 1, bad)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", "--trace", str(trace)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"line {lineno} " in err


def _no_missions(monkeypatch):
    """Make any mission or batch run fail the test: bad input must stop first."""
    def refuse(*args, **kwargs):
        raise AssertionError("a mission ran before the input was checked")
    monkeypatch.setattr("swarmgrid.cli.run_mission", refuse)
    monkeypatch.setattr("swarmgrid.cli.run_batch", refuse)


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_experiment_rejects_a_run_count_below_one(runs, monkeypatch, capsys):
    _no_missions(monkeypatch)
    assert main(["experiment", "--id", "1", "--runs", runs]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--runs" in err


def test_experiment_exits_2_when_every_plan_fails(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise PlanFailure("stubbed")

    monkeypatch.setattr("swarmgrid.harness.rrt_plan", failing)
    out = tmp_path / "exp.csv"
    code = main(["experiment", "--id", "1", "--algorithm", "rrt", "--runs", "2",
                 "--out", str(out)])
    assert code == EXIT_TIMEOUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # Both runs are still written, flagged, with no metrics.
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[3:6] + row[-1:] for row in rows] == [["", "", "", "1"]] * 2


@pytest.mark.parametrize("where", ["missing-dir/exp.csv", "."])
def test_experiment_rejects_an_unwritable_csv_before_running(where, tmp_path, monkeypatch, capsys):
    _no_missions(monkeypatch)
    out = tmp_path / where
    code = main(["experiment", "--id", "1", "--runs", "1", "--out", str(out)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing-dir/out.trace", "."])
def test_run_rejects_an_unwritable_trace_before_running(where, scenario, tmp_path, monkeypatch, capsys):
    _no_missions(monkeypatch)
    trace = tmp_path / where
    code = main(["run", "--scenario", str(scenario), "--trace", str(trace)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    '{"drones": []}',
    '{"dims": 4, "drones": []}',
    '{"dims": [4, 4, 4], "drones": [5]}',
    '{"dims": [4, 4, 4], "drones": [{"start": [0, 0, 0]}]}',
    '[1, 2]',
    '{"dims": [4, 4, 4], "drones": [], "safety": {"max_speed": "fast"}}',
    'not json',
    '[' * 5000,
], ids=["no-dims", "int-dims", "int-drone", "no-dest", "list-document", "str-speed", "not-json",
        "deeply-nested"])
def test_run_rejects_a_malformed_scenario_in_one_line(text, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(text)
    assert main(["run", "--scenario", str(p)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_run_rejects_a_directory_as_scenario(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Every write to this device fails with ENOSPC, as on a full disk.
FULL = "/dev/full"
needs_full = pytest.mark.skipif(not os.path.exists(FULL), reason=f"no {FULL}")

# 20 drones crossing a 10^3 area: a trace longer than one write buffer.
LONG_SCENARIO = {
    "dims": [10, 10, 10],
    "drones": [{"start": [0, i // 4, i % 4], "dest": [9, 9 - i // 4, 9 - i % 4]} for i in range(20)],
}


@needs_full
@pytest.mark.parametrize("doc", [SCENARIO, LONG_SCENARIO], ids=["on-close", "mid-mission"])
def test_run_reports_a_full_disk_in_one_line(doc, tmp_path, capsys):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    emitted: list[str] = []
    run_mission(load_scenario(p), trace=emitted.append)
    # The short trace fails only when the file is closed, the long one when
    # the buffer is flushed during the mission.
    size = sum(map(len, emitted))
    assert (size > io.DEFAULT_BUFFER_SIZE) == (doc is LONG_SCENARIO)
    assert main(["run", "--scenario", str(p), "--trace", FULL]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the trace: ") and err.count("\n") == 1
    assert "[Errno 28]" in err


@needs_full
def test_experiment_reports_a_full_disk_in_one_line(capsys):
    assert main(["experiment", "--id", "1", "--runs", "1", "--out", FULL]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the CSV: ") and err.count("\n") == 1
    assert "[Errno 28]" in err
