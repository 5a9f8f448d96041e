"""Command-line entry points."""

import json

import pytest

from swarmgrid.cli import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_TIMEOUT, main


@pytest.fixture
def scenario(tmp_path):
    doc = {
        "dims": [6, 6, 4],
        "seed": 7,
        "drones": [
            {"start": [0, 0, 0], "dest": [5, 5, 3]},
            {"start": [5, 0, 0], "dest": [0, 5, 3]},
        ],
        "static_obstacles": [[3, 3, 1]],
        "moving_obstacles": [{"cell": [2, 2, 2], "cadence": 3}],
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
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
])
def test_run_rejects_bad_settings_in_one_line(scenario, change, capsys):
    doc = json.loads(scenario.read_text())
    doc.update(change)
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
], ids=["two-fields", "short-row", "non-int-x", "bad-area-header"])
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
], ids=["no-dims", "int-dims", "int-drone", "no-dest", "list-document", "str-speed", "not-json"])
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
