import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

import compare_artifacts
from compare_artifacts import artifact_differences, artifact_files

from swarmplan import cli, opt_engine
from swarmplan.cli import main
from swarmplan.scenario import GridSpec, ScenarioSpec


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scen") / "two_robots.json"
    ScenarioSpec(
        grid=GridSpec(dims=(3, 3, 1), cell_size=0.5),
        starts=[(0, 0, 0), (2, 0, 0)],
        goals=[(2, 2, 0), (0, 2, 0)],
    ).save(path)
    return str(path)


@pytest.fixture(scope="module")
def planned(scenario_file, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("out"))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["plan", "--scenario", scenario_file, "--out", out,
                     "--iterations", "2", "--jobs", "1"])
    return code, out, buf.getvalue()


class TestPlan:
    def test_exit_code_and_artifacts(self, planned):
        code, out, _ = planned
        assert code == 0
        for name in ["discrete_plan.json", "refine_report.csv", "validation.json"]:
            assert os.path.exists(os.path.join(out, name))
        for sub in ["trajectories", "samples"]:
            files = sorted(os.listdir(os.path.join(out, sub)))
            assert files == ["robot_000.csv", "robot_001.csv"]

    def test_stdout_summary(self, planned):
        _, _, text = planned
        assert "planned 2 robots" in text
        assert "validation ok" in text

    def test_validation_artifact_ok(self, planned):
        _, out, _ = planned
        with open(os.path.join(out, "validation.json")) as f:
            report = json.load(f)
        assert report["ok"] is True
        assert report["min_pair_clearance"] >= 2.0 - 1e-6

    def test_sample_export_header_and_rate(self, planned):
        _, out, _ = planned
        with open(os.path.join(out, "samples", "robot_000.csv")) as f:
            lines = f.read().strip().splitlines()
        assert lines[0] == "t,x,y,z,vx,vy,vz,ax,ay,az"
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        assert ts[0] == 0.0
        assert np.allclose(np.diff(ts), ts[1] - ts[0])
        # 100 Hz default
        assert abs((ts[1] - ts[0]) - 0.01) < 1e-9

    def test_scale_to_accel_limit(self, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "scaled")
        limit = 0.05
        code = main(["plan", "--scenario", scenario_file, "--out", out,
                     "--iterations", "1", "--jobs", "1",
                     "--scale-to-accel-limit", str(limit)])
        assert code == 0
        with open(os.path.join(out, "validation.json")) as f:
            report = json.load(f)
        assert report["ok"] is True
        assert report["peaks"]["accel"] <= limit + 1e-9
        # time dilation keeps one piece layout, so the scaled export
        # validates again to the same report byte for byte
        capsys.readouterr()
        assert main(["validate", "--scenario", scenario_file,
                     "--trajectories", os.path.join(out, "trajectories")]) == 0
        with open(os.path.join(out, "validation.json")) as f:
            assert capsys.readouterr().out == f.read()


class TestJobs:
    def test_artifacts_do_not_depend_on_the_worker_count(self, tmp_path):
        # --jobs is accepted for compatibility and must not change a byte;
        # 5 is more than the scenario has robots
        scenario = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "handover_3.json")
        outs = []
        for jobs in ("1", "2", "5"):
            out = tmp_path / f"jobs{jobs}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["plan", "--scenario", scenario, "--out", str(out), "--jobs", jobs]) == 0
            outs.append(out)
        files = artifact_files(outs[0])
        assert "refine_report.csv" in files and len(files) > 3
        for out in outs[1:]:
            assert artifact_differences(outs[0], out) == []


class TestFreedMemory:
    def test_thresholds_go_to_mallopt(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        cli._keep_freed_memory.__wrapped__()
        # M_TRIM_THRESHOLD to 256 MB, then M_MMAP_THRESHOLD to 32 MB
        assert calls == [(-1, 256 << 20), (-3, 32 << 20)]

    def test_a_library_without_mallopt_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert cli._keep_freed_memory.__wrapped__() is None


class TestCompareArtifacts:
    def test_runs_that_wrote_nothing_do_not_match(self, planned, tmp_path):
        _, out, _ = planned
        empty, missing = tmp_path / "empty", tmp_path / "missing"
        empty.mkdir()
        for a, b in ((empty, empty), (missing, missing), (empty, missing)):
            assert artifact_differences(a, b) == [f"{a} (no files)", f"{b} (no files)"]
            assert compare_artifacts.main([str(a), str(b)]) == 1
        # one run that wrote nothing against one that wrote its artifacts
        differ = artifact_differences(out, empty)
        assert differ[0] == f"{empty} (no files)" and len(differ) == 1 + len(artifact_files(out))
        assert artifact_differences(out, out) == []
        assert compare_artifacts.main([out, out]) == 0


class TestPillars:
    def test_obstacle_rich_scene_plans_and_validates(self, tmp_path, capsys):
        # 64 pillar boxes put more than 64 faces in every corridor
        scenario = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "pillars_6.json")
        out = tmp_path / "pillars"
        assert main(["plan", "--scenario", scenario, "--out", str(out), "--iterations", "2"]) == 0
        with open(out / "validation.json") as f:
            assert json.load(f)["ok"] is True
        with open(out / "refine_report.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert all(row["fallback_count"] == "0" and row["failed_count"] == "0" for row in rows)
        capsys.readouterr()
        assert main(["validate", "--scenario", scenario, "--trajectories", str(out / "trajectories")]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


class TestOracle:
    def test_prints_makespan_and_configs(self, scenario_file, capsys):
        assert main(["oracle", "--scenario", scenario_file]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("optimal makespan: ")
        k = int(lines[0].split(": ")[1])
        assert lines[1].startswith("t=0: ")
        assert len(lines) == k + 2


class TestValidate:
    def test_accepts_planned_output(self, scenario_file, planned, capsys):
        _, out, _ = planned
        code = main(["validate", "--scenario", scenario_file,
                     "--trajectories", os.path.join(out, "trajectories")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

    def test_reproduces_the_plans_report(self, scenario_file, planned, capsys):
        # the CSVs carry the control points the plan validated, so the
        # report comes out byte for byte as validation.json
        _, out, _ = planned
        main(["validate", "--scenario", scenario_file,
              "--trajectories", os.path.join(out, "trajectories")])
        with open(os.path.join(out, "validation.json")) as f:
            assert capsys.readouterr().out == f.read()

    def test_missing_file_rejected(self, scenario_file, planned, tmp_path, capsys):
        _, out, _ = planned
        only_one = tmp_path / "partial"
        only_one.mkdir()
        src = os.path.join(out, "trajectories", "robot_000.csv")
        (only_one / "robot_000.csv").write_bytes(pathlib.Path(src).read_bytes())
        code = main(["validate", "--scenario", scenario_file,
                     "--trajectories", str(only_one)])
        assert code == 1
        assert "expected 2 trajectory files" in capsys.readouterr().err

    def test_shifted_trajectory_rejected(self, scenario_file, planned, tmp_path, capsys):
        _, out, _ = planned
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ["robot_000.csv", "robot_001.csv"]:
            with open(os.path.join(out, "trajectories", name)) as f:
                text = f.read()
            (broken / name).write_text(text)
        # drag robot 1 onto robot 0's column: endpoints no longer match cells
        lines = (broken / "robot_001.csv").read_text().splitlines()
        (broken / "robot_000.csv").write_text("\n".join(lines) + "\n")
        code = main(["validate", "--scenario", scenario_file,
                     "--trajectories", str(broken)])
        assert code == 1
        assert "matches no unused" in capsys.readouterr().err

    def edited_copy(self, out, tmp_path, column, value):
        """The planned trajectories with one value of robot_001.csv's first
        piece replaced."""
        edited = tmp_path / "edited"
        edited.mkdir()
        for name in ["robot_000.csv", "robot_001.csv"]:
            with open(os.path.join(out, "trajectories", name)) as f:
                (edited / name).write_text(f.read())
        lines = (edited / "robot_001.csv").read_text().splitlines()
        row = lines[1].split(",")
        row[column] = value
        lines[1] = ",".join(row)
        (edited / "robot_001.csv").write_text("\n".join(lines) + "\n")
        return edited

    @pytest.mark.parametrize("duration", ["inf", "nan"])
    def test_unreadable_duration_names_the_file(self, scenario_file, planned, tmp_path,
                                                capsys, duration):
        edited = self.edited_copy(planned[1], tmp_path, 0, duration)
        code = main(["validate", "--scenario", scenario_file, "--trajectories", str(edited)])
        assert code == 2
        err = capsys.readouterr().err
        assert "robot_001.csv row 2" in err and "Traceback" not in err

    def test_huge_duration_changes_the_horizon(self, scenario_file, planned, tmp_path,
                                               capsys):
        # the later pieces' 0.25 s round away at the knot 1e308, so
        # robot_001.csv does not make a trajectory
        edited = self.edited_copy(planned[1], tmp_path, 0, "1e308")
        code = main(["validate", "--scenario", scenario_file, "--trajectories", str(edited)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "robot_001.csv" in err[0] and "piece 1 of duration 0.25 ends at its start" in err[0]

    def test_durations_that_differ_at_the_same_horizon_are_rejected(
        self, scenario_file, planned, tmp_path, capsys
    ):
        # robot_001.csv's first two pieces of 0.25 s become 0.125 and
        # 0.375 s: the horizon is kept, the piece layout is not
        edited = self.edited_copy(planned[1], tmp_path, 0, "0.125")
        path = edited / "robot_001.csv"
        lines = path.read_text().splitlines()
        assert lines[2].startswith("0.25,")
        lines[2] = "0.375" + lines[2][len("0.25"):]
        path.write_text("\n".join(lines) + "\n")
        code = main(["validate", "--scenario", scenario_file, "--trajectories", str(edited)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["robot 1 does not share robot 0's piece durations and degree"]

    def test_infinite_horizon_names_the_file(self, scenario_file, planned, tmp_path, capsys):
        # every duration of robot_001.csv is finite, their sum is not
        edited = self.edited_copy(planned[1], tmp_path, 0, "1e308")
        path = edited / "robot_001.csv"
        lines = path.read_text().splitlines()
        lines[1:] = ["1e308" + line[line.index(","):] for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        code = main(["validate", "--scenario", scenario_file, "--trajectories", str(edited)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "robot_001.csv" in err[0] and "horizon inf is not finite" in err[0]

    def test_monomial_format_rejected(self, scenario_file, tmp_path, capsys):
        # the earlier format: per-axis power-basis coefficients cx0..cz9
        old = tmp_path / "old"
        old.mkdir()
        header = ["duration"] + [f"c{a}{m}" for a in "xyz" for m in range(10)]
        for name in ["robot_000.csv", "robot_001.csv"]:
            (old / name).write_text(",".join(header) + "\n" + ",".join(["0.25"] + ["0"] * 30) + "\n")
        code = main(["validate", "--scenario", scenario_file, "--trajectories", str(old)])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed trajectory header" in err and "robot_000.csv" in err
        assert "Traceback" not in err

    def test_nan_coefficient_fails_the_report(self, scenario_file, planned, tmp_path, capsys):
        edited = self.edited_copy(planned[1], tmp_path, 3, "nan")
        code = main(["validate", "--scenario", scenario_file, "--trajectories", str(edited)])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False


def exit_code(argv):
    """main's exit code, also when the argument parser rejects argv."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRejectedNumbers:
    @pytest.mark.parametrize(
        "option, value",
        [
            ("--dt", "inf"),
            ("--dt", "nan"),
            ("--scale-to-accel-limit", "0"),
            ("--scale-to-accel-limit", "nan"),
            ("--sample-rate", "inf"),
            ("--iterations", "-1"),
        ],
    )
    def test_plan_option(self, scenario_file, tmp_path, capsys, option, value):
        out = tmp_path / "o"
        code = exit_code(["plan", "--scenario", scenario_file, "--out", str(out), option, value])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["plan", "validate", "oracle"])
    def test_no_command_takes_dt(self, scenario_file, planned, tmp_path, capsys, command):
        # the scenario's dt sets the time step; validation reads the
        # durations from the CSVs, and the oracle counts grid steps
        argv = [command, "--scenario", scenario_file, "--dt", "7.5"]
        if command == "plan":
            argv += ["--out", str(tmp_path / "o")]
        if command == "validate":
            argv += ["--trajectories", os.path.join(planned[1], "trajectories")]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --dt 7.5" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-0.001"])
    def test_validate_sample_dt(self, scenario_file, planned, capsys, value):
        code = exit_code(["validate", "--scenario", scenario_file, "--trajectories",
                          os.path.join(planned[1], "trajectories"), "--sample-dt", value])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err


class TestFailureModes:
    def test_walled_off_goal_is_infeasible(self, tmp_path, capsys):
        path = tmp_path / "blocked.json"
        ScenarioSpec(
            grid=GridSpec(dims=(3, 3, 1), cell_size=0.5),
            starts=[(0, 0, 0)],
            goals=[(2, 2, 0)],
            obstacles=[(1, 0, 0), (1, 1, 0), (1, 2, 0)],
        ).save(path)
        code = main(["plan", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "infeasible" in capsys.readouterr().err

    def test_ilp_node_budget_exits_with_code_3(self, scenario_file, tmp_path,
                                               monkeypatch, capsys):
        def over_budget(*args, **kwargs):
            raise opt_engine.ILPBudgetExceededError("node limit 3 reached")

        monkeypatch.setattr(opt_engine, "solve_ilp", over_budget)
        code = main(["plan", "--scenario", scenario_file, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "budget exceeded: node limit 3 reached" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change",
        [
            {"starts": [[0, 0, 0], [0, 0, 0]]},
            {"grid": [4, 3, 2]},
            {"starts": 5},
            {"weights": 1.0},
            {"radii": None},
            {"starts": [[[0], 0, 0], [2, 0, 0]]},
            None,
        ],
        ids=[
            "duplicate-starts",
            "grid-is-a-list",
            "starts-is-a-number",
            "weights-is-a-number",
            "radii-is-null",
            "nested-cell-index",
            "missing-file",
        ],
    )
    def test_invalid_scenario_is_rejected(self, tmp_path, capsys, change):
        # every bad input exits 2 with one error line, never a traceback
        path = tmp_path / "bad.json"
        if change is not None:
            path.write_text(json.dumps({
                "grid": {"dims": [3, 3, 1], "cell_size": 0.5},
                "starts": [[0, 0, 0], [2, 0, 0]],
                "goals": [[2, 2, 0], [1, 2, 0]],
                **change,
            }))
        code = main(["plan", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_missing_trajectory_directory_is_rejected(self, scenario_file, tmp_path, capsys):
        code = main(["validate", "--scenario", scenario_file,
                     "--trajectories", str(tmp_path / "missing")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestEntryPoints:
    def test_module_invocation(self, scenario_file):
        proc = subprocess.run(
            [sys.executable, "-m", "swarmplan", "oracle", "--scenario", scenario_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("optimal makespan: ")
