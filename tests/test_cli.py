"""Command line interface, exercised in process through main()."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfdsim
import sfdsim.model
from sfdsim import cli, parse_model, validate_model
from sfdsim.cli import main

MINI_MODEL = """
model Tank {
  param Rate = 2

  stock Level = 10

  flow drain : Level -> = Rate
}
"""


class TestSimulate:
    def test_stdout_csv(self, capsys):
        assert main(["simulate", "--t-end", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("t,AccumulatedVinasse,AccumulatedSludge,TotalCost,")
        assert len(lines) == 1 + 4
        assert lines[1].startswith("0.000000,0.000000,")

    def test_record_every_thins_rows(self, capsys):
        assert main(["simulate", "--t-end", "30", "--record-every", "7"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        times = [float(row.split(",")[0]) for row in lines[1:]]
        assert times == [0.0, 7.0, 14.0, 21.0, 28.0, 30.0]

    def test_files_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        events = tmp_path / "run_events.csv"
        rc = main([
            "simulate", "--t-end", "65",
            "--out", str(out), "--events-out", str(events),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        manifest_path = tmp_path / "run.manifest.json"
        for path in (out, events, manifest_path):
            assert path.exists()
            assert f"wrote {path}" in printed
        assert events.read_text().startswith("t,event,target,amount\n")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "simulate"
        assert manifest["model"]["source"] == "builtin"
        assert manifest["config"]["t_end"] == 65.0
        assert manifest["outputs"] == sorted([str(out), str(events)])
        assert manifest["model"]["parameters"]["Dose"] == 0.0

    def test_events_out_without_out(self, tmp_path, capsys):
        argv = ["simulate", "--t-end", "65"]
        assert main([*argv, "--out", str(tmp_path / "run.csv"),
                     "--events-out", str(tmp_path / "with_out.csv")]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        plain = capsys.readouterr().out
        events = tmp_path / "alone.csv"
        assert main([*argv, "--events-out", str(events)]) == 0
        assert capsys.readouterr().out == plain
        assert events.read_text() == (tmp_path / "with_out.csv").read_text()
        assert events.read_text().count("\n") > 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "alone.csv", "run.csv", "run.manifest.json", "with_out.csv"]

    @pytest.mark.parametrize("out, events_out, named", [
        ("run.csv", "run.csv", "--out and --events-out"),
        ("run.csv", "sub/../run.csv", "--out and --events-out"),
        ("run.csv", "run.manifest.json", "--events-out and the manifest"),
    ])
    def test_outputs_on_one_path_exit_2_before_the_run(self, out, events_out, named, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_simulation", None)  # a run would raise TypeError
        assert main(["simulate", "--t-end", "3", "--out", out, "--events-out", events_out]) == 2
        assert f"error: {named} both name {events_out}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_late_t_start_does_not_walk_earlier_firings(self, tmp_path):
        # The pickups every 30 days from day 30 have fired about 3.3e10
        # times before t_start = 1e12; the first after it is at 1e12 + 20.
        # In a subprocess, so a walk over them fails by timing out.
        src = str(Path(sfdsim.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        events = tmp_path / "events.csv"
        argv = ["simulate", "--t-start", "1e12", "--t-end", "1000000000040",
                "--events-out", str(events)]
        result = subprocess.run(
            [sys.executable, "-c", "import sys; from sfdsim.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("\n") == 1 + 41
        assert events.read_text() == (
            "t,event,target,amount\n"
            "1000000000020.000000,pickup,AccumulatedSludge,2000.000000\n"
            "1000000000020.000000,pickup,TotalCost,70000.000000\n")

    def test_scenario_flag_applies_overrides(self, tmp_path, fixtures_dir):
        out = tmp_path / "dosed.csv"
        rc = main([
            "simulate", "--t-end", "10",
            "--scenario", str(fixtures_dir / "coagulant_addition.scn"),
            "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "dosed.manifest.json").read_text())
        assert manifest["model"]["parameters"]["Dose"] == 30.0
        assert manifest["scenarios"] == ["CoagulantAddition"]

    def test_stacking_later_wins(self, tmp_path, capsys):
        first, second = tmp_path / "a.scn", tmp_path / "b.scn"
        first.write_text("scenario A {\n  set Dose = 10\n  set KEvap = 0.005\n}\n")
        second.write_text("scenario B {\n  set Dose = 20\n}\n")
        assert main(["simulate", "--t-end", "5", "--scenario", str(first),
                     "--scenario", str(second), "--out", str(tmp_path / "run.csv")]) == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["scenarios"] == ["A", "B"]
        assert manifest["model"]["parameters"]["Dose"] == 20.0
        assert manifest["model"]["parameters"]["KEvap"] == 0.005

    def test_model_file(self, tmp_path, capsys):
        model = tmp_path / "tank.sfd"
        model.write_text(MINI_MODEL)
        assert main(["simulate", "--model", str(model), "--t-end", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,Level,drain"
        assert lines[-1].startswith("5.000000,0.000000,")

    def test_long_sums(self, tmp_path, capsys):
        # 250 terms each, past the 200 nested parentheses that Python
        # compiles: the generated code nests none for a chain of sums.
        # `pour` reads only constants, so `bind` computes it.
        model = tmp_path / "long.sfd"
        model.write_text("model Long {\n  stock Level = 0\n  stock Tank = 0\n"
                         "  flow fill : -> Level = t" + " + 1" * 249 + "\n"
                         "  flow pour : -> Tank = 0.5" + " + 0.5" * 249 + "\n}\n")
        assert main(["simulate", "--model", str(model), "--t-end", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,Level,Tank,fill,pour"
        assert lines[-1] == "4.000000,1002.000000,500.000000,253.000000,125.000000"

    def test_long_auxiliary_chain(self, tmp_path, capsys):
        # a0 reads a1, ..., a1199 reads S: the evaluation order is 1200 deep,
        # past the interpreter's recursion limit.
        model = tmp_path / "chain.sfd"
        chain = "".join(f"  aux a{i} = a{i + 1}\n" for i in range(1199))
        model.write_text("model Chain {\n  stock S = 8\n" + chain
                         + "  aux a1199 = S\n  flow out : S -> = 0.5 * a0\n}\n")
        assert main(["simulate", "--model", str(model), "--t-end", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split(",")[:3] == ["t", "S", "out"]
        assert lines[-1].startswith("2.000000,2.000000,1.000000,")


class TestSweep:
    def test_stdout(self, capsys):
        rc = main([
            "sweep", "--param", "Dose", "--values", "0,10,20", "--t-end", "30",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "value,totalCost,peakSludge,saturationDay,finalVinasse,finalSludge"
        assert len(lines) == 1 + 3

    def test_empty_values_rejected(self, capsys):
        assert main(["sweep", "--param", "Dose", "--values", ",", "--t-end", "5"]) == 2


class TestOptimize:
    def test_prints_best(self, capsys):
        rc = main([
            "optimize", "--intervals", "15,30,45",
            "--trucks", "3000,6000", "--counts", "1,2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "best: interval=45 truckKg=6000 trucks=1 "
            "totalCost=9519084.748963 peakSludge=4400.000000"
        )

    def test_writes_ranked_csv(self, tmp_path, capsys):
        out = tmp_path / "policies.csv"
        rc = main([
            "optimize", "--intervals", "30,45", "--trucks", "3000",
            "--counts", "1", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "interval,truckKg,trucks,feasible,totalCost,peakSludge"
        assert len(lines) == 1 + 2
        assert (tmp_path / "policies.manifest.json").exists()

    @pytest.mark.parametrize("flag", ["--intervals", "--trucks", "--counts"])
    def test_empty_axis_exits_2(self, flag, capsys):
        assert main(["optimize", flag, ",", "--t-end", "5"]) == 2
        assert "is empty" in capsys.readouterr().err

    def test_non_finite_sludge_limit_exits_2(self, tmp_path, capsys):
        out = tmp_path / "policies.csv"
        rc = main(["optimize", "--intervals", "30", "--trucks", "3000", "--counts", "1",
                   "--sludge-limit", "nan", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "sludge limit must be finite" in captured.err and captured.out == ""
        assert not out.exists() and not (tmp_path / "policies.manifest.json").exists()

    @pytest.mark.parametrize("intervals, message", [
        ("30,-5", "event 'pickup' has a negative schedule"),
        ("30,nan", "event 'pickup' has a non-finite schedule"),
    ])
    def test_bad_interval_exits_2_before_any_run(self, intervals, message, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sfdsim.scenarios, "run_simulation", None)  # a run would raise
        assert main(["optimize", "--intervals", intervals, "--trucks", "6000",
                     "--counts", "1", "--t-end", "30", "--out", "policies.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_infeasible_grid_exits_4(self, capsys):
        rc = main([
            "optimize", "--intervals", "30", "--trucks", "3000",
            "--counts", "1", "--sludge-limit", "0",
        ])
        assert rc == 4
        assert "no policy" in capsys.readouterr().err


class TestCalibrate:
    def test_recovers_parameter_from_file(self, tmp_path, capsys):
        observed = tmp_path / "observed.csv"
        rc = main([
            "simulate", "--t-end", "240", "--out", str(tmp_path / "truth.csv"),
        ])
        assert rc == 0
        capsys.readouterr()
        truth_rows = (tmp_path / "truth.csv").read_text().strip().split("\n")
        header = truth_rows[0].split(",")
        col = header.index("AccumulatedVinasse")
        lines = ["t,value"]
        for row in truth_rows[1:]:
            parts = row.split(",")
            if float(parts[0]) % 30 == 0 and float(parts[0]) >= 120:
                lines.append(f"{parts[0]},{parts[col]}")
        observed.write_text("\n".join(lines) + "\n")

        out = tmp_path / "fit.json"
        rc = main([
            "calibrate", "--param", "KEvap:0.001:0.01",
            "--column", "AccumulatedVinasse", "--observed", str(observed),
            "--t-end", "240", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert abs(payload["params"]["KEvap"] - 0.004) / 0.004 < 1e-2
        assert payload["sse"] < 1.0
        assert (tmp_path / "fit.manifest.json").exists()

    def test_bad_param_spec_exits_2(self, tmp_path, capsys):
        observed = tmp_path / "obs.csv"
        observed.write_text("t,value\n0,0\n")
        rc = main([
            "calibrate", "--param", "KEvap", "--column", "AccumulatedVinasse",
            "--observed", str(observed),
        ])
        assert rc == 2

    def test_non_finite_observation_exits_2(self, tmp_path, capsys):
        observed = tmp_path / "obs.csv"
        observed.write_text("t,value\n10,500\n20,nan\n30,1500\n")
        out = tmp_path / "fit.json"
        rc = main([
            "calibrate", "--param", "KEvap:0.001:0.01", "--column", "AccumulatedVinasse",
            "--observed", str(observed), "--t-end", "30", "--out", str(out),
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and captured.out == ""
        assert not out.exists() and not (tmp_path / "fit.manifest.json").exists()

    def test_repeated_param_exits_2(self, tmp_path, capsys):
        observed = tmp_path / "obs.csv"
        observed.write_text("t,value\n10,500\n")
        rc = main([
            "calibrate", "--param", "KEvap:0.001:0.01", "--param", "KEvap:0.002:0.02",
            "--column", "AccumulatedVinasse", "--observed", str(observed), "--t-end", "10",
        ])
        assert rc == 2
        assert "parameter 'KEvap' is named twice" in capsys.readouterr().err

    def test_header_after_blank_lines(self, tmp_path, capsys):
        observed = tmp_path / "obs.csv"
        observed.write_text("\nt,value\n1,2\n")
        rc = main([
            "calibrate", "--param", "KEvap:0.001:0.01", "--column", "AccumulatedVinasse",
            "--observed", str(observed), "--t-end", "2", "--max-passes", "1",
        ])
        assert rc == 0, capsys.readouterr().err

    @pytest.mark.parametrize("text", ["t,value\n1,2\n3,4\n", "\n \n\tt,value\n\n1,2\n3,4\n",
                                      "1,2\n3,4\n", "\n1,2\n3,4\n"])
    def test_first_non_blank_row_may_be_a_header(self, tmp_path, text):
        observed = tmp_path / "obs.csv"
        observed.write_text(text)
        assert cli._read_observed(str(observed)) == ((1.0, 3.0), (2.0, 4.0))

    @pytest.mark.parametrize("text, line", [
        ("\nt,value\n1,2\nx,3\n", 4),  # after data
        ("1,2\nt,value\n", 2),  # a header after data
        ("\nt,value\n\ntime,value\n1,2\n", 4),  # a second header
    ])
    def test_non_numeric_row_fails_at_its_own_line(self, tmp_path, text, line):
        observed = tmp_path / "obs.csv"
        observed.write_text(text)
        with pytest.raises(sfdsim.ParseError) as err:
            cli._read_observed(str(observed))
        assert (err.value.message, err.value.line, err.value.column) == (
            "expected numeric 't,value' rows", line, 1)


class TestOutNamesItsManifest:
    # `a.csv` is a symlink to `a.manifest.json`, so the manifest would
    # replace the output it lists. Each command refuses it before a run.
    @pytest.mark.parametrize("argv", [
        ["sweep", "--param", "Dose", "--values", "1,2"],
        ["optimize", "--intervals", "30", "--trucks", "6000", "--counts", "1"],
        ["calibrate", "--param", "KEvap:0.001:0.01", "--column", "AccumulatedVinasse",
         "--observed", "obs.csv"],
    ], ids=["sweep", "optimize", "calibrate"])
    def test_exits_2_before_any_run(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("obs.csv").write_text("t,value\n10,500\n")
        os.symlink("a.manifest.json", "a.csv")
        runs = []
        monkeypatch.setattr(sfdsim.scenarios, "run_simulation",
                            lambda *args: runs.append(args))
        assert main([*argv, "--t-end", "30", "--out", "a.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: --out and the manifest both name a.manifest.json"]
        assert captured.out == "" and runs == []
        assert sorted(os.listdir()) == ["a.csv", "obs.csv"]
        assert not os.path.exists("a.manifest.json")


class TestLintFmt:
    def test_lint_violations_exit_2(self, fixtures_dir, capsys):
        path = fixtures_dir / "lint" / "naming_violations.sfd"
        assert main(["lint", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.count("naming:") == 4
        assert str(path) in out

    def test_lint_clean_exit_0(self, fixtures_dir, capsys):
        assert main(["lint", str(fixtures_dir / "baseline.sfd")]) == 0
        assert capsys.readouterr().out == ""

    def test_fmt_stdout_idempotent(self, fixtures_dir, capsys):
        path = fixtures_dir / "baseline.sfd"
        assert main(["fmt", str(path)]) == 0
        once = capsys.readouterr().out
        assert once.startswith("model ")

    def test_fmt_write_rewrites_file(self, tmp_path, capsys):
        path = tmp_path / "tank.sfd"
        path.write_text(MINI_MODEL)
        assert main(["fmt", str(path), "--write"]) == 0
        first = path.read_text()
        assert main(["fmt", str(path), "--write"]) == 0
        assert path.read_text() == first

    def test_fmt_keeps_the_output_of_a_negative_zero(self, tmp_path, capsys):
        path = tmp_path / "zero.sfd"
        path.write_text("""model Zero {
  param Off = -0
  stock Empty = -0 allow_negative
  aux a = -0
  aux b = Off
  flow drain : Empty -> = a
}
""")
        assert main(["simulate", "--model", str(path), "--t-end", "1"]) == 0
        before = capsys.readouterr().out
        assert before.split("\n")[1] == "0.000000,-0.000000,-0.000000,-0.000000,-0.000000"
        assert main(["fmt", str(path), "--write"]) == 0
        capsys.readouterr()
        assert "  param Off = -0\n" in path.read_text()
        assert main(["simulate", "--model", str(path), "--t-end", "1"]) == 0
        assert capsys.readouterr().out == before

    def test_commands_see_a_rewritten_file(self, tmp_path, capsys):
        path = tmp_path / "tank.sfd"
        path.write_text(MINI_MODEL)
        assert main(["lint", str(path)]) == 0
        assert main(["fmt", str(path)]) == 0
        assert "param Rate = 2\n" in capsys.readouterr().out
        path.write_text(MINI_MODEL.replace("Rate = 2", "Rate = 3").replace("drain", "Drain"))
        assert main(["lint", str(path)]) == 2
        assert "flow 'Drain' should start with a lowercase letter" in capsys.readouterr().out
        assert main(["fmt", str(path)]) == 0
        out = capsys.readouterr().out
        assert "param Rate = 3\n" in out and "flow Drain : Level -> = Rate" in out
        assert main(["simulate", "--model", str(path), "--t-end", "1"]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[:3] == ["t,Level,Drain", "0.000000,10.000000,3.000000",
                             "1.000000,7.000000,3.000000"]


class TestOutputTail:
    """With --out, each command writes its output and then the manifest,
    and prints `wrote <path>` for each of them, the manifest last, after
    what it prints without --out (a CSV on stdout is not printed)."""

    @pytest.mark.parametrize("command, args, extra, keeps_stdout", [
        ("simulate", ["--t-end", "20"], [], False),
        ("simulate", ["--t-end", "65"], ["--events-out", "ev.csv"], False),
        ("sweep", ["--param", "Dose", "--values", "0,10", "--t-end", "20"], [], False),
        ("optimize", ["--intervals", "10,20", "--trucks", "6000", "--counts", "1",
                      "--t-end", "20"], [], True),
        ("calibrate", ["--param", "KEvap:0.001:0.01", "--column", "AccumulatedVinasse",
                       "--observed", "obs.csv", "--max-passes", "1", "--t-end", "20"], [], True),
    ])
    def test_printed_lines(self, command, args, extra, keeps_stdout, tmp_path, monkeypatch,
                           capsys):
        monkeypatch.chdir(tmp_path)
        Path("obs.csv").write_text("t,value\n10,100\n20,200\n")
        assert main([command, *args]) == 0
        plain = capsys.readouterr().out
        assert main([command, *args, *extra, "--out", "result.out"]) == 0
        wrote = "".join(f"wrote {path}\n" for path in ("result.out", *extra[1:],
                                                       "result.manifest.json"))
        assert capsys.readouterr().out == (plain if keeps_stdout else "") + wrote
        manifest = json.loads(Path("result.manifest.json").read_text())
        assert manifest["outputs"] == sorted(["result.out", *extra[1:]])


class TestValidateOnce:
    @pytest.mark.parametrize("command", ["simulate", "sweep", "optimize", "calibrate", "plot"])
    def test_one_validation_per_command(self, command, fixtures_dir, tmp_path, walks, capsys):
        # Each run validates its variant of the model; the variants share
        # one structure, so a command walks its expressions once.
        model = fixtures_dir / "baseline.sfd"
        validate_model(parse_model(model.read_text()))
        once = list(walks)
        assert once
        walks.clear()
        sfdsim.model._last = None
        observed = tmp_path / "observed.csv"
        observed.write_text("t,value\n10,100\n20,200\n")
        args = {
            "simulate": ["--out", str(tmp_path / "run.csv")],
            "sweep": ["--param", "Dose", "--values", "0,10,20"],
            "optimize": ["--intervals", "10,20", "--trucks", "6000", "--counts", "1,2"],
            "calibrate": ["--param", "KEvap:0.001:0.01", "--column", "AccumulatedVinasse",
                          "--observed", str(observed), "--max-passes", "2"],
            "plot": [],
        }[command]
        assert main([command, "--model", str(model),
                     "--scenario", str(fixtures_dir / "coagulant_addition.scn"),
                     "--t-end", "20", *args]) == 0
        assert walks == once


class TestPlot:
    def test_stdout_svg(self, capsys):
        assert main(["plot", "--t-end", "20"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<svg ")
        # Default columns are the stocks.
        assert "AccumulatedVinasse" in out and "TotalCost" in out

    def test_out_file_and_column_selection(self, tmp_path, capsys):
        out = tmp_path / "chart.svg"
        rc = main([
            "plot", "--t-end", "20", "--columns", "temperature",
            "--title", "Pond temperature", "--out", str(out),
        ])
        assert rc == 0
        svg = out.read_text()
        assert "Pond temperature" in svg
        assert svg.count("<polyline") == 1
        assert list(tmp_path.iterdir()) == [out]  # plot writes no manifest


class TestParameterRanges:
    """A value outside its parameter's declared range stops a command with
    exit 2 and one error line naming the parameter, before it writes."""

    @pytest.mark.parametrize("name, value, message", [
        ("PondArea", "-5000", "PondArea: must be > 0, got -5000"),
        ("Dose", "-30", "Dose: must be >= 0, got -30"),
        ("TruckCapacityKg", "-3000", "TruckCapacityKg: must be > 0, got -3000"),
    ])
    def test_scenario_set_exits_2(self, name, value, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("bad.scn").write_text(f"scenario Bad {{\n  set {name} = {value}\n}}\n")
        assert main(["simulate", "--scenario", "bad.scn", "--t-end", "30",
                     "--out", "run.csv", "--events-out", "events.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["bad.scn"]

    def test_sweep_value_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--param", "Dose", "--values=-30,0", "--t-end", "30",
                     "--out", "sweep.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: Dose: must be >= 0, got -30"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_missing_file_is_1(self, capsys):
        assert main(["simulate", "--model", "/no/such/file.sfd"]) == 1
        assert capsys.readouterr().err != ""

    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.sfd"
        bad.write_text("model M {")
        assert main(["simulate", "--model", str(bad)]) == 2

    def test_non_finite_is_3(self, tmp_path, capsys):
        blowup = tmp_path / "blowup.sfd"
        blowup.write_text(
            "model M { stock S = 1 flow f : S -> = S / (S - 1) }"
        )
        assert main(["simulate", "--model", str(blowup), "--t-end", "5"]) == 3
        assert "finite" in capsys.readouterr().err

    def test_bad_config_is_2(self, capsys):
        assert main(["simulate", "--dt", "0"]) == 2

    @pytest.mark.parametrize("horizon", [
        ["--t-end", "1", "--dt", "5e-324"],  # the step count overflows to inf
        ["--t-start=-1e308", "--t-end", "1e308"],  # the span overflows to inf
        ["--dt", "1e-300"],  # finite, but past any list index
    ])
    def test_too_many_steps_is_2(self, horizon, capsys):
        assert main(["simulate", *horizon]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_a_horizon_past_the_step_cap_is_2(self, tmp_path, capsys):
        # An eventless model, so the run would fail at its noise draws'
        # list, not in a long walk of its schedule, if no cap refused it.
        model = tmp_path / "mini.sfd"
        model.write_text(MINI_MODEL)
        assert main(["simulate", "--model", str(model), "--t-end", "1e12"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_a_study_on_a_model_without_the_plant_names_is_2(self, tmp_path, capsys):
        model = tmp_path / "mini.sfd"
        model.write_text(MINI_MODEL)
        assert main(["sweep", "--model", str(model), "--param", "Rate", "--values", "1,2"]) == 2
        assert capsys.readouterr().err == "error: sweep needs column 'TotalCost'\n"

    def test_unknown_plot_column_is_2(self, capsys):
        assert main(["plot", "--t-end", "5", "--columns", "NoSuchColumn"]) == 2
        assert capsys.readouterr().err == "error: no recorded column 'NoSuchColumn'\n"

    def test_a_stray_key_error_is_not_a_usage_error(self, monkeypatch, capsys):
        # Only the package's NotRecordedError, an unknown column or time,
        # exits 2; a KeyError from a bug propagates.
        def broken(*args):
            raise KeyError("not a usage error")

        monkeypatch.setattr(cli, "run_simulation", broken)
        with pytest.raises(KeyError) as err:
            main(["simulate", "--t-end", "5"])
        assert type(err.value) is KeyError
        assert capsys.readouterr().err == ""

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("sfdsim ")


class TestNonDecimalDigits:
    @pytest.mark.parametrize("command", ["fmt", "lint"])
    def test_superscript_value_exits_2_with_position(self, command, tmp_path, capsys):
        path = tmp_path / "sup.sfd"
        path.write_text("model M {\n  param A = \u00b2\n}\n")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 2:13: unexpected character '\u00b2'\n"


@pytest.fixture
def counted_builds(monkeypatch):
    """The parsers built for `main`, counted from an empty cache."""
    built = []
    real = cli.build_parser

    def counting():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    yield built
    cli._parser.cache_clear()


class TestParserReuse:
    def test_one_build_across_commands(self, counted_builds, tmp_path, capsys):
        model = tmp_path / "tank.sfd"
        model.write_text(MINI_MODEL)
        assert main(["simulate", "--model", str(model), "--t-end", "2"]) == 0
        assert main(["lint", str(model)]) == 0
        assert main(["fmt", str(model)]) == 0
        assert main(["sweep", "--param", "Dose", "--values", "0,10", "--t-end", "5"]) == 0
        assert main(["optimize", "--intervals", "30", "--trucks", "3000", "--counts", "1",
                     "--t-end", "40"]) == 0
        assert len(counted_builds) == 1

    def test_no_state_leaks_between_calls(self, counted_builds, tmp_path, fixtures_dir,
                                          capsys):
        scenario = str(fixtures_dir / "coagulant_addition.scn")
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["simulate", "--t-end", "3", "--scenario", scenario,
                     "--out", str(first)]) == 0
        assert main(["simulate", "--t-end", "3", "--out", str(second)]) == 0
        manifests = [json.loads((tmp_path / f"{name}.manifest.json").read_text())
                     for name in ("first", "second")]
        assert [m["scenarios"] for m in manifests] == [["CoagulantAddition"], []]
        assert [m["model"]["parameters"]["Dose"] for m in manifests] == [30.0, 0.0]

        model = tmp_path / "tank.sfd"
        model.write_text(MINI_MODEL)
        assert main(["fmt", str(model), "--write"]) == 0
        formatted = model.read_text()
        capsys.readouterr()
        model.write_text(MINI_MODEL)
        assert main(["fmt", str(model)]) == 0
        assert capsys.readouterr().out == formatted
        assert model.read_text() == MINI_MODEL
        assert len(counted_builds) == 1

    def test_usage_and_version_go_to_the_current_streams(self, counted_builds):
        for _ in range(2):
            err, out = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
                main(["simulate", "--no-such-flag"])
            assert exit_.value.code == 2
            assert err.getvalue().startswith("usage: sfdsim")
            assert "--no-such-flag" in err.getvalue()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
                main(["--version"])
            assert exit_.value.code == 0
            assert out.getvalue() == f"sfdsim {sfdsim.__version__}\n"
        assert len(counted_builds) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_import_builds_no_parser(self):
        src = str(Path(sfdsim.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = "import sfdsim.cli as c; print(c._parser.cache_info().currsize)"
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                text=True, check=True, timeout=60)
        assert result.stdout == "0\n"
