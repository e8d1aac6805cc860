"""Command line interface, exercised in process through main()."""

from __future__ import annotations

import json

import pytest

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

    def test_model_file(self, tmp_path, capsys):
        model = tmp_path / "tank.sfd"
        model.write_text(MINI_MODEL)
        assert main(["simulate", "--model", str(model), "--t-end", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,Level,drain"
        assert lines[-1].startswith("5.000000,0.000000,")


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

    def test_unknown_plot_column_is_2(self, capsys):
        assert main(["plot", "--t-end", "5", "--columns", "NoSuchColumn"]) == 2
        assert "NoSuchColumn" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("sfdsim ")
