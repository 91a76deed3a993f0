import csv
import dataclasses
import json

import numpy as np
import pytest

from transelect import cli, simulate
from transelect.cli import ingest_csv, main
from transelect.errors import DegenerateData, EmptyColumn, ParseError
from transelect.simulate import ScenarioSpec, SweepSpec, analyze_dataset

FAST = ["--burn-in", "300", "--draws", "1000", "--chib-j", "500"]


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestIngestCsv:
    def test_header_and_two_rows(self, tmp_path):
        p = _write(tmp_path / "d.csv", "y\n1.0\n2.5\n")
        np.testing.assert_array_equal(ingest_csv(p, "y"), [1.0, 2.5])

    def test_index_column_without_header(self, tmp_path):
        p = _write(tmp_path / "d.csv", "1.0,9\n2.5,8\n")
        np.testing.assert_array_equal(ingest_csv(p, "0"), [1.0, 2.5])

    def test_index_column_with_header(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,b\n1.0,9\n2.5,8\n")
        np.testing.assert_array_equal(ingest_csv(p, "1"), [9.0, 8.0])

    def test_all_missing_column(self, tmp_path):
        p = _write(tmp_path / "d.csv", "y,x\n,1\n,2\n")
        with pytest.raises(EmptyColumn):
            ingest_csv(p, "y")

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = _write(tmp_path / "d.csv", "y\n1.0\nbanana\n3.0\n")
        with pytest.raises(ParseError, match="row 3"):
            ingest_csv(p, "y")

    def test_missing_rows_dropped(self, tmp_path, caplog):
        p = _write(tmp_path / "d.csv", "y\n1.0\n\n2.0\n,\n3.0\n")
        with caplog.at_level("WARNING"):
            got = ingest_csv(p, "y")
        np.testing.assert_array_equal(got, [1.0, 2.0, 3.0])

    def test_unknown_named_column(self, tmp_path):
        p = _write(tmp_path / "d.csv", "y\n1.0\n")
        with pytest.raises(ParseError):
            ingest_csv(p, "z")

    def test_non_finite_rejected(self, tmp_path):
        p = _write(tmp_path / "d.csv", "y\n1.0\ninf\n")
        with pytest.raises(ParseError):
            ingest_csv(p, "y")

    def test_negative_column_index_refused(self, tmp_path, caplog):
        # int("-1") parses, and row[-1] would read each row's last cell,
        # column a of the short row included
        p = _write(tmp_path / "d.csv", "a,b\n1,2\n3,4\n5\n7,8\n9,10\n")
        with caplog.at_level("WARNING"):
            np.testing.assert_array_equal(ingest_csv(p, "1"), [2.0, 4.0, 8.0, 10.0])
        assert "dropped 1 rows" in caplog.text
        with pytest.raises(ParseError, match="column index '-1' is negative"):
            ingest_csv(p, "-1")

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte order mark
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfy,z\n1.0,9\n2.5,8\n")
        np.testing.assert_array_equal(ingest_csv(p, "y"), [1.0, 2.5])
        np.testing.assert_array_equal(ingest_csv(p, "0"), [1.0, 2.5])


class TestScenarioCommand:
    def test_full_shape_contract(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["scenario", "--dist", "normal", "--n", "60", "--seed", "1",
                   "--prior", "both", "--out", str(out)] + FAST)
        assert rc == 0
        rows = list(csv.DictReader((out / "report.csv").open()))
        # Parameter-free families carry one closed-form row; the four
        # parametric families carry one row per estimator, per prior.
        assert len(rows) == (2 * 1 + 4 * 3) * 2
        for prior in ("A", "B"):
            sub = [r for r in rows if r["prior"] == prior]
            assert {r["family"] for r in sub} == {
                "id", "log", "boxcox", "modulus", "yeojohnson", "dual"}
            chib = [r for r in sub if r["method"] == "chib"]
            assert len(chib) == 4 and all(r["mc_se"] for r in chib)

        report = json.loads((out / "report.json").read_text())
        assert len(report["reports"]) == 2
        blocks = [(f["family"], f["mh"]) for r in report["reports"] for f in r["families"]]
        assert len(blocks) == 12
        for family, mh in blocks:
            if family in ("id", "log"):
                assert mh is None
            else:
                assert 0.0 < mh["accept_rate"] < 1.0 and mh["step_sd"] > 0.0, family
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("command", "seed", "n", "n_star", "xi", "epsilon", "dual_anchor",
                    "mh_skipped", "config"):
            assert key in manifest
        assert manifest["command"] == "scenario" and manifest["mh_skipped"] is False
        assert manifest["config"]["draws"] == 1000 and manifest["config"]["chib_j"] == 500

    def test_closed_form_only_families(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["scenario", "--dist", "normal", "--n", "50", "--seed", "2",
                   "--prior", "a", "--families", "id,log", "--out", str(out)] + FAST)
        assert rc == 0
        rows = list(csv.DictReader((out / "report.csv").open()))
        assert len(rows) == 2
        assert all(r["method"] == "closed_form" for r in rows)
        assert all(r["lambda_mode"] == "" for r in rows)
        assert not (out / "chains").exists()

    def test_rerun_identical_modulo_timestamp(self, tmp_path):
        args = ["scenario", "--dist", "gamma", "--n", "50", "--seed", "3",
                "--prior", "a", "--families", "id,log,bc"] + FAST
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        del r1["timestamp"], r2["timestamp"]
        assert r1 == r2
        assert (out1 / "report.csv").read_text() == (out2 / "report.csv").read_text()

    def test_family_aliases_are_the_family_names(self, tmp_path):
        args = ["scenario", "--dist", "gamma", "--n", "50", "--seed", "3",
                "--prior", "a", "--methods", "quadrature"]
        short, full = tmp_path / "short", tmp_path / "full"
        assert main(args + ["--families", "yj,bc,mod", "--out", str(short)]) == 0
        assert main(args + ["--families", "yeojohnson,boxcox,modulus",
                            "--out", str(full)]) == 0
        r1, r2 = (json.loads((d / "report.json").read_text()) for d in (short, full))
        del r1["timestamp"], r2["timestamp"]
        assert r1 == r2
        assert [f["family"] for f in r1["reports"][0]["families"]] == [
            "boxcox", "modulus", "yeojohnson"]
        manifest = json.loads((short / "manifest.json").read_text())
        assert manifest["config"]["families"] == "yj,bc,mod"

    def test_mh_is_skipped_without_a_family_to_sample(self, tmp_path, monkeypatch):
        def no_mh(*args, **kwargs):
            raise AssertionError("run_mh called with no family that has a lambda")

        monkeypatch.setattr(simulate, "run_mh", no_mh)
        out = tmp_path / "out"
        rc = main(["scenario", "--dist", "normal", "--n", "40", "--prior", "both",
                   "--families", "id,log", "--methods", "chib", "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["mh_skipped"] is True

    def test_dump_chains(self, tmp_path, monkeypatch):
        chains = {}

        def recording(y, prior_kind, cfg):
            report = analyze_dataset(y, prior_kind, cfg)
            chains.update({r.family.value: r.chain for r in report.results})
            return report

        monkeypatch.setattr(cli, "analyze_dataset", recording)
        out = tmp_path / "out"
        rc = main(["scenario", "--dist", "normal", "--n", "50", "--seed", "4",
                   "--prior", "b", "--families", "boxcox,dual", "--out", str(out),
                   "--dump-chains"] + FAST)
        assert rc == 0
        for family in ("boxcox", "dual"):
            rows = list(csv.DictReader((out / "chains" / f"{family}_B.csv").open()))
            assert len(rows) == 1000
            assert set(rows[0]) == {"iteration", "lambda", "log_posterior"}
            # under numpy 2, repr of a numpy scalar reads np.float64(...)
            lam = [float(r["lambda"]) for r in rows]
            kernel = [float(r["log_posterior"]) for r in rows]
            assert lam == chains[family].lambda_draws.tolist()
            assert kernel == chains[family].log_kernel.tolist()
        report = json.loads((out / "report.json").read_text())["reports"][0]
        for r in report["families"]:
            chain = chains[r["family"]]
            assert r["mh"] == {"accept_rate": chain.accept_rate, "step_sd": chain.step_sd,
                               "table_exact_share": chain.table_exact_share,
                               "table_max_error": chain.table_max_error,
                               "exact_steps": chain.exact_steps}

    def test_dump_chains_without_chains_warns(self, tmp_path, caplog):
        out = tmp_path / "out"
        with caplog.at_level("WARNING"):
            rc = main(["scenario", "--dist", "normal", "--n", "50", "--seed", "4",
                       "--prior", "b", "--families", "id,boxcox", "--methods",
                       "quadrature", "--out", str(out), "--dump-chains"] + FAST)
        assert rc == 0
        assert "no MH chains exist" in caplog.text
        assert not (out / "chains").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mh_skipped"] is True
        report = json.loads((out / "report.json").read_text())["reports"][0]
        assert [r["mh"] for r in report["families"]] == [None, None]
        rows = list(csv.DictReader((out / "report.csv").open()))
        boxcox = [r for r in rows if r["family"] == "boxcox"]
        assert len(boxcox) == 1 and boxcox[0]["lambda_mode"] and boxcox[0]["lambda_sd"]

    def test_manifest_records_the_distribution_parameters(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["scenario", "--dist", "gamma", "--shape", "1.5", "--rate", "4",
                   "--n", "40", "--prior", "a", "--families", "id,log", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "scenario"
        assert manifest["config"]["shape"] == 1.5 and manifest["config"]["rate"] == 4.0

    def test_manifest_config_replays_the_run(self, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        rc = main(["scenario", "--dist", "student", "--df", "3", "--ncp", "-1",
                   "--n", "60", "--seed", "8", "--prior", "b", "--families", "id,boxcox",
                   "--methods", "chib,quadrature", "--out", str(first)] + FAST)
        assert rc == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(json.loads((first / "manifest.json").read_text())["config"]))
        assert main(["scenario", "--config", str(cfg), "--out", str(again)]) == 0
        r1, r2 = (json.loads((d / "report.json").read_text()) for d in (first, again))
        del r1["timestamp"], r2["timestamp"]
        assert r1 == r2

    def test_explicit_flag_overrides_replayed_dump_chains(self, tmp_path):
        first, again, quiet = tmp_path / "first", tmp_path / "again", tmp_path / "quiet"
        rc = main(["scenario", "--dist", "normal", "--n", "40", "--seed", "2",
                   "--prior", "b", "--families", "id,boxcox", "--out", str(first),
                   "--dump-chains"] + FAST)
        assert rc == 0
        config = json.loads((first / "manifest.json").read_text())["config"]
        assert config["dump_chains"] is True
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["scenario", "--config", str(cfg), "--out", str(again)]) == 0
        assert (again / "chains" / "boxcox_B.csv").exists()
        assert main(["scenario", "--config", str(cfg), "--out", str(quiet),
                     "--no-dump-chains"]) == 0
        assert not (quiet / "chains").exists()
        manifest = json.loads((quiet / "manifest.json").read_text())
        assert manifest["config"]["dump_chains"] is False
        r1, r2 = (json.loads((d / "report.json").read_text()) for d in (first, quiet))
        del r1["timestamp"], r2["timestamp"]
        assert r1 == r2

    def test_n_star_with_empirical_imaginary_data_rejected(self, tmp_path, capsys):
        rc = main(["scenario", "--dist", "normal", "--imaginary", "empirical",
                   "--nstar", "20", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and "n_star" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 50, "seed": 5, "prior": "a",
                                   "families": "id,log", "burn_in": 300,
                                   "draws": 1000}))
        out = tmp_path / "out"
        rc = main(["scenario", "--dist", "normal", "--config", str(cfg),
                   "--families", "id", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader((out / "report.csv").open()))
        assert {r["family"] for r in rows} == {"id"}

    def test_config_equals_form(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 40, "prior": "a", "families": "id,log"}))
        out = tmp_path / "out"
        rc = main(["scenario", "--dist", "normal", f"--config={cfg}",
                   "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n"] == 40 and manifest["config"]["prior"] == "a"

    @pytest.mark.parametrize("equals_form", [False, True])
    def test_config_before_subcommand(self, tmp_path, equals_form):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 40, "prior": "a", "families": "id,log"}))
        out = tmp_path / "out"
        config = [f"--config={cfg}"] if equals_form else ["--config", str(cfg)]
        rc = main(config + ["scenario", "--dist", "normal", "--families", "id",
                            "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n"] == 40 and manifest["config"]["families"] == "id"

    def test_config_without_subcommand_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 40}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg)])
        assert exc.value.code == 2
        assert "--config needs a subcommand" in capsys.readouterr().err

    @pytest.mark.parametrize("contents, error", [
        (None, "FileNotFoundError"),
        ("{not json", "JSONDecodeError"),
        ("[1, 2]", "ValueError"),
    ])
    def test_bad_config_file_is_machine_readable_error(self, tmp_path, capsys,
                                                        contents, error):
        cfg = tmp_path / "cfg.json"
        if contents is not None:
            cfg.write_text(contents)
        rc = main(["scenario", "--dist", "normal", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == error

    def test_config_without_value_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--dist", "normal", "--out", str(tmp_path), "--config"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_negative_burn_in_is_machine_readable_error(self, tmp_path, capsys):
        rc = main(["scenario", "--dist", "normal", "--n", "50", "--methods", "chib",
                   "--burn-in", "-5", "--draws", "1000", "--families", "boxcox",
                   "--prior", "a", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and "burn_in" in err["message"]

    def test_small_chib_j_rejected_before_mh(self, tmp_path, capsys, monkeypatch):
        def no_mh(*args, **kwargs):
            raise AssertionError("run_mh called with an invalid --chib-j")

        monkeypatch.setattr(simulate, "run_mh", no_mh)
        rc = main(["scenario", "--dist", "gamma", "--n", "100", "--chib-j", "100",
                   "--families", "id,boxcox,dual", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and "chib_draws" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_small_n_star_rejected_before_the_out_directory(self, tmp_path, capsys):
        out = tmp_path / "o1"
        rc = main(["scenario", "--dist", "normal", "--n", "50", "--nstar", "5",
                   "--methods", "quadrature", "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": "n_star must be at least 10, got 5"}
        assert not out.exists()


class TestAnalyzeCommand:
    def test_analyze_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = "y\n" + "\n".join(str(v) for v in rng.normal(size=60)) + "\n"
        data = _write(tmp_path / "data.csv", lines)
        out = tmp_path / "out"
        rc = main(["analyze", "--input", data, "--column", "y", "--prior", "a",
                   "--families", "id,log,modulus", "--out", str(out)] + FAST)
        assert rc == 0
        rows = list(csv.DictReader((out / "report.csv").open()))
        assert len(rows) == 2 + 3

    def test_missing_file_is_machine_readable_error(self, tmp_path, capsys):
        rc = main(["analyze", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "error" in err and "message" in err

    def test_negative_column_index_is_machine_readable_error(self, tmp_path, capsys):
        data = _write(tmp_path / "d.csv", "a,b\n1,2\n3,4\n5\n7,8\n9,10\n")
        out = tmp_path / "out"
        rc = main(["analyze", "--input", data, "--column", "-1", "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ParseError", "message": "column index '-1' is negative"}
        assert not out.exists()

    def test_empty_file_is_machine_readable_error(self, tmp_path, capsys):
        data = _write(tmp_path / "empty.csv", "")
        out = tmp_path / "out"
        rc = main(["analyze", "--input", data, "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "EmptyColumn", "message": f"{data} is empty"}
        assert not out.exists()

    def test_unknown_family_is_machine_readable_error(self, tmp_path, capsys):
        data = _write(tmp_path / "d.csv", "y\n1\n2\n4\n")
        out = tmp_path / "out"
        rc = main(["analyze", "--input", data, "--column", "y", "--families", "id,bogus",
                   "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": "unknown family: bogus"}
        assert not out.exists()

    def test_degenerate_data_error_path(self, tmp_path, capsys):
        data = _write(tmp_path / "d.csv", "y\n1\n1\n1\n")
        rc = main(["analyze", "--input", data, "--column", "y",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DegenerateData"


@pytest.mark.parametrize("command", [
    ["analyze", "--input", "ties.csv", "--column", "y"],
    ["scenario", "--dist", "normal", "--n", "5"],
], ids=lambda c: c[0])
def test_failed_analysis_leaves_no_out_directory(tmp_path, capsys, command):
    _write(tmp_path / "ties.csv", "y\n1\n1\n1\n")
    out = tmp_path / "out"
    rc = main([a.replace("ties.csv", str(tmp_path / "ties.csv")) for a in command]
              + ["--methods", "quadrature", "--out", str(out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "DegenerateData"
    assert not out.exists()


class TestSweepCommand:
    def test_student_sweep_shape_and_validity(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["sweep", "--axis", "student-df", "--points", "2,30",
                   "--n", "60", "--replications", "1", "--prior", "a",
                   "--methods", "chib", "--seed", "6", "--out", str(out)] + FAST)
        assert rc == 0
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert len(rows) == 2 * 6
        assert set(rows[0]) == {"axis_value", "family", "prior", "mean_pmp",
                                "mean_lambda_mode", "replications"}
        for row in rows:
            assert 0.0 <= float(row["mean_pmp"]) <= 1.0
        assert (out / "manifest.json").exists()

    def test_gamma_sweep_loads_as_csv(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["sweep", "--axis", "gamma-skewness", "--points", "2.0",
                   "--n", "60", "--replications", "1", "--prior", "a",
                   "--families", "id,log", "--methods", "quadrature",
                   "--out", str(out)] + FAST)
        assert rc == 0
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert len(rows) == 2
        assert {r["family"] for r in rows} == {"id", "log"}

    def test_dump_chains_is_logged_and_the_sweep_still_runs(self, tmp_path, caplog):
        out = tmp_path / "out"
        with caplog.at_level("WARNING"):
            rc = main(["sweep", "--axis", "gamma-skewness", "--points", "2.0",
                       "--n", "60", "--replications", "1", "--prior", "a",
                       "--families", "id,log", "--methods", "quadrature",
                       "--dump-chains", "--out", str(out)])
        assert rc == 0
        assert "sweep writes no chain files" in caplog.text
        assert len(list(csv.DictReader((out / "sweep.csv").open()))) == 2
        assert not (out / "chains").exists()

    def test_sweep_runs_both_priors_by_default(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["sweep", "--axis", "gamma-skewness", "--points", "2.0,1.0",
                   "--n", "60", "--replications", "1", "--families", "id,boxcox",
                   "--methods", "quadrature", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert sorted((r["prior"], r["axis_value"], r["family"]) for r in rows) == sorted(
            (p, v, f) for p in "AB" for v in ("2.0", "1.0") for f in ("id", "boxcox"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["prior"] == "both"
        assert manifest["failures"] == [] and manifest["mh_skipped"] is True


    @pytest.mark.parametrize("axis, points", [
        ("gamma-skewness", "0"),
        ("gamma-skewness", "-2"),
        ("student-df", "3,-1"),
        ("student-df", "nan"),
    ])
    def test_invalid_points_rejected_before_running(self, tmp_path, capsys,
                                                    axis, points):
        out = tmp_path / "out"
        rc = main(["sweep", "--axis", axis, "--points", points, "--n", "60",
                   "--replications", "1", "--families", "id,log",
                   "--methods", "quadrature", "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and "finite and positive" in err["message"]
        assert not (out / "sweep.csv").exists()

    def test_sweep_too_small_for_the_imaginary_data_is_refused(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a scenario ran for a sweep that cannot succeed")

        monkeypatch.setattr(simulate, "run_scenario", no_run)
        out = tmp_path / "out"
        rc = main(["sweep", "--axis", "student-df", "--points", "3", "--n", "5",
                   "--replications", "2", "--methods", "quadrature", "--prior", "a",
                   "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DegenerateData" and "--nstar" in err["message"]
        assert not out.exists()

    def test_the_sweep_leaves_the_n_star_rule_to_run_sweep(self, tmp_path, capsys,
                                                           monkeypatch):
        checked = []

        def refuse(sweep, cfg, on_point=None, on_failure=None):
            raise DegenerateData("refused by run_sweep")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        monkeypatch.setattr(simulate.AnalysisConfig, "n_star_for",
                            lambda cfg, n: checked.append(n) or n)
        out = tmp_path / "out"
        rc = main(["sweep", "--axis", "student-df", "--points", "3", "--n", "60",
                   "--replications", "1", "--methods", "quadrature", "--prior", "a",
                   "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "DegenerateData", "message": "refused by run_sweep"}
        assert checked == [] and not out.exists()

    def test_sweep_with_small_n_runs_given_n_star(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["sweep", "--axis", "student-df", "--points", "3", "--n", "8",
                   "--nstar", "20", "--replications", "1", "--families", "id,log",
                   "--methods", "quadrature", "--prior", "a", "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["failures"] == []


@pytest.mark.parametrize("command", [
    ["analyze", "--input", "data.csv", "--column", "v"],
    ["scenario", "--dist", "normal", "--n", "50"],
    ["sweep", "--axis", "gamma-skewness", "--points", "2", "--n", "30",
     "--replications", "1"],
], ids=lambda c: c[0])
def test_negative_seed_refused_before_the_out_directory(tmp_path, capsys, command):
    _write(tmp_path / "data.csv", "v\n" + "\n".join(str(v) for v in range(1, 31)) + "\n")
    out = tmp_path / "out"
    rc = main([a.replace("data.csv", str(tmp_path / "data.csv")) for a in command]
              + ["--methods", "quadrature", "--seed", "-1", "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError",
                   "message": "seed must be a non-negative integer, got -1"}
    assert not out.exists()


class TestParserDefaults:
    def test_scenario_and_sweep_defaults_are_the_spec_fields(self):
        parser = cli.build_parser()
        scenario = parser.parse_args(["scenario", "--dist", "gamma"])
        sweep = parser.parse_args(["sweep", "--axis", "student-df", "--points", "3"])
        for args, spec, names in (
                (scenario, ScenarioSpec, ("mu", "sigma", "shape", "rate", "df", "ncp")),
                (sweep, SweepSpec, ("n", "replications"))):
            defaults = {f.name: f.default for f in dataclasses.fields(spec)}
            for name in names:
                assert getattr(args, name) == defaults[name], name
