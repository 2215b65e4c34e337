import json
import math

import pytest

from dse_link.cli import (
    bundled_scenario_path,
    load_scenario_file,
    main,
    parse_results_csv,
    render_csv,
    RESULT_COLUMNS,
)


def write_scenarios(path, rows, header="p1,p2,fnr,fpr,f"):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestEstimateCommand:
    def test_basic_dse(self, capsys):
        assert main(["estimate", "--n1", "900", "--n2", "800", "--m", "720"]) == 0
        out = capsys.readouterr().out
        assert "dse: 1000.000000" in out

    def test_floor(self, capsys):
        assert main(["estimate", "--n1", "5", "--n2", "3", "--m", "2", "--floor"]) == 0
        assert "dse: 7.000000" in capsys.readouterr().out

    def test_zero_matches_diagnostic(self, capsys):
        code = main(["estimate", "--n1", "900", "--n2", "800", "--m", "0"])
        assert code != 0
        assert "ZeroMatches" in capsys.readouterr().err

    def test_with_rematch_codes(self, tmp_path, capsys):
        codes = tmp_path / "codes.csv"
        codes.write_text("\n".join(["+1"] + ["0"] * 89) + "\n", encoding="utf-8")
        code = main(
            ["estimate", "--n1", "900", "--n2", "800", "--m", "710",
             "--rematch", str(codes), "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dse"] == pytest.approx(900 * 800 / 710)
        assert report["nu_hat"] == 10.0
        assert report["corrected"] == pytest.approx(1000.0)
        # composed from the pinned pieces: sigma2 = 900^2*(0.9/90)*(1/90)
        sigma2 = 900**2 * (0.9 / 90) * (1 / 90)
        expected_var = 1000 * (0.1 * 0.2) / 0.72 + sigma2 / 0.72**2
        assert report["sigma2_eps"] == pytest.approx(sigma2, rel=1e-12)
        assert report["corrected_variance"] == pytest.approx(expected_var, rel=1e-12)
        assert report["corrected_rse_pct"] == pytest.approx(
            100 * math.sqrt(expected_var) / 1000, rel=1e-12
        )

    def test_with_error_rates(self, capsys):
        code = main(
            ["estimate", "--n1", "900", "--n2", "800", "--m", "702",
             "--alpha", "0.95", "--beta", "0.02", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ding_fienberg"] == pytest.approx(0.93 * 720000 / 684)

    def test_alpha_without_beta_rejected(self, capsys):
        code = main(
            ["estimate", "--n1", "900", "--n2", "800", "--m", "702", "--alpha", "0.95"]
        )
        assert code != 0

    def test_bad_rematch_code_diagnostic(self, tmp_path, capsys):
        codes = tmp_path / "codes.csv"
        codes.write_text("0\n2\n", encoding="utf-8")
        code = main(
            ["estimate", "--n1", "900", "--n2", "800", "--m", "710",
             "--rematch", str(codes)]
        )
        assert code != 0
        assert "row 2" in capsys.readouterr().err

    def test_inconsistent_counts_diagnostic(self, capsys):
        code = main(["estimate", "--n1", "100", "--n2", "800", "--m", "710"])
        assert code != 0
        assert "InvalidCounts" in capsys.readouterr().err

    def test_missing_rematch_file_diagnostic(self, capsys):
        code = main(
            ["estimate", "--n1", "900", "--n2", "800", "--m", "710",
             "--rematch", "/nonexistent/codes.csv"]
        )
        assert code != 0
        assert "error:" in capsys.readouterr().err


class TestScenarioFile:
    def test_loads_rows_with_overrides(self, tmp_path):
        path = write_scenarios(
            tmp_path / "s.csv",
            ["0.9,0.8,0.02,0.05,0.2,50,7", "0.8,0.7,0.05,0.08,0.1,,"],
            header="p1,p2,fnr,fpr,f,iterations,seed",
        )
        configs = load_scenario_file(path, default_iterations=10, default_seed=3, population=1000)
        assert configs[0].iterations == 50 and configs[0].seed == 7
        assert configs[1].iterations == 10 and configs[1].seed == 3
        assert configs[1].p1plus == 0.8 and configs[1].f == 0.1

    def test_bad_header_reports_row_one(self, tmp_path):
        path = write_scenarios(tmp_path / "s.csv", ["0.9,0.8,0.02"], header="p1,p2,oops")
        with pytest.raises(ValueError, match="row 1"):
            load_scenario_file(path, 10, 3, 1000)

    def test_bad_value_reports_row_number(self, tmp_path):
        path = write_scenarios(
            tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2", "0.9,0.8,nope,0.05,0.2"]
        )
        with pytest.raises(ValueError, match="row 3"):
            load_scenario_file(path, 10, 3, 1000)

    def test_bundled_grid_has_twelve_rows(self):
        configs = load_scenario_file(bundled_scenario_path(), 10, 3, 1000)
        assert len(configs) == 12
        assert {(c.p1plus, c.pplus1) for c in configs} == {(0.9, 0.8), (0.8, 0.7)}
        assert {(c.fnr, c.fpr) for c in configs} == {
            (0.02, 0.05), (0.05, 0.02), (0.05, 0.08)
        }
        assert {c.f for c in configs} == {0.1, 0.2}


class TestSimulateCommand:
    def test_csv_output_and_round_trip(self, tmp_path, capsys):
        scen = write_scenarios(tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2"])
        out = tmp_path / "results.csv"
        code = main(
            ["simulate", scen, "--iterations", "200", "--seed", "42",
             "--output", str(out)]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        seed, rows = parse_results_csv(text)
        assert seed == 42
        assert len(rows) == 1
        assert list(rows[0]) == list(RESULT_COLUMNS)
        assert rows[0]["exclusions"] == 0
        # serializing the parsed values reproduces the file byte for byte
        class Row:
            pass
        row = Row()
        for key, value in rows[0].items():
            setattr(row, key, value)
        assert render_csv([row], seed) == text

    def test_stdout_when_no_output_given(self, tmp_path, capsys):
        scen = write_scenarios(tmp_path / "s.csv", ["0.9,0.8,0.0,0.0,0.2"])
        assert main(["simulate", scen, "--iterations", "50", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# seed=1\n")
        assert out.splitlines()[1] == ",".join(RESULT_COLUMNS)

    def test_single_iteration_renders_na(self, tmp_path, capsys):
        scen = write_scenarios(tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2"])
        assert main(["simulate", scen, "--iterations", "1", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        data = out.splitlines()[2].split(",")
        columns = dict(zip(RESULT_COLUMNS, data))
        assert columns["erse_dse"] == "NA"
        assert columns["erse_corrected"] == "NA"
        assert columns["erb_corrected"] != "NA"

    def test_markdown_format(self, tmp_path, capsys):
        scen = write_scenarios(tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2"])
        assert main(
            ["simulate", scen, "--iterations", "50", "--seed", "2",
             "--format", "markdown"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("seed = 2\n")
        assert "| p1 | p2 |" in out

    def test_malformed_file_no_partial_output(self, tmp_path, capsys):
        scen = write_scenarios(
            tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2", "bad,row,here"]
        )
        out = tmp_path / "results.csv"
        code = main(["simulate", scen, "--seed", "1", "--output", str(out)])
        assert code != 0
        assert "row 3" in capsys.readouterr().err
        assert not out.exists()

    def test_random_seed_printed_when_omitted(self, tmp_path, capsys):
        scen = write_scenarios(tmp_path / "s.csv", ["0.9,0.8,0.0,0.0,0.5"])
        assert main(["simulate", scen, "--iterations", "2"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("# seed=")
        assert int(header.split("=", 1)[1]) >= 0

    def test_thread_count_does_not_change_output(self, tmp_path):
        scen = write_scenarios(
            tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2", "0.8,0.7,0.05,0.08,0.1"]
        )
        outputs = []
        for threads, name in ((1, "a.csv"), (4, "b.csv")):
            out = tmp_path / name
            assert main(
                ["simulate", scen, "--iterations", "100", "--seed", "9",
                 "--threads", str(threads), "--output", str(out)]
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_precision_flag(self, tmp_path, capsys):
        scen = write_scenarios(tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2"])
        assert main(
            ["simulate", scen, "--iterations", "50", "--seed", "3",
             "--precision", "6"]
        ) == 0
        data = capsys.readouterr().out.splitlines()[2].split(",")
        erb = data[RESULT_COLUMNS.index("erb_dse")]
        assert len(erb.split(".")[1]) == 6

    def test_threads_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        scen = write_scenarios(tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2"])
        monkeypatch.setenv("DSE_LINK_THREADS", "3")
        assert main(["simulate", scen, "--iterations", "60", "--seed", "4"]) == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("DSE_LINK_THREADS")
        assert main(
            ["simulate", scen, "--iterations", "60", "--seed", "4",
             "--threads", "3"]
        ) == 0
        assert capsys.readouterr().out == with_env

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_invalid_threads_env_var_rejected(self, tmp_path, capsys, monkeypatch, value):
        scen = write_scenarios(tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2"])
        out = tmp_path / "results.csv"
        monkeypatch.setenv("DSE_LINK_THREADS", value)
        code = main(
            ["simulate", scen, "--iterations", "5", "--seed", "1", "--output", str(out)]
        )
        assert code == 1
        assert "DSE_LINK_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_reports_error(self, tmp_path, capsys):
        scen = write_scenarios(tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2"])
        out = tmp_path / "missing_dir" / "results.csv"
        code = main(
            ["simulate", scen, "--iterations", "5", "--seed", "1",
             "--output", str(out)]
        )
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_missing_output_dir_error_names_requested_path(self, tmp_path, capsys):
        scen = write_scenarios(tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2"])
        out = tmp_path / "missing_dir" / "results.csv"
        code = main(
            ["simulate", scen, "--iterations", "5", "--seed", "1",
             "--output", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(out) in err
        assert ".tmp" not in err

    def test_output_is_directory_leaves_no_debris(self, tmp_path, capsys):
        scen = write_scenarios(tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2"])
        out = tmp_path / "results"
        out.mkdir()
        before = sorted(tmp_path.iterdir())
        code = main(
            ["simulate", scen, "--iterations", "5", "--seed", "1",
             "--output", str(out)]
        )
        assert code == 1
        assert str(out) in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
        assert list(out.iterdir()) == []


GOLDEN_HEADER = (
    "p1,p2,fnr,fpr,f,erb_dse,erb_uncorrected,erb_corrected,erse_dse,"
    "erse_uncorrected,erse_corrected,arse_corrected,exclusions\n"
)
GOLDEN_OUTPUTS = {
    "csv-precision-6": (
        ["--precision", "6"],
        "# seed=20250809\n"
        + GOLDEN_HEADER
        + "0.9,0.8,0.02,0.05,0.2,0.037970,0.664199,0.006387,0.504578,0.828096,"
        "1.419378,1.407356,0\n"
        "0.8,0.7,0.05,0.08,0.1,0.022164,1.598914,0.165035,1.086883,1.604874,"
        "4.142611,3.729878,0\n",
    ),
    "csv-default": (
        [],
        "# seed=20250809\n"
        + GOLDEN_HEADER
        + "0.9,0.8,0.02,0.05,0.2,0.04,0.66,0.01,0.50,0.83,1.42,1.41,0\n"
        "0.8,0.7,0.05,0.08,0.1,0.02,1.60,0.17,1.09,1.60,4.14,3.73,0\n",
    ),
    "markdown": (
        ["--format", "markdown"],
        "seed = 20250809\n"
        "\n"
        "| p1 | p2 | fnr | fpr | f | erb_dse | erb_uncorrected | erb_corrected "
        "| erse_dse | erse_uncorrected | erse_corrected | arse_corrected "
        "| exclusions |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- "
        "| --- | --- |\n"
        "| 0.9 | 0.8 | 0.02 | 0.05 | 0.2 | 0.04 | 0.66 | 0.01 | 0.50 | 0.83 "
        "| 1.42 | 1.41 | 0 |\n"
        "| 0.8 | 0.7 | 0.05 | 0.08 | 0.1 | 0.02 | 1.60 | 0.17 | 1.09 | 1.60 "
        "| 4.14 | 3.73 | 0 |\n",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_simulate_golden_output(tmp_path, name):
    """Pins the exact bytes of `dselink simulate` for a fixed two-row
    scenario file and seed, at one and at four threads."""
    extra, expected = GOLDEN_OUTPUTS[name]
    scen = write_scenarios(
        tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2", "0.8,0.7,0.05,0.08,0.1"]
    )
    for threads in ("1", "4"):
        out = tmp_path / f"{name}-{threads}.out"
        assert main(
            ["simulate", scen, "--iterations", "200", "--seed", "20250809",
             "--threads", threads, "--output", str(out)] + extra
        ) == 0
        assert out.read_bytes() == expected.encode("utf-8")


class TestPlanCommand:
    def test_zero_rates(self, capsys):
        code = main(
            ["plan", "--n1", "900", "--p1", "0.9", "--p2", "0.8", "--N", "1000",
             "--fnr", "0", "--fpr", "0", "--target-rse", "0.01"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n_r: 2" in out
        assert "f: 0.002222" in out

    def test_infeasible_prints_minimum_rse(self, capsys):
        code = main(
            ["plan", "--n1", "900", "--p1", "0.9", "--p2", "0.8", "--N", "1000",
             "--fnr", "0.02", "--fpr", "0.05", "--target-rse", "0.004"]
        )
        assert code != 0
        err = capsys.readouterr().err
        assert "minimum achievable rse: 0.005270" in err

    def test_pinned_plan(self, capsys):
        code = main(
            ["plan", "--n1", "900", "--p1", "0.9", "--p2", "0.8", "--N", "1000",
             "--fnr", "0.02", "--fpr", "0.05", "--target-rse", "0.02"]
        )
        assert code == 0
        assert "n_r: 98" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "population, rate, target",
        [("1000", "0.02", "nan"), ("inf", "0", "0.02"), ("nan", "0.02", "0.02")],
    )
    def test_non_finite_input_rejected(self, capsys, population, rate, target):
        code = main(
            ["plan", "--n1", "900", "--p1", "0.9", "--p2", "0.8", "--N", population,
             "--fnr", rate, "--fpr", rate, "--target-rse", target]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite and positive" in captured.err
