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


PLAN_ARGS = ["plan", "--n1", "900", "--p1", "0.9", "--p2", "0.8", "--N", "1000",
             "--fnr", "0.02", "--fpr", "0.05", "--target-rse"]
ESTIMATE_ARGS = ["estimate", "--n1", "900", "--n2", "800"]
SIMULATE_ARGS = ["simulate", "--iterations", "5", "--seed", "1", "--output", "out.csv"]
EXPECTED_FAILURES = [
    pytest.param(
        ESTIMATE_ARGS + ["--m", "0"],
        "error: ZeroMatches: n11 = 0: the two lists share no linked records\n",
        id="zero-matches",
    ),
    pytest.param(
        ESTIMATE_ARGS + ["--m", "702", "--alpha", "0.95"],
        "error: ValueError: --alpha and --beta must be given together\n",
        id="alpha-without-beta",
    ),
    pytest.param(
        ESTIMATE_ARGS + ["--m", "710", "--rematch", "missing.csv"],
        "error: FileNotFoundError: [Errno 2] No such file or directory: 'missing.csv'\n",
        id="missing-rematch-file",
    ),
    pytest.param(
        ESTIMATE_ARGS + ["--m", "710", "--rematch", "codes.csv"],
        "error: ValueError: codes.csv: row 2: code must be one of +1, -1, 0\n",
        id="bad-code-row",
    ),
    pytest.param(
        SIMULATE_ARGS + ["bad.csv"],
        "error: ScenarioFileError: row 3: could not convert string to float: 'nope'\n",
        id="malformed-scenario-row",
    ),
    pytest.param(
        SIMULATE_ARGS[:-1] + ["missing_dir/out.csv", "scen.csv"],
        "error: FileNotFoundError: [Errno 2] No such file or directory: "
        "'missing_dir/out.csv'\n",
        id="unwritable-output",
    ),
    pytest.param(
        PLAN_ARGS + ["0.004"],
        "error: Infeasible: target RSE 0.004 is below the no-linkage-error floor "
        "0.00527046 (reached only at a census rematch)\n"
        "minimum achievable rse: 0.005270\n",
        id="infeasible-plan",
    ),
    pytest.param(
        PLAN_ARGS + ["nan"],
        "error: ValueError: target_rse must be finite and positive, got nan\n",
        id="plan-nan-target",
    ),
    pytest.param(
        SIMULATE_ARGS + ["--threads", "0", "scen.csv"],
        "error: ValueError: --threads must be an integer >= 1, got 0\n",
        id="zero-threads",
    ),
    pytest.param(
        SIMULATE_ARGS + ["--precision", "-1", "scen.csv"],
        "error: ValueError: --precision must be >= 0, got -1\n",
        id="negative-precision",
    ),
    pytest.param(
        SIMULATE_ARGS + ["latin1.csv"],
        "error: UnicodeDecodeError: 'utf-8' codec can't decode byte 0xe9 in position 43: "
        "invalid continuation byte\n",
        id="non-utf8-scenario-file",
    ),
]


@pytest.mark.parametrize("argv, expected_err", EXPECTED_FAILURES)
def test_expected_failure_is_one_error_line_and_exit_1(
    tmp_path, monkeypatch, capsys, argv, expected_err
):
    """Every expected failure leaves `main` the same way: exit 1, nothing on
    stdout, the diagnostic on stderr, and no result file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "codes.csv").write_text("0\n2\n", encoding="utf-8")
    write_scenarios(tmp_path / "scen.csv", ["0.9,0.8,0.02,0.05,0.2"])
    write_scenarios(tmp_path / "bad.csv", ["0.9,0.8,0.02,0.05,0.2", "0.9,0.8,nope,0.05,0.2"])
    (tmp_path / "latin1.csv").write_bytes(
        "p1,p2,fnr,fpr,f\n0.9,0.8,0.02,0.05,0.2\n# café\n".encode("latin-1")
    )
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected_err)
    assert sorted(tmp_path.iterdir()) == before


def test_negative_precision_rejected_before_scenarios_load(capsys):
    code = main(["simulate", "/nonexistent/scenarios.csv", "--precision", "-1"])
    assert code == 1
    assert capsys.readouterr().err == "error: ValueError: --precision must be >= 0, got -1\n"


FLAG_FAILURES = [
    pytest.param(
        ["--population", "1000000000"],
        "error: ValueError: --population 1000000000: N must lie in [0, 10**9), "
        "got 1000000000\n",
        id="population",
    ),
    pytest.param(
        ["--iterations", "0"],
        "error: ValueError: --iterations 0: iterations must be >= 1, got 0\n",
        id="iterations",
    ),
    pytest.param(
        ["--seed", "-1"],
        "error: ValueError: --seed -1: seed must be a 64-bit unsigned integer, got -1\n",
        id="seed",
    ),
]


@pytest.mark.parametrize("flag, expected_err", FLAG_FAILURES)
def test_flag_error_names_the_flag(tmp_path, monkeypatch, capsys, flag, expected_err):
    monkeypatch.chdir(tmp_path)
    write_scenarios(tmp_path / "scen.csv", ["0.9,0.8,0.02,0.05,0.2"])
    assert main(SIMULATE_ARGS + flag + ["scen.csv"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected_err)
    assert not (tmp_path / "out.csv").exists()


def test_population_checked_before_scenario_file_read(capsys):
    code = main(["simulate", "/nonexistent/scenarios.csv", "--population", "-1"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: ValueError: --population -1: N must lie in [0, 10**9), got -1\n"
    )


def test_flag_checked_only_where_a_row_takes_it(tmp_path, capsys):
    path = write_scenarios(
        tmp_path / "s.csv",
        ["0.9,0.8,0.02,0.05,0.2,3,7", "0.8,0.7,0.05,0.08,0.1,4,8"],
        header="p1,p2,fnr,fpr,f,iterations,seed",
    )
    assert main(["simulate", path, "--iterations", "0", "--seed", "-1"]) == 0
    assert len(parse_results_csv(capsys.readouterr().out)[1]) == 2
    partial = write_scenarios(
        tmp_path / "t.csv",
        ["0.9,0.8,0.02,0.05,0.2,3", "0.8,0.7,0.05,0.08,0.1,"],
        header="p1,p2,fnr,fpr,f,iterations",
    )
    assert main(["simulate", partial, "--iterations", "0", "--seed", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: ValueError: --iterations 0: iterations must be >= 1, got 0\n"
    )


SEED_COLUMN = "p1,p2,fnr,fpr,f,iterations,seed"


@pytest.mark.parametrize("seed_flag", [["--seed", "-1"], []], ids=["flag", "drawn"])
def test_no_seed_line_when_every_row_sets_its_seed(tmp_path, capsys, seed_flag):
    path = write_scenarios(
        tmp_path / "s.csv",
        ["0.9,0.8,0.02,0.05,0.2,3,7", "0.8,0.7,0.05,0.08,0.1,4,8"],
        header=SEED_COLUMN,
    )
    assert main(["simulate", path] + seed_flag) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(RESULT_COLUMNS)
    seed, rows = parse_results_csv(out)
    assert seed is None
    assert len(rows) == 2
    assert main(["simulate", path, "--format", "markdown"] + seed_flag) == 0
    assert capsys.readouterr().out.startswith("| p1 | p2 |")


@pytest.mark.parametrize("row_seed", ["", "7"], ids=["default", "same-value"])
def test_seed_line_when_a_row_runs_at_the_default_seed(tmp_path, capsys, row_seed):
    path = write_scenarios(
        tmp_path / "s.csv",
        ["0.9,0.8,0.02,0.05,0.2,3,9", f"0.8,0.7,0.05,0.08,0.1,4,{row_seed}"],
        header=SEED_COLUMN,
    )
    assert main(["simulate", path, "--seed", "7"]) == 0
    assert parse_results_csv(capsys.readouterr().out)[0] == 7
    assert main(["simulate", path, "--seed", "7", "--format", "markdown"]) == 0
    assert capsys.readouterr().out.startswith("seed = 7\n")
