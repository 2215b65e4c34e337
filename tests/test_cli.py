import json
import math
import re
import shlex
from pathlib import Path

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

    def test_rematch_codes_after_byte_order_mark(self, tmp_path, capsys):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        codes = tmp_path / "codes.csv"
        codes.write_text("\n".join(["+1"] + ["0"] * 89) + "\n", encoding="utf-8-sig")
        code = main(
            ["estimate", "--n1", "900", "--n2", "800", "--m", "710",
             "--rematch", str(codes), "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["nu_hat"] == 10.0

    def test_blank_lines_in_rematch_file_skipped(self, tmp_path, capsys):
        reports = []
        for name, text in (("plain.csv", "+1\n0\n-1\n0\n0\n"),
                           ("blank.csv", "\n+1\n0\n\n-1\n  \n0\n0\n\n")):
            codes = tmp_path / name
            codes.write_text(text, encoding="utf-8")
            assert main(
                ["estimate", "--n1", "10", "--n2", "8", "--m", "4",
                 "--rematch", str(codes), "--json"]
            ) == 0
            reports.append(capsys.readouterr().out)
        assert reports[1] == reports[0]
        assert json.loads(reports[0])["nu_hat"] == 0.0

    def test_mixed_codes(self, tmp_path, capsys):
        # nu_hat = 10 / 5 * 1; sigma2_eps = 10**2 * (1 - 5/10) / 5 * (3 - 1/5) / 4
        codes = tmp_path / "codes.csv"
        codes.write_text("+1\n0\n-1\n+1\n0\n", encoding="utf-8")
        code = main(
            ["estimate", "--n1", "10", "--n2", "8", "--m", "4", "--rematch", str(codes)]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "dse: 20.000000",
            "nu_hat: 2.000000",
            "sigma2_eps: 7.000000",
            "corrected: 13.333333",
            "corrected_variance: 37.530864",
            "corrected_rse_pct: 45.946829",
        ]

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

    @pytest.mark.parametrize(
        "header, row",
        [("p1,p2,fnr,fpr,f,p1", "0.9,0.8,0.02,0.05,0.2,0.5"),
         ("p1,p2,fnr,fpr,f,seed,seed", "0.9,0.8,0.02,0.05,0.2,1,2")],
        ids=["p1", "seed"],
    )
    def test_repeated_column_rejected(self, tmp_path, header, row):
        path = write_scenarios(tmp_path / "s.csv", [row], header=header)
        with pytest.raises(ValueError, match=r"^row 1: bad header"):
            load_scenario_file(path, 10, 3, 1000)

    def test_bad_value_reports_row_number(self, tmp_path):
        path = write_scenarios(
            tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2", "0.9,0.8,nope,0.05,0.2"]
        )
        with pytest.raises(ValueError, match="row 3"):
            load_scenario_file(path, 10, 3, 1000)

    def test_byte_order_mark_ignored(self, tmp_path):
        rows = ["0.9,0.8,0.02,0.05,0.2"]
        plain = write_scenarios(tmp_path / "plain.csv", rows)
        marked = tmp_path / "marked.csv"
        marked.write_text((tmp_path / "plain.csv").read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert load_scenario_file(str(marked), 10, 3, 1000) == load_scenario_file(plain, 10, 3, 1000)

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
        # serializing the parsed rows reproduces the file byte for byte
        assert render_csv(rows, seed) == text

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
        seed, rows = parse_results_csv(out)
        assert [rows[0][f"erse_{name}"] for name in ("dse", "uncorrected", "corrected")] == [
            None, None, None
        ]
        assert rows[0]["erb_corrected"] is not None
        assert render_csv(rows, seed) == out

    def test_verbose_reports_each_row_on_stderr(self, tmp_path, capsys):
        # fnr = 1 with fpr = 0 leaves no observed match: no iteration completes
        scen = write_scenarios(
            tmp_path / "s.csv",
            ["0.9,0.8,0.02,0.05,0.2", "0.9,0.8,1.0,0.0,0.5", "0.8,0.7,0.05,0.08,0.1"],
        )
        argv = ["simulate", scen, "--iterations", "50", "--seed", "6"]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        assert main(argv + ["--verbose"]) == 0
        verbose = capsys.readouterr()
        assert quiet.err == ""
        assert verbose.out == quiet.out
        metrics = r"completed=\d+ arse_root_mean_var=\d+\.\d{4}%"
        expected = [
            re.escape("scenario p1=0.9 p2=0.8 fnr=0.02 fpr=0.05 f=0.2: ") + metrics,
            re.escape("scenario p1=0.9 p2=0.8 fnr=1.0 fpr=0.0 f=0.5: completed=0 ")
            + "arse_root_mean_var=NA",
            re.escape("scenario p1=0.8 p2=0.7 fnr=0.05 fpr=0.08 f=0.1: ") + metrics,
        ]
        lines = verbose.err.splitlines()
        assert len(lines) == len(expected)
        for line, pattern in zip(lines, expected):
            assert re.fullmatch(pattern, line), line

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


def test_simulate_output_beyond_first_chunk(tmp_path):
    """Pins the exact bytes of a run of three random-stream chunks (40000
    iterations) for two rows that share their capture probabilities."""
    scen = write_scenarios(
        tmp_path / "s.csv", ["0.9,0.8,0.02,0.05,0.2", "0.9,0.8,0.05,0.08,0.1"]
    )
    out = tmp_path / "out.csv"
    assert main(
        ["simulate", scen, "--iterations", "40000", "--seed", "20250809",
         "--precision", "6", "--output", str(out)]
    ) == 0
    assert out.read_text(encoding="utf-8") == (
        "# seed=20250809\n"
        + GOLDEN_HEADER
        + "0.9,0.8,0.02,0.05,0.2,0.001660,0.760161,0.025481,0.529409,0.845905,"
        "1.450223,1.412800,0\n"
        "0.9,0.8,0.05,0.08,0.1,0.001739,3.100376,0.107705,0.529419,1.140901,"
        "2.964964,2.911434,19\n"
    )


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


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples(tmp_path, monkeypatch, capsys):
    """Each ``$ dselink ...`` example in the README prints what it shows."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "codes.csv").write_text("\n".join(["+1"] + ["0"] * 89) + "\n", encoding="utf-8")
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    examples = re.findall(r"^\$ (dselink .*?)\n(.*?)^```", text, re.M | re.S)
    assert len(examples) == 4
    for command, output in examples:
        assert main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().out.splitlines() == output.splitlines(), command


PLAN_ARGS = ["plan", "--n1", "900", "--p1", "0.9", "--p2", "0.8", "--N", "1000",
             "--fnr", "0.02", "--fpr", "0.05", "--target-rse"]
ESTIMATE_ARGS = ["estimate", "--n1", "900", "--n2", "800"]
SIMULATE_ARGS = ["simulate", "--iterations", "5", "--seed", "1", "--output", "out.csv"]
HUGE = "1" + "0" * 400
EXPECTED_FAILURES = [
    pytest.param(
        ESTIMATE_ARGS + ["--m", "0"],
        "error: ZeroMatches: n11 = 0: the two lists share no linked records\n",
        id="zero-matches",
    ),
    pytest.param(
        ["estimate", "--n1", "100", "--n2", "800", "--m", "710"],
        "error: InvalidCounts: n11=710 exceeds a margin (n1plus=100, nplus1=800)\n",
        id="inconsistent-counts",
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
        ESTIMATE_ARGS + ["--m", "710", "--rematch", "letter.csv"],
        "error: ValueError: letter.csv: row 2: not a code: 'x'\n",
        id="non-integer-code-row",
    ),
    # each estimate precondition, as the library raises it
    pytest.param(
        ESTIMATE_ARGS + ["--m", "710", "--rematch", "no_codes.csv"],
        "error: SampleTooSmall: rematch sample has 0 records, need >= 2\n",
        id="empty-rematch-file",
    ),
    pytest.param(
        ["estimate", "--n1", "3", "--n2", "8", "--m", "2", "--rematch", "zeros.csv"],
        "error: SampleExceedsFrame: rematch sample of 5 exceeds the source-1 frame of 3\n",
        id="rematch-sample-exceeds-frame",
    ),
    pytest.param(
        ["estimate", "--n1", "10", "--n2", "8", "--m", "4", "--rematch", "minus.csv"],
        "error: NonPositiveCorrectedMatches: corrected match count n11 + nu_hat = -6.0 "
        "is not positive\n",
        id="non-positive-corrected-matches",
    ),
    pytest.param(
        ["estimate", "--n1", "10", "--n2", "8", "--m", "4", "--rematch", "plus.csv"],
        "error: EstimateBelowMargin: estimate 5.714285714285714 does not exceed both "
        "list sizes (10, 8)\n",
        id="corrected-estimate-below-margin",
    ),
    pytest.param(
        ESTIMATE_ARGS + ["--m", "10", "--alpha", "0.9", "--beta", "0.5"],
        "error: DegenerateDenominator: n11=10 does not exceed beta * n1plus = 450.0; "
        "error rates are inconsistent with the observed match count\n",
        id="degenerate-denominator",
    ),
    pytest.param(
        ESTIMATE_ARGS + ["--m", "710", "--alpha", "0.5", "--beta", "0.5"],
        "error: ValueError: correct-link rate alpha=0.5 must exceed false-link rate "
        "beta=0.5\n",
        id="alpha-not-above-beta",
    ),
    pytest.param(
        SIMULATE_ARGS + ["bad.csv"],
        "error: ScenarioFileError: row 3: could not convert string to float: 'nope'\n",
        id="malformed-scenario-row",
    ),
    pytest.param(
        SIMULATE_ARGS + ["empty.csv"],
        "error: ScenarioFileError: scenario file is empty\n",
        id="empty-scenario-file",
    ),
    pytest.param(
        SIMULATE_ARGS + ["header.csv"],
        "error: ScenarioFileError: scenario file has no scenario rows\n",
        id="header-only-scenario-file",
    ),
    pytest.param(
        SIMULATE_ARGS + ["wide.csv"],
        "error: ScenarioFileError: row 2: too many fields\n",
        id="scenario-row-with-sixth-field",
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
        ["plan", "--n1", "900", "--p1", "0.9", "--p2", "0.8", "--N", "1e308",
         "--fnr", "0.02", "--fpr", "0.05", "--target-rse", "0.02"],
        "error: ValueError: anticipated error totals (2.34e+306) exceed the "
        "source-1 frame size 900\n",
        id="plan-error-totals-exceed-frame",
    ),
    pytest.param(
        ["plan", "--n1", "900", "--p1", "1e-160", "--p2", "0.5", "--N", "1e160",
         "--fnr", "0", "--fpr", "0", "--target-rse", "0.5"],
        "error: ValueError: variances overflow at n_guess=1e+160: target inf, "
        "no-linkage-error floor inf\n",
        id="plan-variance-overflow",
    ),
    pytest.param(
        ["plan", "--n1", "900", "--p1", "1e-170", "--p2", "0.5", "--N", "1e100",
         "--fnr", "0", "--fpr", "0", "--target-rse", "0.5"],
        "error: ValueError: (p1plus * pplus1)**2 underflows to 0 at p1plus=1e-170, "
        "pplus1=0.5\n",
        id="plan-capture-underflow",
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
    # the flags are checked before the (missing) scenario file is read
    pytest.param(
        SIMULATE_ARGS + ["--precision", "-1", "missing.csv"],
        "error: ValueError: --precision must be >= 0, got -1\n",
        id="negative-precision-before-file-read",
    ),
    pytest.param(
        SIMULATE_ARGS + ["--population", "-1", "missing.csv"],
        "error: ValueError: --population -1: N must lie in [0, 10**9), got -1\n",
        id="population-before-file-read",
    ),
    # flag errors name the flag, not the row that takes its value
    pytest.param(
        SIMULATE_ARGS + ["--population", "1000000000", "scen.csv"],
        "error: ValueError: --population 1000000000: N must lie in [0, 10**9), "
        "got 1000000000\n",
        id="population-flag",
    ),
    pytest.param(
        SIMULATE_ARGS + ["--iterations", "0", "scen.csv"],
        "error: ValueError: --iterations 0: iterations must be >= 1, got 0\n",
        id="iterations-flag",
    ),
    pytest.param(
        SIMULATE_ARGS + ["--seed", "-1", "scen.csv"],
        "error: ValueError: --seed -1: seed must be a 64-bit unsigned integer, got -1\n",
        id="seed-flag",
    ),
    pytest.param(
        SIMULATE_ARGS + ["latin1.csv"],
        "error: UnicodeDecodeError: 'utf-8' codec can't decode byte 0xe9 in position 43: "
        "invalid continuation byte\n",
        id="non-utf8-scenario-file",
    ),
    pytest.param(
        SIMULATE_ARGS + ["long.csv"],
        "error: ScenarioFileError: row 2: field larger than field limit (131072)\n",
        id="oversize-scenario-field",
    ),
    # counts beyond the float range
    pytest.param(
        ["estimate", "--n1", HUGE, "--n2", HUGE, "--m", "1"],
        "error: OverflowError: integer division result too large for a float\n",
        id="estimate-count-overflow",
    ),
    pytest.param(
        ["plan", "--n1", HUGE, "--p1", "0.9", "--p2", "0.8", "--N", "1000",
         "--fnr", "0.02", "--fpr", "0.05", "--target-rse", "0.02"],
        "error: OverflowError: int too large to convert to float\n",
        id="plan-frame-overflow",
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
    (tmp_path / "letter.csv").write_text("0\nx\n", encoding="utf-8")
    (tmp_path / "no_codes.csv").write_text("", encoding="utf-8")
    (tmp_path / "zeros.csv").write_text("0\n" * 5, encoding="utf-8")
    (tmp_path / "minus.csv").write_text("-1\n-1\n", encoding="utf-8")
    (tmp_path / "plus.csv").write_text("+1\n+1\n", encoding="utf-8")
    write_scenarios(tmp_path / "scen.csv", ["0.9,0.8,0.02,0.05,0.2"])
    write_scenarios(tmp_path / "bad.csv", ["0.9,0.8,0.02,0.05,0.2", "0.9,0.8,nope,0.05,0.2"])
    (tmp_path / "empty.csv").write_text("", encoding="utf-8")
    write_scenarios(tmp_path / "header.csv", [])
    write_scenarios(tmp_path / "wide.csv", ["0.9,0.8,0.02,0.05,0.2,7"])
    (tmp_path / "latin1.csv").write_bytes(
        "p1,p2,fnr,fpr,f\n0.9,0.8,0.02,0.05,0.2\n# café\n".encode("latin-1")
    )
    write_scenarios(tmp_path / "long.csv", ["0.9," + "8" * 131073 + ",0.02,0.05,0.2"])
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected_err)
    assert sorted(tmp_path.iterdir()) == before


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
