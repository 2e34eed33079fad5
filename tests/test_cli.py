import json

from click.testing import CliRunner

from exunits.cli import cli


def run(*args):
    return CliRunner().invoke(cli, args)


def test_count_plain():
    result = run("count", "--poly", "0,1,-1", "--k", "2", "--c", "1", "--n", "5")
    assert result.exit_code == 0
    assert result.output == "3\n"


def test_count_explicit_linear():
    result = run("count", "--poly", "0,1", "--k", "2", "--c", "0", "--n", "6",
                 "--method", "linear")
    assert result.exit_code == 0
    assert result.output == "2\n"


def test_count_json_payload():
    result = run("--format", "json", "count",
                 "--poly", "0,1", "--k", "2", "--c", "0", "--n", "6")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["method_used"] == "linear"
    assert payload["value"] == "2"
    assert payload["per_prime"] == [
        {"p": 2, "e": 1, "local_M": "1"},
        {"p": 3, "e": 1, "local_M": "1"},
    ]


def test_count_json_round_trips_to_identical_bytes():
    first = run("--format", "json", "count",
                "--poly", "0,1,-1", "--k", "3", "--c", "-2", "--n", "35")
    assert first.exit_code == 0
    payload = json.loads(first.output)
    second = run("--format", "json", "count",
                 "--poly", payload["poly"], "--k", str(payload["k"]),
                 "--c", str(payload["c"]), "--n", str(payload["n"]),
                 "--method", payload["method_used"])
    assert second.exit_code == 0
    assert second.output == first.output


def test_count_oracle_methods_agree():
    for method in ("oracle", "oracle-dp"):
        result = run("count", "--poly", "0,1,-1", "--k", "2", "--c", "1", "--n", "5",
                     "--method", method)
        assert result.exit_code == 0
        assert result.output == "3\n"


def test_count_rejects_constant_polynomial():
    result = run("count", "--poly", "5", "--k", "2", "--c", "0", "--n", "6")
    assert result.exit_code == 2
    assert "constant polynomial" in result.stderr


def test_count_rejects_csv_format():
    result = run("--format", "csv", "count",
                 "--poly", "0,1", "--k", "2", "--c", "0", "--n", "6")
    assert result.exit_code == 2


def test_count_explicit_method_inapplicable_exits_3():
    result = run("count", "--poly", "1,0,1", "--k", "2", "--c", "0", "--n", "5",
                 "--method", "quadratic")
    assert result.exit_code == 3


def test_auto_matches_every_applicable_method():
    args = ("--poly", "0,1,-1", "--k", "2", "--c", "1", "--n", "5")
    auto = run("count", *args)
    for method in ("general", "quadratic", "oracle", "oracle-dp"):
        assert run("count", *args, "--method", method).output == auto.output


def test_count_over_budget_exits_2_before_computing():
    dp = run("count", "--poly", "0,1", "--k", "3", "--c", "0", "--n", "100000",
             "--method", "oracle-dp")
    assert dp.exit_code == 2
    assert "budget" in dp.stderr
    walk = run("count", "--poly", "0,-1,0,1", "--k", "800", "--c", "1", "--n", "7")
    assert walk.exit_code == 2
    assert "budget" in walk.stderr


def test_table_csv():
    result = run("table", "--poly", "0,1,-1", "--k", "2", "--n", "5")
    assert result.exit_code == 0
    assert result.output == "c,value\n0,2\n1,3\n2,2\n3,1\n4,1\n"


def test_table_trivial_modulus():
    result = run("table", "--poly", "0,1", "--k", "2", "--n", "1")
    assert result.exit_code == 0
    assert result.output == "c,value\n0,1\n"


def test_table_empty_exunit_set():
    result = run("table", "--poly", "0,1,-1", "--k", "2", "--n", "6")
    assert result.exit_code == 0
    rows = result.output.strip().split("\n")[1:]
    assert len(rows) == 6
    assert all(row.endswith(",0") for row in rows)


def test_table_json():
    result = run("--format", "json", "table", "--poly", "0,1,-1", "--k", "2", "--n", "5")
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert rows == [{"c": 0, "value": "2"}, {"c": 1, "value": "3"},
                    {"c": 2, "value": "2"}, {"c": 3, "value": "1"},
                    {"c": 4, "value": "1"}]


def test_exunits_listing():
    result = run("exunits", "--poly", "0,1,-1", "--n", "5")
    assert result.exit_code == 0
    assert result.output == "2\n3\n4\n#E = 3\n"
    empty = run("exunits", "--poly", "0,1,-1", "--n", "6")
    assert empty.output == "#E = 0\n"
    units = run("exunits", "--poly", "0,1", "--n", "6")
    assert units.output == "1\n5\n#E = 2\n"


def test_exunits_budget_error():
    result = run("--enum-budget", "10", "exunits", "--poly", "0,1", "--n", "100")
    assert result.exit_code == 2


def test_verify_passes_on_small_grid():
    result = run("--workers", "1", "verify", "--n-max", "6", "--k", "2")
    assert result.exit_code == 0
    assert "all suites passed" in result.output
    for suite in ("oracle-equivalence", "multiplicativity",
                  "conservation", "fast-path-agreement"):
        assert f"{suite}: PASS" in result.output


def test_verify_trivial_modulus_passes():
    result = run("--workers", "1", "verify", "--n-max", "1", "--k", "2")
    assert result.exit_code == 0


def test_verify_detects_injected_fault():
    result = run("--workers", "1", "verify", "--n-max", "4", "--k", "2",
                 "--inject-fault")
    assert result.exit_code == 1
    assert "oracle-equivalence: FAIL" in result.output
    assert "counterexample" in result.output


def test_verify_json_output():
    result = run("--format", "json", "--workers", "1",
                 "verify", "--n-max", "3", "--k", "2")
    assert result.exit_code == 0
    suites = json.loads(result.output)
    assert [s["suite"] for s in suites] == [
        "oracle-equivalence", "multiplicativity", "conservation",
        "fast-path-agreement"]
    assert all(s["passed"] for s in suites)


def test_verify_output_is_worker_invariant():
    sequential = run("--workers", "1", "verify", "--n-max", "5", "--k", "2")
    parallel = run("--workers", "3", "verify", "--n-max", "5", "--k", "2")
    assert sequential.output == parallel.output
    assert sequential.exit_code == parallel.exit_code == 0


def test_verify_rejects_bad_arities():
    assert run("verify", "--n-max", "3", "--k", "1").exit_code == 2
    assert run("verify", "--n-max", "3", "--k", "x").exit_code == 2
    assert run("verify", "--n-max", "3", "--k", "1000001").exit_code == 2


def test_verify_over_budget_exits_2():
    result = run("verify", "--n-max", "5", "--k", "800", "--poly", "0,-1,0,1")
    assert result.exit_code == 2
    assert "budget" in result.stderr
