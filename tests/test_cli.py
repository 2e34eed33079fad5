import json
import os
import subprocess
import sys
import time

from click.testing import CliRunner

from exunits.cli import cli
from exunits.counting import CountQuery, count
from exunits.poly import IntPolynomial


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
    # x - x**2 has no exunit mod 10**7, so only the scan's charge refuses it
    started = time.perf_counter()
    scan = run("count", "--poly", "0,1,-1", "--k", "2", "--c", "0", "--n", "10000000",
               "--method", "oracle")
    assert time.perf_counter() - started < 0.1
    assert scan.exit_code == 2
    assert "membership scan" in scan.stderr


def test_count_unsplittable_modulus_exits_2():
    # two 16-digit primes: BPSW finds the product composite and Pollard rho
    # spends its step budget without splitting it
    n = (10**15 + 37) * (10**15 + 91)
    started = time.perf_counter()
    result = run("count", "--poly", "0,1,-1", "--k", "3", "--c", "1", "--n", str(n))
    assert time.perf_counter() - started < 5.0
    assert result.exit_code == 2
    assert "Pollard rho budget" in result.stderr


def test_count_json_labels_bpsw_primes():
    # primes at and above the proven Miller-Rabin bound are BPSW probable primes
    m89 = 2**89 - 1
    result = run("--format", "json", "count",
                 "--poly", "0,1,-1", "--k", "3", "--c", "1", "--n", str(35 * m89))
    assert result.exit_code == 0
    per_prime = json.loads(result.output)["per_prime"]
    assert [entry["p"] for entry in per_prime] == [5, 7, m89]
    assert [entry.get("prime_test") for entry in per_prime] == [None, None, "bpsw"]
    assert per_prime[:2] == [{"p": 5, "e": 1, "local_M": "21"},
                             {"p": 7, "e": 1, "local_M": "33"}]


def test_counts_over_4300_digits_print_in_full():
    # CPython caps int-to-str conversion at 4300 digits by default; the CLI
    # lifts the cap for its output only and restores it afterwards
    limit = sys.get_int_max_str_digits()
    value = count(CountQuery(IntPolynomial.parse("0,1"), 1000, 1, 1000000000039)).value
    sys.set_int_max_str_digits(0)
    try:
        expected = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > 4300
    args = ("count", "--poly", "0,1", "--k", "1000", "--c", "1", "--n", "1000000000039")
    plain = run(*args)
    assert plain.exit_code == 0
    assert plain.output == expected + "\n"
    as_json = run("--format", "json", *args)
    assert as_json.exit_code == 0
    assert json.loads(as_json.output)["value"] == expected
    table = run("table", "--poly", "0,1", "--k", "6000", "--n", "30")
    assert table.exit_code == 0
    assert len(table.output.splitlines()) == 31
    assert sys.get_int_max_str_digits() == limit
    # an oversized numeric argument is still rejected by the parser
    oversized = run("count", "--poly", "0,1", "--k", "2", "--c", "1", "--n", "9" * 4301)
    assert oversized.exit_code == 2


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


def test_table_over_budget_exits_2():
    walk = run("table", "--poly", "0,-1,0,1", "--k", "800", "--n", "7")
    assert walk.exit_code == 2
    assert "budget" in walk.stderr


def test_count_above_the_root_scan_cap_exits_2_without_scanning():
    # x**2 + 1 has no closed form at 10000019, the least prime above 10**7
    started = time.perf_counter()
    result = run("count", "--poly", "1,0,1", "--k", "2", "--c", "1", "--n", "10000019")
    assert time.perf_counter() - started < 0.1
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: prime 10000019 exceeds the root-scan cap 10000000\n"


def test_budget_options_are_gone():
    for option, value in (("--scan-cap", "50"), ("--enum-budget", "10")):
        result = run(option, value, "exunits", "--poly", "0,1", "--n", "6")
        assert result.exit_code == 2
        assert f"No such option '{option}'" in result.stderr


def test_small_queries_never_import_numpy():
    # numpy is loaded only by scans and enumerations at p or n >= 64
    script = (
        "import sys\n"
        "from exunits.cli import cli\n"
        "for argv in (['count', '--poly', '0,1,-1', '--k', '3', '--c', '1', '--n', '35'],\n"
        "             ['table', '--poly', '0,1,-1', '--k', '3', '--n', '35']):\n"
        "    try:\n"
        "        cli.main(args=argv, prog_name='exunits')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "print('numpy' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout.splitlines()[-1] == "False"


def test_exunits_listing():
    result = run("exunits", "--poly", "0,1,-1", "--n", "5")
    assert result.exit_code == 0
    assert result.output == "2\n3\n4\n#E = 3\n"
    empty = run("exunits", "--poly", "0,1,-1", "--n", "6")
    assert empty.output == "#E = 0\n"
    units = run("exunits", "--poly", "0,1", "--n", "6")
    assert units.output == "1\n5\n#E = 2\n"


def test_exunits_budget_error():
    result = run("exunits", "--poly", "0,1", "--n", "1000001")
    assert result.exit_code == 2
    assert result.stderr == "error: n = 1000001 exceeds the enumeration budget 1000000\n"


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
