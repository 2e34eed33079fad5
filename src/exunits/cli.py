"""Command line interface.

Subcommands: count (one query), table (a full c-sweep), exunits (list
E_f(n)) and verify (the formula-vs-oracle harness). Exit codes are a stable
contract: 0 success, 1 verification mismatch, 2 input error, 3 requested
method inapplicable. Every work budget (root-scan cap, enumeration, oracle,
W, table and rho budgets) is a module constant, not an option; input past
one exits 2.
"""

from __future__ import annotations

import json
import sys

import click

from .arith import prime_test
from .counting import MAX_K, CountQuery, CountReport, LocalFactor, count_table
from .counting import count as compute_count
from .errors import BudgetExceededError, DomainError, FastPathInapplicableError
from .oracle import oracle_global_count, oracle_global_count_dp
from .poly import IntPolynomial, exunit_set
from .verify import DEFAULT_POLYNOMIALS, run_all

EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INAPPLICABLE = 3


@click.group()
@click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]),
              default=None, help="Output format; defaults to plain (csv for table).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for any suite that samples instead of exhausting.")
@click.option("--workers", type=int, default=1,
              help="Accepted for compatibility; has no effect.")
@click.pass_context
def cli(ctx: click.Context, fmt: str | None, seed: int, workers: int) -> None:
    """Count representations of c as a sum of k f-exunits modulo n.

    A residue a is an f-exunit mod n when gcd(f(a), n) = 1; polynomials are
    given as comma-separated coefficients in ascending degree, so "0,1,-1"
    is x - x**2.
    """
    ctx.obj = {"format": fmt, "seed": seed}


def _fail(ctx: click.Context, message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    ctx.exit(code)


def _lift_digit_limit(ctx: click.Context) -> None:
    # Counts grow like n**(k-1) and can pass CPython's limit on int-to-str
    # digits. Lift it once click has parsed the arguments, so an oversized
    # numeric argument is still rejected, and restore it when the command ends.
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        ctx.call_on_close(lambda: sys.set_int_max_str_digits(limit))


def _pick_format(ctx: click.Context, allowed: tuple[str, ...], default: str) -> str:
    fmt = ctx.obj["format"] or default
    if fmt not in allowed:
        _fail(ctx, f"format {fmt!r} is not supported here (choose from {', '.join(allowed)})",
              EXIT_INPUT)
    return fmt


def _parse_query(ctx: click.Context, poly: str, k: int, c: int, n: int) -> CountQuery:
    try:
        return CountQuery(IntPolynomial.parse(poly), k, c, n)
    except DomainError as exc:
        _fail(ctx, str(exc), EXIT_INPUT)
        raise AssertionError("unreachable")


def _report_json(f: IntPolynomial, q: CountQuery, report: CountReport) -> str:
    payload = {
        "poly": f.to_text(),
        "k": q.k,
        "c": q.c_reduced,
        "n": q.n,
        "method_used": report.method,
        "value": str(report.value),
        "per_prime": [_prime_json(lf) for lf in report.per_prime],
    }
    return json.dumps(payload)


def _prime_json(lf: LocalFactor) -> dict:
    entry = {"p": lf.p, "e": lf.exponent, "local_M": str(lf.obstruction_count)}
    if prime_test(lf.p) == "bpsw":
        entry["prime_test"] = "bpsw"    # a probable prime, not a proven one
    return entry


@cli.command("count")
@click.option("--poly", required=True, help="Coefficients, ascending degree.")
@click.option("--k", type=int, required=True, help="Number of summands (>= 2).")
@click.option("--c", type=int, required=True, help="Target residue.")
@click.option("--n", type=int, required=True, help="Modulus (>= 1).")
@click.option("--method",
              type=click.Choice(["auto", "general", "linear", "quadratic",
                                 "oracle", "oracle-dp"]),
              default="auto", show_default=True)
@click.pass_context
def cmd_count(ctx: click.Context, poly: str, k: int, c: int, n: int, method: str) -> None:
    """Print the number of k-tuples of f-exunits mod n summing to c."""
    _lift_digit_limit(ctx)
    fmt = _pick_format(ctx, ("plain", "json"), "plain")
    q = _parse_query(ctx, poly, k, c, n)
    try:
        if method == "oracle":
            report = CountReport(oracle_global_count(q), "oracle", ())
        elif method == "oracle-dp":
            report = CountReport(oracle_global_count_dp(q), "oracle_dp", ())
        else:
            report = compute_count(q, method)
    except FastPathInapplicableError as exc:
        _fail(ctx, str(exc), EXIT_INAPPLICABLE)
        return
    except (DomainError, BudgetExceededError) as exc:
        _fail(ctx, str(exc), EXIT_INPUT)
        return
    if fmt == "json":
        click.echo(_report_json(q.f, q, report))
    else:
        click.echo(str(report.value))


@cli.command("table")
@click.option("--poly", required=True, help="Coefficients, ascending degree.")
@click.option("--k", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.pass_context
def cmd_table(ctx: click.Context, poly: str, k: int, n: int) -> None:
    """Emit the count for every target c in [0, n) as CSV or JSON.

    The column is built from one column of local factors per prime of n and
    checked against |E_f(n)|**k before anything is printed.
    """
    _lift_digit_limit(ctx)
    fmt = _pick_format(ctx, ("csv", "json"), "csv")
    q = _parse_query(ctx, poly, k, 0, n)
    try:
        values = count_table(q.f, k, n)
        expected = len(exunit_set(q.f, n)) ** k
    except (DomainError, BudgetExceededError) as exc:
        _fail(ctx, str(exc), EXIT_INPUT)
        return
    if sum(values) != expected:
        _fail(ctx, "conservation check failed: column sum != |E|**k", EXIT_MISMATCH)
    if fmt == "json":
        click.echo(json.dumps([{"c": c, "value": str(v)} for c, v in enumerate(values)]))
    else:
        click.echo("c,value\n" + "".join(f"{c},{v}\n" for c, v in enumerate(values)), nl=False)


@cli.command("exunits")
@click.option("--poly", required=True, help="Coefficients, ascending degree.")
@click.option("--n", type=int, required=True)
@click.pass_context
def cmd_exunits(ctx: click.Context, poly: str, n: int) -> None:
    """List E_f(n), one residue per line, with a summary count."""
    fmt = _pick_format(ctx, ("plain", "json"), "plain")
    try:
        f = IntPolynomial.parse(poly)
        members = exunit_set(f, n)
    except (DomainError, BudgetExceededError) as exc:
        _fail(ctx, str(exc), EXIT_INPUT)
        return
    if fmt == "json":
        click.echo(json.dumps({"poly": f.to_text(), "n": n,
                               "exunits": list(members), "count": str(len(members))}))
    else:
        click.echo("".join(f"{a}\n" for a in members) + f"#E = {len(members)}")


@cli.command("verify")
@click.option("--n-max", type=int, default=30, show_default=True)
@click.option("--k", "k_text", default="2,3", show_default=True,
              help="Comma-separated list of arities.")
@click.option("--poly", "polys", multiple=True,
              help="Polynomial to sweep (repeatable); defaults to the built-in family.")
@click.option("--inject-fault", is_flag=True, hidden=True,
              help="Perturb one formula value; the run must then fail.")
@click.pass_context
def cmd_verify(ctx: click.Context, n_max: int, k_text: str,
               polys: tuple[str, ...], inject_fault: bool) -> None:
    """Run the oracle-equivalence, multiplicativity, conservation and
    fast-path-agreement suites over a grid; exit 0 only if all pass."""
    _lift_digit_limit(ctx)
    fmt = _pick_format(ctx, ("plain", "json"), "plain")
    try:
        try:
            k_values = tuple(sorted({int(t.strip()) for t in k_text.split(",") if t.strip()}))
        except ValueError:
            raise DomainError(f"bad arity list {k_text!r}") from None
        if not k_values or any(not 2 <= k <= MAX_K for k in k_values):
            raise DomainError(f"bad arity list {k_text!r}")
        if n_max < 1:
            raise DomainError("--n-max must be >= 1")
        family = polys or DEFAULT_POLYNOMIALS
        for text in family:
            IntPolynomial.parse(text)
    except DomainError as exc:
        _fail(ctx, str(exc), EXIT_INPUT)
        return
    try:
        results = run_all(family, k_values, n_max, seed=ctx.obj["seed"],
                          inject_fault=inject_fault)
    except BudgetExceededError as exc:
        _fail(ctx, str(exc), EXIT_INPUT)
        return
    if fmt == "json":
        click.echo(json.dumps([
            {"suite": r.name, "passed": r.passed, "cases": r.cases,
             "counterexample": _stringify_counterexample(r.counterexample)}
            for r in results
        ]))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            click.echo(f"{r.name}: {status} ({r.cases} cases)")
            if not r.passed:
                ce = r.counterexample
                click.echo(
                    f"  counterexample: f={ce['poly']} k={ce['k']} c={ce['c']} "
                    f"n={ce['n']} lhs={ce['lhs']} rhs={ce['rhs']} ({ce['compared']})")
        if all(r.passed for r in results):
            click.echo("all suites passed")
    ctx.exit(0 if all(r.passed for r in results) else EXIT_MISMATCH)


def _stringify_counterexample(ce: dict | None) -> dict | None:
    if ce is None:
        return None
    out = dict(ce)
    out["lhs"] = str(ce["lhs"])
    out["rhs"] = str(ce["rhs"])
    return out


def main() -> None:
    cli(prog_name="exunits")


if __name__ == "__main__":
    main()
