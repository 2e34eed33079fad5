"""Benchmark for exunits: seeded workloads, checked answers, metrics as JSON.

Run from the root of a source checkout:

    python3 bench/run.py --workload closed_form_queries --seed 1 --seconds 20 --trace 0

Workloads: closed_form_queries, general_queries, sweeps (see README.md).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a run whose calls into exunits are wrapped in spans.
Every answer is checked against reference.py outside the timed regions. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import reference
import workloads

SRC = os.path.abspath("src")
LAUNCH = "import sys; from exunits.cli import main; sys.exit(main())"
# Set-up and verify samples: SIDE_ROUNDS times two cold starts and one
# verify, spread over the run between rounds.
SIDE_ROUNDS = 5
IMPORT_REPEATS = 3
CALIBRATION_LOOPS = 20_000
CALIBRATION_REFERENCE_S = 0.0017
SIDE_CALIBRATIONS = 5
# p90 needs at least ten samples above it; a run that cannot answer that
# many stops anyway after MAX_STRETCH times --seconds.
MIN_SAMPLES = 100
MAX_STRETCH = 4
# Answers are kept until the checks as their residue mod this prime, so the
# run's memory does not grow with the size of the values it has answered.
FINGERPRINT = 2**61 - 1

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str]) -> tuple[int, str, float, float]:
    """Run a fresh interpreter; (exit code, output, wall s, child CPU s)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=child_env())
    with proc.stdout:
        output = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, output, wall, usage.ru_utime + usage.ru_stime


def run_cli(argv: list[str], out: io.StringIO) -> tuple[int, str]:
    """`exunits <argv>` in this process; (exit code, standard output).

    click keeps a wrapper for every stream it has written to for as long as
    that stream lives, so callers reuse one buffer instead of a fresh one.
    """
    from exunits.cli import cli
    out.seek(0)
    out.truncate()
    with contextlib.redirect_stdout(out):
        try:
            cli.main(args=argv, prog_name="exunits")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def calibrate() -> float:
    """Seconds for a fixed loop of Python integer arithmetic.

    The speed of the machine the figures come from drifts by a quarter and
    more within seconds, and this loop drifts with it. Each timed operation
    runs between two of these loops and is scaled by
    CALIBRATION_REFERENCE_S over their mean.
    """
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return perf_counter() - start


def table_csv(column: list[int]) -> str:
    """The CSV that `exunits table` prints for this column."""
    return "c,value\n" + "".join(f"{c},{v}\n" for c, v in enumerate(column))


@dataclass
class Record:
    round: int
    item: workloads.Query | workloads.Table
    elapsed: float    # seconds, scaled to the reference machine speed
    ok: bool
    outcome: object   # (value fingerprint, method), (exit code, output digest) or the exception


def median_round_rate(records: list[Record]) -> float:
    """Median over rounds of work per timed second; the work of a round is
    its answered queries, or the rows of the tables it printed."""
    work: dict[int, int] = defaultdict(int)
    seconds: dict[int, float] = defaultdict(float)
    for r in records:
        seconds[r.round] += r.elapsed
        if r.ok:
            work[r.round] += r.item.n if isinstance(r.item, workloads.Table) else 1
    return statistics.median(work[i] / seconds[i] for i in seconds)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = None
        if trace:
            import spans
            self.tracer = spans.Tracer()
        self.problems: list[str] = []
        self.stdout = io.StringIO()   # standard output of in-process CLI calls
        self.setup_cpu: list[float] = []
        self.verify_wall: list[float] = []
        self.scales: list[float] = []     # the factor applied to each timing
        self.family = workloads.VERIFY_FAMILY[workload]

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"check failed: {text}", file=sys.stderr)

    # -- set-up and verify, each in a fresh interpreter -----------------------

    def cold_start(self) -> float:
        """One cold CLI call of the workload's kind; returns its child CPU time."""
        item = workloads.COLD_START[self.workload]
        args = ["--poly", item.poly, "--k", str(item.k), "--n", str(item.n)]
        if isinstance(item, workloads.Table):
            args.insert(0, "table")
            expected = table_csv(reference.table_column(item.factors, item.roots_at,
                                                        item.k, item.n))
        else:
            args = ["count", *args, "--c", str(item.c)]
            expected = f"{reference.global_count(item.factors, item.roots_at, item.k, item.c)}\n"
        code, output, _, used = run_child(["-c", LAUNCH, *args])
        if code != 0 or output != expected:
            self.problem(f"cold start {args} printed {output!r}, exit {code}")
        return used

    def verify_argv(self) -> list[str]:
        argv = ["--workers", "1", "verify"]
        for poly in self.family:
            argv += ["--poly", poly]
        return argv

    def check_verify_output(self, code: int, output: str) -> None:
        passes = [line for line in output.splitlines() if ": PASS (" in line]
        if code != 0 or len(passes) != 4 or "all suites passed" not in output:
            self.problem(f"verify exit {code}: {output!r}")

    def verify(self) -> float:
        """One `exunits --workers 1 verify` over the family; returns its wall time."""
        code, output, wall, _ = run_child(["-c", LAUNCH, *self.verify_argv()])
        self.check_verify_output(code, output)
        return wall

    def import_times(self) -> tuple[float, float]:
        """Cumulative import seconds of exunits.cli and of numpy (-X importtime)."""
        totals, numpy_times = [], []
        for _ in range(IMPORT_REPEATS):
            code, output, _, _ = run_child(["-X", "importtime", "-c", "import exunits.cli"])
            if code != 0:
                self.problem(f"import exunits.cli failed: {output!r}")
            total = numpy = 0
            for line in output.splitlines():
                if not line.startswith("import time:") or "|" not in line:
                    continue
                _, cumulative, name = line.split("|")
                if not cumulative.strip().isdigit():
                    continue
                module = name.strip()
                top_level = name.startswith(" ") and not name.startswith("  ")
                if top_level and (module == "exunits" or module.startswith("exunits.")):
                    total += int(cumulative)
                if module == "numpy" and not numpy:
                    numpy = int(cumulative)
            totals.append(total / 1e6)
            numpy_times.append(numpy / 1e6)
        return statistics.median(totals), statistics.median(numpy_times)

    # -- the timed closed loop -----------------------------------------------

    def loop(self, side_jobs: list) -> list[Record]:
        """Whole rounds until the timed calls add up to --seconds.

        side_jobs are (samples, job, scaled) triples; each job runs between
        rounds, spread evenly over the run, and its result joins samples,
        scaled to the reference machine speed when scaled is true.
        """
        import exunits

        count = exunits.count

        def table(argv):
            return run_cli(argv, self.stdout)
        if self.tracer is not None:
            count = self.tracer.wrap("counting.count", count)
            table = self.tracer.wrap("cli.table", table)

        last = calibrate()

        def scale() -> float:
            """The speed factor for what ran since the previous call."""
            nonlocal last
            now = calibrate()
            factor = 2 * CALIBRATION_REFERENCE_S / (last + now)
            last = now
            self.scales.append(factor)
            return factor

        records: list[Record] = []
        timed = 0.0
        answered = 0
        total_jobs = len(side_jobs)
        stream = workloads.STREAMS[self.workload](self.workload, self.seed)
        for index, batch in enumerate(stream.rounds()):
            for item in batch:
                if isinstance(item, workloads.Table):
                    argv = ["table", "--poly", item.poly, "--k", str(item.k), "--n", str(item.n)]
                    start = perf_counter()
                    code, output = table(argv)
                    elapsed = perf_counter() - start
                    outcome = (code, hashlib.sha256(output.encode()).hexdigest())
                    ok = code == 0
                else:
                    start = perf_counter()
                    try:
                        f = exunits.IntPolynomial.parse(item.poly)
                        report = count(exunits.CountQuery(f, item.k, item.c, item.n))
                    except Exception as exc:  # classified in check_queries
                        report = exc
                    elapsed = perf_counter() - start
                    ok = not isinstance(report, Exception)
                    outcome = (report.value % FINGERPRINT, report.method) if ok else report
                records.append(Record(index, item, elapsed * scale(), ok, outcome))
                timed += elapsed
                answered += ok
            done = timed >= self.seconds and (
                answered >= MIN_SAMPLES or timed >= MAX_STRETCH * self.seconds)
            while side_jobs and (done or total_jobs - len(side_jobs)
                                 < total_jobs * timed / self.seconds):
                # A wall-clock job takes seconds, so its factor comes from
                # the median of several loops on either side. Child CPU
                # time is kept as measured: a slow phase of the machine
                # stretches wall time, not CPU time.
                samples, job, scaled = side_jobs.pop(0)
                before = statistics.median(calibrate() for _ in range(SIDE_CALIBRATIONS))
                value = job()
                last = statistics.median(calibrate() for _ in range(SIDE_CALIBRATIONS))
                if scaled:
                    value *= 2 * CALIBRATION_REFERENCE_S / (before + last)
                samples.append(value)
            if done:
                return records

    # -- checks, outside every timed region ----------------------------------

    def check_queries(self, records: list[Record]) -> int:
        """Compare answers with the reference; returns the expected failures."""
        import exunits
        failed = 0
        for r in records:
            q = r.item
            if not r.ok:
                if q.above_bound and isinstance(r.outcome, exunits.DomainError):
                    failed += 1
                else:
                    self.problem(f"{q} raised {r.outcome!r}")
                continue
            value, method = r.outcome
            expected = reference.global_count(q.factors, q.roots_at, q.k, q.c)
            if value != expected % FINGERPRINT:
                self.problem(f"{q} answered a value other than the reference")
            if q.linear_factors is not None and method not in ("linear", "quadratic"):
                self.problem(f"{q} took method {method!r}")
        return failed

    def check_tables(self, records: list[Record]) -> None:
        for r in records:
            t = r.item
            code, digest = r.outcome
            column = reference.table_column(t.factors, t.roots_at, t.k, t.n)
            if sum(column) != reference.exunit_count(workloads.coeffs(t.poly), t.n) ** t.k:
                self.problem(f"reference column of {t} does not sum to |E|^k")
            if code != 0 or digest != hashlib.sha256(table_csv(column).encode()).hexdigest():
                self.problem(f"table {t} exit {code} differs from the reference")

    def check_inject_fault(self) -> None:
        argv = self.verify_argv() + ["--n-max", "4", "--k", "2", "--inject-fault"]
        code, _ = run_cli(argv, self.stdout)
        if code != 1:
            self.problem(f"verify --inject-fault exited {code}, not 1")

    # -- the whole run ---------------------------------------------------------

    def execute(self) -> dict:
        if self.tracer is None:
            side_jobs = [(self.setup_cpu, self.cold_start, False)] * 2 + [
                (self.verify_wall, self.verify, True)]
            records = self.loop(side_jobs * SIDE_ROUNDS)
        else:
            imports = self.import_times()
            restore, missing = self.tracer.install()
            for target in missing:
                self.problem(f"trace target {target} is gone from the program")
            records = self.loop([])
            self.tracer.phase = "verify"
            code, output = run_cli(self.verify_argv(), self.stdout)
            restore()
            self.check_verify_output(code, output)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if isinstance(records[0].item, workloads.Table):
            self.check_tables(records)
            failed = 0
        else:
            failed = self.check_queries(records)
        self.check_inject_fault()

        # Times other than setup_s are at the machine speed where calibrate()
        # takes CALIBRATION_REFERENCE_S; spans inside a run share its median
        # factor.
        scale = statistics.median(self.scales)
        print(f"machine-speed factor: median {scale:.4f}, "
              f"range {min(self.scales):.4f}..{max(self.scales):.4f}")
        rounds = records[-1].round + 1
        ops_per_s = median_round_rate(records)
        latencies = [r.elapsed for r in records if r.ok]
        if len(latencies) < 2:   # the checks have failed; report zeros
            latencies = [0.0, 0.0]
        if self.tracer is None:
            metrics = {
                "ops_per_s": ops_per_s,
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
                "verify_s": statistics.median(self.verify_wall),
                "setup_s": statistics.median(self.setup_cpu),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
        else:
            metrics, units = self.layer_metrics(rounds, ops_per_s, imports, scale)
            os.makedirs(os.path.join("bench", "out"), exist_ok=True)
            self.tracer.dump(os.path.join(
                "bench", "out", f"spans-{self.workload}-{self.seed}.jsonl"))
        return {
            "correct": not self.problems,
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }

    def layer_metrics(self, rounds: int, ops_per_s: float,
                      imports: tuple[float, float], scale: float) -> tuple[dict, dict]:
        loop = self.tracer.summary("loop")
        grid = self.tracer.summary("verify")
        m: dict[str, float] = {}
        u: dict[str, str] = {}

        def per_round(name: str, span: str, field: str = "s") -> None:
            m[name] = loop[span][field] / rounds if span in loop else 0.0
            if field == "calls":
                u[name] = "calls/round"
            else:
                m[name] *= scale
                u[name] = "s/round"

        def share_seen(name: str, span: str) -> None:
            entry = loop.get(span)
            m[name] = entry["seen"] / entry["calls"] if entry and entry["calls"] else 0.0
            u[name] = "share"

        per_round("arith.factorize_s", "arith.factorize")
        per_round("arith.factorize_calls", "arith.factorize", "calls")
        share_seen("arith.factorize_seen_share", "arith.factorize")
        per_round("poly.classify_s", "poly.classify")
        per_round("poly.classify_calls", "poly.classify", "calls")
        per_round("poly.root_scan_s", "poly.root_scan")
        per_round("poly.root_scan_calls", "poly.root_scan", "calls")
        share_seen("poly.root_scan_seen_share", "poly.root_scan")
        per_round("poly.exunit_set_s", "poly.exunit_set")
        per_round("counting.root_sum_s", "counting.root_sum")
        per_round("counting.root_sum_calls", "counting.root_sum", "calls")
        per_round("counting.count_s", "counting.count")
        per_round("counting.count_calls", "counting.count", "calls")
        per_round("counting.self_s", "counting.count", "self_s")
        per_round("cli.table_s", "cli.table")
        per_round("cli.table_self_s", "cli.table", "self_s")
        for name, span in (("oracle.dp_s", "oracle.dp"),
                           ("verify.oracle_equivalence_s", "verify.oracle_equivalence"),
                           ("verify.multiplicativity_s", "verify.multiplicativity"),
                           ("verify.conservation_s", "verify.conservation"),
                           ("verify.fast_path_s", "verify.fast_path")):
            m[name] = grid[span]["s"] * scale if span in grid else 0.0
            u[name] = "s"
        m["oracle.dp_calls"] = grid["oracle.dp"]["calls"] if "oracle.dp" in grid else 0
        u["oracle.dp_calls"] = "calls"
        m["cli.import_s"], m["cli.import_numpy_s"] = (t * scale for t in imports)
        u["cli.import_s"] = u["cli.import_numpy_s"] = "s"
        m["trace.ops_per_s"] = ops_per_s
        u["trace.ops_per_s"] = "1/s"
        return m, u


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "exunits", "__init__.py")):
        print("error: run from the root of an exunits checkout (src/exunits not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    print(f"workload {args.workload} seed {args.seed}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
