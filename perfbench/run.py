#!/usr/bin/env python3
"""Benchmark of the superfact CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``superfact`` from
``src/`` there and fails (exit 2, no result) when that is missing.  One
caller drives ``superfact.cli.main(argv)`` in this process in a closed loop:
each command starts when the previous one has returned.  BLAS threads are
capped at one.  Every input comes from ``--seed``, every output is checked,
and the last line of standard output is the JSON result.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs one round
of the workload alternately without and with span tracing and reports the
per-layer metrics and the tracing overhead.  See README.md.
"""

import os

BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is first imported
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROCESSES = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import superfact, superfact.cli; print(repr(time.perf_counter() - t))"
)
WORK_NAMES = {
    "certify": "checks_per_s",
    "flow": "periods_per_s",
    "trace": "requests_per_s",
}
MAX_PROBLEMS_SHOWN = 10


class ProgramMissing(Exception):
    """The checkout holds no importable superfact sources."""


def load_program():
    sys.path.insert(0, str(SRC))
    try:
        import superfact
        import superfact.cli  # noqa: F401
    except ImportError as exc:
        raise ProgramMissing(f"cannot import superfact from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(superfact.__file__).resolve().parents:
        raise ProgramMissing(f"superfact was imported from {superfact.__file__}, not {SRC}")
    return superfact


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------- run record ----------


def git_commit():
    """Commit of the checkout, read from ``.git`` without leaving ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "superfact").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args, superfact):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, superfact.cli.main in-process",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "superfact": superfact.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------- command execution ----------


class Runner:
    """Runs commands, checks their outputs and tallies the checks."""

    def __init__(self, out_dir, wl, cli):
        self.out_dir = out_dir
        self.wl = wl
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.inputs = []
        self.seconds = []

    def execute(self, cmd, name, tracer=None):
        """Run one command with outputs under ``out_dir/name``; returns
        its wall time and the check outcome."""
        prefix = str(self.out_dir / name)
        self.wl.remove_outputs(prefix)
        argv = [*cmd.argv, "--out", prefix]
        sink = io.StringIO()
        code = crash = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    with tracer.span(tracing.COMMAND_SPAN):
                        code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # a crash is a failed check, not a failed benchmark
            crash = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        self.seconds.append((cmd.kind, seconds))
        outcome = self.wl.check(cmd, code, prefix)
        if code is None:
            outcome.problems.insert(0, crash)
        self.tally(outcome.attempted, outcome.failed, outcome.problems, cmd)
        return seconds, outcome

    def tally(self, attempted, failed, problems, cmd):
        self.attempted += attempted
        self.failed += failed
        for problem in problems:
            if len(self.problems) < MAX_PROBLEMS_SHOWN:
                self.problems.append(f"{problem} [superfact {shlex.join(cmd.argv)}]")

    def log_input(self, cmd):
        self.inputs.append(list(cmd.argv))
        print(f"input {len(self.inputs) - 1}: superfact {shlex.join(cmd.argv)}")

    def repeat_check(self, cmd):
        """Run ``cmd`` again and require byte-identical report and CSV."""
        self.execute(cmd, "repeat")
        differ = []
        for suffix in (".report.json", ".csv"):
            first = self.out_dir / ("first" + suffix)
            again = self.out_dir / ("repeat" + suffix)
            if first.exists() or again.exists():
                if not (first.exists() and again.exists()
                        and first.read_bytes() == again.read_bytes()):
                    differ.append(suffix)
        problems = [f"repeated command wrote different {', '.join(differ)}"] if differ else []
        self.tally(1, int(bool(differ)), problems, cmd)


def run_groups(runner, groups, tracer=None, first=False):
    """Run the commands of ``groups``; returns per-command times, work done
    and outcomes."""
    times, work, outcomes = [], 0.0, []
    for group in groups:
        for cmd in group:
            name = "first" if first and not times else "cmd"
            if tracer is not None:
                tracer.request += 1
            seconds, outcome = runner.execute(cmd, name, tracer)
            times.append(seconds)
            work += outcome.work
            outcomes.append(outcome)
    return times, work, outcomes


# ---------- end-to-end run ----------


def measure_setup():
    """Median wall time of importing superfact in fresh processes."""
    values = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(float(proc.stdout.split()[-1]))
    return values


def end_to_end(args, runner, wl):
    setup = measure_setup()
    per_round = wl.groups_per_round(args.workload)
    times, work = [], 0.0
    first_cmd = None
    start = time.perf_counter()
    k = 0
    while True:
        group = wl.group(args.workload, args.seed, *divmod(k, per_round))
        for cmd in group:
            runner.log_input(cmd)
        t, w, _ = run_groups(runner, [group], first=(k == 0))
        times += t
        work += w
        first_cmd = first_cmd or group[0]
        k += 1
        if time.perf_counter() - start >= args.seconds:
            break
    runner.repeat_check(first_cmd)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_s_p50": (statistics.median(times), "s", len(times)),
        "work_per_s": (work / sum(times), "1/s", len(times)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    print(f"commands: {len(times)} in {k} groups; {WORK_NAMES[args.workload]} is work_per_s")
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        print(f"op_s_p90 = {p90:.6g} s (n={len(times)}, informational)")
    return metrics


# ---------- traced run ----------


def microbench(seed, repeats=15):
    """ns per DualComplex multiply on Python complex and on (4, 1000) arrays."""
    import numpy as np
    from superfact.scalars import DualComplex

    rng = np.random.default_rng(seed)

    def dual(shape=None):
        parts = rng.standard_normal((4,) if shape is None else (4, *shape))
        if shape is None:
            return DualComplex(complex(parts[0], parts[1]), complex(parts[2], parts[3]))
        return DualComplex(parts[0] + 1j * parts[1], parts[2] + 1j * parts[3])

    scalar = timeit.Timer("a * b", globals={"a": dual(), "b": dual()})
    shape = (4, 1000)
    array = timeit.Timer("a * b", globals={"a": dual(shape), "b": dual(shape)})
    scalar_ns = [scalar.timeit(20000) / 20000 * 1e9 for _ in range(repeats)]
    array_ns = [array.timeit(200) / 200 / (shape[0] * shape[1]) * 1e9 for _ in range(repeats)]
    return scalar_ns, array_ns


def report_layers(outcomes):
    """Per-layer figures read from the outputs rather than from spans."""
    found = {"fallback_points": 0, "identities_failed": 0, "drift_H": 0.0,
             "drift_X": 0.0, "closed": 0, "closure_checks": 0}
    for outcome in outcomes:
        report = outcome.report
        if report is None:
            continue
        for ident in report.get("identities", ()):
            found["fallback_points"] += len(ident.get("errors", ()))
            found["identities_failed"] += not ident["pass"]
        drift = report.get("drift", {})
        found["drift_H"] = max(found["drift_H"], drift.get("H", {}).get("relative_drift", 0.0))
        found["drift_X"] = max(found["drift_X"], drift.get("X", {}).get("relative_drift", 0.0))
        if "closure" in report:
            found["closure_checks"] += 1
            found["closed"] += bool(report["closure"].get("closed"))
    return found


def traced(args, runner, wl):
    scalar_ns, array_ns = microbench(args.seed)
    per_round = wl.groups_per_round(args.workload)
    rnd = [wl.group(args.workload, args.seed, 0, i) for i in range(per_round)]
    for group in rnd:
        for cmd in group:
            runner.log_input(cmd)
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    cycles = 0
    outcomes = None
    start = time.perf_counter()
    while True:
        plain, _, _ = run_groups(runner, rnd, first=(cycles == 0))
        with tracing.installed(tracer):
            spanned, _, found = run_groups(runner, rnd, tracer)
        plain_s += sum(plain)
        traced_s += sum(spanned)
        outcomes = outcomes or found
        cycles += 1
        if time.perf_counter() - start >= args.seconds:
            break
    runner.repeat_check(rnd[0][0])
    span_path = runner.out_dir / "spans.csv"
    tracer.write(str(span_path))
    print(f"spans: {len(tracer.spans)} stored and {len(tracer.leaves)} leaf roll-ups over "
          f"{cycles} traced rounds, written to {span_path}")

    by_name, by_layer = tracing.summarize(tracer)

    def span(name, field):
        return by_name.get(name, {}).get(field, 0.0)

    per = 1.0 / cycles
    found = report_layers(outcomes)
    nfev = tracer.nfev * per
    solve_s = span("dynamics.solve_ivp", "s") * per
    q_scalar = statistics.quantiles(scalar_ns, n=4)
    q_array = statistics.quantiles(array_ns, n=4)
    print(f"scalars.dual_mul_scalar_ns quartiles {q_scalar[0]:.1f} / {q_scalar[1]:.1f} / "
          f"{q_scalar[2]:.1f} ns (n={len(scalar_ns)})")
    print(f"scalars.dual_mul_array_ns_per_elem quartiles {q_array[0]:.3f} / {q_array[1]:.3f} / "
          f"{q_array[2]:.3f} ns (n={len(array_ns)})")
    metrics = {
        "scalars.dual_mul_scalar_ns": (q_scalar[1], "ns", len(scalar_ns)),
        "scalars.dual_mul_array_ns_per_elem": (q_array[1], "ns", len(array_ns)),
    }
    for name in ("phase.eval_batch", "phase.gradient_batch", "phase.gradient",
                 "phase.observable_call", "systems.domain_check",
                 "verification.run_identity", "dynamics.integrate"):
        metrics[f"{name}.calls"] = (span(name, "calls") * per, "count", cycles)
        metrics[f"{name}.s"] = (span(name, "s") * per, "s", cycles)
    for name in ("verification.sample_points", "verification.build_suite",
                 "verification.independence_report", "dynamics.solve_ivp",
                 "dynamics.detect_closure"):
        metrics[f"{name}.s"] = (span(name, "s") * per, "s", cycles)
    metrics["verification.run_identity.s_max"] = (span("verification.run_identity", "s_max"),
                                                  "s", cycles)
    metrics["verification.fallback_points"] = (found["fallback_points"], "count", 1)
    metrics["verification.identities_failed"] = (found["identities_failed"], "count", 1)
    metrics["dynamics.integrate.self_s"] = (span("dynamics.integrate", "self_s") * per, "s",
                                            cycles)
    metrics["dynamics.nfev"] = (nfev, "count", cycles)
    metrics["dynamics.rhs_us"] = (solve_s / nfev * 1e6 if nfev else 0.0, "us", cycles)
    metrics["dynamics.drift_max.H"] = (found["drift_H"], "ratio", 1)
    metrics["dynamics.drift_max.X"] = (found["drift_X"], "ratio", 1)
    metrics["dynamics.closed"] = (found["closed"], "count", 1)
    metrics["dynamics.closure_checks"] = (found["closure_checks"], "count", 1)
    for layer in tracing.LAYERS:
        totals = by_layer[layer]
        metrics[f"{layer}.calls"] = (totals["calls"] * per, "count", cycles)
        metrics[f"{layer}.busy_s"] = (totals["busy_s"] * per, "s", cycles)
        metrics[f"{layer}.self_s"] = (totals["self_s"] * per, "s", cycles)
    metrics["tracing.overhead_s"] = ((traced_s - plain_s) * per, "s", cycles)
    metrics["tracing.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio", cycles)
    return metrics


# ---------- entry ----------


def main(argv=None):
    try:
        superfact = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads as wl  # imports superfact

    args = parse_args(argv, wl.WORKLOADS)
    out_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = run_record(args, superfact)
    print("run " + json.dumps(record, sort_keys=True))
    runner = Runner(out_dir, wl, superfact.cli)
    if args.trace:
        metrics = traced(args, runner, wl)
    else:
        metrics = end_to_end(args, runner, wl)

    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={n})")
    print(f"failed_frac = {runner.failed / max(runner.attempted, 1):.6g} "
          f"({runner.failed} of {runner.attempted} checks)")
    for problem in runner.problems:
        print(f"check failed: {problem}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    with open(out_dir / "run.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "inputs": runner.inputs, "problems": runner.problems,
                   "command_seconds": runner.seconds,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
