"""Command-line surface: catalog, verify, integrate, trace.

Exit codes: 0 success; 1 identity failure; 2 configuration error;
3 domain breach during integration (partial CSV retained); 4 step failure;
5 no phase point matches the requested levels.

Every run that produces files also writes ``<out>.manifest.json`` recording
the resolved configuration, seed, tool version and timestamps.  Timestamps
live only in the manifest so reports and CSVs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .dynamics import (
    METHODS,
    IntegratorControls,
    Trajectory,
    detect_closure,
    drift_report,
    integrate,
    sample_interval,
)
from .errors import (
    DomainBreach,
    DomainError,
    InsufficientSpan,
    NoSolution,
    SamplerExhausted,
    StepFailure,
    UnsupportedError,
)
from .levels import solve_levels
from .phase import PhasePoint
from .systems import (
    Family,
    SystemSpec,
    characteristic_period,
    default_box,
    domain_description,
    geodesic_polar,
    to_internal,
)
from .verification import (
    IdentityResult,
    build_suite,
    independence_report,
    run_suite,
    sample_points,
)

SEED_ENV_VAR = "SUPERFACT_SEED"
INDEPENDENCE_FRACTION = 0.99
INDEPENDENCE_POINTS = 200

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_CONFIG = 2
EXIT_BREACH = 3
EXIT_STEP_FAILURE = 4
EXIT_NO_SOLUTION = 5


class _ConfigError(Exception):
    """Bad flags, config file, or parameter combination (exit 2)."""


# ---------- catalog data ----------


def _catalog_entries() -> list[dict]:
    return [
        {
            "family": "euclidean",
            "description": "anisotropic oscillator on the Euclidean plane",
            "coordinates": "internal (xi, y, p_xi, p_y); external x = xi/gamma",
            "hamiltonian": "H = p_y^2/2 + omega^2 y^2/2 + gamma^2 * Hxi",
            "second_integral": "Hxi = p_xi^2/2 + omega^2 xi^2/(2 gamma^2)",
            "parameters": {"omega": "> 0", "gamma": "m/n, integers m, n >= 1"},
            "gamma_bound": "gamma > 0",
            "domain": domain_description(Family.EUCLIDEAN),
            "characteristic_period": "2 pi / omega",
            "special_cases": [
                "gamma = 1: isotropic 1:1 oscillator (circular/elliptic orbits)",
                "gamma = 2: 2:1 anisotropic oscillator (Lissajous figures)",
            ],
        },
        {
            "family": "sphere",
            "description": "anisotropic oscillator on the two-sphere",
            "coordinates": "internal (xi, y, p_xi, p_y) with xi = gamma x",
            "hamiltonian": "H = p_y^2/2 + gamma^2 * Hxi / cos^2 y - omega^2/2",
            "second_integral": "Hxi = p_xi^2/2 + omega^2/(2 gamma^2 cos^2 xi)",
            "parameters": {"omega": "> 0", "gamma": "m/n >= 1/2"},
            "gamma_bound": "gamma >= 1/2",
            "domain": domain_description(Family.SPHERE),
            "characteristic_period": "2 pi / omega",
            "special_cases": [
                "gamma = 1: Higgs oscillator on the sphere",
                "gamma = 2: spherical analogue of the 2:1 oscillator",
            ],
        },
        {
            "family": "ttw",
            "description": "Tremblay-Turbiner-Winternitz oscillator in the plane",
            "coordinates": "internal polar (r, theta, p_r, p_theta), theta = gamma phi",
            "hamiltonian": "H = p_r^2 + omega^2 r^2 + gamma^2 * Htheta / r^2",
            "second_integral": "Htheta = p_theta^2 + alpha^2/cos^2 theta"
            " + beta^2/sin^2 theta",
            "parameters": {
                "omega": "> 0",
                "gamma": "m/n >= 1/4",
                "alpha": "real (angular barrier strength)",
                "beta": "real (angular barrier strength)",
            },
            "gamma_bound": "gamma >= 1/4",
            "domain": domain_description(Family.TTW),
            "characteristic_period": "pi / omega",
            "special_cases": [
                "rational gamma = m/n: all bounded orbits close",
            ],
        },
    ]


def cmd_catalog(args) -> int:
    entries = _catalog_entries()
    if args.family:
        entries = [e for e in entries if e["family"] == args.family]
        if not entries:
            raise _ConfigError(f"unknown family {args.family!r}")
    if args.json:
        print(json.dumps({"families": entries}, indent=2, sort_keys=True))
        return EXIT_OK
    for e in entries:
        print(f"{e['family']}: {e['description']}")
        print(f"  coordinates       {e['coordinates']}")
        print(f"  hamiltonian       {e['hamiltonian']}")
        print(f"  second integral   {e['second_integral']}")
        for name, what in e["parameters"].items():
            print(f"  parameter         {name}: {what}")
        print(f"  gamma bound       {e['gamma_bound']}")
        print(f"  domain            {e['domain']}")
        print(f"  period scale      {e['characteristic_period']}")
        for s in e["special_cases"]:
            print(f"  special case      {s}")
        print()
    return EXIT_OK


# ---------- shared plumbing ----------


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--system", choices=[f.value for f in Family], help="Hamiltonian family"
    )
    parser.add_argument("--omega", type=float, help="oscillator frequency (default 1)")
    parser.add_argument("--gamma", help="rational frequency ratio, 'm/n' or 'k'")
    parser.add_argument("--alpha", type=float, help="TTW angular barrier strength")
    parser.add_argument("--beta", type=float, help="TTW angular barrier strength")
    parser.add_argument(
        "--config", help="JSON file with the system description; flags override it"
    )


def _resolve_spec(args) -> SystemSpec:
    data: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise _ConfigError("config file must hold a JSON object")
    if args.system:
        data["family"] = args.system
    if args.omega is not None:
        data["omega"] = args.omega
    if args.gamma:
        data["gamma"] = args.gamma
    if args.alpha is not None:
        data["alpha"] = args.alpha
    if args.beta is not None:
        data["beta"] = args.beta
    if "family" not in data:
        raise _ConfigError("no system selected: pass --system or --config")
    if "gamma" not in data:
        raise _ConfigError("no frequency ratio: pass --gamma m/n")
    data.setdefault("omega", 1.0)
    try:
        return SystemSpec.from_json_dict(data)
    except (ValueError, TypeError, KeyError) as exc:
        raise _ConfigError(f"invalid system configuration: {exc}") from exc


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError as exc:
            raise _ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
    return 0


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(
    out: str,
    command: str,
    spec: SystemSpec,
    run_args: dict,
    seed: int | None,
    outputs: list[str],
    started: str,
    extra: dict | None = None,
) -> str:
    path = f"{out}.manifest.json"
    manifest = {
        "tool": "superfact",
        "version": __version__,
        "command": command,
        "config": spec.to_json_dict(),
        "args": run_args,
        "seed": seed,
        "started": started,
        "finished": _utc_now(),
        "outputs": outputs,
    }
    if extra:
        manifest.update(extra)
    _write_json(path, manifest)
    return path


# ---------- verify ----------


def _failure_cause(result: IdentityResult) -> str:
    """Why an identity failed: its points that were not finite, an error of
    the whole batch, or a residual above the tolerance."""
    flagged = sum(e.startswith("point ") for e in result.errors)
    causes = [e for e in result.errors if not e.startswith("point ")]
    if flagged:
        causes.insert(0, f"{flagged} of {result.samples} points not finite")
    if result.max_residual > result.tolerance:
        causes.append(
            f"max residual {result.max_residual:.3e} > tol {result.tolerance:.1e}"
        )
    return "; ".join(causes)


def _verify_timing(clock: list[float], results) -> dict:
    """The manifest's ``timing`` block from the clock readings at the
    start and after sampling, the suite, the independence survey and the
    report.  An identity's seconds include the gradients it is the first
    to take on the batch."""
    stages = ("sample_s", "suite_s", "independence_s", "write_s")
    timing = {name: b - a for name, a, b in zip(stages, clock, clock[1:])}
    timing["identities_s"] = {r.label: r.seconds for r in results}
    timing["slowest_identity"] = max(results, key=lambda r: r.seconds).label
    return timing


def cmd_verify(args) -> int:
    spec = _resolve_spec(args)
    seed = _resolve_seed(args)
    if args.samples < 1:
        raise _ConfigError("--samples must be at least 1")
    started = _utc_now()
    box = default_box(spec)
    clock = [time.perf_counter()]
    try:
        points = sample_points(spec, box, args.samples, seed)
    except SamplerExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    clock.append(time.perf_counter())
    suite = build_suite(spec)
    report = run_suite(spec, suite, points, seed=seed, box=box)
    clock.append(time.perf_counter())

    indep_points = points[:INDEPENDENCE_POINTS]
    independence = {
        "with_X": independence_report(spec, indep_points, "with_X"),
        "with_Y": independence_report(spec, indep_points, "with_Y"),
    }
    clock.append(time.perf_counter())
    indep_ok = all(
        block["fraction_full"] >= INDEPENDENCE_FRACTION
        for block in independence.values()
    )
    overall = report.passed and indep_ok

    payload = report.to_json_dict()
    payload["independence"] = independence
    payload["summary"] = {"pass": overall}

    report_path = f"{args.out}.report.json"
    _write_json(report_path, payload)
    clock.append(time.perf_counter())
    manifest_path = _write_manifest(
        args.out,
        "verify",
        spec,
        {"samples": args.samples, "box": box.to_json_dict()},
        seed,
        [report_path],
        started,
        extra={"timing": _verify_timing(clock, report.identities)},
    )

    worst = max((r.max_residual for r in report.identities), default=0.0)
    status = "PASS" if overall else "FAIL"
    print(
        f"verify {spec.family.value} gamma={spec.gamma}: {status} "
        f"({len(report.identities)} identities, {len(points)} points, "
        f"max residual {worst:.3e})"
    )
    for r in report.identities:
        if not r.passed:
            print(f"  FAIL {r.label}: {_failure_cause(r)}")
    for name, block in independence.items():
        if block["fraction_full"] < INDEPENDENCE_FRACTION:
            cause = ""
            if block["non_finite"]:
                cause = (
                    f" (gradients not finite at {block['non_finite']} of "
                    f"{block['points']} points: overflow)"
                )
            print(
                f"  FAIL independence {name}: fraction {block['fraction_full']:.3f}{cause}"
            )
    print(f"report: {report_path}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK if overall else EXIT_IDENTITY_FAILURE


# ---------- integrate ----------


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _ConfigError(f"{flag} expects two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise _ConfigError(f"{flag}: {exc}") from exc


def _add_integration_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t-end", type=float, default=None, dest="t_end")
    parser.add_argument("--rel-tol", type=float, default=1e-10, dest="rel_tol")
    parser.add_argument("--abs-tol", type=float, default=1e-12, dest="abs_tol")
    parser.add_argument("--max-step", type=float, default=None, dest="max_step")
    parser.add_argument("--sample-dt", type=float, default=None, dest="sample_dt")
    parser.add_argument(
        "--method",
        choices=METHODS,
        default=IntegratorControls.method,
        help="integrator (default: %(default)s)",
    )
    parser.add_argument("--fixed-dt", type=float, default=None, dest="fixed_dt")
    parser.add_argument(
        "--closure-eps",
        type=float,
        default=None,
        dest="closure_eps",
        help="also run closure detection at this tolerance",
    )


def _integration_settings(spec: SystemSpec, args):
    """The controls, end time and manifest ``args`` of the integration
    options, checked before any work starts."""
    try:
        controls = IntegratorControls(
            rel_tol=args.rel_tol,
            abs_tol=args.abs_tol,
            max_step=args.max_step,
            sample_dt=args.sample_dt,
            method=args.method,
            fixed_dt=args.fixed_dt,
        )
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    t_end = args.t_end if args.t_end is not None else 10 * characteristic_period(spec)
    if not t_end > 0:
        raise _ConfigError("--t-end must be positive")
    if args.closure_eps is not None and not args.closure_eps > 0:
        raise _ConfigError("--closure-eps must be positive")
    sample_interval(spec, t_end, controls)  # ValueError on too fine a grid
    run_args = {
        "t_end": t_end,
        "rel_tol": controls.rel_tol,
        "abs_tol": controls.abs_tol,
        "max_step": controls.max_step,
        "sample_dt": controls.sample_dt,
        "fixed_dt": controls.fixed_dt,
        "method": controls.method,
        "closure_eps": args.closure_eps,
    }
    return controls, t_end, run_args


def _initial_point(spec: SystemSpec, args) -> PhasePoint:
    q0 = _parse_pair(args.q0, "--q0")
    p0 = _parse_pair(args.p0, "--p0")
    if args.external:
        try:
            return to_internal(spec, PhasePoint(q0[0], q0[1], p0[0], p0[1]))
        except (DomainError, ValueError) as exc:
            raise _ConfigError(f"initial point invalid: {exc}") from exc
    try:
        point = PhasePoint(q0[0], q0[1], p0[0], p0[1])
    except ValueError as exc:
        raise _ConfigError(f"initial point invalid: {exc}") from exc
    return point


def _csv_rows(
    spec: SystemSpec,
    traj: Trajectory,
    external_angle: bool,
    extra: tuple[list[str], np.ndarray] | None,
):
    header = ["t", "q1", "q2", "p1", "p2", "H", "I2", "X", "Y"]
    columns = [
        traj.t,
        traj.states[:, 0],
        traj.states[:, 1],
        traj.states[:, 2],
        traj.states[:, 3],
        traj.energy,
        traj.second,
        traj.sym_x,
        traj.sym_y,
    ]
    if external_angle:
        header.append("phi")
        columns.append(traj.states[:, 1] / spec.gamma.value)
    if extra is not None:
        names, arr = extra
        header.extend(names)
        for k in range(arr.shape[1]):
            columns.append(arr[:, k])
    return header, columns


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    n = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(f"{float(col[i]):.17g}" for col in columns) + "\n")


def _projection(spec: SystemSpec, traj: Trajectory, plane: str):
    """Extra plotting columns: polar ``(r, theta)`` or Cartesian ``(x, y)``
    in external coordinates."""
    q1 = traj.states[:, 0]
    q2 = traj.states[:, 1]
    g = spec.gamma.value
    fam = spec.family
    if plane == "rtheta":
        if fam is Family.TTW:
            r, th = q1, q2
        elif fam is Family.EUCLIDEAN:
            x = q1 / g
            r = np.hypot(x, q2)
            th = np.arctan2(q2, x)
        else:
            pairs = [geodesic_polar(spec, traj.point(i)) for i in range(len(traj))]
            r = np.array([p[0] for p in pairs])
            th = np.array([p[1] for p in pairs])
        return ["r", "theta"], np.column_stack([r, th])
    if plane == "xy":
        if fam is Family.TTW:
            phi = q2 / g
            return ["x", "y"], np.column_stack([q1 * np.cos(phi), q1 * np.sin(phi)])
        return ["x", "y"], np.column_stack([q1 / g, q2])
    raise _ConfigError(f"unknown plane {plane!r}")


def _run_integration(
    spec: SystemSpec,
    initial: PhasePoint,
    t_end: float,
    controls: IntegratorControls,
    args,
    command: str,
    run_args: dict,
    report_extra: dict | None = None,
    manifest_extra: dict | None = None,
    started: str | None = None,
) -> int:
    started = started or _utc_now()
    out = args.out
    csv_path = f"{out}.csv"
    report_path = f"{out}.report.json"
    external_angle = bool(getattr(args, "external_angle", False))
    if external_angle and spec.family is not Family.TTW:
        raise _ConfigError("--external-angle applies to the ttw family only")
    plane = getattr(args, "plane", None)

    breach_info = None
    try:
        traj = integrate(spec, initial, t_end, controls)
    except DomainBreach as exc:
        breach_info = {
            "time": exc.time,
            "state": list(exc.state.as_array()) if exc.state is not None else None,
            "message": str(exc),
        }
        traj = exc.trajectory
    except StepFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_manifest(
            out, command, spec, run_args, None, [], started,
            extra={**(manifest_extra or {}), "status": "step_failure", "message": str(exc)},
        )
        return EXIT_STEP_FAILURE

    extra_cols = _projection(spec, traj, plane) if plane else None
    header, columns = _csv_rows(spec, traj, external_angle, extra_cols)
    _write_csv(csv_path, header, columns)

    report: dict = {
        "spec": spec.to_json_dict(),
        "initial_internal": list(initial.as_array()),
        "t_end": t_end,
        "method": controls.method,
        "samples": len(traj),
        "status": "breach" if breach_info else "completed",
    }
    if report_extra:
        report.update(report_extra)
    if len(traj):
        report["drift"] = drift_report(traj).to_json_dict()
    if breach_info:
        report["breach"] = breach_info
    if args.closure_eps is not None and breach_info is None:
        try:
            report["closure"] = detect_closure(traj, args.closure_eps).to_json_dict()
        except InsufficientSpan as exc:
            report["closure"] = {"closed": None, "reason": str(exc)}
    _write_json(report_path, report)

    manifest_extra = {
        **(manifest_extra or {}),
        "status": report["status"],
        "integrator": {
            "rhs_evaluations": traj.rhs_evaluations,
            "steps_accepted": traj.steps_accepted,
            "steps_rejected": traj.steps_rejected,
        },
    }
    if breach_info:
        manifest_extra["breach"] = breach_info
    _write_manifest(
        out,
        command,
        spec,
        run_args,
        None,
        [csv_path, report_path],
        started,
        extra=manifest_extra,
    )

    if breach_info:
        print(
            f"integration stopped: {breach_info['message']} "
            f"(partial CSV with {report['samples']} samples kept)"
        )
        print(f"csv: {csv_path}")
        return EXIT_BREACH
    drift = report.get("drift", {})
    h_drift = drift.get("H", {}).get("relative_drift", 0.0)
    print(
        f"{command} {spec.family.value} gamma={spec.gamma}: {report['samples']} samples "
        f"over t=[0,{t_end:g}], relative H drift {h_drift:.3e}"
    )
    if "closure" in report:
        c = report["closure"]
        if c.get("closed"):
            period = c.get("period")
            if period is not None:
                print(f"closure: closed orbit, period {period:.9g}")
            else:
                print("closure: stationary point")
        elif c.get("closed") is None:
            print(f"closure: undetermined ({c.get('reason')})")
        else:
            print(f"closure: open at this span (best return {c['return_distance']:.3e})")
    print(f"csv: {csv_path}")
    print(f"report: {report_path}")
    return EXIT_OK


def cmd_integrate(args) -> int:
    spec = _resolve_spec(args)
    controls, t_end, run_args = _integration_settings(spec, args)
    initial = _initial_point(spec, args)
    run_args.update(
        q0=list(_parse_pair(args.q0, "--q0")),
        p0=list(_parse_pair(args.p0, "--p0")),
        frame="external" if args.external else "internal",
        external_angle=bool(args.external_angle),
    )
    return _run_integration(
        spec, initial, t_end, controls, args, "integrate", run_args
    )


# ---------- trace ----------


def _parse_symmetry(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise _ConfigError("--symmetry expects X=<value> or Y=<value>")
    name, _, raw = text.partition("=")
    name = name.strip().upper()
    if name not in ("X", "Y"):
        raise _ConfigError("--symmetry expects X=<value> or Y=<value>")
    try:
        return name, float(raw)
    except ValueError as exc:
        raise _ConfigError(f"--symmetry value: {exc}") from exc


def cmd_trace(args) -> int:
    started = _utc_now()
    spec = _resolve_spec(args)
    controls, t_end, run_args = _integration_settings(spec, args)
    sym_name, sym_value = _parse_symmetry(args.symmetry)
    run_args.update(
        energy=args.energy,
        second=args.second,
        symmetry=f"{sym_name}={sym_value!r}",
        plane=args.plane,
    )
    targets = np.array([args.energy, args.second, sym_value], dtype=float)
    try:
        z, residual, search = solve_levels(spec, sym_name, targets)
    except NoSolution as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_manifest(
            args.out, "trace", spec, run_args, None, [], started,
            extra={
                "status": "no_solution",
                "message": str(exc),
                "level_search": exc.search.to_json_dict(),
            },
        )
        return EXIT_NO_SOLUTION
    initial = PhasePoint(z[0], z[1], z[2], z[3])
    run_args["solution_point"] = [float(v) for v in z]
    report_extra = {
        "levels": {"H": args.energy, "I2": args.second, sym_name: sym_value},
        "solution": {
            "internal": [float(v) for v in z],
            "level_residual": float(residual),
        },
    }
    print(
        f"levels matched at internal point "
        f"({z[0]:.6g}, {z[1]:.6g}, {z[2]:.6g}, {z[3]:.6g}), residual {residual:.3e}"
    )
    return _run_integration(
        spec, initial, t_end, controls, args, "trace", run_args, report_extra,
        manifest_extra={"level_search": search.to_json_dict()},
        started=started,
    )


# ---------- parser and entry ----------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superfact",
        description=(
            "Factorized superintegrable oscillators: identity certification, "
            "trajectory integration, and orbit tracing."
        ),
    )
    parser.add_argument("--version", action="version", version=f"superfact {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_cat = sub.add_parser("catalog", help="list the supported Hamiltonian families")
    p_cat.add_argument("--family", help="restrict to one family")
    p_cat.add_argument("--json", action="store_true", help="machine-readable output")
    p_cat.set_defaults(func=cmd_catalog)

    p_ver = sub.add_parser("verify", help="run the identity suite and rank checks")
    _add_spec_arguments(p_ver)
    p_ver.add_argument("--samples", type=int, default=1000, help="points to sample")
    p_ver.add_argument("--seed", type=int, default=None, help="sampler seed")
    p_ver.add_argument("--out", default="verify", help="output path prefix")
    p_ver.set_defaults(func=cmd_verify)

    p_int = sub.add_parser("integrate", help="integrate a trajectory and export CSV")
    _add_spec_arguments(p_int)
    p_int.add_argument("--q0", required=True, help="initial positions 'a,b'")
    p_int.add_argument("--p0", required=True, help="initial momenta 'c,d'")
    p_int.add_argument(
        "--external",
        action="store_true",
        help="interpret --q0/--p0 in external coordinates",
    )
    _add_integration_arguments(p_int)
    p_int.add_argument(
        "--external-angle",
        action="store_true",
        dest="external_angle",
        help="add a phi = theta/gamma column (ttw only)",
    )
    p_int.add_argument("--out", default="trajectory", help="output path prefix")
    p_int.set_defaults(func=cmd_integrate)

    p_tr = sub.add_parser(
        "trace", help="find a point on prescribed integral levels and integrate it"
    )
    _add_spec_arguments(p_tr)
    p_tr.add_argument("--energy", type=float, required=True, help="H level")
    p_tr.add_argument("--second", type=float, required=True, help="sector level")
    p_tr.add_argument(
        "--symmetry", required=True, help="higher integral level, 'X=c' or 'Y=c'"
    )
    p_tr.add_argument(
        "--plane",
        choices=["rtheta", "xy"],
        default=None,
        help="append 2D projection columns for plotting",
    )
    _add_integration_arguments(p_tr)
    p_tr.add_argument("--out", default="trace", help="output path prefix")
    p_tr.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.func(args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnsupportedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
