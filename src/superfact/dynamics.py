"""Trajectory integration with conservation monitoring and closure detection.

Integration happens in internal coordinates.  Two integrators are offered:
scipy's adaptive 8th-order Dormand-Prince pair (DOP853) for production
accuracy and a hand-rolled fixed-step implicit midpoint rule as a
structure-preserving cross-check.  Both watch the walls of the family's
chart (:data:`~superfact.systems.WALLS`) and stop with a
:class:`~superfact.errors.DomainBreach` carrying the partial trajectory when
the state reaches a wall's safety margin; the message names the wall.

Both drive the same vector field: the Hamiltonian's gradient compiled once
per system into straight-line float code
(:func:`~superfact.phase.compiled_gradient`), so one evaluation is a few
microseconds of plain float arithmetic.  Every sampled state gets the
energy, the sector integral, and the real constants ``X``/``Y`` attached so
drift can be audited after the fact, and the trajectory records how many
vector-field evaluations it took.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainBreach, DomainError, InsufficientSpan, StepFailure
from .factorization import higher_integral_observables
from .phase import PhaseBatch, PhasePoint, compiled_gradient, eval_batch
from .systems import (
    DELTA_MARGIN,
    WALLS,
    SystemSpec,
    characteristic_period,
    domain_check,
    hamiltonian_observable,
    second_integral_observable,
)

_FIXED_POINT_TOL = 1e-13
_FIXED_POINT_MAX_ITER = 50

METHODS = ("dop853", "midpoint")
MAX_SAMPLE_INTERVALS = 1_000_000  # a finer grid is refused before any allocation


# ---------- configuration and result containers ----------


@dataclass(frozen=True)
class IntegratorControls:
    """Integration knobs; ``None`` fields are resolved from the system's
    characteristic period ``T``: ``max_step = T/10``, ``sample_dt = T/200``,
    ``fixed_dt = sample_dt/10``, ``breach_margin`` = half the sampling margin.

    ``method`` is ``"dop853"`` (the default adaptive 8(5,3) Dormand-Prince
    pair) or ``"midpoint"`` (fixed-step implicit midpoint, driven by
    ``fixed_dt``).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float | None = None
    sample_dt: float | None = None
    method: str = "dop853"
    fixed_dt: float | None = None
    breach_margin: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        for name in ("max_step", "sample_dt", "fixed_dt", "breach_margin"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive when given")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution plus the conserved quantities along it.

    ``states`` has shape ``(n, 4)`` in internal coordinates; ``energy``,
    ``second``, ``sym_x`` and ``sym_y`` are the matching series of ``H``,
    the sector integral, and the real constants of motion.
    ``rhs_evaluations`` counts the vector-field calls the integrator made.
    """

    t: np.ndarray
    states: np.ndarray
    energy: np.ndarray
    second: np.ndarray
    sym_x: np.ndarray
    sym_y: np.ndarray
    spec: SystemSpec
    initial: PhasePoint
    controls: IntegratorControls
    rhs_evaluations: int = 0

    def __len__(self) -> int:
        return len(self.t)

    def point(self, i: int) -> PhasePoint:
        return PhasePoint(*self.states[i])


@dataclass(frozen=True)
class DriftEntry:
    label: str
    initial: float
    max_drift: float
    relative_drift: float


@dataclass(frozen=True)
class DriftReport:
    entries: tuple[DriftEntry, ...]

    def entry(self, label: str) -> DriftEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def to_json_dict(self) -> dict:
        return {
            e.label: {
                "initial": e.initial,
                "max_drift": e.max_drift,
                "relative_drift": e.relative_drift,
            }
            for e in self.entries
        }


@dataclass(frozen=True)
class ClosureResult:
    """``closed`` with ``period=None`` means the orbit never left the initial
    point at sampling resolution (an equilibrium)."""

    closed: bool
    period: float | None
    return_distance: float

    def to_json_dict(self) -> dict:
        return {
            "closed": self.closed,
            "period": self.period,
            "return_distance": self.return_distance,
        }


# ---------- vector field ----------


@functools.lru_cache(maxsize=64)
def _rhs_function(spec: SystemSpec):
    """Hamiltonian vector field as ``f(t, y) -> ndarray(4)``.

    Compiling costs about half a millisecond, so the field is cached per
    spec.  A state where ``H`` cannot be evaluated (a singular denominator,
    a non-positive square root, a non-finite angle) gives the all-NaN row
    instead of raising, so the adaptive stepper can shrink and recover.
    """
    grad = compiled_gradient(hamiltonian_observable(spec))

    def rhs(t, y):
        try:
            h_q1, h_q2, h_p1, h_p2 = grad(*y.tolist())
        except (ZeroDivisionError, OverflowError, ValueError, DomainError):
            return np.full(4, np.nan)
        return np.array([h_p1, h_p2, -h_q1, -h_q2])

    return rhs


def hamilton_rhs(spec: SystemSpec, point: PhasePoint) -> np.ndarray:
    """Time derivative ``(dq1, dq2, dp1, dp2)`` of the flow at a point."""
    verdict = domain_check(spec, point, margin=0.0)
    if not verdict:
        raise DomainError(verdict.reason)
    out = _rhs_function(spec)(0.0, point.as_array())
    if not np.isfinite(out).all():
        raise DomainError("vector field not finite at the requested point")
    return out


# ---------- breach monitoring ----------


def _breach_events(spec: SystemSpec, margin: float):
    """Terminal event functions, one per wall, positive strictly inside the
    safe region."""
    events = []
    for wall in WALLS[spec.family]:

        def event(t, y, wall=wall):
            return wall.clearance(y[wall.index], margin)

        event.terminal = True
        event.direction = -1.0
        events.append(event)
    return events


# ---------- sampling helpers ----------


def _sample_times(t_end: float, sample_dt: float) -> np.ndarray:
    steps = t_end / sample_dt
    if not steps <= MAX_SAMPLE_INTERVALS:
        raise ValueError(
            f"t_end / sample_dt = {steps:.6g} is above the limit of "
            f"{MAX_SAMPLE_INTERVALS} sample intervals"
        )
    n = int(math.floor(steps + 1e-9))
    ts = np.arange(n + 1, dtype=float) * sample_dt
    if ts[-1] < t_end * (1.0 - 1e-12):
        ts = np.append(ts, t_end)
    else:
        ts[-1] = t_end
    return ts


def _build_trajectory(spec, initial, controls, t, states, rhs_evaluations) -> Trajectory:
    t = np.asarray(t, dtype=float)
    states = np.asarray(states, dtype=float).reshape(len(t), 4)
    batch = PhaseBatch.from_arrays(states[:, 0], states[:, 1], states[:, 2], states[:, 3])
    h_obs = hamiltonian_observable(spec)
    i2_obs = second_integral_observable(spec)
    xp_obs, _, _, _ = higher_integral_observables(spec)
    energy = eval_batch(h_obs, batch).real.copy()
    second = eval_batch(i2_obs, batch).real.copy()
    xp = eval_batch(xp_obs, batch)
    # At real states the minus integral is the exact conjugate, so the real
    # combinations are just the real and imaginary parts of the plus one.
    return Trajectory(
        t=t,
        states=states,
        energy=energy,
        second=second,
        sym_x=xp.real.copy(),
        sym_y=xp.imag.copy(),
        spec=spec,
        initial=initial,
        controls=controls,
        rhs_evaluations=rhs_evaluations,
    )


# ---------- integrators ----------


def _integrate_adaptive(spec, y0, t_end, ts, controls, max_step, margin):
    events = _breach_events(spec, margin)
    sol = solve_ivp(
        _rhs_function(spec),
        (0.0, t_end),
        y0,
        method="DOP853",
        t_eval=ts,
        rtol=controls.rel_tol,
        atol=controls.abs_tol,
        max_step=max_step,
        events=events if events else None,
    )
    if sol.status == -1:
        raise StepFailure(f"adaptive integrator failed: {sol.message}")
    t_out = list(sol.t)
    y_out = list(sol.y.T)
    if sol.status == 1:
        fired = [k for k, tev in enumerate(sol.t_events) if len(tev)]
        k = min(fired, key=lambda k: sol.t_events[k][0])
        t_best, y_best = float(sol.t_events[k][0]), sol.y_events[k][0]
        if not t_out or t_best > t_out[-1] + 1e-15:
            t_out.append(t_best)
            y_out.append(np.asarray(y_best, dtype=float))
        return t_out, y_out, (t_best, y_best, WALLS[spec.family][k]), sol.nfev
    return t_out, y_out, None, sol.nfev


def _midpoint_step(rhs, t, y, h):
    """One implicit midpoint step solved by fixed-point iteration.

    Returns the new state and the number of vector-field evaluations."""
    t_mid = t + h / 2
    f = rhs(t, y)
    if not np.isfinite(f).all():
        raise StepFailure(f"vector field not evaluable at t={t:.6g}")
    z = y + (h / 2) * f
    for sweep in range(_FIXED_POINT_MAX_ITER):
        f = rhs(t_mid, z)
        if not np.isfinite(f).all():
            raise StepFailure(f"vector field not evaluable near t={t_mid:.6g}")
        z_new = y + (h / 2) * f
        delta = np.max(np.abs(z_new - z))
        z = z_new
        if delta <= _FIXED_POINT_TOL * (1.0 + np.max(np.abs(z))):
            return 2.0 * z - y, sweep + 2
    raise StepFailure(
        f"midpoint iteration did not converge within {_FIXED_POINT_MAX_ITER} "
        f"sweeps at t={t:.6g}"
    )


def _integrate_midpoint(spec, y0, ts, controls, fixed_dt, margin):
    rhs = _rhs_function(spec)
    events = _breach_events(spec, margin)
    nfev = 0
    t_out = [0.0]
    y_out = [np.asarray(y0, dtype=float)]
    y = np.asarray(y0, dtype=float)
    for i in range(len(ts) - 1):
        span = ts[i + 1] - ts[i]
        n_sub = max(1, int(math.ceil(span / fixed_dt - 1e-9)))
        h = span / n_sub
        t = ts[i]
        for _ in range(n_sub):
            y, calls = _midpoint_step(rhs, t, y, h)
            nfev += calls
            t += h
            for k, event in enumerate(events):
                if not event(t, y) > 0:
                    t_out.append(t)
                    y_out.append(y)
                    return t_out, y_out, (t, y, WALLS[spec.family][k]), nfev
        # Land exactly on the sample time to keep the grid drift-free.
        t = ts[i + 1]
        t_out.append(t)
        y_out.append(y)
    return t_out, y_out, None, nfev


def integrate(
    spec: SystemSpec,
    initial: PhasePoint,
    t_end: float,
    controls: IntegratorControls | None = None,
) -> Trajectory:
    """Integrate the flow from ``initial`` over ``[0, t_end]``.

    Returns the sampled :class:`Trajectory`.  Raises
    :class:`~superfact.errors.DomainBreach` (with the partial trajectory
    attached, empty when the initial state is already inside the margin) if
    the state reaches the safety margin of an open domain, and
    :class:`~superfact.errors.StepFailure` if the stepper gives up.
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    controls = controls or IntegratorControls()
    period = characteristic_period(spec)
    max_step = controls.max_step if controls.max_step is not None else period / 10
    sample_dt = controls.sample_dt if controls.sample_dt is not None else period / 200
    fixed_dt = controls.fixed_dt if controls.fixed_dt is not None else sample_dt / 10
    margin = (
        controls.breach_margin
        if controls.breach_margin is not None
        else DELTA_MARGIN / 2
    )

    verdict = domain_check(spec, initial, margin=margin)
    if not verdict:
        raise DomainBreach(
            f"initial state already inside the safety margin: {verdict.reason}",
            time=0.0,
            state=initial,
            trajectory=_build_trajectory(spec, initial, controls, [], [], 0),
        )

    ts = _sample_times(t_end, sample_dt)
    y0 = initial.as_array()
    if controls.method == "dop853":
        t_out, y_out, breach, nfev = _integrate_adaptive(
            spec, y0, t_end, ts, controls, max_step, margin
        )
    else:
        t_out, y_out, breach, nfev = _integrate_midpoint(
            spec, y0, ts, controls, fixed_dt, margin
        )

    traj = _build_trajectory(spec, initial, controls, t_out, y_out, nfev)
    if breach is not None:
        t_b, y_b, wall = breach
        raise DomainBreach(
            f"trajectory reached the safety margin at t={t_b:.6g}: wall {wall.label}",
            time=float(t_b),
            state=PhasePoint(*y_b),
            trajectory=traj,
        )
    return traj


# ---------- conservation audit ----------


def drift_report(traj: Trajectory) -> DriftReport:
    """Maximum drift of each monitored quantity over the trajectory.

    The relative figure normalizes by ``1 + |Q(0)|`` so quantities passing
    through zero do not blow the ratio up.
    """
    entries = []
    for label, series in (
        ("H", traj.energy),
        ("I2", traj.second),
        ("X", traj.sym_x),
        ("Y", traj.sym_y),
    ):
        q0 = float(series[0])
        drift = float(np.max(np.abs(series - q0))) if len(series) else 0.0
        entries.append(
            DriftEntry(
                label=label,
                initial=q0,
                max_drift=drift,
                relative_drift=drift / (1.0 + abs(q0)),
            )
        )
    return DriftReport(entries=tuple(entries))


# ---------- closure detection ----------


def _refine_minimum(t, states, z0, idx):
    """Polish a sampled distance minimum with componentwise cubic fits."""
    lo = max(idx - 3, 0)
    hi = min(idx + 4, len(t))
    tt = t[lo:hi]
    if len(tt) < 4:
        d = float(np.linalg.norm(states[idx] - z0))
        return float(t[idx]), d
    t0 = tt[0]
    span = tt[-1] - t0
    u = (tt - t0) / span
    deg = min(3, len(tt) - 1)
    polys = [np.polyfit(u, states[lo:hi, k], deg) for k in range(4)]
    uu = np.linspace(0.0, 1.0, 2001)
    comps = np.stack([np.polyval(c, uu) for c in polys])
    dist2 = ((comps - z0[:, None]) ** 2).sum(axis=0)
    j = int(np.argmin(dist2))
    u_star = uu[j]
    if 0 < j < len(uu) - 1:
        y1, y2, y3 = dist2[j - 1], dist2[j], dist2[j + 1]
        denom = y1 - 2.0 * y2 + y3
        if denom > 0:
            step = 0.5 * (y1 - y3) / denom
            u_star = uu[j] + max(-1.0, min(1.0, step)) * (uu[1] - uu[0])
    z_star = np.array([np.polyval(c, u_star) for c in polys])
    return float(t0 + u_star * span), float(np.linalg.norm(z_star - z0))


def detect_closure(traj: Trajectory, eps: float = 1e-4) -> ClosureResult:
    """Decide whether the orbit returns to its initial state within ``eps``.

    The distance-to-start series is scanned for local minima after the orbit
    has clearly departed (a quarter of the maximum excursion); each candidate
    is refined by local polynomial fits, and the first refined return below
    ``eps`` fixes the period.  Raises
    :class:`~superfact.errors.InsufficientSpan` when the trajectory never
    comes back down, i.e. it is too short to bracket a return.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if len(traj) < 2:
        raise InsufficientSpan("need at least two samples to assess closure")
    states = traj.states
    t = traj.t
    z0 = states[0]
    d = np.linalg.norm(states - z0, axis=1)
    dmax = float(d.max())
    if dmax <= eps:
        return ClosureResult(closed=True, period=None, return_distance=dmax)
    level = 0.25 * dmax
    departed = int(np.argmax(d > level))
    candidates = [
        i
        for i in range(departed + 1, len(d) - 1)
        if d[i] <= d[i - 1] and d[i] <= d[i + 1]
    ]
    # A return sitting exactly on the last sample has no right neighbor.
    if len(d) - 1 > departed and d[-1] <= d[-2]:
        candidates.append(len(d) - 1)
    if not candidates:
        raise InsufficientSpan(
            "no return minimum inside the integration window; extend t_end"
        )
    best = math.inf
    for i in candidates:
        t_star, d_star = _refine_minimum(t, states, z0, i)
        best = min(best, d_star)
        if d_star <= eps:
            return ClosureResult(closed=True, period=t_star, return_distance=d_star)
    return ClosureResult(closed=False, period=None, return_distance=best)
