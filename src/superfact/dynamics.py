"""Trajectory integration with conservation monitoring and closure detection.

Integration happens in internal coordinates with the adaptive 8th-order
Dormand-Prince pair DOP853.  It watches the walls of the family's chart
(:data:`~superfact.systems.WALLS`) and stops with a
:class:`~superfact.errors.DomainBreach` carrying the partial trajectory when
the state reaches a wall's safety margin; the message names the wall.

The vector field is the Hamiltonian's gradient compiled once per system
into straight-line float code (:func:`~superfact.phase.compiled_gradient`,
the code that also evaluates each split point of the level solver), so one
evaluation is about a microsecond of plain float arithmetic.  DOP853
runs as straight-line float code too: its step and dense output are
generated once per process from the tableau written out below
(:class:`_Tableau`, double for double the one of ``scipy.integrate.DOP853``),
and the driver around them (:func:`solve_ivp`) takes the steps scipy's
``solve_ivp`` would take, with the same step-size control, interpolant and
event location; a wall crossing is located on the interpolant by
:func:`_brentq`, a port of scipy's ``brentq`` that returns the same double.
The package imports nothing from scipy.  Every sampled state gets the
energy, the sector integral, and the real constants ``X``/``Y`` attached
so drift can be audited after the fact, and the trajectory records its
vector-field evaluations and its accepted and rejected steps.  Closure
(:func:`detect_closure`) is decided at the multiples of the period the
factorization predicts.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainBreach, DomainError, InsufficientSpan, StepFailure
from .factorization import higher_integral_observables, orbit_period
from .phase import PhaseBatch, PhasePoint, compiled_gradient, eval_batch
from .systems import (
    DELTA_MARGIN,
    DELTA_POS,
    WALLS,
    Family,
    SystemSpec,
    characteristic_period,
    domain_check,
    hamiltonian_observable,
    second_integral,
    second_integral_observable,
)

MAX_SAMPLE_INTERVALS = 1_000_000  # a finer grid is refused before any allocation


# ---------- configuration and result containers ----------


@dataclass(frozen=True)
class IntegratorControls:
    """DOP853 knobs; ``None`` fields are resolved from the system's
    characteristic period ``T``: ``max_step = T/10``, ``sample_dt = T/200``.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float | None = None
    sample_dt: float | None = None

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        for name in ("max_step", "sample_dt"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive when given")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution plus the conserved quantities along it.

    ``states`` has shape ``(n, 4)`` in internal coordinates; ``energy``,
    ``second``, ``sym_x`` and ``sym_y`` are the matching series of ``H``,
    the sector integral, and the real constants of motion.
    ``rhs_evaluations`` counts the vector-field calls the integrator made,
    ``steps_accepted`` and ``steps_rejected`` its steps.
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
    steps_accepted: int = 0
    steps_rejected: int = 0

    def __len__(self) -> int:
        return len(self.t)


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
    """``period`` is the predicted period ``T`` and ``return_distance`` the
    largest distance from the start at a multiple of ``T`` in the span.
    ``closed`` with ``period=None`` means the orbit stayed within
    ``return_distance`` of its start at every sample (an equilibrium)."""

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

_NAN_ROW = (math.nan,) * 4


@functools.lru_cache(maxsize=64)
def _rhs_function(spec: SystemSpec):
    """Hamiltonian vector field as ``f(q1, q2, p1, p2) -> (dq1, dq2, dp1, dp2)``.

    Compiling costs about half a millisecond, so the field is cached per
    spec.  A state where ``H`` cannot be evaluated (a singular denominator,
    a non-positive square root, a non-finite angle) gives the all-NaN row
    instead of raising, so the adaptive stepper can shrink and recover.
    """
    grad = compiled_gradient(hamiltonian_observable(spec))

    def field(q1, q2, p1, p2):
        try:
            _, (h_q1, h_q2, h_p1, h_p2) = grad(q1, q2, p1, p2)
        except (ZeroDivisionError, OverflowError, ValueError, DomainError):
            return _NAN_ROW
        return h_p1, h_p2, -h_q1, -h_q2

    return field


# ---------- breach monitoring ----------


def _breach_events(spec: SystemSpec, margin: float):
    """Event functions ``g(t, y)``, one per wall, positive strictly inside
    the safe region: the flow breaches a wall where its function falls to
    zero."""
    return [
        lambda t, y, wall=wall: wall.clearance(y[wall.index], margin)
        for wall in WALLS[spec.family]
    ]


# ---------- DOP853 tableau ----------


def _table(width: int, rows: dict) -> np.ndarray:
    """A read-only array of ``width`` columns that is zero but at
    ``rows[i][j]``; its last row is the highest ``i``."""
    out = np.zeros((max(rows) + 1, width))
    for i, row in rows.items():
        for j, value in row.items():
            out[i, j] = value
    out.setflags(write=False)
    return out


class _Tableau:
    """The coefficients of DOP853 (Hairer-Norsett-Wanner, *Solving ODEs I*,
    II.5), under the names of the attributes of ``scipy.integrate.DOP853``
    and equal to them double for double; each literal is the ``repr`` of
    the double.  ``A`` holds the twelve stages, ``B`` the 8th-order
    weights, ``E3`` and ``E5`` the weights of the two error estimates,
    ``A_EXTRA`` the three extra stages of the dense output and ``D`` the
    weights of its four highest powers.
    """

    # Stages 1-11, then the 8th-order weights (row 12) and the dense output's
    # extra stages (rows 13-15), as one lower-triangular tableau.
    _EXTENDED = _table(16, {
        1: {0: 0.05260015195876773},
        2: {0: 0.0197250569845379, 1: 0.0591751709536137},
        3: {0: 0.02958758547680685, 2: 0.08876275643042054},
        4: {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
        5: {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
        6: {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
        7: {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
            5: -0.015319437748624402, 6: 0.008273789163814023},
        8: {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
            5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
        9: {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
            5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
            8: -0.020331201708508627},
        10: {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
            5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
            8: 2.4936055526796523, 9: -3.0467644718982196},
        11: {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
            5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
            8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
        12: {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
            7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
            10: 0.20136540080403034, 11: 0.04471061572777259},
        13: {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
            8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
            11: 0.007567897660545699, 12: -0.008298},
        14: {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
            7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
            12: -0.00034046500868740456, 13: 0.1413124436746325},
        15: {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
            7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
            13: 2.9475147891527724, 14: -9.15095847217987},
    })
    A, B, A_EXTRA = _EXTENDED[:12, :12], _EXTENDED[12, :12], _EXTENDED[13:]
    _ERRORS = _table(13, {
        0: {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
            7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
            10: 0.20136540080403034, 11: 0.02265179219836082},
        1: {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
            7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
            10: 0.08192320648511571, 11: -0.022355307863886294},
    })
    E3, E5 = _ERRORS
    D = _table(16, {
        0: {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
            7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
            10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
            13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
        1: {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
            7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
            10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
            13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
        2: {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
            7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
            10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
            13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
        3: {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
            7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
            10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
            13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
    })


# ---------- DOP853 stepper ----------

# Step-size control of scipy's explicit Runge-Kutta solvers
# (Hairer-Norsett-Wanner, *Solving ODEs I*, II.4).
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 8  # DOP853's error estimator has order 7
_EVENT_TOL = 4 * sys.float_info.epsilon  # solve_ivp's tolerance on event times


def _names(prefix: str) -> str:
    return ", ".join(f"{prefix}_{j}" for j in range(4))


def _combination(row, j: int) -> str:
    """``c0 * k0_j + c5 * k5_j + ...`` over the non-zero coefficients of a
    tableau row, in tableau order; ``repr`` reads back the same float."""
    return " + ".join(f"{c!r} * k{s}_{j}" for s, c in enumerate(map(float, row)) if c)


def _stage(s: int, row) -> list[str]:
    """Stage ``s``: the field at ``y + (row . K) * h``, kept as a tuple and
    as its four components."""
    args = ", ".join(f"y_{j} + ({_combination(row, j)}) * h" for j in range(4))
    return [f"k{s} = f({args})", f"{_names(f'k{s}')} = k{s}"]


def _dop853_source(tableau=_Tableau) -> str:
    """Python source of one DOP853 step and its dense output on four floats.

    ``step(f, h, y, k0, rtol, atol)`` runs the stages of a step of size
    ``h`` from state ``y``, where ``k0 = f(*y)``, and returns ``(err,
    y_new, f_new, kept)``: scipy's error norm (``DOP853._estimate_error_norm``),
    the new state, the field there, and the stages the dense output needs.
    ``err`` is NaN when a stage that the error estimate weights by zero is
    not finite, so such a step is rejected like any other non-finite one.
    ``dense(f, h, y, y_new, k0, f_new, kept)`` evaluates the extra stages
    and returns the 7 x 4 coefficients of the interpolant, row by row
    (scipy's ``DOP853._dense_output_impl``).

    Every coefficient comes from ``tableau``'s ``A``, ``B``, ``E3``,
    ``E5``, ``D`` and ``A_EXTRA`` (:class:`_Tableau` unless given); zero
    ones are skipped.
    """
    a, b, e3, e5, d = tableau.A, tableau.B, tableau.E3, tableau.E5, tableau.D
    new = len(b)  # the stage at the new state, f_new
    extra = range(new + 1, new + 1 + len(tableau.A_EXTRA))
    used = {s for row in (*d, *tableau.A_EXTRA) for s in np.flatnonzero(row)}
    kept = sorted(used - {0, new, *extra})
    unchecked = [s for s in range(len(e5)) if not e5[s] and not e3[s]]
    returns = f"({_names('n')}), k{new}, ({''.join(f'k{s}, ' for s in kept)})"

    step = [f"{_names('y')} = y", f"{_names('k0')} = k0"]
    for s in range(1, new):
        step += _stage(s, a[s, :s])
    step += [f"n_{j} = y_{j} + h * ({_combination(b, j)})" for j in range(4)]
    step += [f"k{new} = f({_names('n')})", f"{_names(f'k{new}')} = k{new}"]
    if unchecked:
        total = " + ".join(f"k{s}_{j}" for s in unchecked for j in range(4))
        step += [f"z = {total}", "if z - z != 0.0:", "    return nan, None, None, None"]
    for j in range(4):
        step += [
            f"u = abs(y_{j})",
            f"v = abs(n_{j})",
            "s = atol + (u if u > v else v) * rtol",
            f"e5_{j} = ({_combination(e5, j)}) / s",
            f"e3_{j} = ({_combination(e3, j)}) / s",
        ]
    step += [
        "r5 = sqrt(" + " + ".join(f"e5_{j} * e5_{j}" for j in range(4)) + ")",
        "r3 = sqrt(" + " + ".join(f"e3_{j} * e3_{j}" for j in range(4)) + ")",
        "e5 = r5 * r5",
        "e3 = r3 * r3",
        "if e5 == 0.0 and e3 == 0.0:",
        f"    return 0.0, {returns}",
        f"return h * e5 / sqrt((e5 + 0.01 * e3) * 4), {returns}",
    ]

    dense = [f"{_names(x)} = {x}" for x in ("y", "n", "k0", f"k{new}")]
    if kept:
        dense.append("[" + ", ".join(f"({_names(f'k{s}')})" for s in kept) + "] = kept")
    for s, row in zip(extra, tableau.A_EXTRA):
        dense += _stage(s, row[:s])
    dense += [f"d_{j} = n_{j} - y_{j}" for j in range(4)]
    rows = [
        [f"d_{j}" for j in range(4)],
        [f"h * k0_{j} - d_{j}" for j in range(4)],
        [f"2.0 * d_{j} - h * (k{new}_{j} + k0_{j})" for j in range(4)],
        *([f"h * ({_combination(r, j)})" for j in range(4)] for r in d),
    ]
    dense.append("return (" + ",\n        ".join(", ".join(r) for r in rows) + ")")

    return "".join(
        f"def {head}:\n" + "".join(f"    {line}\n" for line in body) + "\n"
        for head, body in (
            ("step(f, h, y, k0, rtol, atol)", step),
            (f"dense(f, h, y, n, k0, k{new}, kept)", dense),
        )
    )


@functools.cache
def _dop853():
    """The generated ``(step, dense)`` pair, compiled on first use."""
    namespace = {"nan": math.nan, "sqrt": math.sqrt}
    exec(compile(_dop853_source(), "<dop853>", "exec"), namespace)
    return namespace["step"], namespace["dense"]


def _initial_step(field, y, f, t_end, max_step, rtol, atol) -> float:
    """scipy's ``select_initial_step`` for a forward run from ``t = 0``
    (Hairer-Norsett-Wanner II.4); calls the field once."""

    def rms(values):
        return math.sqrt(sum(v * v for v in values)) / 2.0

    scale = [atol + abs(v) * rtol for v in y]
    d0 = rms([v / s for v, s in zip(y, scale)])
    d1 = rms([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = field(*(v + h0 * w for v, w in zip(y, f)))
    d2 = rms([(v - w) / s for v, w, s in zip(f1, f, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_end, max_step)


def _dense_states(t, t_old, h, y_old, coefficients) -> np.ndarray:
    """DOP853's interpolant at times ``t``, one row per time: sample ``i``
    lies in the step of size ``h[i]`` from ``(t_old[i], y_old[i])`` whose
    coefficients are ``coefficients[i]`` (one row of four per power).  The
    same operations as scipy's ``Dop853DenseOutput``."""
    x = ((t - t_old) / h)[:, None]
    y = np.zeros_like(y_old)
    for i in range(coefficients.shape[1] - 1, -1, -1):
        y += coefficients[:, i]
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


def _brentq(f, xa: float, xb: float) -> float:
    """A root of ``f`` on ``[xa, xb]`` by Brent's method (Brent 1973, ch. 4):
    scipy's ``brentq.c`` operation for operation, with ``xtol = rtol =
    _EVENT_TOL`` and its cap of 100 iterations, so it returns the double
    ``scipy.optimize.brentq`` returns.  An exact zero at an end returns
    that end.  Like scipy, it raises ``ValueError`` when ``f`` has no sign
    change on the ends (or is NaN there) and ``RuntimeError`` at the cap.
    """
    xpre, xcur = xa, xb
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if not (fpre < 0 < fcur or fcur < 0 < fpre):
        raise ValueError(f"no sign change of f on [{xa!r}, {xb!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_EVENT_TOL + _EVENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a short step is found below
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is inf or NaN: it bisects
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"no root of f within 100 iterations on [{xa!r}, {xb!r}]")


@dataclass(frozen=True)
class Solution:
    """What :func:`solve_ivp` returns.

    ``t`` holds the sample times reached (up to the event when one fired)
    and ``y`` the states there, shape ``(len(t), 4)``; ``event = (k, time,
    state)`` names the event function that fired, or is ``None`` when the
    run reached its last sample.  ``nfev`` counts the
    field evaluations: 2 to start, 12 per accepted or rejected step and 3
    per step that holds a sample or an event.
    """

    t: np.ndarray
    y: np.ndarray
    event: tuple[int, float, np.ndarray] | None
    nfev: int
    steps_accepted: int
    steps_rejected: int


def solve_ivp(field, y0, t_eval, *, rtol, atol, max_step, events=()) -> Solution:
    """Integrate ``dy/dt = field(*y)`` from ``y(0) = y0`` to ``t_eval[-1]``
    with DOP853, sampling at the increasing times ``t_eval``.

    scipy's ``solve_ivp(method="DOP853", t_eval=..., events=...)`` step
    for step: the same initial step, step-size control, error norm,
    dense output and event location, so the same steps are taken.  Each
    event function ``g(t, y)`` is terminal and fires where it falls from
    positive to zero or below; the run stops at the first root, located
    on the interpolant by :func:`_brentq`.  Raises
    :class:`~superfact.errors.StepFailure` when the step falls below ten
    spacings of ``t``.
    """
    step, dense = _dop853()
    samples = [float(v) for v in t_eval]
    t_end = samples[-1]
    t = 0.0
    y = tuple(float(v) for v in y0)
    f = field(*y)
    h_abs = _initial_step(field, y, f, t_end, max_step, rtol, atol)
    nfev, accepted, rejected = 2, 0, 0
    g = [event(0.0, y) for event in events]
    records = []  # (t_old, h, y_old, coefficients) per step holding samples
    owners = []  # per sample, its record
    fired = None
    while fired is None and t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        retried = False
        while True:
            if not h_abs >= min_step:
                raise StepFailure(
                    f"adaptive integrator failed at t={t:.6g}: the step size fell to "
                    f"{h_abs:.3g}, below ten spacings of t ({min_step:.3g})"
                )
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            err, y_new, f_new, kept = step(field, h, y, f, rtol, atol)
            nfev += 12
            if err < 1:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
            retried = True
            rejected += 1
        factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
        h_abs *= min(1, factor) if retried else factor
        accepted += 1
        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, f_new

        coefficients = None
        if events:
            g_new = [event(t, y) for event in events]
            active = [k for k, (a, b) in enumerate(zip(g, g_new)) if a >= 0 and b <= 0]
            g = g_new
            if active:
                coefficients = dense(field, h, y_old, y, f_old, f, kept)
                nfev += 3
                args = (np.array([t_old]), np.array([h]), np.array([y_old]),
                        np.array(coefficients).reshape(1, -1, 4))

                def sol(s):
                    return _dense_states(np.array([s]), *args)[0]

                roots = [_brentq(lambda s, k=k: events[k](s, sol(s)), t_old, t)
                         for k in active]
                first = min(range(len(active)), key=roots.__getitem__)
                t = roots[first]
                fired = (active[first], t, sol(t))
        end = bisect.bisect_right(samples, t, len(owners))
        if end > len(owners):
            if coefficients is None:
                coefficients = dense(field, h, y_old, y, f_old, f, kept)
                nfev += 3
            owners += [len(records)] * (end - len(owners))
            records.append((t_old, h, y_old, coefficients))

    ts = np.array(samples[: len(owners)])
    if records:
        t_old, h, y_old, coefficients = (np.array(v) for v in zip(*records))
        states = _dense_states(ts, t_old[owners], h[owners], y_old[owners],
                               coefficients.reshape(len(records), -1, 4)[owners])
    else:
        states = np.empty((0, 4))
    return Solution(ts, states, fired, nfev, accepted, rejected)


# ---------- sampling helpers ----------


def _max_step(spec: SystemSpec, controls: IntegratorControls) -> float:
    """The largest step of ``controls`` on ``spec`` (``T/10`` unless set)."""
    return characteristic_period(spec) / 10 if controls.max_step is None else controls.max_step


def sample_interval(spec: SystemSpec, t_end: float, controls: IntegratorControls) -> float:
    """The sample interval of ``controls`` on ``spec`` (``T/200`` unless
    set).  Raises ``ValueError`` when ``[0, t_end]`` would hold more than
    :data:`MAX_SAMPLE_INTERVALS` of them (``inf`` included)."""
    sample_dt = (
        controls.sample_dt
        if controls.sample_dt is not None
        else characteristic_period(spec) / 200
    )
    steps = t_end / sample_dt
    if not steps <= MAX_SAMPLE_INTERVALS:
        raise ValueError(
            f"t_end / sample_dt = {steps:.6g} is above the limit of "
            f"{MAX_SAMPLE_INTERVALS} sample intervals"
        )
    return sample_dt


def _sample_times(t_end: float, sample_dt: float) -> np.ndarray:
    n = int(math.floor(t_end / sample_dt + 1e-9))
    ts = np.arange(n + 1, dtype=float) * sample_dt
    if ts[-1] < t_end * (1.0 - 1e-12):
        ts = np.append(ts, t_end)
    else:
        ts[-1] = t_end
    return ts


def _build_trajectory(spec, initial, controls, t, states, counts=(0, 0, 0)) -> Trajectory:
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
        rhs_evaluations=counts[0],
        steps_accepted=counts[1],
        steps_rejected=counts[2],
    )


# ---------- integration ----------


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
    the state reaches the safety margin of an open domain, half the sampling
    margin :data:`~superfact.systems.DELTA_MARGIN`, and
    :class:`~superfact.errors.StepFailure` if the stepper gives up.  Before
    any step, on the sphere and TTW, it raises
    :class:`~superfact.errors.DomainError` when the sector integral of
    ``initial`` is not above :data:`~superfact.systems.DELTA_POS`, the floor
    of the square roots in ``X`` and ``Y``.
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    controls = controls or IntegratorControls()
    sample_dt = sample_interval(spec, t_end, controls)
    margin = DELTA_MARGIN / 2

    verdict = domain_check(spec, initial, margin=margin)
    if not verdict:
        raise DomainBreach(
            f"initial state already inside the safety margin: {verdict.reason}",
            time=0.0,
            state=initial,
            trajectory=_build_trajectory(spec, initial, controls, [], []),
        )
    if spec.family is not Family.EUCLIDEAN:
        sector = second_integral(spec, initial)
        if not sector > DELTA_POS:
            raise DomainError(f"initial state refused: the sector integral I2={sector:.6g} "
                              f"is not above the floor {DELTA_POS:g}")

    sol = solve_ivp(
        _rhs_function(spec),
        initial.as_array(),
        _sample_times(t_end, sample_dt),
        rtol=controls.rel_tol,
        atol=controls.abs_tol,
        max_step=_max_step(spec, controls),
        events=_breach_events(spec, margin),
    )
    counts = (sol.nfev, sol.steps_accepted, sol.steps_rejected)
    if sol.event is None:
        return _build_trajectory(spec, initial, controls, sol.t, sol.y, counts)
    k, t_b, y_b = sol.event
    t_out, y_out = sol.t, sol.y
    if not len(t_out) or t_b > t_out[-1] + 1e-15:
        t_out = np.append(t_out, t_b)
        y_out = np.vstack([y_out, y_b])
    raise DomainBreach(
        f"trajectory reached the safety margin at t={t_b:.6g}: "
        f"wall {WALLS[spec.family][k].label}",
        time=float(t_b),
        state=PhasePoint(*y_b),
        trajectory=_build_trajectory(spec, initial, controls, t_out, y_out, counts),
    )


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


def detect_closure(traj: Trajectory, eps: float = 1e-4) -> ClosureResult:
    """Decide whether the orbit returns to its initial state within ``eps``
    at each multiple ``kT`` in its span of the period ``T`` the
    factorization predicts (:func:`~superfact.factorization.orbit_period`).

    Each state at ``kT`` is integrated from the last sample at or before it
    with the trajectory's own controls; the flow is autonomous, so the
    restart is exact.  An orbit within ``eps`` of its start over a positive
    span is stationary.  Raises :class:`~superfact.errors.InsufficientSpan`
    when the span is shorter than ``T``.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    t, states, controls = traj.t, traj.states, traj.controls
    if not len(t):
        raise InsufficientSpan("the trajectory holds no samples")
    z0 = states[0]
    excursion = float(np.linalg.norm(states - z0, axis=1).max())
    if t[-1] > 0 and excursion <= eps:
        return ClosureResult(closed=True, period=None, return_distance=excursion)
    period = orbit_period(traj.spec, float(traj.energy[0]))
    if t[-1] < period:
        raise InsufficientSpan(f"the span t_end = {t[-1]:.9g} is shorter than the orbit "
                               f"period T = {period:.9g}; extend t_end")
    field = _rhs_function(traj.spec)
    worst = 0.0
    for k in range(1, int(t[-1] // period) + 1):
        i = int(np.searchsorted(t, k * period, side="right")) - 1
        z = states[i]
        gap = k * period - t[i]
        if gap > 0:
            z = solve_ivp(field, z, [gap], rtol=controls.rel_tol, atol=controls.abs_tol,
                          max_step=_max_step(traj.spec, controls)).y[-1]
        worst = max(worst, float(np.linalg.norm(z - z0)))
    return ClosureResult(closed=worst <= eps, period=period, return_distance=worst)
