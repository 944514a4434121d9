"""Phase points on prescribed levels of the integrals.

``trace`` starts its trajectory where the Hamiltonian ``H``, the sector
integral ``I2`` and one higher-order constant (``X`` or ``Y``) take given
values.  :func:`solve_levels` finds such a point by damped Gauss-Newton
from the 81 quartile points of the default box, start by start in grid
order, and returns at the first start that reaches the tolerance.  One
batch evaluation of the 81 starts finds the valid ones.  From there the
search runs on four Python floats: each observable's compiled float code
(:func:`~superfact.phase.compiled_gradient`) gives its value and its
partials at once, and the minimum-norm step is solved in closed form from
the 3x3 matrix ``J J^T`` (:func:`_gauss_newton_step`).  With three levels
and four coordinates, numpy's per-call cost outweighs the arithmetic: on
the 60 reachable requests of the benchmark's ``trace`` stream at seed 1,
rounds 0-3, the median search took 0.9 ms, against 5.7-8.3 ms for the
former lanes of a batch (2-core Xeon, Python 3.11).  At one state of TTW
3/2 the float code gives the values and partials of ``H``, ``I2`` and ``X``
in about 8 us, where the scalar tower took about 16 us for the values and
the array code run on floats 16 us for the partials.

Before any search, a request is refused when no real point can meet it:
its sector level or its energy lies below the floor that the
factorization proves (:func:`_below_floor`), or its ``|X|`` or ``|Y|``
lies above the ceiling ``|X+|`` that ``H`` and ``I2`` fix
(:func:`_above_ceiling`).  A search there could only give up.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NoSolution, SuperfactError
from .factorization import higher_integral_observables
from .phase import PhaseBatch, PhasePoint, compiled_gradient, eval_batch
from .systems import (
    DELTA_MARGIN,
    DELTA_POS,
    Family,
    SystemSpec,
    _masked_sector,
    default_box,
    domain_check,
    hamiltonian_observable,
    second_integral_observable,
)

#: Largest accepted scaled residual ``max_i |f_i - t_i| / (1 + |t_i|)``.
LEVEL_TOLERANCE = 1e-9

#: Gauss-Newton steps per start.
MAX_ITERATIONS = 60

#: Step lengths tried per step: ``2**-k`` for ``k < HALVINGS``.
HALVINGS = 25

_GRID_FRACTIONS = (0.25, 0.5, 0.75)
_LAMBDAS = tuple(0.5**k for k in range(HALVINGS))


@dataclass(frozen=True)
class LevelSearch:
    """How one level search went.  It carries wall time, so it belongs in
    the manifest and never in a byte-reproducible report.

    ``valid_starts`` counts the grid starts inside the walls with finite
    levels; ``iterations`` the Gauss-Newton steps taken, summed over the
    starts tried (every valid start when no point is found);
    ``winning_start`` is the grid index of the start that reached the
    tolerance, ``None`` when none did.
    """

    valid_starts: int
    iterations: int
    winning_start: int | None
    seconds: float

    def to_json_dict(self) -> dict:
        return asdict(self)


# The two floors below are the levels where a factor pair's squared modulus
# vanishes (factorization.factor_pairs).  At a real point ``minus`` is the
# conjugate of ``plus``, so ``plus * minus = target - lam = |plus|^2 >= 0``:
#
# - the ladder pair ``B`` gives the sector floor: ``|B+|^2`` is ``I2`` on the
#   plane, ``I2 - omega^2/(2 gamma^2)`` on the sphere, and for TTW
#   ``(I2 - (|alpha|+|beta|)^2)(I2 - (|alpha|-|beta|)^2) / I2``;
# - the shift pair gives the energy floor ``F(I2)``: ``|A+|^2 = H - F`` on the
#   plane and the sphere, and the pure shift of TTW has ``|A+|^2 = H^2 - F^2``
#   with ``H > 0``.


def _sector_floor(spec: SystemSpec) -> tuple[str, float]:
    """Name and value of the infimum of the sector integral over the domain:
    ``0`` (flat), ``omega^2 / (2 gamma^2)`` (sphere) and
    ``(|alpha| + |beta|)^2``, the minimum over the angle (TTW)."""
    if spec.family is Family.EUCLIDEAN:
        return "euclidean sector", 0.0
    if spec.family is Family.SPHERE:
        g = spec.gamma.value
        return "sphere sector", spec.omega * spec.omega / (2 * g * g)
    return "ttw angular", (abs(spec.alpha) + abs(spec.beta)) ** 2


def _energy_floor(spec: SystemSpec, i2: float) -> float:
    """Least energy of a real point on sector level ``i2``: ``gamma^2 i2``
    (plane), ``gamma^2 i2 - omega^2/2`` (sphere) and
    ``2 omega gamma sqrt(i2)`` (TTW, the root taken of ``max(i2, 0)``).  It
    increases with ``i2``."""
    g = spec.gamma.value
    w = spec.omega
    if spec.family is Family.EUCLIDEAN:
        return g * g * i2
    if spec.family is Family.SPHERE:
        return g * g * i2 - w * w / 2
    return 2 * w * g * math.sqrt(max(i2, 0.0))


def _below_floor(spec: SystemSpec, targets: np.ndarray) -> str | None:
    """Why no state can meet ``targets = (H, I2, .)`` within the search's
    acceptance test, or ``None`` when a floor does not rule it out.

    A state is accepted when each level is within ``LEVEL_TOLERANCE *
    (1 + |t|)`` of its target, so a level is refused only when even the
    edge of that band lies below its floor: the sector level when
    ``t_I2 + slack_I2`` is below the sector floor, the energy when
    ``t_H + slack_H`` is below ``F(t_I2 - slack_I2)``.
    """
    h, i2 = float(targets[0]), float(targets[1])
    slack = LEVEL_TOLERANCE * (1.0 + np.abs(targets))
    name, floor = _sector_floor(spec)
    if i2 + slack[1] < floor:
        return f"sector level {i2:g} is below the {name} floor {floor:g}"
    if h + slack[0] < _energy_floor(spec, i2 - slack[1]):
        return (
            f"energy {h:g} is below the floor {_energy_floor(spec, i2):g} "
            f"of sector level {i2:g}"
        )
    return None


def _ladder_square(spec: SystemSpec, i2: float) -> float:
    """``|B+|^2`` on sector level ``i2`` (the comment above); 0 for TTW at a
    level that is not positive."""
    _, floor = _sector_floor(spec)
    if spec.family is not Family.TTW:
        return i2 - floor
    if i2 <= 0.0:
        return 0.0
    other = (abs(spec.alpha) - abs(spec.beta)) ** 2
    return (i2 - floor) * (i2 - other) / i2


def _shift_square(spec: SystemSpec, h: float, i2: float) -> float:
    """``|A'|^2`` on the levels ``(h, i2)``: ``H - F(I2)``, or ``H^2 - F^2``
    for TTW, whose ``X+`` takes the pure shift ``A-``."""
    floor = _energy_floor(spec, i2)
    if spec.family is Family.TTW:
        return h * h - floor * floor
    return h - floor


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _above_ceiling(spec: SystemSpec, sym_name: str, targets: np.ndarray) -> str | None:
    """Why no state can meet ``targets = (H, I2, X or Y)`` within the
    search's acceptance test, or ``None`` when the ceiling does not rule it
    out.  Call it on levels that pass :func:`_below_floor`.

    At a real point ``|X|`` and ``|Y|`` are at most ``|X+| = R(H, I2) =
    |B+|^n |A'|^m`` for ``gamma = m/n``.  ``|B+|^2`` rises with ``I2`` above
    the sector floor, and ``|A'|^2`` rises with ``H`` and falls with ``I2``,
    so over the acceptance band ``R`` is at most its value with ``|B+|^2``
    taken at ``t_I2 + slack_I2`` and ``|A'|^2`` at ``(t_H + slack_H, t_I2 -
    slack_I2)``.  A level is refused when even ``|t| - slack`` lies above
    that bound.  The comparison is made in logarithms, so a ceiling beyond
    double range never refuses.
    """
    h, i2, level = (float(t) for t in targets)
    slack = LEVEL_TOLERANCE * (1.0 + np.abs(targets))
    n, m = spec.gamma.n, spec.gamma.m

    def log_ceiling(h, i2_ladder, i2_shift):
        ladder = _log(_ladder_square(spec, i2_ladder))
        return 0.5 * (n * ladder + m * _log(_shift_square(spec, h, i2_shift)))

    excess = abs(level) - slack[2]
    bound = log_ceiling(h + slack[0], i2 + slack[1], i2 - slack[1])
    # NaN (an infinite |A'|^2 against a zero |B+|^2) never refuses either.
    if not (excess > 0.0 and math.log(excess) > bound):
        return None
    return (
        f"|{sym_name}| {abs(level):g} is above the ceiling "
        f"|X+| = {math.exp(log_ceiling(h, i2, i2)):g} "
        f"of energy {h:g} and sector level {i2:g}"
    )


#: Least determinant of the row-normalised ``J J^T`` that the step inverts
#: in closed form; below it the rows count as dependent.
GRAM_FLOOR = 1e-8


def _dot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def _gauss_newton_step(jac, f):
    """The minimum-norm Gauss-Newton step ``s = -J^T (J J^T)^-1 f`` for the
    3x4 Jacobian ``jac`` and residuals ``f`` (Nocedal-Wright, *Numerical
    Optimization*, ch. 10), as four floats, or ``None`` when ``jac`` or the
    step is not finite.

    Each row of ``J`` and its residual are first divided by the row's norm.
    That leaves the solutions of ``J s = -f`` as they are, and puts the Gram
    matrix ``G = J J^T`` on a unit diagonal, so ``det G`` lies in ``[0, 1]``:
    the squared volume spanned by the three unit gradients.  ``G`` is
    inverted by its adjugate.  When ``det G`` is at most :data:`GRAM_FLOOR`
    (a zero row included) the gradients are numerically dependent, and the
    step is ``-pinv(J) f`` on the unscaled rows: the least-squares solution
    of least norm.
    """
    norms = [math.hypot(*row) for row in jac]
    if not all(map(math.isfinite, norms)):
        return None
    u = [[x / n for x in row] if n > 0.0 else list(row) for row, n in zip(jac, norms)]
    g = [v / n if n > 0.0 else v for v, n in zip(f, norms)]
    a, b, c = _dot(u[0], u[0]), _dot(u[0], u[1]), _dot(u[0], u[2])
    d, e, k = _dot(u[1], u[1]), _dot(u[1], u[2]), _dot(u[2], u[2])
    # The adjugate of the symmetric G = [[a, b, c], [b, d, e], [c, e, k]].
    c00, c01, c02 = d * k - e * e, c * e - b * k, b * e - c * d
    c11, c12, c22 = a * k - c * c, b * c - a * e, a * d - b * b
    det = a * c00 + b * c01 + c * c02
    if det > GRAM_FLOOR:
        y0 = (c00 * g[0] + c01 * g[1] + c02 * g[2]) / det
        y1 = (c01 * g[0] + c11 * g[1] + c12 * g[2]) / det
        y2 = (c02 * g[0] + c12 * g[1] + c22 * g[2]) / det
        step = [-(y0 * x0 + y1 * x1 + y2 * x2) for x0, x1, x2 in zip(*u)]
    else:
        step = (np.linalg.pinv(np.array(jac)) @ -np.array(f)).tolist()
    return step if all(map(math.isfinite, step)) else None


class _Levels:
    """Residuals and Jacobians of ``(H, I2, X or Y)``: over a batch for the
    starts, and at one state of four floats for the search."""

    def __init__(self, spec: SystemSpec, sym_name: str, targets: np.ndarray):
        _, _, x_real, y_real = higher_integral_observables(spec)
        self.spec = spec
        self.observables = (
            hamiltonian_observable(spec),
            second_integral_observable(spec),
            x_real if sym_name == "X" else y_real,
        )
        self.codes = tuple(compiled_gradient(obs) for obs in self.observables)
        self.targets = tuple(float(t) for t in targets)
        self.scale = tuple(1.0 + abs(t) for t in self.targets)
        self.positive = spec.family is not Family.EUCLIDEAN

    def valid(self, z: np.ndarray) -> np.ndarray:
        """The mask of usable states among ``z (n, 4)``: inside the domain
        walls, sector integral above the positivity floor, and every level
        finite."""
        batch = PhaseBatch.from_arrays(*z.T)
        ok, i2 = _masked_sector(self.spec, batch, DELTA_MARGIN)
        if ok.any():
            inside = batch[ok]
            h, _, level = self.observables
            values = (eval_batch(h, inside).real, eval_batch(level, inside).real)
            ok[ok] = np.isfinite(values[0]) & np.isfinite(values[1])
        return ok & np.isfinite(i2)

    def error(self, f) -> float:
        return max(abs(v) / s for v, s in zip(f, self.scale))

    def at(self, z):
        """Level residuals and the real 3x4 Jacobian at the state ``z`` (four
        floats), or ``None`` where it is unusable: outside the walls at
        :data:`DELTA_MARGIN`, sector integral not above :data:`DELTA_POS`
        (sphere and TTW), a singular evaluation or a residual that is not
        finite.  ``I2`` is evaluated only inside the walls, and ``H`` and
        the symmetry only past both guards.  The Jacobian may hold values
        that are not finite; :func:`_gauss_newton_step` refuses it then."""
        h, i2, level = self.codes
        try:
            if not domain_check(self.spec, PhasePoint(*z)):
                return None
            sector = i2(*z)
            if self.positive and not sector[0] > DELTA_POS:
                return None
            rows = (h(*z), sector, level(*z))
        except (ArithmeticError, ValueError, SuperfactError):
            return None
        f = tuple(value.real - t for (value, _), t in zip(rows, self.targets))
        if not all(map(math.isfinite, f)):
            return None
        return f, [[d.real for d in partials] for _, partials in rows]


def _descend(levels: _Levels, z, f, jac):
    """Damped Gauss-Newton from the state ``z`` with residuals ``f`` and
    Jacobian ``jac``.  Each step takes the first length ``2**-k``,
    ``k < HALVINGS``, that lowers the error; the descent ends at the
    tolerance, after :data:`MAX_ITERATIONS` steps, or where no step or no
    length is usable.  Returns the last state, its error and the steps
    taken."""
    err = levels.error(f)
    steps = 0
    while err > LEVEL_TOLERANCE and steps < MAX_ITERATIONS:
        steps += 1
        step = _gauss_newton_step(jac, f)
        if step is None:
            break
        for lam in _LAMBDAS:
            trial = tuple(x + lam * s for x, s in zip(z, step))
            found = levels.at(trial)
            err_trial = math.inf if found is None else levels.error(found[0])
            if err_trial < err:
                z, (f, jac), err = trial, found, err_trial
                break
        else:
            break
    return z, err, steps


def solve_levels(spec: SystemSpec, sym_name: str, targets):
    """Find a phase point on the levels ``targets = (H, I2, X or Y)``.

    ``sym_name`` is ``"X"`` or ``"Y"``.  Returns ``(z, residual, search)``:
    the internal state, its scaled residual (at most
    :data:`LEVEL_TOLERANCE`) and the :class:`LevelSearch` telemetry.
    Raises ``ValueError`` naming a non-finite level, and
    :class:`~superfact.errors.NoSolution` at once when the sector level
    lies below its family's floor, the energy below the least energy on
    that sector level, or ``|X|`` or ``|Y|`` above the ceiling ``|X+|``
    (the message names the floor or the ceiling), and after the search
    when no start reaches the tolerance; that message gives the best
    residual reached.  Either way the exception's ``search`` holds the
    telemetry (no starts and no iterations for a refusal).

    ``H`` and the symmetry, values and partials alike, are evaluated only
    at states that pass ``domain_mask(spec, ., DELTA_MARGIN)``, and ``I2``
    only inside the walls, so a
    :class:`~superfact.errors.DomainError` (a singular denominator or a
    non-positive square root) cannot reach the search; a value that is not
    finite, or an evaluation that fails all the same, makes its state
    unusable.
    """
    started = time.perf_counter()
    targets = np.asarray(targets, dtype=float)
    for level, value in zip(("H", "I2", sym_name), targets):
        if not math.isfinite(value):
            raise ValueError(f"the {level} level must be finite, got {value:g}")
    reason = _below_floor(spec, targets) or _above_ceiling(spec, sym_name, targets)
    if reason is not None:
        raise NoSolution(
            f"no phase point matches the requested levels: {reason}",
            search=LevelSearch(
                valid_starts=0,
                iterations=0,
                winning_start=None,
                seconds=time.perf_counter() - started,
            ),
        )
    levels = _Levels(spec, sym_name, targets)
    grid = [
        [lo + t * (hi - lo) for t in _GRID_FRACTIONS]
        for (lo, hi) in default_box(spec).intervals
    ]
    starts = np.array(list(itertools.product(*grid)), dtype=float)
    # Non-finite values mark a start unusable; they are not errors.
    with np.errstate(all="ignore"):
        valid = np.flatnonzero(levels.valid(starts))
        iterations, best, winner = 0, math.inf, None
        for index in valid:
            z = tuple(starts[index].tolist())
            found = levels.at(z)
            if found is None:
                continue
            z, err, steps = _descend(levels, z, *found)
            iterations += steps
            best = min(best, err)
            if err <= LEVEL_TOLERANCE:
                winner = int(index)
                break
    search = LevelSearch(
        valid_starts=len(valid),
        iterations=iterations,
        winning_start=winner,
        seconds=time.perf_counter() - started,
    )
    if winner is None:
        raise NoSolution(
            f"no phase point matches the requested levels within "
            f"{LEVEL_TOLERANCE:g} (best residual {best:.3e})",
            search=search,
        )
    return np.array(z), err, search
