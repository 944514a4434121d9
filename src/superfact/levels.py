"""Phase points on prescribed levels of the integrals.

``trace`` starts its trajectory where the Hamiltonian ``H``, the sector
integral ``I2`` and one higher-order constant (``X`` or ``Y``) take given
values.  :func:`solve_levels` finds such a point by damped Gauss-Newton from
the 81 quartile points of the default box.  The starts run as lanes of a
batch: each iteration takes every lane's Jacobian from one
:func:`~superfact.phase.gradient_batch` pass per integral (compiled
reverse sweep) and tries all step halvings of every lane in one evaluation.
The batch runs in two blocks: the first :data:`FIRST_BLOCK` valid starts,
then the rest only when none of those reaches the tolerance.  Lanes never
interact, so the answer is the one a start-by-start search gives: the
lowest-index start, in grid order, that reaches the tolerance.  A winner in
the first block has every lower-index lane in that block, and when the
first block has no winner, the second gives the lowest winning index among
the rest.

Before any search, a request is refused when its sector level or its energy
lies below the floor that the factorization proves (:func:`_below_floor`):
no real point exists there, and a search could only give up.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NoSolution
from .factorization import higher_integral_observables
from .phase import PhaseBatch, eval_batch, gradient_batch
from .systems import (
    DELTA_MARGIN,
    Family,
    SystemSpec,
    _masked_sector,
    default_box,
    hamiltonian_observable,
    second_integral_observable,
)

#: Largest accepted scaled residual ``max_i |f_i - t_i| / (1 + |t_i|)``.
LEVEL_TOLERANCE = 1e-9

#: Gauss-Newton steps per start.
MAX_ITERATIONS = 60

#: Step lengths tried per step: ``2**-k`` for ``k < HALVINGS``.
HALVINGS = 25

#: Valid starts searched before the others: one ``(q1, q2)`` cell with all
#: nine momentum starts, which holds the winner of nearly every reachable
#: request.
FIRST_BLOCK = 9

_GRID_FRACTIONS = (0.25, 0.5, 0.75)
_LAMBDAS = 0.5 ** np.arange(HALVINGS)


@dataclass(frozen=True)
class LevelSearch:
    """How one level search went.  It carries wall time, so it belongs in
    the manifest and never in a byte-reproducible report.

    ``valid_starts`` counts the grid starts inside the walls with finite
    levels; ``iterations`` the Gauss-Newton steps the batch took, summed
    over the blocks that ran (a search that finds no point runs both);
    ``winning_start`` is the grid index of the returned lane, ``None``
    when no lane reached the tolerance.
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


class _Levels:
    """Residuals and Jacobians of ``(H, I2, X or Y)`` over stacked states."""

    def __init__(self, spec: SystemSpec, sym_name: str, targets: np.ndarray):
        _, _, x_real, y_real = higher_integral_observables(spec)
        self.spec = spec
        self.observables = (
            hamiltonian_observable(spec),
            second_integral_observable(spec),
            x_real if sym_name == "X" else y_real,
        )
        self.targets = targets
        self.scale = 1.0 + np.abs(targets)

    def _evaluate(self, fn, batch: PhaseBatch) -> np.ndarray:
        """``fn(observable, batch)`` for each level observable, stacked
        along a new first axis."""
        return np.stack([fn(obs, batch) for obs in self.observables])

    def error(self, f: np.ndarray) -> np.ndarray:
        return np.max(np.abs(f) / self.scale, axis=-1)

    def residuals(self, z: np.ndarray):
        """Level residuals ``(n, 3)`` at states ``(n, 4)`` and the mask of
        usable states: inside the domain walls, sector integral above the
        positivity floor, and every value finite."""
        batch = PhaseBatch.from_arrays(*z.T)
        ok, i2 = _masked_sector(self.spec, batch, DELTA_MARGIN)
        f = np.full((len(z), 3), np.nan)
        if ok.any():
            inside = batch[ok]
            h, _, level = self.observables
            vals = (eval_batch(h, inside).real, i2[ok], eval_batch(level, inside).real)
            f[ok] = np.stack(vals).T - self.targets
        return f, ok & np.isfinite(f).all(axis=1)

    def steps(self, z: np.ndarray, f: np.ndarray):
        """Minimum-norm least-squares Gauss-Newton steps ``(n, 4)`` and the
        mask of lanes whose Jacobian and step are finite."""
        batch = PhaseBatch.from_arrays(*z.T)
        jac = self._evaluate(lambda obs, b: gradient_batch(obs, b)[1].real, batch)
        jac = jac.transpose(2, 0, 1)
        ok = np.isfinite(jac).all(axis=(1, 2))
        step = np.full(z.shape, np.nan)
        if ok.any():
            step[ok] = (np.linalg.pinv(jac[ok]) @ -f[ok, :, None])[:, :, 0]
        return step, ok & np.isfinite(step).all(axis=1)

    def line_search(self, z: np.ndarray, err: np.ndarray, step: np.ndarray):
        """Every lane's first step length ``2**-k`` that lowers its error.

        All halvings of all lanes are evaluated as one batch.  Returns the
        new states, residuals and errors, and the mask of lanes that moved.
        """
        n = len(z)
        trials = z[:, None, :] + _LAMBDAS[:, None] * step[:, None, :]
        f, ok = self.residuals(trials.reshape(-1, 4))
        f = f.reshape(n, HALVINGS, 3)
        trial_err = np.where(ok.reshape(n, HALVINGS), self.error(f), np.inf)
        better = trial_err < err[:, None]
        k = better.argmax(axis=1)
        rows = np.arange(n)
        return trials[rows, k], f[rows, k], trial_err[rows, k], better.any(axis=1)


def _run_lanes(levels: _Levels, z: np.ndarray, f: np.ndarray, err: np.ndarray):
    """Damped Gauss-Newton on lanes with states ``z``, residuals ``f`` and
    errors ``err``, updated in place.  Returns the lowest lane that reaches
    the tolerance (``None`` if none does) and the steps taken."""
    active = np.ones(len(z), dtype=bool)
    winner = None
    iterations = 0
    for it in range(MAX_ITERATIONS + 1):
        hit = active & (err <= LEVEL_TOLERANCE)
        active &= ~hit
        if hit.any() and (winner is None or hit.argmax() < winner):
            winner = int(hit.argmax())
        # A lower-index lane that is still running could yet win.
        if winner is not None and not active[:winner].any():
            break
        if it == MAX_ITERATIONS or not active.any():
            break
        iterations += 1
        idx = np.flatnonzero(active)
        step, ok = levels.steps(z[idx], f[idx])
        active[idx[~ok]] = False
        idx, step = idx[ok], step[ok]
        z_new, f_new, err_new, moved = levels.line_search(z[idx], err[idx], step)
        active[idx[~moved]] = False
        idx = idx[moved]
        z[idx], f[idx], err[idx] = z_new[moved], f_new[moved], err_new[moved]
    return winner, iterations


def solve_levels(spec: SystemSpec, sym_name: str, targets):
    """Find a phase point on the levels ``targets = (H, I2, X or Y)``.

    ``sym_name`` is ``"X"`` or ``"Y"``.  Returns ``(z, residual, search)``:
    the internal state, its scaled residual (at most
    :data:`LEVEL_TOLERANCE`) and the :class:`LevelSearch` telemetry.
    Raises ``ValueError`` naming a non-finite level, and
    :class:`~superfact.errors.NoSolution` at once when the sector level
    lies below its family's floor or the energy below the least energy on
    that sector level (the message names the floor), and after the search
    when no start reaches the tolerance; that message gives the best
    residual reached.  Either way the exception's ``search`` holds the
    telemetry (no starts and no iterations for a floor).

    Values are taken only at states that pass
    ``domain_mask(spec, ., DELTA_MARGIN)``, and Jacobians only at states
    whose values were taken, so a
    :class:`~superfact.errors.DomainError` (a singular denominator or a
    non-positive square root) cannot reach the search; a value that is not
    finite marks its lane unusable.
    """
    started = time.perf_counter()
    targets = np.asarray(targets, dtype=float)
    for level, value in zip(("H", "I2", sym_name), targets):
        if not math.isfinite(value):
            raise ValueError(f"the {level} level must be finite, got {value:g}")
    reason = _below_floor(spec, targets)
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
    # Non-finite values mark a lane unusable; they are not errors.
    with np.errstate(all="ignore"):
        f, ok = levels.residuals(starts)
        lanes = np.flatnonzero(ok)
        z, f = starts[ok], f[ok]
        err = levels.error(f)
        iterations = 0
        # The blocks are views, so each lane's final state lands in z, f, err.
        for block in (slice(0, FIRST_BLOCK), slice(FIRST_BLOCK, None)):
            winner, steps = _run_lanes(levels, z[block], f[block], err[block])
            iterations += steps
            if winner is not None:
                winner += block.start
                break
    search = LevelSearch(
        valid_starts=len(lanes),
        iterations=iterations,
        winning_start=None if winner is None else int(lanes[winner]),
        seconds=time.perf_counter() - started,
    )
    if winner is None:
        # Each lane's error only falls, so its last error is its best.
        best = float(err.min()) if len(err) else math.inf
        raise NoSolution(
            f"no phase point matches the requested levels within "
            f"{LEVEL_TOLERANCE:g} (best residual {best:.3e})",
            search=search,
        )
    return z[winner].copy(), float(err[winner]), search
