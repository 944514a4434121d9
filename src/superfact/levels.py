"""Phase points on prescribed levels of the integrals.

``trace`` starts its trajectory where the Hamiltonian ``H``, the sector
integral ``I2`` and one higher-order constant (``X`` or ``Y``) take given
values.  :func:`solve_levels` writes such a point down in closed form.  For
``gamma = m/n``, ``X+ = (B+)^n (A')^m``, and ``H`` and ``I2`` fix the moduli
of the ladder factor ``B+`` and of the shift factor ``A'``, so they fix
``R = |X+|`` too.  ``X = R cos psi`` and ``Y = R sin psi`` then fix only the
phase ``psi = n arg B+ + m arg A'``: ``psi*`` is ``+-arccos(X/R)`` for ``X``,
and ``arcsin(Y/R)`` or ``pi - arcsin(Y/R)`` for ``Y``.  A split ``phi_A =
2 pi k / SHIFT_PHASES``, ``phi_B = (psi* - m phi_A)/n`` gives a point of the
level set (:func:`~superfact.factorization.inverse_chart`).  The splits of a
branch lie on one turn of ``phi_A``, ``1/n`` of the closed curve ``n phi_B +
m phi_A = psi*``: a refusal speaks for that arc only.  The splits are tried in
a fixed order, ``k`` first and then the two branches of ``psi*``, and the
first point that passes the domain guards and the tolerance is returned.
On the 1080 survey levels of ``tests/test_levels.py`` the first split
meets every request, in about 0.1 ms (2-core Xeon, Python 3.11).

Before any split, a request is refused when no real point can meet it:
its sector level or its energy lies below the floor that the
factorization proves (:func:`_below_floor`), or its ``|X|`` or ``|Y|``
lies above the ceiling ``R`` (:func:`_above_ceiling`).
"""

from __future__ import annotations

import collections
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NoSolution, SuperfactError
from .factorization import (
    _energy_floor,
    _ladder_square,
    _sector_floor,
    _shift_square,
    higher_integral_observables,
    inverse_chart,
)
from .phase import PhasePoint, compiled_gradient
from .systems import (
    DELTA_MARGIN,
    DELTA_POS,
    Family,
    SystemSpec,
    domain_check,
    hamiltonian_observable,
    second_integral_observable,
)

#: Largest accepted scaled residual ``max_i |f_i - t_i| / (1 + |t_i|)``.
LEVEL_TOLERANCE = 1e-9

#: Shift phases tried per branch of ``psi*``: ``2 pi k / SHIFT_PHASES``.
SHIFT_PHASES = 16


@dataclass(frozen=True)
class LevelSearch:
    """How one level search went: the splits of the phase tried (0 for a
    refusal) and the wall time, so it belongs in the manifest and never in
    a byte-reproducible report."""

    splits: int
    seconds: float

    def to_json_dict(self) -> dict:
        return asdict(self)


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


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _log_ceiling(spec: SystemSpec, h: float, i2_ladder: float, i2_shift: float) -> float:
    """``log R = (n log |B+|^2 + m log |A'|^2) / 2`` for ``gamma = m/n``,
    with ``|B+|^2`` taken at ``i2_ladder`` and ``|A'|^2`` at ``(h,
    i2_shift)``; ``-inf`` where a squared modulus is not positive."""
    n, m = spec.gamma.n, spec.gamma.m
    ladder = _log(_ladder_square(spec, i2_ladder))
    return 0.5 * (n * ladder + m * _log(_shift_square(spec, h, i2_shift)))


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
    excess = abs(level) - slack[2]
    bound = _log_ceiling(spec, h + slack[0], i2 + slack[1], i2 - slack[1])
    # NaN (an infinite |A'|^2 against a zero |B+|^2) never refuses either.
    if not (excess > 0.0 and math.log(excess) > bound):
        return None
    return (
        f"|{sym_name}| {abs(level):g} is above the ceiling "
        f"|X+| = {math.exp(_log_ceiling(spec, h, i2, i2)):g} "
        f"of energy {h:g} and sector level {i2:g}"
    )


def _splits(spec: SystemSpec, sym_name: str, targets):
    """The splits ``(phi_B, phi_A)`` of the phase on the levels ``targets =
    (H, I2, X or Y)``, in the order they are tried (the module docstring).
    The ratio of the level to ``R`` is taken in logarithms, so an ``R``
    beyond double range does not overflow, and clamped to ``[-1, 1]``."""
    h, i2, level = targets
    n, m = spec.gamma.n, spec.gamma.m
    log_ratio = _log(abs(level)) - _log_ceiling(spec, h, i2, i2)
    # NaN (R = 0 at a zero level) takes the ratio 1: every phase is as good.
    ratio = math.copysign(math.exp(min(0.0, log_ratio)), level)
    if sym_name == "X":
        branches = (math.acos(ratio), -math.acos(ratio))
    else:
        branches = (math.asin(ratio), math.pi - math.asin(ratio))
    for k in range(SHIFT_PHASES):
        phi_a = 2 * math.pi * k / SHIFT_PHASES
        for psi in branches:
            yield (psi - m * phi_a) / n, phi_a


_NOT_FINITE = "with a level that does not evaluate to a finite value"


class _Levels:
    """The guarded scaled residual of ``(H, I2, X or Y)`` at one state."""

    def __init__(self, spec: SystemSpec, sym_name: str, targets):
        _, _, x_real, y_real = higher_integral_observables(spec)
        symmetry = x_real if sym_name == "X" else y_real
        observables = (hamiltonian_observable(spec), second_integral_observable(spec), symmetry)
        self.spec = spec
        self.codes = tuple(compiled_gradient(obs) for obs in observables)
        self.targets = targets
        self.scale = tuple(1.0 + abs(t) for t in targets)
        self.positive = spec.family is not Family.EUCLIDEAN

    def at(self, z) -> float | str:
        """The scaled residual ``max_i |f_i - t_i| / (1 + |t_i|)`` at the
        state ``z`` (four floats), or the guard it fails, as text: a wall
        within :data:`DELTA_MARGIN` (named), the sector integral not above
        :data:`DELTA_POS` (sphere and TTW), or a level that is not finite.
        ``I2`` is evaluated only inside the walls, and ``H`` and the
        symmetry only past both guards."""
        h, i2, level = self.codes
        verdict = domain_check(self.spec, PhasePoint(*z))
        if not verdict:
            return f"within {DELTA_MARGIN:g} of the wall {verdict.wall.label}"
        try:
            sector = i2(*z)[0].real
            if self.positive and not sector > DELTA_POS:
                return f"with the sector integral not above {DELTA_POS:g}"
            values = (h(*z)[0].real, sector, level(*z)[0].real)
        except (ArithmeticError, ValueError, SuperfactError):
            return _NOT_FINITE
        err = max(abs(v - t) / s for v, t, s in zip(values, self.targets, self.scale))
        return err if math.isfinite(err) else _NOT_FINITE


def solve_levels(spec: SystemSpec, sym_name: str, targets):
    """Find a phase point on the levels ``targets = (H, I2, X or Y)``.

    ``sym_name`` is ``"X"`` or ``"Y"``.  Returns ``(z, residual, search)``:
    the internal state, its scaled residual (at most
    :data:`LEVEL_TOLERANCE`) and the :class:`LevelSearch` telemetry.
    Raises ``ValueError`` naming a non-finite level, and
    :class:`~superfact.errors.NoSolution` at once when the sector level
    lies below its family's floor, the energy below the least energy on
    that sector level, or ``|X|`` or ``|Y|`` above the ceiling ``|X+|``
    (the message names the floor or the ceiling), and after the splits
    when none meets the request: the message gives the best residual where
    some split point passed the domain guards (:meth:`_Levels.at`), else
    how many split points failed each guard, naming the walls.  Either way
    the exception's ``search`` holds the telemetry (no splits for a
    refusal).
    """
    started = time.perf_counter()
    targets = tuple(float(t) for t in targets)
    for level, value in zip(("H", "I2", sym_name), targets):
        if not math.isfinite(value):
            raise ValueError(f"the {level} level must be finite, got {value:g}")
    message = "no phase point matches the requested levels"
    array = np.array(targets)
    reason = _below_floor(spec, array) or _above_ceiling(spec, sym_name, array)
    splits = 0
    if reason is None:
        levels = _Levels(spec, sym_name, targets)
        best, causes = math.inf, collections.Counter()
        for phi_b, phi_a in _splits(spec, sym_name, targets):
            splits += 1
            try:
                z = inverse_chart(spec, targets[0], targets[1], phi_b, phi_a)
            except (ArithmeticError, ValueError):
                causes["where the factor chart is singular"] += 1
                continue
            found = levels.at(z)
            if isinstance(found, str):
                causes[found] += 1
            elif found <= LEVEL_TOLERANCE:
                search = LevelSearch(splits=splits, seconds=time.perf_counter() - started)
                return np.array(z), found, search
            else:
                best = min(best, found)
        if best < math.inf:
            message += f" within {LEVEL_TOLERANCE:g} (best residual {best:.3e})"
        else:
            counts = ", ".join(f"{count} {cause}" for cause, count in causes.items())
            message += f": each of the {splits} split points tried fails a domain guard: {counts}"
    else:
        message += f": {reason}"
    search = LevelSearch(splits=splits, seconds=time.perf_counter() - started)
    raise NoSolution(message, search=search)
