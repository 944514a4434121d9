"""The three Hamiltonian families and their coordinate/domain plumbing.

Internal coordinates are the ones every other module works in:

* Euclidean anisotropic oscillator: ``(xi, y, p_xi, p_y)`` with
  ``xi = gamma * x`` and ``p_xi = p_x / gamma``;
* anisotropic oscillator on the unit sphere, geodesic parallel coordinates:
  ``(xi, y, p_xi, p_y)`` with the same rescaling of the first pair;
* TTW system in polar-type coordinates: ``(r, theta, p_r, p_theta)`` with
  ``theta = gamma * phi`` and ``p_theta = p_phi / gamma``.

The frequency ratio ``gamma`` is always an exact reduced fraction ``m/n``;
the integer pair is what the higher-order constants of motion are built
from, so it is never collapsed to a float anywhere that matters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import scalars as sc
from .errors import DomainError, UnsupportedError
from .phase import Observable, PhaseBatch, PhasePoint, eval_batch

#: Default distance kept from coordinate singularities when sampling (rad).
DELTA_MARGIN = 0.05

#: Positivity floor for sector integrals under a square root.
DELTA_POS = 1e-8

_HALF_PI = math.pi / 2


class Family(str, Enum):
    EUCLIDEAN = "euclidean"
    SPHERE = "sphere"
    TTW = "ttw"


@dataclass(frozen=True)
class RationalGamma:
    """Frequency ratio ``m/n`` stored as a reduced pair of positive integers."""

    m: int
    n: int = 1

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or not isinstance(
            self.n, (int, np.integer)
        ):
            raise ValueError("gamma numerator and denominator must be integers")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"gamma must be a positive fraction, got {self.m}/{self.n}")
        g = math.gcd(int(self.m), int(self.n))
        object.__setattr__(self, "m", int(self.m) // g)
        object.__setattr__(self, "n", int(self.n) // g)

    @property
    def value(self) -> float:
        return self.m / self.n

    @classmethod
    def parse(cls, text: str) -> "RationalGamma":
        """Parse ``"m/n"`` or a bare integer string."""
        s = str(text).strip()
        if "/" in s:
            num, _, den = s.partition("/")
            return cls(int(num), int(den))
        return cls(int(s), 1)

    def __str__(self):
        return f"{self.m}/{self.n}"


_GAMMA_FLOOR = {
    # least allowed gamma per family, as (numerator, denominator)
    Family.EUCLIDEAN: (0, 1),
    Family.SPHERE: (1, 2),
    Family.TTW: (1, 4),
}


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of one system instance."""

    family: Family
    omega: float
    gamma: RationalGamma
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        try:
            w = float(self.omega)
        except (TypeError, ValueError):
            raise ValueError(f"omega must be a positive number, got {self.omega!r}")
        if not (math.isfinite(w) and w > 0):
            raise ValueError(f"omega must be positive, got {self.omega!r}")
        object.__setattr__(self, "omega", w)
        if not isinstance(self.gamma, RationalGamma):
            raise ValueError("gamma must be a RationalGamma")
        lo_m, lo_n = _GAMMA_FLOOR[fam]
        if self.gamma.m * lo_n < lo_m * self.gamma.n:
            raise ValueError(
                f"gamma={self.gamma} below the {fam.value} bound {lo_m}/{lo_n}"
            )
        if fam is Family.TTW:
            if self.alpha is None or self.beta is None:
                raise ValueError("ttw requires both alpha and beta")
            a, b = float(self.alpha), float(self.beta)
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("alpha and beta must be finite")
            object.__setattr__(self, "alpha", a)
            object.__setattr__(self, "beta", b)
        else:
            if self.alpha is not None or self.beta is not None:
                raise ValueError(f"alpha/beta are ttw-only, not {fam.value}")

    # ----- serialization -----

    def to_json_dict(self) -> dict:
        d = {
            "family": self.family.value,
            "omega": self.omega,
            "gamma": {"m": self.gamma.m, "n": self.gamma.n},
        }
        if self.family is Family.TTW:
            d["alpha"] = self.alpha
            d["beta"] = self.beta
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "SystemSpec":
        gamma = d.get("gamma")
        if isinstance(gamma, dict):
            gamma = RationalGamma(int(gamma["m"]), int(gamma["n"]))
        elif isinstance(gamma, str):
            gamma = RationalGamma.parse(gamma)
        else:
            raise ValueError(f"bad gamma entry: {gamma!r}")
        return cls(
            family=Family(d["family"]),
            omega=d["omega"],
            gamma=gamma,
            alpha=d.get("alpha"),
            beta=d.get("beta"),
        )


@dataclass(frozen=True)
class DomainBox:
    """Per-coordinate open sampling intervals plus the boundary margin."""

    intervals: tuple
    margin: float = DELTA_MARGIN

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        if len(ivs) != 4 or any(lo >= hi for lo, hi in ivs):
            raise ValueError(f"need 4 ordered intervals, got {self.intervals!r}")
        object.__setattr__(self, "intervals", ivs)
        if self.margin < 0:
            raise ValueError("margin must be non-negative")

    def to_json_dict(self) -> dict:
        return {"intervals": [list(iv) for iv in self.intervals], "margin": self.margin}


@dataclass(frozen=True)
class DomainVerdict:
    """Whether a point clears the walls; ``wall`` is the first it breaches."""

    valid: bool
    reason: str | None = None
    wall: Wall | None = None

    def __bool__(self):
        return self.valid


# ---------- domain walls ----------


@dataclass(frozen=True)
class Wall:
    """One finite end of a chart interval: ``q[index]`` stays above
    ``bound``, or below it when ``upper``; ``label`` names the wall."""

    index: int
    bound: float
    label: str
    upper: bool = False

    def clearance(self, q, margin: float):
        """How far ``q`` (a float or an array) lies inside the wall beyond
        ``margin``: positive strictly inside, else zero, negative or NaN."""
        if self.upper:
            return (self.bound - margin) - q
        return q - (self.bound + margin)


#: The walls of each family's chart, in the order they are checked.
WALLS = {
    Family.EUCLIDEAN: (),
    Family.SPHERE: (
        Wall(0, _HALF_PI, "xi = pi/2", upper=True),
        Wall(0, -_HALF_PI, "xi = -pi/2"),
        Wall(1, _HALF_PI, "y = pi/2", upper=True),
        Wall(1, -_HALF_PI, "y = -pi/2"),
    ),
    Family.TTW: (
        Wall(0, 0.0, "r = 0"),
        Wall(1, 0.0, "theta = 0"),
        Wall(1, _HALF_PI, "theta = pi/2", upper=True),
    ),
}


def domain_description(family: Family) -> str:
    """The chart's domain as text, read off the wall labels ``name = value``:
    ``|xi| < pi/2 and |y| < pi/2`` on the sphere, ``r > 0 and 0 < theta <
    pi/2`` for TTW."""
    parts = []
    for k in (0, 1):
        ends = {w.upper: w.label.split(" = ") for w in WALLS[family] if w.index == k}
        if len(ends) == 2:
            (name, lo), (_, hi) = ends[False], ends[True]
            parts.append(f"|{name}| < {hi}" if lo == f"-{hi}" else f"{lo} < {name} < {hi}")
        elif ends:
            [(upper, (name, bound))] = ends.items()
            parts.append(f"{name} {'<' if upper else '>'} {bound}")
    return " and ".join(parts) or "all of R^4"


def gamma_bound(family: Family) -> str:
    """The family's least ``gamma`` as a relation, read off its floor:
    ``>= 1/2`` on the sphere, ``> 0`` where every positive ratio is allowed."""
    m, n = _GAMMA_FLOOR[family]
    return f">= {m}/{n}" if m else "> 0"


def wall_mask(family: Family, q, margin: float) -> np.ndarray:
    """Elementwise over arrays ``q = (q1, q2)``: every wall of ``family``
    is cleared by more than ``margin``."""
    mask = np.ones(np.shape(q[0]), dtype=bool)
    for wall in WALLS[family]:
        mask &= wall.clearance(q[wall.index], margin) > 0
    return mask


def domain_check(spec: SystemSpec, point: PhasePoint, margin: float | None = None) -> DomainVerdict:
    """Total validity check; the verdict names the wall that is breached."""
    m = DELTA_MARGIN if margin is None else float(margin)
    q = (point.q1, point.q2)
    for wall in WALLS[spec.family]:
        k = wall.index
        if not wall.clearance(q[k], m) > 0:
            reason = f"q{k + 1}={q[k]:.6g} not more than {m:g} inside the wall {wall.label}"
            return DomainVerdict(False, reason, wall)
    return DomainVerdict(True)


def domain_mask(spec: SystemSpec, batch: PhaseBatch, margin: float) -> np.ndarray:
    """Batch validity: :func:`domain_check` at every point and, for the
    families with square roots, a finite sector integral above
    :data:`DELTA_POS`.  Next to a wall at margin 0 the sector integral can
    overflow; such a point is rejected, whatever the caller's ``errstate``."""
    mask = wall_mask(spec.family, (batch.q1, batch.q2), margin)
    if spec.family is Family.EUCLIDEAN or not mask.any():
        return mask
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        i2 = eval_batch(second_integral_observable(spec), batch[mask])
    mask[mask] = np.isfinite(i2) & (i2 > DELTA_POS)
    return mask


def _require_in_domain(spec: SystemSpec, point: PhasePoint):
    verdict = domain_check(spec, point, margin=0.0)
    if not verdict:
        raise DomainError(f"{spec.family.value} point outside domain: {verdict.reason}")


# ---------- coordinate transforms ----------


def to_internal(spec: SystemSpec, external: PhasePoint) -> PhasePoint:
    """External chart -> internal chart (canonical rescaling of one pair).

    The flat and spherical families stretch the first coordinate
    (``xi = gamma * x``, ``p_xi = p_x / gamma``); the TTW family stretches
    the angle (``theta = gamma * phi``, ``p_theta = p_phi / gamma``).
    """
    g = spec.gamma.value
    if spec.family is Family.TTW:
        internal = PhasePoint(
            external.q1, g * external.q2, external.p1, external.p2 / g
        )
    else:
        internal = PhasePoint(
            g * external.q1, external.q2, external.p1 / g, external.p2
        )
    _require_in_domain(spec, internal)
    return internal


def plane_coordinates(spec: SystemSpec, q1, q2, plane: str):
    """External plotting coordinates of the internal positions ``(q1, q2)``,
    floats or arrays.

    ``plane="xy"`` gives Cartesian ``(x, y)`` (the chart's ``(x, y)`` on the
    sphere) and ``plane="rtheta"`` polar ``(r, theta)``: ``theta`` is the
    external angle ``phi = q2/gamma`` for TTW, and on the sphere ``(r,
    theta)`` are geodesic polar coordinates about ``x = y = 0``.
    """
    if plane not in ("xy", "rtheta"):
        raise ValueError(f"unknown plane {plane!r}")
    g = spec.gamma.value
    if spec.family is Family.TTW:
        r, phi = q1, q2 / g
        return (r, phi) if plane == "rtheta" else (r * np.cos(phi), r * np.sin(phi))
    x, y = q1 / g, q2
    if plane == "xy":
        return x, y
    if spec.family is Family.EUCLIDEAN:
        return np.hypot(x, y), np.arctan2(y, x)
    return np.arccos(np.cos(x) * np.cos(y)), np.arctan2(np.sin(y), np.sin(x) * np.cos(y))


# ---------- observables ----------
#
# Each builder is cached per spec, so one spec always yields the same
# observables and their compiled gradient code (phase.gradient_batch) is
# built once.  The bound keeps every spec of a benchmark workload (at
# most 23).


@functools.lru_cache(maxsize=64)
def second_integral_observable(spec: SystemSpec) -> Observable:
    """The separated sector integral: oscillator sector energy for the flat
    and spherical families, the angular integral for TTW."""
    w = spec.omega
    g = spec.gamma.value
    fam = spec.family
    if fam is Family.EUCLIDEAN:
        k = w * w / (2 * g * g)

        def fn(q1, q2, p1, p2):
            return p1 * p1 / 2 + k * (q1 * q1)

        return Observable(fn, "Hxi")
    if fam is Family.SPHERE:
        k = w * w / (2 * g * g)

        def fn(q1, q2, p1, p2):
            c = sc.cos(q1)
            return p1 * p1 / 2 + k / (c * c)

        return Observable(fn, "Hxi")
    a2 = spec.alpha * spec.alpha
    b2 = spec.beta * spec.beta

    def fn(q1, q2, p1, p2):
        c = sc.cos(q2)
        s = sc.sin(q2)
        return p2 * p2 + a2 / (c * c) + b2 / (s * s)

    return Observable(fn, "Htheta")


@functools.lru_cache(maxsize=64)
def hamiltonian_observable(spec: SystemSpec) -> Observable:
    w = spec.omega
    g = spec.gamma.value
    g2 = g * g
    sector = second_integral_observable(spec).fn
    fam = spec.family
    if fam is Family.EUCLIDEAN:

        def fn(q1, q2, p1, p2):
            return p2 * p2 / 2 + w * w * q2 * q2 / 2 + g2 * sector(q1, q2, p1, p2)

    elif fam is Family.SPHERE:

        def fn(q1, q2, p1, p2):
            c = sc.cos(q2)
            return p2 * p2 / 2 + g2 * sector(q1, q2, p1, p2) / (c * c) - w * w / 2

    else:

        def fn(q1, q2, p1, p2):
            return p1 * p1 + w * w * q1 * q1 + g2 * sector(q1, q2, p1, p2) / (q1 * q1)

    return Observable(fn, f"H[{fam.value}]")


@functools.lru_cache(maxsize=64)
def euclid_y_sector_observable(spec: SystemSpec) -> Observable:
    """The y-sector oscillator energy of the Euclidean family."""
    if spec.family is not Family.EUCLIDEAN:
        raise UnsupportedError("y-sector energy is defined for the euclidean family")
    w = spec.omega

    def fn(q1, q2, p1, p2):
        return p2 * p2 / 2 + w * w * q2 * q2 / 2

    return Observable(fn, "Hy")


@functools.lru_cache(maxsize=64)
def epsilon_observable(spec: SystemSpec) -> Observable:
    """The frequency-like function: sqrt(2 * sector) on the sphere,
    sqrt(sector) for TTW.  Full phase-space dependence, so its derivatives
    chain through the sector integral."""
    sector = second_integral_observable(spec).fn
    if spec.family is Family.SPHERE:
        return Observable(
            lambda q1, q2, p1, p2: sc.sqrt(2 * sector(q1, q2, p1, p2)), "E"
        )
    if spec.family is Family.TTW:
        return Observable(
            lambda q1, q2, p1, p2: sc.sqrt(sector(q1, q2, p1, p2)), "E"
        )
    raise UnsupportedError("epsilon is not defined for the euclidean family")


# ---------- pointwise operations ----------


def hamiltonian(spec: SystemSpec, point: PhasePoint) -> float:
    _require_in_domain(spec, point)
    return hamiltonian_observable(spec)(point).real


def second_integral(spec: SystemSpec, point: PhasePoint) -> float:
    _require_in_domain(spec, point)
    return second_integral_observable(spec)(point).real


def higgs_potential_identity(x, y):
    """Both sides of the geodesic-polar rewriting of the central potential,
    at floats or arrays.

    ``lhs`` is the parallel-coordinate form ``tan^2 x / cos^2 y + tan^2 y``;
    ``rhs`` is ``tan^2 r`` expressed through ``cos r = cos x * cos y``.
    They agree identically on the open square ``|x|, |y| < pi/2``, the
    sphere's chart; any point off it raises :class:`DomainError`.
    """
    if not wall_mask(Family.SPHERE, (np.real(x), np.real(y)), 0.0).all():
        raise DomainError("point outside the open coordinate square |x|, |y| < pi/2")
    lhs = np.tan(x) ** 2 / np.cos(y) ** 2 + np.tan(y) ** 2
    cc = (np.cos(x) * np.cos(y)) ** 2
    return lhs, (1.0 - cc) / cc


def characteristic_period(spec: SystemSpec) -> float:
    """Coarse time scale of the bounded motion used for defaults: the
    y-sector period for the oscillator families, the radial period for TTW."""
    if spec.family is Family.TTW:
        return math.pi / spec.omega
    return 2 * math.pi / spec.omega


#: Sampling range of a chart coordinate not walled on both sides.
_OPEN_RANGE = {Family.EUCLIDEAN: (-1.5, 1.5), Family.TTW: (0.3, 2.2)}


def default_box(spec: SystemSpec) -> DomainBox:
    """A generic sampling box inside the family's walls: a coordinate walled
    on both sides spans its chart less :data:`DELTA_MARGIN`, any other one a
    fixed range; momenta span ``(-1.5, 1.5)``."""
    m = DELTA_MARGIN
    qs = []
    for k in (0, 1):
        ends = {w.upper: w.bound for w in WALLS[spec.family] if w.index == k}
        walled = len(ends) == 2
        qs.append((ends[False] + m, ends[True] - m) if walled else _OPEN_RANGE[spec.family])
    mom = (-1.5, 1.5)
    return DomainBox((*qs, mom, mom))
