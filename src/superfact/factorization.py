"""Ladder and shift factor functions and the higher-order constants of motion.

Each separated sector of a family factorizes through a conjugate pair of
complex functions: the "ladder" pair ``B+/B-`` lives on the first sector,
the "shift" pair ``A+/A-`` on the second.  Along the flow each pair rotates
with an instantaneous frequency proportional to its sector's, so for a
rational frequency ratio ``gamma = m/n`` the product

    X+ = (B+)^n * (A+)^m        (flat and spherical families)

has cancelling phases and is a constant of motion; ``X- = conj(X+)`` at real
phase points, and the real combinations ``X = (X+ + X-)/2`` and
``Y = (X+ - X-)/(2i)`` are real constants of motion of polynomial-type order
``m + n``.

For the TTW family the two pure shifts rotate opposite to the flat/spherical
convention (they are built from mixed radial factors), so the phase
cancellation pairs ``B+`` with the *minus* pure shift:

    X+ = (B+)^n * (A-)^m        (TTW)

which is the combination this module returns.  The frequency-like factor
``E`` appearing in the spherical shifts and everywhere in TTW is kept as a
full phase-space function (a square root of the sector integral), never as
a frozen number, so its derivatives chain through every bracket.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

from . import scalars as sc
from .errors import PositivityError, UnsupportedError
from .phase import Observable, PhasePoint
from .systems import (
    DELTA_POS,
    Family,
    SystemSpec,
    _require_in_domain,
    epsilon_observable,
    second_integral_observable,
)

_SQH = 1.0 / math.sqrt(2.0)  # 1/sqrt(2)


@dataclass(frozen=True)
class FactorValue:
    """One conjugate factor pair and its additive factorization constant."""

    plus: complex
    minus: complex
    lam: float


@dataclass(frozen=True)
class TtwShift:
    """The two mixed radial factor pairs and the pure shift pair built from
    them (``pure.plus = a1.plus * a2.minus`` and conjugate)."""

    a1: FactorValue
    a2: FactorValue
    pure: FactorValue


@dataclass(frozen=True)
class IntegralPair:
    """The conjugate constants of motion and their real combinations."""

    x_plus: complex
    x_minus: complex
    x_real: float
    y_real: float


# ---------- observable builders ----------
#
# Each builder is cached per spec, so one spec always yields the same
# observables and their compiled gradient code (phase.gradient_batch) is
# built once.  The bound keeps every spec of a benchmark workload (at
# most 23).


@functools.lru_cache(maxsize=64)
def ladder_observables(spec: SystemSpec):
    """``(B+, B-)`` as observables over the first separated sector."""
    w = spec.omega
    g = spec.gamma.value
    fam = spec.family
    if fam is Family.EUCLIDEAN:
        k = w / (g * math.sqrt(2.0))

        def plus(q1, q2, p1, p2):
            return (-1j * _SQH) * p1 + k * q1

        def minus(q1, q2, p1, p2):
            return (1j * _SQH) * p1 + k * q1

    elif fam is Family.SPHERE:
        sector = second_integral_observable(spec).fn

        def plus(q1, q2, p1, p2):
            root = sc.sqrt(sector(q1, q2, p1, p2))
            return (-1j * _SQH) * (sc.cos(q1) * p1) + root * sc.sin(q1)

        def minus(q1, q2, p1, p2):
            root = sc.sqrt(sector(q1, q2, p1, p2))
            return (1j * _SQH) * (sc.cos(q1) * p1) + root * sc.sin(q1)

    else:
        sector = second_integral_observable(spec).fn
        d = spec.beta * spec.beta - spec.alpha * spec.alpha

        def plus(q1, q2, p1, p2):
            root = sc.sqrt(sector(q1, q2, p1, p2))
            return 1j * (sc.sin(2 * q2) * p2) + root * sc.cos(2 * q2) + d / root

        def minus(q1, q2, p1, p2):
            root = sc.sqrt(sector(q1, q2, p1, p2))
            return -1j * (sc.sin(2 * q2) * p2) + root * sc.cos(2 * q2) + d / root

    return Observable(plus, "B+"), Observable(minus, "B-")


@functools.lru_cache(maxsize=64)
def sphere_ladder_target_observable(spec: SystemSpec) -> Observable:
    """The sphere quantity the ladder pair factorizes:
    ``cos^2(xi) * (p_xi^2 / 2 - Hxi)``, identically ``-omega^2/(2 gamma^2)``."""
    if spec.family is not Family.SPHERE:
        raise UnsupportedError("ladder target of this form is sphere-only")
    sector = second_integral_observable(spec).fn

    def fn(q1, q2, p1, p2):
        c = sc.cos(q1)
        return (c * c) * (p1 * p1 / 2 - sector(q1, q2, p1, p2))

    return Observable(fn, "hxi")


@functools.lru_cache(maxsize=64)
def shift_observables(spec: SystemSpec):
    """``(A+, A-)`` for the flat and spherical families."""
    w = spec.omega
    g = spec.gamma.value
    fam = spec.family
    if fam is Family.EUCLIDEAN:
        k = w * _SQH

        def plus(q1, q2, p1, p2):
            return (-1j * _SQH) * p2 - k * q2

        def minus(q1, q2, p1, p2):
            return (1j * _SQH) * p2 - k * q2

    elif fam is Family.SPHERE:
        eps_fn = epsilon_observable(spec).fn
        k = g * _SQH

        def plus(q1, q2, p1, p2):
            return (-1j * _SQH) * p2 - k * eps_fn(q1, q2, p1, p2) * sc.tan(q2)

        def minus(q1, q2, p1, p2):
            return (1j * _SQH) * p2 - k * eps_fn(q1, q2, p1, p2) * sc.tan(q2)

    else:
        raise UnsupportedError("use ttw_shift_observables for the ttw family")
    return Observable(plus, "A+"), Observable(minus, "A-")


@functools.lru_cache(maxsize=64)
def ttw_shift_observables(spec: SystemSpec) -> MappingProxyType:
    """All TTW shift observables keyed ``a1+ a1- a2+ a2- A+ A-``, as a
    read-only mapping (one spec's mapping is shared by every caller).

    ``a1``/``a2`` are the mixed radial pairs; the pure pair combines them as
    ``A+ = a1+ * a2-``, ``A- = a1- * a2+``.
    """
    if spec.family is not Family.TTW:
        raise UnsupportedError("mixed shifts are ttw-only")
    w = spec.omega
    g = spec.gamma.value
    eps_fn = epsilon_observable(spec).fn

    def make(sign_p, sign_s):
        def fn(q1, q2, p1, p2):
            return (
                (sign_p * 1j) * p1 + w * q1 + sign_s * g * eps_fn(q1, q2, p1, p2) / q1
            )

        return fn

    a1p = Observable(make(-1.0, -1.0), "a1+")
    a1m = Observable(make(+1.0, -1.0), "a1-")
    a2p = Observable(make(-1.0, +1.0), "a2+")
    a2m = Observable(make(+1.0, +1.0), "a2-")
    pure_p = Observable(
        lambda q1, q2, p1, p2: a1p.fn(q1, q2, p1, p2) * a2m.fn(q1, q2, p1, p2), "A+"
    )
    pure_m = Observable(
        lambda q1, q2, p1, p2: a1m.fn(q1, q2, p1, p2) * a2p.fn(q1, q2, p1, p2), "A-"
    )
    return MappingProxyType(
        {"a1+": a1p, "a1-": a1m, "a2+": a2p, "a2-": a2m, "A+": pure_p, "A-": pure_m}
    )


@functools.lru_cache(maxsize=64)
def higher_integral_observables(spec: SystemSpec):
    """``(X+, X-, X, Y)`` as observables; ``X`` and ``Y`` are real at real
    points (their tiny imaginary residue is an arithmetic identity, not an
    approximation, because the minus factors mirror the plus ones exactly)."""
    m, n = spec.gamma.m, spec.gamma.n
    bp, bm = ladder_observables(spec)
    if spec.family is Family.TTW:
        shifts = ttw_shift_observables(spec)
        # Phase cancellation pairs the plus ladder with the minus pure shift.
        ap_for_plus, am_for_minus = shifts["A-"], shifts["A+"]
    else:
        a_plus, a_minus = shift_observables(spec)
        ap_for_plus, am_for_minus = a_plus, a_minus

    bpf, bmf = bp.fn, bm.fn
    apf, amf = ap_for_plus.fn, am_for_minus.fn

    def xp(q1, q2, p1, p2):
        return sc.ipow(bpf(q1, q2, p1, p2), n) * sc.ipow(apf(q1, q2, p1, p2), m)

    def xm(q1, q2, p1, p2):
        return sc.ipow(bmf(q1, q2, p1, p2), n) * sc.ipow(amf(q1, q2, p1, p2), m)

    x_plus = Observable(xp, "X+")
    x_minus = Observable(xm, "X-")
    x_real = Observable(
        lambda q1, q2, p1, p2: (xp(q1, q2, p1, p2) + xm(q1, q2, p1, p2)) * 0.5, "X"
    )
    y_real = Observable(
        lambda q1, q2, p1, p2: (xp(q1, q2, p1, p2) - xm(q1, q2, p1, p2)) * (-0.5j), "Y"
    )
    return x_plus, x_minus, x_real, y_real


# ---------- pointwise operations ----------


def _positive_sector(spec: SystemSpec, point: PhasePoint) -> float:
    obs = second_integral_observable(spec)
    i2 = obs(point).real
    if i2 <= DELTA_POS:
        raise PositivityError(
            f"{obs.label} = {i2:.3g} <= {DELTA_POS:g}; factor functions undefined"
        )
    return i2


def ladder(spec: SystemSpec, point: PhasePoint) -> FactorValue:
    """Evaluate the ladder pair and its factorization constant at a point.

    Constants by family: 0 (flat); ``-Hxi`` (sphere, factorizing the constant
    sector combination); for TTW the value that completes the product
    identity ``Htheta = B+ B- + lam``.
    """
    _require_in_domain(spec, point)
    bp, bm = ladder_observables(spec)
    fam = spec.family
    if fam is Family.EUCLIDEAN:
        lam = 0.0
    else:
        i2 = _positive_sector(spec, point)
        if fam is Family.SPHERE:
            lam = -i2
        else:
            d = spec.beta * spec.beta - spec.alpha * spec.alpha
            lam = 2 * (spec.alpha * spec.alpha + spec.beta * spec.beta) - d * d / i2
    return FactorValue(bp(point), bm(point), lam)


def shift(spec: SystemSpec, point: PhasePoint) -> FactorValue:
    """Evaluate the shift pair for the flat or spherical family."""
    if spec.family is Family.TTW:
        raise UnsupportedError("ttw shifts are mixed; call shift_ttw instead")
    _require_in_domain(spec, point)
    ap, am = shift_observables(spec)
    if spec.family is Family.EUCLIDEAN:
        lam = 0.0
    else:
        i2 = _positive_sector(spec, point)
        g = spec.gamma.value
        lam = (g * g * 2 * i2 - spec.omega * spec.omega) / 2
    return FactorValue(ap(point), am(point), lam)


def shift_ttw(spec: SystemSpec, point: PhasePoint) -> TtwShift:
    """Evaluate the mixed and pure TTW shift pairs at a point."""
    if spec.family is not Family.TTW:
        raise UnsupportedError("shift_ttw applies to the ttw family only")
    _require_in_domain(spec, point)
    i2 = _positive_sector(spec, point)
    e = math.sqrt(i2)
    obs = ttw_shift_observables(spec)
    lam1 = 2 * spec.omega * spec.gamma.value * e
    a1 = FactorValue(obs["a1+"](point), obs["a1-"](point), lam1)
    a2 = FactorValue(obs["a2+"](point), obs["a2-"](point), -lam1)
    # The pure pair has no additive factorization constant of its own.
    pure = FactorValue(obs["A+"](point), obs["A-"](point), 0.0)
    return TtwShift(a1, a2, pure)


def higher_integral(spec: SystemSpec, point: PhasePoint) -> IntegralPair:
    """Evaluate the conjugate constants of motion and their real parts."""
    _require_in_domain(spec, point)
    if spec.family is not Family.EUCLIDEAN:
        _positive_sector(spec, point)
    xp_obs, xm_obs, _, _ = higher_integral_observables(spec)
    xp = xp_obs(point)
    xm = xm_obs(point)
    return IntegralPair(
        x_plus=xp,
        x_minus=xm,
        x_real=((xp + xm) / 2).real,
        y_real=((xp - xm) / 2j).real,
    )
