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

Each pair is written once, as a :class:`FactorPair` record
(:func:`factor_pairs`): its two factors, its factorization
``plus * minus + lam = target`` and its rotation rate along the flow.  The
identity suite (:mod:`~superfact.verification`) certifies the records, and
the pointwise :func:`ladder`, :func:`shift` and :func:`shift_ttw` evaluate
them at a point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

from . import scalars as sc
from .errors import UnsupportedError
from .phase import Observable, PhasePoint
from .systems import (
    Family,
    SystemSpec,
    _positive_sector,
    _require_in_domain,
    epsilon_observable,
    euclid_y_sector_observable,
    hamiltonian_observable,
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
class FactorPair:
    """One conjugate pair as the construction uses it.

    The pair factorizes a sector, ``plus * minus + lam = target`` (``lam``
    None stands for 0), and rotates along the flow:
    ``{H, plus} = rate * plus`` and ``{H, minus} = -rate * minus``, where
    ``rate = rate_factor * rate_obs`` (``rate_obs`` None stands for 1).
    ``name`` is the pair's symbol (``B``, ``A``, ``a1``, ``a2``) and
    ``role`` the factorization it performs (``ladder``, ``shift``,
    ``shift1``, ``shift2``, ``pure_shift``).
    """

    name: str
    role: str
    plus: Observable
    minus: Observable
    lam: Observable | None
    target: Observable
    rate_factor: complex
    rate_obs: Observable | None


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
def factor_pairs(spec: SystemSpec) -> MappingProxyType:
    """Every conjugate pair of the family as a :class:`FactorPair`, keyed by
    name in the order the suite certifies them: ``B`` and ``A`` on the plane
    and the sphere; ``B``, ``a1``, ``a2`` and ``A`` for TTW.  The mapping is
    read-only and shared per spec.  For ``gamma = m/n`` the rates of the
    factors of ``X+`` cancel: ``n * rate(B) + m * rate(A) = 0``, with the
    sign of ``rate(A)`` flipped for TTW, whose ``X+`` takes ``A-``."""
    w = spec.omega
    g = spec.gamma.value
    fam = spec.family
    i2 = second_integral_observable(spec)
    sector = i2.fn
    bp, bm = ladder_observables(spec)
    if fam is Family.EUCLIDEAN:
        ap, am = shift_observables(spec)
        hy = euclid_y_sector_observable(spec)
        pairs = (
            FactorPair("B", "ladder", bp, bm, None, i2, -1j * g * w, None),
            FactorPair("A", "shift", ap, am, None, hy, 1j * w, None),
        )
    elif fam is Family.SPHERE:
        ap, am = shift_observables(spec)
        eps_fn = epsilon_observable(spec).fn

        def angular(q1, q2, p1, p2):
            c = sc.cos(q2)
            return eps_fn(q1, q2, p1, p2) / (c * c)

        def lam_b(q1, q2, p1, p2):
            return -sector(q1, q2, p1, p2)

        def lam_a(q1, q2, p1, p2):
            return (2 * g * g * sector(q1, q2, p1, p2) - w * w) / 2

        rate = Observable(angular, "E/cos^2(y)")
        pairs = (
            FactorPair("B", "ladder", bp, bm, Observable(lam_b, "-Hxi"),
                       sphere_ladder_target_observable(spec), -1j * g * g, rate),
            FactorPair("A", "shift", ap, am, Observable(lam_a, "lam_A"),
                       hamiltonian_observable(spec), 1j * g, rate),
        )
    else:
        a2b2 = spec.alpha * spec.alpha + spec.beta * spec.beta
        d = spec.beta * spec.beta - spec.alpha * spec.alpha
        h = hamiltonian_observable(spec)
        h_fn = h.fn
        eps_fn = epsilon_observable(spec).fn
        shifts = ttw_shift_observables(spec)

        def radial(q1, q2, p1, p2):
            return eps_fn(q1, q2, p1, p2) / (q1 * q1)

        def lam_b(q1, q2, p1, p2):
            return 2 * a2b2 - (d * d) / sector(q1, q2, p1, p2)

        def lam_a1(q1, q2, p1, p2):
            return 2 * w * g * eps_fn(q1, q2, p1, p2)

        def lam_a2(q1, q2, p1, p2):
            return -2 * w * g * eps_fn(q1, q2, p1, p2)

        def rate_a1(q1, q2, p1, p2):
            return w + g * radial(q1, q2, p1, p2)

        def rate_a2(q1, q2, p1, p2):
            return w - g * radial(q1, q2, p1, p2)

        def pure_target(q1, q2, p1, p2):
            hv = h_fn(q1, q2, p1, p2)
            return hv * hv - 4 * w * w * g * g * sector(q1, q2, p1, p2)

        rate = Observable(radial, "E/r^2")
        pairs = (
            FactorPair("B", "ladder", bp, bm, Observable(lam_b, "lam_B"), i2,
                       -4j * g * g, rate),
            FactorPair("a1", "shift1", shifts["a1+"], shifts["a1-"],
                       Observable(lam_a1, "lam_a1"), h,
                       -2j, Observable(rate_a1, "w+gE/r^2")),
            FactorPair("a2", "shift2", shifts["a2+"], shifts["a2-"],
                       Observable(lam_a2, "lam_a2"), h,
                       -2j, Observable(rate_a2, "w-gE/r^2")),
            # The pure pair has no additive constant: its product is
            # H^2 - 4 omega^2 gamma^2 Htheta.
            FactorPair("A", "pure_shift", shifts["A+"], shifts["A-"], None,
                       Observable(pure_target, "H^2-4w^2g^2Htheta"), -4j * g, rate),
        )
    return MappingProxyType({pair.name: pair for pair in pairs})


@functools.lru_cache(maxsize=64)
def higher_integral_observables(spec: SystemSpec):
    """``(X+, X-, X, Y)`` as observables; ``X`` and ``Y`` are real at real
    points (their tiny imaginary residue is an arithmetic identity, not an
    approximation, because the minus factors mirror the plus ones exactly)."""
    m, n = spec.gamma.m, spec.gamma.n
    pairs = factor_pairs(spec)
    ladder_pair, shift_pair = pairs["B"], pairs["A"]
    bpf, bmf = ladder_pair.plus.fn, ladder_pair.minus.fn
    apf, amf = shift_pair.plus.fn, shift_pair.minus.fn
    if spec.family is Family.TTW:
        # Phase cancellation pairs the plus ladder with the minus pure shift.
        apf, amf = amf, apf

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


def _require_factor_domain(spec: SystemSpec, point: PhasePoint) -> None:
    _require_in_domain(spec, point)
    if spec.family is not Family.EUCLIDEAN:
        _positive_sector(spec, point)


def _pair_value(pair: FactorPair, point: PhasePoint) -> FactorValue:
    lam = 0.0 if pair.lam is None else pair.lam(point).real
    return FactorValue(pair.plus(point), pair.minus(point), lam)


def ladder(spec: SystemSpec, point: PhasePoint) -> FactorValue:
    """Evaluate the ladder pair and its factorization constant at a point
    (the record ``factor_pairs(spec)["B"]``)."""
    _require_factor_domain(spec, point)
    return _pair_value(factor_pairs(spec)["B"], point)


def shift(spec: SystemSpec, point: PhasePoint) -> FactorValue:
    """Evaluate the shift pair for the flat or spherical family."""
    if spec.family is Family.TTW:
        raise UnsupportedError("ttw shifts are mixed; call shift_ttw instead")
    _require_factor_domain(spec, point)
    return _pair_value(factor_pairs(spec)["A"], point)


def shift_ttw(spec: SystemSpec, point: PhasePoint) -> TtwShift:
    """Evaluate the mixed and pure TTW shift pairs at a point."""
    if spec.family is not Family.TTW:
        raise UnsupportedError("shift_ttw applies to the ttw family only")
    _require_factor_domain(spec, point)
    pairs = factor_pairs(spec)
    return TtwShift(*(_pair_value(pairs[name], point) for name in ("a1", "a2", "A")))


def higher_integral(spec: SystemSpec, point: PhasePoint) -> IntegralPair:
    """Evaluate the conjugate constants of motion and their real parts."""
    _require_factor_domain(spec, point)
    xp_obs, xm_obs, _, _ = higher_integral_observables(spec)
    xp = xp_obs(point)
    xm = xm_obs(point)
    return IntegralPair(
        x_plus=xp,
        x_minus=xm,
        x_real=((xp + xm) / 2).real,
        y_real=((xp - xm) / 2j).real,
    )
