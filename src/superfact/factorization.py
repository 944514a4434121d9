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
(:func:`factor_pairs`) holding its whole algebra: its two factors (the
minus one is the plus one with the sign of ``i`` flipped), its
factorization ``plus * minus + lam = target`` (and the constant the target
equals, where it is one), its rotation along the flow, its rotation under
its sector integral and the mutual bracket ``{minus, plus}``.  The records
are the only place each factor is written: the per-factor builders read
them, and the identity suite (:mod:`~superfact.verification`) generates
every pair identity from them.  They are evaluated like any observable,
over a batch (:func:`~superfact.phase.eval_batch`).

The factors are also a chart: ``H`` and ``I2`` fix the moduli of ``B+`` and
of ``A'``, the shift factor of ``X+``, and :func:`inverse_chart` returns the
state with given ``H``, ``I2`` and phases of the two factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

from . import scalars as sc
from .errors import UnsupportedError
from .phase import Observable
from .systems import (
    Family,
    SystemSpec,
    epsilon_observable,
    euclid_y_sector_observable,
    hamiltonian_observable,
    second_integral_observable,
)

_SQ2 = math.sqrt(2.0)
_SQH = 1.0 / _SQ2  # 1/sqrt(2)


@dataclass(frozen=True)
class Coefficient:
    """``factor`` times the values of ``observables``, multiplied left to
    right; with no observables it is the constant ``factor``."""

    factor: complex
    observables: tuple[Observable, ...] = ()

    def __neg__(self) -> "Coefficient":
        return Coefficient(-self.factor, self.observables)


@dataclass(frozen=True)
class FactorPair:
    """One conjugate pair and the relations that define it.

    - It factorizes a sector: ``plus * minus + lam = target`` (``lam`` None
      stands for 0); where ``target_const`` is set, the target is
      identically that constant.
    - It rotates along the flow: ``{H, plus} = rate * plus`` and
      ``{H, minus} = -rate * minus``.
    - Where ``sector`` is set, it rotates under that sector integral:
      ``{sector, plus} = sector_rate * plus`` and
      ``{sector, minus} = -sector_rate * minus``.
    - Where ``mutual`` is set, ``{minus, plus} = mutual``.

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
    rate: Coefficient
    sector: Observable | None = None
    sector_rate: Coefficient | None = None
    mutual: Coefficient | None = None
    target_const: complex | None = None


# ---------- factor pairs ----------
#
# One constructor per family writes its pairs, and factor_pairs caches them
# per spec, so a spec's observables and their compiled gradient code
# (phase.gradient_batch) are built once; the bound keeps every spec of a
# benchmark workload (at most 23).  The per-factor builders read the records.


def _conjugate(make, unit: complex, name: str):
    """``(name+, name-)`` as observables: ``make(unit)`` is the plus
    factor, ``unit`` its imaginary unit, and ``make(-unit)`` the minus."""
    return Observable(make(unit), f"{name}+"), Observable(make(-unit), f"{name}-")


def _euclidean_pairs(spec: SystemSpec) -> tuple[FactorPair, ...]:
    w = spec.omega
    g = spec.gamma.value
    i2 = second_integral_observable(spec)
    hy = euclid_y_sector_observable(spec)
    k_ladder = w / (g * math.sqrt(2.0))
    k_shift = w * _SQH

    def ladder(unit):
        return lambda q1, q2, p1, p2: (unit * _SQH) * p1 + k_ladder * q1

    def shift(unit):
        return lambda q1, q2, p1, p2: (unit * _SQH) * p2 - k_shift * q2

    # Each sector rotates its pair at the constant of its mutual bracket.
    k_b, k_a = Coefficient(-1j * w / g), Coefficient(1j * w)
    return (
        FactorPair("B", "ladder", *_conjugate(ladder, -1j, "B"), None, i2,
                   Coefficient(-1j * g * w), sector=i2, sector_rate=k_b, mutual=k_b),
        FactorPair("A", "shift", *_conjugate(shift, -1j, "A"), None, hy, k_a,
                   sector=hy, sector_rate=k_a, mutual=k_a),
    )


def _sphere_pairs(spec: SystemSpec) -> tuple[FactorPair, ...]:
    w = spec.omega
    g = spec.gamma.value
    i2 = second_integral_observable(spec)
    sector = i2.fn
    eps = epsilon_observable(spec)
    eps_fn = eps.fn
    k = g * _SQH

    def ladder(unit):
        def fn(q1, q2, p1, p2):
            root = sc.sqrt(sector(q1, q2, p1, p2))
            return (unit * _SQH) * (sc.cos(q1) * p1) + root * sc.sin(q1)

        return fn

    def shift(unit):
        return lambda q1, q2, p1, p2: (
            (unit * _SQH) * p2 - k * eps_fn(q1, q2, p1, p2) * sc.tan(q2)
        )

    def ladder_target(q1, q2, p1, p2):
        c = sc.cos(q1)
        return (c * c) * (p1 * p1 / 2 - sector(q1, q2, p1, p2))

    def angular(q1, q2, p1, p2):
        c = sc.cos(q2)
        return eps_fn(q1, q2, p1, p2) / (c * c)

    def lam_b(q1, q2, p1, p2):
        return -sector(q1, q2, p1, p2)

    def lam_a(q1, q2, p1, p2):
        return (2 * g * g * sector(q1, q2, p1, p2) - w * w) / 2

    rate = Observable(angular, "E/cos^2(y)")
    k_b = Coefficient(-1j, (eps,))
    rate_a = Coefficient(1j * g, (rate,))
    return (
        FactorPair("B", "ladder", *_conjugate(ladder, -1j, "B"),
                   Observable(lam_b, "-Hxi"), Observable(ladder_target, "hxi"),
                   Coefficient(-1j * g * g, (rate,)),
                   sector=i2, sector_rate=k_b, mutual=k_b,
                   target_const=-w * w / (2 * g * g)),
        FactorPair("A", "shift", *_conjugate(shift, -1j, "A"),
                   Observable(lam_a, "lam_A"), hamiltonian_observable(spec),
                   rate_a, mutual=rate_a),
    )


def _ttw_pairs(spec: SystemSpec) -> tuple[FactorPair, ...]:
    w = spec.omega
    g = spec.gamma.value
    a2b2 = spec.alpha * spec.alpha + spec.beta * spec.beta
    d = spec.beta * spec.beta - spec.alpha * spec.alpha
    i2 = second_integral_observable(spec)
    sector = i2.fn
    h = hamiltonian_observable(spec)
    h_fn = h.fn
    eps = epsilon_observable(spec)
    eps_fn = eps.fn

    def ladder(unit):
        def fn(q1, q2, p1, p2):
            root = sc.sqrt(sector(q1, q2, p1, p2))
            return unit * (sc.sin(2 * q2) * p2) + root * sc.cos(2 * q2) + d / root

        return fn

    def mixed(sign):
        """The mixed radial pair ``a1`` (``sign`` -1) or ``a2`` (+1)."""

        def make(unit):
            return lambda q1, q2, p1, p2: (
                unit * p1 + w * q1 + sign * g * eps_fn(q1, q2, p1, p2) / q1
            )

        return make

    a1, a2 = mixed(-1.0), mixed(1.0)

    def pure(unit):
        # A+ = a1+ * a2-, A- = a1- * a2+.
        f1, f2 = a1(unit), a2(-unit)
        return lambda q1, q2, p1, p2: f1(q1, q2, p1, p2) * f2(q1, q2, p1, p2)

    def radial(q1, q2, p1, p2):
        return eps_fn(q1, q2, p1, p2) / (q1 * q1)

    def lam_b(q1, q2, p1, p2):
        return 2 * a2b2 - (d * d) / sector(q1, q2, p1, p2)

    def ladder_gap(q1, q2, p1, p2):
        s = sector(q1, q2, p1, p2)
        return 1.0 - (d * d) / (s * s)

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
    gap = Observable(ladder_gap, "1-d^2/Htheta^2")
    return (
        FactorPair("B", "ladder", *_conjugate(ladder, 1j, "B"),
                   Observable(lam_b, "lam_B"), i2,
                   Coefficient(-4j * g * g, (rate,)),
                   sector=i2, sector_rate=Coefficient(-4j, (eps,)),
                   mutual=Coefficient(-4j, (eps, gap))),
        FactorPair("a1", "shift1", *_conjugate(a1, -1j, "a1"),
                   Observable(lam_a1, "lam_a1"), h,
                   Coefficient(-2j, (Observable(rate_a1, "w+gE/r^2"),))),
        FactorPair("a2", "shift2", *_conjugate(a2, -1j, "a2"),
                   Observable(lam_a2, "lam_a2"), h,
                   Coefficient(-2j, (Observable(rate_a2, "w-gE/r^2"),))),
        # The pure pair has no additive constant: its product is
        # H^2 - 4 omega^2 gamma^2 Htheta.
        FactorPair("A", "pure_shift", *_conjugate(pure, -1j, "A"), None,
                   Observable(pure_target, "H^2-4w^2g^2Htheta"),
                   Coefficient(-4j * g, (rate,)),
                   mutual=Coefficient(-8j * g, (rate, h))),
    )


_FAMILY_PAIRS = {
    Family.EUCLIDEAN: _euclidean_pairs,
    Family.SPHERE: _sphere_pairs,
    Family.TTW: _ttw_pairs,
}


@functools.lru_cache(maxsize=64)
def factor_pairs(spec: SystemSpec) -> MappingProxyType:
    """Every conjugate pair of the family as a :class:`FactorPair`, keyed by
    name in the order the suite certifies them: ``B`` and ``A`` on the plane
    and the sphere; ``B``, ``a1``, ``a2`` and ``A`` for TTW.  The mapping is
    read-only and shared per spec.  For ``gamma = m/n`` the rates of the
    factors of ``X+`` cancel: ``n * rate(B) + m * rate(A) = 0``, with the
    sign of ``rate(A)`` flipped for TTW, whose ``X+`` takes ``A-``.  The
    ladder pair rotates under the sector it factorizes, and so does the
    plane's shift pair; the curved shift pairs have no sector integral of
    their own."""
    pairs = _FAMILY_PAIRS[spec.family](spec)
    return MappingProxyType({pair.name: pair for pair in pairs})


def ladder_observables(spec: SystemSpec):
    """``(B+, B-)`` as observables over the first separated sector."""
    pair = factor_pairs(spec)["B"]
    return pair.plus, pair.minus


def shift_observables(spec: SystemSpec):
    """``(A+, A-)`` for the flat and spherical families."""
    if spec.family is Family.TTW:
        raise UnsupportedError("use ttw_shift_observables for the ttw family")
    pair = factor_pairs(spec)["A"]
    return pair.plus, pair.minus


def ttw_shift_observables(spec: SystemSpec) -> MappingProxyType:
    """All TTW shift observables keyed ``a1+ a1- a2+ a2- A+ A-``, as a
    read-only mapping.

    ``a1``/``a2`` are the mixed radial pairs; the pure pair combines them as
    ``A+ = a1+ * a2-``, ``A- = a1- * a2+``.
    """
    if spec.family is not Family.TTW:
        raise UnsupportedError("mixed shifts are ttw-only")
    pairs = [factor_pairs(spec)[name] for name in ("a1", "a2", "A")]
    return MappingProxyType({f.label: f for pair in pairs for f in (pair.plus, pair.minus)})


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


# ---------- the factor chart ----------
#
# At a real point ``minus`` is the conjugate of ``plus``, so a pair's
# factorization reads ``plus * minus = target - lam = |plus|^2 >= 0``.  The
# ladder pair gives ``|B+|^2``, which vanishes at the sector floor; the shift
# pair ``|A'|^2 = H - F(I2)``, or ``H^2 - F^2`` with ``H > 0`` for the pure
# shift ``A-`` of TTW, which vanishes at the energy floor ``F(I2)``.


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


def _ladder_square(spec: SystemSpec, i2: float) -> float:
    """``|B+|^2`` on sector level ``i2``: ``I2`` on the plane, ``I2 -
    omega^2/(2 gamma^2)`` on the sphere, and for TTW ``(I2 - (|alpha| +
    |beta|)^2)(I2 - (|alpha| - |beta|)^2) / I2``, 0 at a level that is not
    positive."""
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


def inverse_chart(spec: SystemSpec, h: float, i2: float, phi_b: float, phi_a: float):
    """The internal state ``(q1, q2, p1, p2)``, as floats, on the levels
    ``H = h`` and ``I2 = i2`` whose ``B+`` is ``|B+| e^{i phi_b}`` and whose
    ``A'`` is ``|A'| e^{i phi_a}`` (a negative squared modulus taken as 0).
    Each factor is solved for its sector's coordinates from its record
    (``d = beta^2 - alpha^2`` for TTW):

    - plane: ``q1 = sqrt2 gamma Re B+ / omega``, ``p1 = -sqrt2 Im B+``,
      ``q2 = -sqrt2 Re A+ / omega``, ``p2 = -sqrt2 Im A+``;
    - sphere: ``q1 = arcsin(Re B+ / sqrt I2)``, ``p1 = -sqrt2 Im B+ / cos
      q1``, ``q2 = arctan(-Re A+ / (gamma sqrt I2))``, ``p2 = -sqrt2 Im A+``;
    - TTW: ``cos 2 theta = (Re B+ - d / sqrt I2) / sqrt I2``, ``p_theta =
      Im B+ / sin 2 theta``; ``A- = p_r^2 + omega^2 r^2 - gamma^2 I2 / r^2 +
      2i gamma sqrt(I2) p_r / r``, so ``p_r = Im A- r / (2 gamma sqrt I2)``
      and ``r^2`` is the positive root of ``c u^2 - Re A- u - gamma^2 I2 =
      0`` with ``c = (Im A-)^2 / (4 gamma^2 I2) + omega^2``.

    Raises ``ValueError`` or ``ZeroDivisionError`` where no state carries
    the factors: a sector level that is not positive on the sphere or TTW,
    or a TTW angle on a wall.
    """
    g, w = spec.gamma.value, spec.omega
    b = math.sqrt(max(_ladder_square(spec, i2), 0.0))
    a = math.sqrt(max(_shift_square(spec, h, i2), 0.0))
    b_re, b_im = b * math.cos(phi_b), b * math.sin(phi_b)
    a_re, a_im = a * math.cos(phi_a), a * math.sin(phi_a)
    if spec.family is Family.EUCLIDEAN:
        return _SQ2 * g * b_re / w, -_SQ2 * a_re / w, -_SQ2 * b_im, -_SQ2 * a_im
    root = math.sqrt(i2)
    if spec.family is Family.SPHERE:
        q1 = math.asin(b_re / root)
        return q1, math.atan(-a_re / (g * root)), -_SQ2 * b_im / math.cos(q1), -_SQ2 * a_im
    d = spec.beta * spec.beta - spec.alpha * spec.alpha
    # The cosine reaches +-1 only at theta on a wall (alpha or beta 0).
    two_theta = math.acos((b_re - d / root) / root)
    c = a_im * a_im / (4 * g * g * i2) + w * w
    disc = math.hypot(a_re, 2 * g * root * math.sqrt(c))
    # Each branch is the positive root, written without cancellation.
    u = (a_re + disc) / (2 * c) if a_re >= 0 else 2 * g * g * i2 / (disc - a_re)
    r = math.sqrt(u)
    return r, two_theta / 2, a_im * r / (2 * g * root), b_im / math.sin(two_theta)
