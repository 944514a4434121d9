"""Randomized certification of the factorization and bracket identities.

A suite is a list of :class:`IdentitySpec` objects, each comparing two batch
evaluations over randomly sampled phase points.  Residuals are normalized as

    |lhs - rhs| / (1 + max(|lhs|, |rhs|))

so identities between large quantities are judged relatively and identities
near zero absolutely.  Identities whose two sides cancel exactly (conserved
brackets) additionally supply a *scale* callable returning the magnitude of
the terms that cancelled; it joins the max in the denominator, otherwise no
amount of floating-point care could certify a zero bracket of two huge
quantities.

Tolerances are graded by the arithmetic depth of the identity: plain
polynomial algebra, one square root or tangent, a square root chained
through a composite bracket, and high-order products of many factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SamplerExhausted, SuperfactError, UnsupportedError
from .phase import (
    RANK_TOL,
    Observable,
    PhaseBatch,
    bracket_batch,
    bracket_batch_with_scale,
    eval_batch,
    gradient_batch,
    gradient_ranks,
)
from .factorization import FactorPair, factor_pairs, higher_integral_observables
from .systems import (
    DomainBox,
    Family,
    SystemSpec,
    default_box,
    domain_mask,
    euclid_y_sector_observable,
    hamiltonian_observable,
    higgs_potential_identity,
    second_integral_observable,
    epsilon_observable,
)

# Residual tolerances by arithmetic depth.
TOL_POLY = 1e-12        # polynomial/trig algebra only
TOL_ROOT = 1e-10        # one square root or tangent in the chain
TOL_CHAIN = 1e-9        # square roots chained through composite brackets
TOL_HIGH_ORDER = 1e-8   # products of five or more factors

_MAX_DRAW_FACTOR = 100  # sampler gives up after this many draws per request


def symmetry_tolerance(spec: SystemSpec) -> float:
    """Residual tolerance for the conserved higher-order products."""
    return TOL_HIGH_ORDER if spec.gamma.m + spec.gamma.n >= 5 else TOL_CHAIN


# ---------- identity containers ----------


@dataclass(frozen=True)
class IdentitySpec:
    """One numerical identity: ``lhs(batch) == rhs(batch)`` within
    ``tolerance`` under the normalized residual; ``scale`` (optional)
    supplies the magnitude of cancelled terms for exact-zero identities."""

    label: str
    lhs: Callable[[PhaseBatch], np.ndarray]
    rhs: Callable[[PhaseBatch], np.ndarray]
    tolerance: float
    scale: Callable[[PhaseBatch], np.ndarray] | None = None


@dataclass(frozen=True)
class IdentityResult:
    label: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    errors: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "errors": list(self.errors),
        }


@dataclass(frozen=True)
class BracketReport:
    """Outcome of running a suite over one sampled batch."""

    spec: SystemSpec
    seed: int | None
    box: DomainBox | None
    samples: int
    identities: tuple[IdentityResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.identities)

    def result(self, label: str) -> IdentityResult:
        for r in self.identities:
            if r.label == label:
                return r
        raise KeyError(label)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "seed": self.seed,
            "box": self.box.to_json_dict() if self.box is not None else None,
            "samples": self.samples,
            "identities": [r.to_json_dict() for r in self.identities],
            "summary": {"pass": self.passed},
        }


# JSON shape of a full verification report (suite plus independence survey).
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["spec", "seed", "samples", "identities", "summary"],
    "properties": {
        "spec": {
            "type": "object",
            "required": ["family", "omega", "gamma"],
            "properties": {
                "family": {"enum": ["euclidean", "sphere", "ttw"]},
                "omega": {"type": "number"},
                "gamma": {
                    "type": "object",
                    "required": ["m", "n"],
                    "properties": {
                        "m": {"type": "integer", "minimum": 1},
                        "n": {"type": "integer", "minimum": 1},
                    },
                },
                "alpha": {"type": ["number", "null"]},
                "beta": {"type": ["number", "null"]},
            },
        },
        "seed": {"type": ["integer", "null"]},
        "box": {"type": ["object", "null"]},
        "samples": {"type": "integer", "minimum": 0},
        "identities": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "samples", "max_residual", "tolerance", "pass"],
                "properties": {
                    "label": {"type": "string"},
                    "samples": {"type": "integer"},
                    "max_residual": {"type": "number"},
                    "tolerance": {"type": "number"},
                    "pass": {"type": "boolean"},
                    "errors": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "independence": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["points", "ranks", "fraction_full"],
                "properties": {
                    "points": {"type": "integer"},
                    "functions": {"type": "array", "items": {"type": "string"}},
                    "ranks": {"type": "object"},
                    "fraction_full": {"type": "number"},
                    "non_finite": {"type": "integer", "minimum": 0},
                    "tolerance": {"type": "number"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["pass"],
            "properties": {"pass": {"type": "boolean"}},
        },
    },
}


# ---------- sampling ----------


def sample_points(
    spec: SystemSpec,
    box: DomainBox | None,
    count: int,
    seed: int,
) -> PhaseBatch:
    """Draw ``count`` valid phase points uniformly from ``box``.

    Validity means inside the safe domain (at the box's margin) and, for the
    families with square roots, a sector integral above the positivity
    floor.  The stream is a counter-based generator, so a given
    ``(spec, box, count, seed)`` always yields the same batch.  Raises
    :class:`~superfact.errors.SamplerExhausted` if the acceptance rate is so
    low that ``100 * count`` draws do not suffice.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if box is None:
        box = default_box(spec)
    rng = np.random.Generator(np.random.Philox(seed))
    kept: list[np.ndarray] = []
    accepted = 0
    drawn = 0
    while accepted < count:
        if drawn >= _MAX_DRAW_FACTOR * count:
            raise SamplerExhausted(
                f"accepted {accepted}/{count} points after {drawn} draws; "
                "box is a poor fit for the domain"
            )
        cols = [rng.uniform(lo, hi, size=count) for (lo, hi) in box.intervals]
        drawn += count
        batch = PhaseBatch.from_arrays(*cols)
        mask = domain_mask(spec, batch, box.margin)
        if mask.any():
            kept.append(np.stack([c[mask] for c in cols]))
            accepted += int(mask.sum())
    pool = np.concatenate(kept, axis=1)[:, :count]
    return PhaseBatch.from_arrays(pool[0], pool[1], pool[2], pool[3])


# ---------- suite construction ----------


def _vals(obs: Observable):
    return lambda batch: eval_batch(obs, batch)


def _conj_vals(obs: Observable):
    return lambda batch: np.conj(eval_batch(obs, batch))


def _imag_vals(obs: Observable):
    return lambda batch: eval_batch(obs, batch).imag.astype(np.complex128)


def _const(value: complex):
    return lambda batch: np.full(len(batch), value, dtype=np.complex128)


def _zero(batch: PhaseBatch) -> np.ndarray:
    return np.zeros(len(batch), dtype=np.complex128)


def _bracket(f: Observable, g: Observable):
    return lambda batch: bracket_batch(f, g, batch)


def _bracket_scale(f: Observable, g: Observable):
    return lambda batch: bracket_batch_with_scale(f, g, batch)[1].astype(np.complex128)


def _scaled(factor: complex, coeff: Observable | None, obs: Observable):
    """``factor * coeff * obs`` over a batch; ``coeff`` None stands for 1."""
    if coeff is None:
        return lambda batch: factor * eval_batch(obs, batch)
    return lambda batch: factor * eval_batch(coeff, batch) * eval_batch(obs, batch)


def _conservation(label: str, h: Observable, q: Observable, tol: float) -> IdentitySpec:
    return IdentitySpec(
        label=label,
        lhs=_bracket(h, q),
        rhs=_zero,
        tolerance=tol,
        scale=_bracket_scale(h, q),
    )


def _conjugacy_and_reality(spec: SystemSpec) -> list[IdentitySpec]:
    xp, xm, x_real, y_real = higher_integral_observables(spec)
    out = [
        IdentitySpec("conj.X", _vals(xm), _conj_vals(xp), TOL_POLY),
        IdentitySpec("real.X", _imag_vals(x_real), _zero, TOL_POLY),
        IdentitySpec("real.Y", _imag_vals(y_real), _zero, TOL_POLY),
    ]
    return out


def _symmetry_identities(spec: SystemSpec) -> list[IdentitySpec]:
    h = hamiltonian_observable(spec)
    xp, xm, x_real, y_real = higher_integral_observables(spec)
    tol = symmetry_tolerance(spec)
    return [
        _conservation("sym.H_Xp", h, xp, tol),
        _conservation("sym.H_Xm", h, xm, tol),
        _conservation("sym.H_X", h, x_real, tol),
        _conservation("sym.H_Y", h, y_real, tol),
    ]


def _factored(pair: FactorPair):
    def lhs(batch):
        product = eval_batch(pair.plus, batch) * eval_batch(pair.minus, batch)
        return product if pair.lam is None else product + eval_batch(pair.lam, batch)

    return lhs


def _pair_identities(spec: SystemSpec):
    """The identities every conjugate pair of :func:`factor_pairs` states,
    as three lists in pair order: its factorization (``fact.<role>``), its
    two rotations along the flow (``bracket.H_<name>p``, ``..m``) and its
    conjugacy at real points (``conj.<name>``)."""
    h = hamiltonian_observable(spec)
    algebraic = spec.family is Family.EUCLIDEAN
    tol_fact = TOL_POLY if algebraic else TOL_ROOT
    tol_rate = TOL_POLY if algebraic else TOL_CHAIN
    facts, rates, conjs = [], [], []
    for pair in factor_pairs(spec).values():
        p, m = pair.plus, pair.minus
        facts.append(
            IdentitySpec(
                f"fact.{pair.role}", _factored(pair), _vals(pair.target), tol_fact
            )
        )
        factor, coeff = pair.rate_factor, pair.rate_obs
        rates += [
            IdentitySpec(f"bracket.H_{pair.name}p", _bracket(h, p),
                         _scaled(factor, coeff, p), tol_rate),
            IdentitySpec(f"bracket.H_{pair.name}m", _bracket(h, m),
                         _scaled(-factor, coeff, m), tol_rate),
        ]
        conjs.append(IdentitySpec(f"conj.{pair.name}", _vals(m), _conj_vals(p), tol_fact))
    return facts, rates, conjs


def _euclidean_suite(spec: SystemSpec, facts, rates, conjs) -> list[IdentitySpec]:
    w = spec.omega
    g = spec.gamma.value
    h = hamiltonian_observable(spec)
    i2 = second_integral_observable(spec)
    hy = euclid_y_sector_observable(spec)
    pairs = factor_pairs(spec)
    bp, bm = pairs["B"].plus, pairs["B"].minus
    ap, am = pairs["A"].plus, pairs["A"].minus

    def h_from_sectors(batch):
        return eval_batch(hy, batch) + (g * g) * eval_batch(i2, batch)

    return [
        *facts,
        IdentitySpec("decomp.H", _vals(h), h_from_sectors, TOL_POLY),
        IdentitySpec(
            "bracket.Hxi_Bp", _bracket(i2, bp), _scaled(-1j * w / g, None, bp), TOL_POLY
        ),
        IdentitySpec(
            "bracket.Hxi_Bm", _bracket(i2, bm), _scaled(1j * w / g, None, bm), TOL_POLY
        ),
        IdentitySpec("bracket.Bm_Bp", _bracket(bm, bp), _const(-1j * w / g), TOL_POLY),
        IdentitySpec(
            "bracket.Hy_Ap", _bracket(hy, ap), _scaled(1j * w, None, ap), TOL_POLY
        ),
        IdentitySpec(
            "bracket.Hy_Am", _bracket(hy, am), _scaled(-1j * w, None, am), TOL_POLY
        ),
        IdentitySpec("bracket.Am_Ap", _bracket(am, ap), _const(1j * w), TOL_POLY),
        *rates,
        _conservation("comm.H_I2", h, i2, TOL_POLY),
        _conservation("comm.H_Hy", h, hy, TOL_POLY),
        *conjs,
    ]


def _sphere_suite(spec: SystemSpec, facts, rates, conjs) -> list[IdentitySpec]:
    w = spec.omega
    g = spec.gamma.value
    h = hamiltonian_observable(spec)
    i2 = second_integral_observable(spec)
    eps_obs = epsilon_observable(spec)
    pairs = factor_pairs(spec)
    ladder_pair, shift_pair = pairs["B"], pairs["A"]
    bp, bm = ladder_pair.plus, ladder_pair.minus
    ap, am = shift_pair.plus, shift_pair.minus

    def higgs_side(k):
        return lambda batch: higgs_potential_identity(batch.q1, batch.q2)[k]

    def h_from_sectors(batch):
        c2 = np.cos(batch.q2) ** 2
        return (
            batch.p2 * batch.p2 / 2
            + (g * g) * eval_batch(i2, batch) / c2
            - w * w / 2
        )

    return [
        facts[0],
        IdentitySpec(
            "const.ladder_target",
            _vals(ladder_pair.target),
            _const(-w * w / (2 * g * g)),
            TOL_POLY,
        ),
        facts[1],
        IdentitySpec("decomp.H", _vals(h), h_from_sectors, TOL_POLY),
        IdentitySpec(
            "bracket.Hxi_Bp", _bracket(i2, bp), _scaled(-1j, eps_obs, bp), TOL_ROOT
        ),
        IdentitySpec(
            "bracket.Hxi_Bm", _bracket(i2, bm), _scaled(1j, eps_obs, bm), TOL_ROOT
        ),
        IdentitySpec(
            "bracket.Bm_Bp",
            _bracket(bm, bp),
            lambda batch: -1j * eval_batch(eps_obs, batch),
            TOL_ROOT,
        ),
        *rates,
        IdentitySpec(
            "bracket.Am_Ap",
            _bracket(am, ap),
            lambda batch: 1j * g * eval_batch(shift_pair.rate_obs, batch),
            TOL_CHAIN,
        ),
        _conservation("comm.H_I2", h, i2, TOL_POLY),
        *conjs,
        IdentitySpec("higgs.potential", higgs_side(0), higgs_side(1), TOL_POLY),
    ]


def _ttw_suite(spec: SystemSpec, facts, rates, conjs) -> list[IdentitySpec]:
    w = spec.omega
    g = spec.gamma.value
    d = spec.beta * spec.beta - spec.alpha * spec.alpha
    h = hamiltonian_observable(spec)
    i2 = second_integral_observable(spec)
    eps_obs = epsilon_observable(spec)
    pairs = factor_pairs(spec)
    bp, bm = pairs["B"].plus, pairs["B"].minus
    pure = pairs["A"]

    def bmbp_rhs(batch):
        i2v = eval_batch(i2, batch)
        return -4j * eval_batch(eps_obs, batch) * (1.0 - (d * d) / (i2v * i2v))

    def h_from_sectors(batch):
        q1 = batch.q1
        return (
            batch.p1 * batch.p1
            + w * w * q1 * q1
            + (g * g) * eval_batch(i2, batch) / (q1 * q1)
        )

    return [
        *facts,
        IdentitySpec("decomp.H", _vals(h), h_from_sectors, TOL_POLY),
        IdentitySpec(
            "bracket.Htheta_Bp", _bracket(i2, bp), _scaled(-4j, eps_obs, bp), TOL_ROOT
        ),
        IdentitySpec(
            "bracket.Htheta_Bm", _bracket(i2, bm), _scaled(4j, eps_obs, bm), TOL_ROOT
        ),
        IdentitySpec("bracket.Bm_Bp", _bracket(bm, bp), bmbp_rhs, TOL_ROOT),
        *rates,
        IdentitySpec(
            "bracket.Am_Ap",
            _bracket(pure.minus, pure.plus),
            lambda batch: -8j
            * g
            * eval_batch(pure.rate_obs, batch)
            * eval_batch(h, batch),
            TOL_CHAIN,
        ),
        _conservation("comm.H_I2", h, i2, TOL_POLY),
        *conjs,
    ]


_FAMILY_SUITES = {
    Family.EUCLIDEAN: _euclidean_suite,
    Family.SPHERE: _sphere_suite,
    Family.TTW: _ttw_suite,
}


def build_suite(spec: SystemSpec) -> tuple[IdentitySpec, ...]:
    """All identities certifying the factorization story of one system:
    the identities of every factor pair, placed among the family's own,
    then the symmetries and the reality of ``X`` and ``Y``."""
    suite = _FAMILY_SUITES[spec.family](spec, *_pair_identities(spec))
    suite.extend(_symmetry_identities(spec))
    suite.extend(_conjugacy_and_reality(spec))
    return tuple(suite)


# ---------- suite execution ----------


def _residuals(lhs: np.ndarray, rhs: np.ndarray, scale) -> np.ndarray:
    mag = np.maximum(np.abs(lhs), np.abs(rhs))
    if scale is not None:
        mag = np.maximum(mag, np.abs(scale))
    return np.abs(lhs - rhs) / (1.0 + mag)


def run_identity(ident: IdentitySpec, batch: PhaseBatch) -> IdentityResult:
    """Evaluate one identity over a batch in one pass.

    A point whose residual or scale is not finite (a high-order product
    overflows, say) is flagged: it fails the identity with one
    ``point <i>: ...`` error naming what was not finite, and
    ``max_residual`` is taken over the other points.  A
    :class:`~superfact.errors.SuperfactError` raised by the batch fails the
    identity with one error naming it.
    """
    n = len(batch)
    if n == 0:
        return IdentityResult(ident.label, 0, 0.0, ident.tolerance, True)
    try:
        with np.errstate(all="ignore"):
            lhs = np.asarray(ident.lhs(batch), dtype=np.complex128)
            rhs = np.asarray(ident.rhs(batch), dtype=np.complex128)
            scale = ident.scale(batch) if ident.scale is not None else None
            res = _residuals(lhs, rhs, scale)
    except SuperfactError as exc:
        error = f"{type(exc).__name__}: {exc}"
        return IdentityResult(ident.label, n, 0.0, ident.tolerance, False, (error,))
    flagged = ~np.isfinite(res)
    if scale is not None:
        flagged |= ~np.isfinite(scale)
    max_res = float(np.max(res, initial=0.0, where=~flagged))
    errors = []
    if flagged.any():
        sides = {"lhs": lhs, "rhs": rhs, "scale": scale}
        bad = {k: ~np.isfinite(v) for k, v in sides.items() if v is not None}
        for i in np.flatnonzero(flagged):
            names = [k for k, b in bad.items() if b[i]] or ["residual"]
            errors.append(f"point {i}: {', '.join(names)} not finite")
    passed = not errors and max_res <= ident.tolerance
    return IdentityResult(
        ident.label, n, max_res, ident.tolerance, passed, tuple(errors)
    )


def run_suite(
    spec: SystemSpec,
    suite: tuple[IdentitySpec, ...] | list[IdentitySpec] | None,
    points: PhaseBatch,
    *,
    seed: int | None = None,
    box: DomainBox | None = None,
) -> BracketReport:
    """Run every identity of ``suite`` (default: the full family suite) over
    the given points and collect a report; never aborts on a bad point."""
    if suite is None:
        suite = build_suite(spec)
    results = tuple(run_identity(ident, points) for ident in suite)
    return BracketReport(
        spec=spec, seed=seed, box=box, samples=len(points), identities=results
    )


def verify_system(
    spec: SystemSpec,
    count: int = 1000,
    seed: int = 0,
    box: DomainBox | None = None,
) -> BracketReport:
    """Sample points and run the full suite in one call."""
    box = box if box is not None else default_box(spec)
    points = sample_points(spec, box, count, seed)
    return run_suite(spec, None, points, seed=seed, box=box)


# ---------- functional independence ----------


def _independence_functions(spec: SystemSpec, which: str):
    h = hamiltonian_observable(spec)
    i2 = second_integral_observable(spec)
    if which == "sectors":
        if spec.family is not Family.EUCLIDEAN:
            raise UnsupportedError("the sector triple is specific to the flat family")
        return ("H", "I2", "Hy"), (h, i2, euclid_y_sector_observable(spec))
    _, _, x_real, y_real = higher_integral_observables(spec)
    if which == "with_X":
        return ("H", "I2", "X"), (h, i2, x_real)
    if which == "with_Y":
        return ("H", "I2", "Y"), (h, i2, y_real)
    raise ValueError(f"unknown independence selector {which!r}")


def independence_report(
    spec: SystemSpec,
    points: PhaseBatch,
    which: str = "with_X",
    tol: float = RANK_TOL,
) -> dict:
    """Survey the rank of the gradient matrix of a function triple.

    ``which`` selects ``(H, I2, X)``, ``(H, I2, Y)`` or, for the flat family,
    the dependent sector triple ``(H, I2, Hy)``.  Returns the distribution of
    ranks over the points and the fraction attaining full rank.  A point
    where some gradient is not finite (a high-order product overflows, say)
    has no rank: it is counted in ``non_finite`` and not as full rank.
    """
    names, fs = _independence_functions(spec, which)
    n = len(points)
    ranks_count: dict[str, int] = {}
    full = non_finite = 0
    if n:
        with np.errstate(all="ignore"):
            grads = np.stack([gradient_batch(f, points)[1].real.T for f in fs], axis=1)
        finite = np.isfinite(grads).all(axis=(1, 2))
        non_finite = n - int(finite.sum())
        ranks = gradient_ranks(grads[finite], tol)
        for r in ranks:
            key = str(int(r))
            ranks_count[key] = ranks_count.get(key, 0) + 1
        full = int(np.sum(ranks == len(fs)))
    return {
        "points": n,
        "functions": list(names),
        "ranks": dict(sorted(ranks_count.items())),
        "fraction_full": full / n if n else 0.0,
        "non_finite": non_finite,
        "tolerance": tol,
    }
