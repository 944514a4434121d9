"""Randomized certification of the factorization and bracket identities.

A suite is a list of :class:`IdentitySpec` objects, each comparing two batch
evaluations over randomly sampled phase points.  Residuals are normalized as

    |lhs - rhs| / (1 + max(|lhs|, |rhs|))

so identities between large quantities are judged relatively and identities
near zero absolutely.  Identities whose two sides cancel exactly (conserved
brackets) additionally return a *scale* with their left side, the magnitude
of the terms that cancelled; it joins the max in the denominator, otherwise no
amount of floating-point care could certify a zero bracket of two huge
quantities.

Tolerances are graded by the arithmetic depth of the identity: plain
polynomial algebra, one square root or tangent, a square root chained
through a composite bracket, and high-order products of many factors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
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
from .factorization import (
    Coefficient,
    FactorPair,
    factor_pairs,
    higher_integral_observables,
)
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
)

# Residual tolerances by arithmetic depth.
TOL_POLY = 1e-12        # polynomial/trig algebra only
TOL_ROOT = 1e-10        # one square root or tangent in the chain
TOL_CHAIN = 1e-9        # square roots chained through composite brackets
TOL_HIGH_ORDER = 1e-8   # products of five or more factors

_MAX_DRAW_FACTOR = 100  # sampler gives up after this many draws per request
MAX_SAMPLE_POINTS = 1_000_000  # a larger request is refused before any allocation
# run_suite evaluates a larger batch in chunks of this many points, so the
# gradients kept on a batch (a few KB a point at high order) stay bounded.
CHUNK_POINTS = 100_000
# verify_system surveys the gradient ranks on this many of its points, and a
# triple is independent when at least this fraction of them has full rank.
INDEPENDENCE_POINTS = 200
INDEPENDENCE_FRACTION = 0.99


def symmetry_tolerance(spec: SystemSpec) -> float:
    """Residual tolerance for the conserved higher-order products."""
    return TOL_HIGH_ORDER if spec.gamma.m + spec.gamma.n >= 5 else TOL_CHAIN


# ---------- identity containers ----------


@dataclass(frozen=True)
class IdentitySpec:
    """One numerical identity: ``lhs(batch) == rhs(batch)`` within
    ``tolerance`` under the normalized residual.  A ``scaled`` identity is
    an exact-zero one whose ``lhs`` returns ``(values, scale)``, the scale
    being the magnitude of the cancelled terms."""

    label: str
    lhs: Callable[[PhaseBatch], np.ndarray]
    rhs: Callable[[PhaseBatch], np.ndarray]
    tolerance: float
    scaled: bool = False


@dataclass(frozen=True)
class IdentityResult:
    label: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    errors: tuple[str, ...] = ()
    # Wall time of the evaluation; it varies from run to run, so it is
    # left out of the report and of comparisons.
    seconds: float = field(default=0.0, compare=False)

    def failure_cause(self) -> str:
        """Why the identity failed: its points that were not finite, an
        error of the whole batch, or a residual above the tolerance."""
        flagged = sum(map(_flags_a_point, self.errors))
        causes = [e for e in self.errors if not _flags_a_point(e)]
        if flagged:
            causes.insert(0, f"{flagged} of {self.samples} points not finite")
        if self.max_residual > self.tolerance:
            causes.append(
                f"max residual {self.max_residual:.3e} > tol {self.tolerance:.1e}"
            )
        return "; ".join(causes)

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
    """Outcome of running a suite over one sampled batch and, from
    :func:`verify_system`, of the independence survey: one
    :func:`independence_report` block per triple."""

    spec: SystemSpec
    seed: int | None
    box: DomainBox | None
    samples: int
    identities: tuple[IdentityResult, ...]
    independence: dict[str, dict] | None = None
    # Wall seconds of each stage of verify_system and of each identity; they
    # vary from run to run, so they are left out of the report and of
    # comparisons.
    timing: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        """Every identity passes and every surveyed triple has full rank on
        at least :data:`INDEPENDENCE_FRACTION` of its points."""
        blocks = (self.independence or {}).values()
        return all(r.passed for r in self.identities) and all(
            b["fraction_full"] >= INDEPENDENCE_FRACTION for b in blocks
        )

    def result(self, label: str) -> IdentityResult:
        for r in self.identities:
            if r.label == label:
                return r
        raise KeyError(label)

    def to_json_dict(self) -> dict:
        out = {
            "spec": self.spec.to_json_dict(),
            "seed": self.seed,
            "box": self.box.to_json_dict() if self.box is not None else None,
            "samples": self.samples,
            "identities": [r.to_json_dict() for r in self.identities],
            "summary": {"pass": self.passed},
        }
        if self.independence is not None:
            out["independence"] = self.independence
        return out


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
    low that ``100 * count`` draws do not suffice, and ``ValueError`` if
    ``count`` is below 1 or above :data:`MAX_SAMPLE_POINTS`.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > MAX_SAMPLE_POINTS:
        raise ValueError(f"count {count} is above the limit of {MAX_SAMPLE_POINTS} points")
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
    return lambda batch: eval_batch(obs, batch).imag


def _const(value: complex):
    return lambda batch: np.full(len(batch), value)


def _bracket(f: Observable, g: Observable):
    return lambda batch: bracket_batch(f, g, batch)


def _times(coeff: Coefficient, *obs: Observable):
    """``coeff`` times ``obs`` over a batch, every value multiplied in left
    to right; a coefficient with no observable at all is a constant."""
    factors = coeff.observables + obs
    if not factors:
        return _const(coeff.factor)

    def side(batch):
        out = coeff.factor
        for f in factors:
            out = out * eval_batch(f, batch)
        return out

    return side


def _conservation(label: str, h: Observable, q: Observable, tol: float) -> IdentitySpec:
    return IdentitySpec(
        label=label,
        lhs=lambda batch: bracket_batch_with_scale(h, q, batch),
        rhs=_const(0.0),
        tolerance=tol,
        scaled=True,
    )


def _conjugacy_and_reality(spec: SystemSpec) -> list[IdentitySpec]:
    xp, xm, x_real, y_real = higher_integral_observables(spec)
    out = [
        IdentitySpec("conj.X", _vals(xm), _conj_vals(xp), TOL_POLY),
        IdentitySpec("real.X", _imag_vals(x_real), _const(0.0), TOL_POLY),
        IdentitySpec("real.Y", _imag_vals(y_real), _const(0.0), TOL_POLY),
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


def _rotations(name: str, s: Observable, rate: Coefficient, pair: FactorPair, tol: float):
    """``{s, plus} = rate * plus`` and ``{s, minus} = -rate * minus``,
    labelled ``bracket.<name>_<pair>p`` and ``..m``."""
    p, m = pair.plus, pair.minus
    return [
        IdentitySpec(f"bracket.{name}_{pair.name}p", _bracket(s, p), _times(rate, p), tol),
        IdentitySpec(f"bracket.{name}_{pair.name}m", _bracket(s, m), _times(-rate, m), tol),
    ]


def _pair_identities(spec: SystemSpec):
    """Every identity the records of :func:`factor_pairs` state, as four
    lists in pair order:

    - the factorization (``fact.<role>``), then the constant target
      (``const.<role>_target``) where the record names one;
    - for a pair with a sector integral ``s``, its rotations under ``s``
      (``bracket.<s>_<name>p``, ``..m``) and its mutual bracket
      (``bracket.<name>m_<name>p``), at the factorization's tolerance;
    - the rotations along the flow (``bracket.H_<name>p``, ``..m``), then
      the mutual brackets of the pairs without a sector, which chain roots
      through composite brackets as the rotations do;
    - the conjugacy at real points (``conj.<name>``).
    """
    h = hamiltonian_observable(spec)
    algebraic = spec.family is Family.EUCLIDEAN
    tol_fact = TOL_POLY if algebraic else TOL_ROOT
    tol_rate = TOL_POLY if algebraic else TOL_CHAIN
    facts, sectors, rates, mutuals, conjs = [], [], [], [], []
    for pair in factor_pairs(spec).values():
        p, m = pair.plus, pair.minus
        facts.append(
            IdentitySpec(
                f"fact.{pair.role}", _factored(pair), _vals(pair.target), tol_fact
            )
        )
        if pair.target_const is not None:
            facts.append(IdentitySpec(f"const.{pair.role}_target", _vals(pair.target),
                                      _const(pair.target_const), TOL_POLY))
        if pair.sector is not None:
            sectors += _rotations(pair.sector.label, pair.sector, pair.sector_rate,
                                  pair, tol_fact)
        rates += _rotations("H", h, pair.rate, pair, tol_rate)
        if pair.mutual is not None:
            alone = pair.sector is None
            (mutuals if alone else sectors).append(
                IdentitySpec(f"bracket.{pair.name}m_{pair.name}p", _bracket(m, p),
                             _times(pair.mutual), tol_rate if alone else tol_fact)
            )
        conjs.append(IdentitySpec(f"conj.{pair.name}", _vals(m), _conj_vals(p), tol_fact))
    return facts, sectors, rates + mutuals, conjs


def _family_identities(spec: SystemSpec):
    """The family's own identities: the decomposition of H into its
    sectors, the conservation of each sector and, on the sphere, the Higgs
    potential."""
    w = spec.omega
    g = spec.gamma.value
    h = hamiltonian_observable(spec)
    i2 = second_integral_observable(spec)
    conserved = [_conservation("comm.H_I2", h, i2, TOL_POLY)]
    others = []
    if spec.family is Family.EUCLIDEAN:
        hy = euclid_y_sector_observable(spec)
        conserved.append(_conservation("comm.H_Hy", h, hy, TOL_POLY))

        def h_from_sectors(batch):
            return eval_batch(hy, batch) + (g * g) * eval_batch(i2, batch)

    elif spec.family is Family.SPHERE:

        def higgs_side(k):
            return lambda batch: higgs_potential_identity(batch.q1, batch.q2)[k]

        def h_from_sectors(batch):
            c2 = np.cos(batch.q2) ** 2
            return (batch.p2 * batch.p2 / 2 + (g * g) * eval_batch(i2, batch) / c2
                    - w * w / 2)

        others = [IdentitySpec("higgs.potential", higgs_side(0), higgs_side(1), TOL_POLY)]
    else:

        def h_from_sectors(batch):
            q1 = batch.q1
            return (batch.p1 * batch.p1 + w * w * q1 * q1
                    + (g * g) * eval_batch(i2, batch) / (q1 * q1))

    return IdentitySpec("decomp.H", _vals(h), h_from_sectors, TOL_POLY), conserved, others


def build_suite(spec: SystemSpec) -> tuple[IdentitySpec, ...]:
    """All identities certifying the factorization story of one system:
    the identities of every factor pair around the family's own, then the
    symmetries and the reality of ``X`` and ``Y``."""
    facts, sectors, rates, conjs = _pair_identities(spec)
    decomp, conserved, others = _family_identities(spec)
    return (
        *facts, decomp, *sectors, *rates, *conserved, *conjs, *others,
        *_symmetry_identities(spec), *_conjugacy_and_reality(spec),
    )


# ---------- suite execution ----------


def _residuals(lhs: np.ndarray, rhs: np.ndarray, scale) -> np.ndarray:
    mag = np.maximum(np.abs(lhs), np.abs(rhs))
    if scale is not None:
        mag = np.maximum(mag, np.abs(scale))
    return np.abs(lhs - rhs) / (1.0 + mag)


def run_identity(ident: IdentitySpec, batch: PhaseBatch, start: int = 0) -> IdentityResult:
    """Evaluate one identity over a batch in one pass.

    A point whose residual or scale is not finite (a high-order product
    overflows, say) is flagged: it fails the identity with one
    ``point <i>: ...`` error naming what was not finite, where ``i`` is
    the point's index in the batch plus ``start`` (the batch's offset in
    a chunked run), and ``max_residual`` is taken over the other points.  A
    :class:`~superfact.errors.SuperfactError` raised by the batch fails the
    identity with one error naming it.  ``seconds`` is the wall time.
    """
    n = len(batch)
    if n == 0:
        return IdentityResult(ident.label, 0, 0.0, ident.tolerance, True)
    t0 = time.perf_counter()
    try:
        with np.errstate(all="ignore"):
            lhs, scale = ident.lhs(batch) if ident.scaled else (ident.lhs(batch), None)
            rhs = ident.rhs(batch)
            res = _residuals(lhs, rhs, scale)
    except SuperfactError as exc:
        error = f"{type(exc).__name__}: {exc}"
        return IdentityResult(ident.label, n, 0.0, ident.tolerance, False, (error,),
                              time.perf_counter() - t0)
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
            errors.append(f"point {start + i}: {', '.join(names)} not finite")
    passed = not errors and max_res <= ident.tolerance
    return IdentityResult(
        ident.label, n, max_res, ident.tolerance, passed, tuple(errors),
        time.perf_counter() - t0,
    )


def _flags_a_point(error: str) -> bool:
    """Whether ``error`` is one of :func:`run_identity`'s ``point <i>: ...``
    errors, not an error of the whole batch."""
    return error.startswith("point ")


def _merge(a: IdentityResult, b: IdentityResult) -> IdentityResult:
    """One identity's results on two consecutive chunks as one result, the
    one a single pass over both would give: a batch error in either is the
    only error; otherwise the residual is the larger and the errors join."""
    samples, seconds = a.samples + b.samples, a.seconds + b.seconds
    for r in (a, b):
        if r.errors and not _flags_a_point(r.errors[0]):
            return replace(r, samples=samples, seconds=seconds)
    max_res = max(a.max_residual, b.max_residual)
    errors = a.errors + b.errors
    return replace(a, samples=samples, max_residual=max_res, errors=errors,
                   passed=not errors and max_res <= a.tolerance, seconds=seconds)


def run_suite(
    spec: SystemSpec,
    suite: tuple[IdentitySpec, ...] | list[IdentitySpec] | None,
    points: PhaseBatch,
    *,
    seed: int | None = None,
    box: DomainBox | None = None,
) -> BracketReport:
    """Run every identity of ``suite`` (default: the full family suite) over
    the given points and collect a report; never aborts on a bad point.

    A batch of more than :data:`CHUNK_POINTS` points is run in chunks of
    that size, each chunk's gradients dropped before the next, and each
    identity's results are merged into the one a single pass gives.  A
    smaller batch is run as it is and keeps its gradients.
    """
    if suite is None:
        suite = build_suite(spec)
    n = len(points)
    if n <= CHUNK_POINTS:
        results = tuple(run_identity(ident, points) for ident in suite)
    else:
        results = None
        for start in range(0, n, CHUNK_POINTS):
            chunk = points[start:start + CHUNK_POINTS]
            parts = tuple(run_identity(ident, chunk, start) for ident in suite)
            results = parts if results is None else tuple(map(_merge, results, parts))
    return BracketReport(spec=spec, seed=seed, box=box, samples=n, identities=results)


def verify_system(
    spec: SystemSpec,
    count: int = 1000,
    seed: int = 0,
    box: DomainBox | None = None,
) -> BracketReport:
    """Certify one system: sample ``count`` points of ``box`` (default: the
    family's default box), run the full suite over them and survey the
    independence of ``(H, I2, X)`` and ``(H, I2, Y)`` on the first
    :data:`INDEPENDENCE_POINTS`.  The report passes when both hold.

    Its ``timing`` holds the seconds spent sampling (``sample_s``), in the
    suite (``suite_s``) and in the survey (``independence_s``), each
    identity's seconds (``identities_s``; an identity's include the
    gradients it is the first to take on the batch) and the slowest
    identity.  Raises what :func:`sample_points` raises.
    """
    box = box if box is not None else default_box(spec)
    clock = [time.perf_counter()]
    points = sample_points(spec, box, count, seed)
    clock.append(time.perf_counter())
    report = run_suite(spec, None, points, seed=seed, box=box)
    clock.append(time.perf_counter())
    survey = points[:INDEPENDENCE_POINTS]
    independence = {which: independence_report(spec, survey, which)
                    for which in ("with_X", "with_Y")}
    clock.append(time.perf_counter())
    stages = ("sample_s", "suite_s", "independence_s")
    timing = {name: b - a for name, a, b in zip(stages, clock, clock[1:])}
    timing["identities_s"] = {r.label: r.seconds for r in report.identities}
    timing["slowest_identity"] = max(report.identities, key=lambda r: r.seconds).label
    return replace(report, independence=independence, timing=timing)


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
        ranks = gradient_ranks(grads[finite])
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
        "tolerance": RANK_TOL,
    }
