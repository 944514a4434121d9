"""Independent oracles shared by the test battery.

The library computes every derivative with compiled reverse-sweep code;
these helpers give second, slower opinions (forward-mode dual numbers,
nested for brackets of brackets, and central finite differences),
random polynomial observables whose bracket algebra is known exactly, and
a point-by-point identity runner.  Nothing here imports from the modules
under test beyond the public containers, the error types and the dual
number type, with one exception: the reference flow integrator drives the
library's own vector field through scipy's ``solve_ivp``, so it checks the
stepper, not the field.
"""

import numpy as np
from scipy.integrate import solve_ivp

from superfact import (
    DomainBox,
    DualComplex,
    Family,
    IdentityResult,
    Observable,
    PhaseBatch,
    PhasePoint,
    RationalGamma,
    StepFailure,
    SuperfactError,
    SystemSpec,
    dynamics,
)
from superfact.systems import WALLS

FD_STEP = 1e-6

# Default TTW angular barrier strengths used throughout the tests.
TTW_ALPHA = 1.1
TTW_BETA = 0.7


def spec_for(family, gamma="1", omega=1.0, alpha=TTW_ALPHA, beta=TTW_BETA):
    """Build a SystemSpec from short string arguments."""
    g = RationalGamma.parse(str(gamma))
    if Family(family) is Family.TTW:
        return SystemSpec(Family.TTW, omega, g, alpha=alpha, beta=beta)
    return SystemSpec(Family(family), omega, g)


def narrow_box(family):
    """Sampling boxes keeping very high-order products (gamma = 141/100,
    polynomial order 241) inside double-precision range."""
    fam = Family(family)
    if fam is Family.EUCLIDEAN:
        return DomainBox(((-1.0, 1.0),) * 4)
    if fam is Family.SPHERE:
        return DomainBox(((-0.8, 0.8), (-0.8, 0.8), (-1.0, 1.0), (-1.0, 1.0)))
    return DomainBox(((1.0, 1.3), (0.55, 1.0), (-0.8, 0.8), (-0.8, 0.8)))


def _partials_scalar(fn, coords):
    """All four partial derivatives of ``fn`` at ``coords``.

    ``coords`` entries may themselves be dual numbers (outer seeding), in
    which case the returned partials track the outer seed: that nesting is
    what makes brackets of brackets differentiable.  Every coordinate is
    then lifted to the freshly introduced dual level (unseeded ones with a
    zero dual part) so an outer epsilon can never be mistaken for the inner
    one; flat representations without this lift confuse the two
    perturbations.  When no coordinate carries a dual part there is nothing
    to confuse, so only the seeded coordinate is lifted; unseeded scalars
    stay plain, which keeps their arithmetic out of the dual dispatch.
    """
    nested = any(isinstance(c, DualComplex) for c in coords)
    grads = []
    for k in range(4):
        if nested:
            args = [
                DualComplex(c, 1.0 if j == k else 0.0) for j, c in enumerate(coords)
            ]
        else:
            args = list(coords)
            args[k] = DualComplex(args[k], 1.0)
        out = fn(*args)
        grads.append(out.eps if isinstance(out, DualComplex) else 0.0)
    return grads


def bracket_value(ffn, gfn, coords):
    """Canonical bracket of two raw observable callables at ``coords``."""
    fq1, fq2, fp1, fp2 = _partials_scalar(ffn, coords)
    gq1, gq2, gp1, gp2 = _partials_scalar(gfn, coords)
    return fq1 * gp1 - fp1 * gq1 + fq2 * gp2 - fp2 * gq2


def fd_partial(fn, coords, k, h=FD_STEP):
    """Central-difference partial derivative of ``fn`` in coordinate ``k``."""
    plus = list(coords)
    minus = list(coords)
    plus[k] = plus[k] + h
    minus[k] = minus[k] - h
    return (fn(*plus) - fn(*minus)) / (2 * h)


def fd_gradient(fn, coords, h=FD_STEP):
    return np.array([fd_partial(fn, coords, k, h) for k in range(4)])


def fd_bracket(ffn, gfn, coords, h=FD_STEP):
    """Canonical bracket from finite-difference gradients."""
    df = fd_gradient(ffn, coords, h)
    dg = fd_gradient(gfn, coords, h)
    return df[0] * dg[2] - df[2] * dg[0] + df[1] * dg[3] - df[3] * dg[1]


def random_polynomial(rng, degree=3, terms=5, label="poly"):
    """A random sparse polynomial in the four phase coordinates.

    Polynomials are smooth everywhere, so they are safe oracles for the
    bracket laws (antisymmetry, Leibniz, Jacobi) at any real point.
    """
    exponents = rng.integers(0, degree + 1, size=(terms, 4))
    coeffs = rng.uniform(-2.0, 2.0, size=terms)

    def fn(q1, q2, p1, p2):
        total = 0.0
        for c, row in zip(coeffs, exponents):
            term = c
            for v, e in zip((q1, q2, p1, p2), row):
                for _ in range(int(e)):
                    term = term * v
            total = total + term
        return total

    return Observable(fn, label)


def random_point(rng, lo=-1.5, hi=1.5):
    return PhasePoint(*rng.uniform(lo, hi, size=4))


def batch_of(*points):
    """The phase points as one batch, in order."""
    return PhaseBatch.from_arrays(*np.array([p.as_array() for p in points]).reshape(-1, 4).T)


def _residuals(lhs, rhs, scale) -> np.ndarray:
    lhs = np.asarray(lhs, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    mag = np.maximum(np.abs(lhs), np.abs(rhs))
    if scale is not None:
        mag = np.maximum(mag, np.abs(np.asarray(scale)))
    return np.abs(lhs - rhs) / (1.0 + mag)


def _eval_identity(ident, batch):
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        lhs, scale = ident.lhs(batch) if ident.scaled else (ident.lhs(batch), None)
        rhs = ident.rhs(batch)
    return _residuals(lhs, rhs, scale)


def run_identity_pointwise(ident, batch) -> IdentityResult:
    """Evaluate one identity over a batch, falling back to pointwise
    evaluation (and recording the offenders) if the vectorized pass hits a
    numerical error anywhere.

    The library's former runner, kept as the reference for the one masked
    pass.  Every floating-point error raises, so a point is flagged when any
    step of its evaluation overflows.  Give it a batch on which no gradient
    has been taken: a gradient kept on the batch is not evaluated again.
    """
    n = len(batch)
    if n == 0:
        return IdentityResult(ident.label, 0, 0.0, ident.tolerance, True)
    try:
        res = _eval_identity(ident, batch)
        max_res = float(np.max(res))
        return IdentityResult(
            ident.label, n, max_res, ident.tolerance, max_res <= ident.tolerance
        )
    except (SuperfactError, FloatingPointError, ZeroDivisionError):
        pass
    errors: list[str] = []
    max_res = 0.0
    evaluated = 0
    for i in range(n):
        try:
            res = _eval_identity(ident, batch[i : i + 1])
            max_res = max(max_res, float(np.max(res)))
            evaluated += 1
        except (SuperfactError, FloatingPointError, ZeroDivisionError) as exc:
            errors.append(f"point {i}: {type(exc).__name__}: {exc}")
    passed = evaluated == n and not errors and max_res <= ident.tolerance
    return IdentityResult(
        ident.label, n, max_res, ident.tolerance, passed, tuple(errors)
    )


# ---------- reference flow integrator ----------


def _rhs_function(spec):
    """The library's vector field as scipy's ``f(t, y) -> ndarray(4)``,
    looked up at call time so a patched field reaches the reference too."""
    field = dynamics._rhs_function(spec)

    def rhs(t, y):
        return np.array(field(*y.tolist()))

    return rhs


def _breach_events(spec, margin):
    """Terminal event functions, one per wall, positive strictly inside the
    safe region."""
    events = []
    for wall in WALLS[spec.family]:

        def event(t, y, wall=wall):
            return wall.clearance(y[wall.index], margin)

        event.terminal = True
        event.direction = -1.0
        events.append(event)
    return events


def integrate_adaptive_scipy(spec, y0, t_end, ts, controls, max_step, margin):
    """The library's former DOP853 driver on scipy's ``solve_ivp``: the
    reference for ``dynamics.integrate``.  Returns ``(t, states,
    breach, nfev)`` with ``breach = (time, state, wall)`` or ``None``."""
    events = _breach_events(spec, margin)
    sol = solve_ivp(
        _rhs_function(spec),
        (0.0, t_end),
        y0,
        method="DOP853",
        t_eval=ts,
        rtol=controls.rel_tol,
        atol=controls.abs_tol,
        max_step=max_step,
        events=events if events else None,
    )
    if sol.status == -1:
        raise StepFailure(f"adaptive integrator failed: {sol.message}")
    t_out = list(sol.t)
    y_out = list(sol.y.T)
    if sol.status == 1:
        fired = [k for k, tev in enumerate(sol.t_events) if len(tev)]
        k = min(fired, key=lambda k: sol.t_events[k][0])
        t_best, y_best = float(sol.t_events[k][0]), sol.y_events[k][0]
        if not t_out or t_best > t_out[-1] + 1e-15:
            t_out.append(t_best)
            y_out.append(np.asarray(y_best, dtype=float))
        return t_out, y_out, (t_best, y_best, WALLS[spec.family][k]), sol.nfev
    return t_out, y_out, None, sol.nfev
