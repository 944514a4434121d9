"""Poisson-bracket engine: exact partials, bracket laws, batching, rank."""

import math

import numpy as np
import pytest

from superfact import (
    DomainError,
    Family,
    Observable,
    PhaseBatch,
    PhasePoint,
    bracket_batch,
    eval_batch,
    gradient,
    gradient_batch,
    hamiltonian,
    run_suite,
    sample_points,
    second_integral,
)
from superfact import phase
from superfact import scalars as sc
from superfact.factorization import (
    factor_pairs,
    higher_integral_observables,
    ladder_observables,
    shift_observables,
    ttw_shift_observables,
)
from superfact.phase import (
    _batch_code,
    bracket_batch_with_scale,
    compiled_gradient,
    gradient_ranks,
)
from superfact.systems import (
    default_box,
    epsilon_observable,
    euclid_y_sector_observable,
    hamiltonian_observable,
    second_integral_observable,
)

from _oracles import (
    _partials_scalar,
    batch_of,
    bracket_value,
    fd_gradient,
    random_point,
    random_polynomial,
    spec_for,
)

Q1 = Observable(lambda q1, q2, p1, p2: q1, "q1")
Q2 = Observable(lambda q1, q2, p1, p2: q2, "q2")
P1 = Observable(lambda q1, q2, p1, p2: p1, "p1")
P2 = Observable(lambda q1, q2, p1, p2: p2, "p2")


def test_partial_derivative_frozen_example():
    f = Observable(lambda q1, q2, p1, p2: sc.sin(q2) * p2, "sin(q2)p2")
    _, grads = gradient_batch(f, batch_of(PhasePoint(0.0, math.pi / 6, 0.0, 2.0)))
    assert grads[1, 0] == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert grads[3, 0] == pytest.approx(0.5, abs=1e-15)
    assert grads[0, 0] == 0.0
    square = Observable(lambda q1, q2, p1, p2: q1 * q1, "q1^2")
    assert gradient_batch(square, batch_of(PhasePoint(3.0, 0.0, 0.0, 0.0)))[1][0, 0] == 6.0


def test_bracket_frozen_example():
    f = Observable(lambda q1, q2, p1, p2: q1 * p2, "q1p2")
    g = Observable(lambda q1, q2, p1, p2: q2 * p1, "q2p1")
    val = bracket_batch(f, g, batch_of(PhasePoint(1.0, 2.0, 3.0, 4.0)))
    assert val[0] == 5.0 + 0.0j


def test_canonical_pairs():
    batch = batch_of(PhasePoint(0.3, -0.8, 1.2, 0.4))
    assert bracket_batch(Q1, P1, batch)[0] == 1.0
    assert bracket_batch(Q2, P2, batch)[0] == 1.0
    assert bracket_batch(Q1, P2, batch)[0] == 0.0
    assert bracket_batch(Q1, Q2, batch)[0] == 0.0
    assert bracket_batch(P1, P2, batch)[0] == 0.0


def test_antisymmetry():
    # The two orientations sum the same four products in different order, so
    # agreement is to rounding in the term scale, not bit-exact.
    rng = np.random.default_rng(7)
    for _ in range(50):
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        batch = batch_of(random_point(rng))
        forward, scale = bracket_batch_with_scale(f, g, batch)
        backward = bracket_batch(g, f, batch)
        assert abs(forward[0] + backward[0]) <= 1e-13 * (1.0 + scale[0])


def test_leibniz_rule():
    rng = np.random.default_rng(11)
    for _ in range(50):
        f, g, h = (random_polynomial(rng) for _ in range(3))
        gh = Observable(lambda *z, g=g, h=h: g.fn(*z) * h.fn(*z), "g*h")
        batch = batch_of(random_point(rng))
        lhs = bracket_batch(f, gh, batch)[0]
        t1 = bracket_batch(f, g, batch)[0] * eval_batch(h, batch)[0]
        t2 = eval_batch(g, batch)[0] * bracket_batch(f, h, batch)[0]
        assert abs(lhs - (t1 + t2)) <= 1e-10 * (1.0 + abs(t1) + abs(t2))


def test_bracket_matches_finite_difference():
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        point = random_point(rng)
        coords = [complex(point.q1), complex(point.q2), complex(point.p1), complex(point.p2)]
        df = fd_gradient(f.fn, coords)
        dg = fd_gradient(g.fn, coords)
        fd = df[0] * dg[2] - df[2] * dg[0] + df[1] * dg[3] - df[3] * dg[1]
        exact = bracket_batch(f, g, batch_of(point))[0]
        assert exact == pytest.approx(fd, rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("family,gamma", [("euclidean", "3/2"), ("sphere", "3/2"), ("ttw", "3/2")])
def test_gradients_match_finite_difference(family, gamma):
    spec = spec_for(family, gamma)
    batch = sample_points(spec, None, 5, seed=23)
    xp_obs, _, _, _ = higher_integral_observables(spec)
    for obs in (hamiltonian_observable(spec), second_integral_observable(spec), xp_obs):
        for i in range(len(batch)):
            point = batch.point(i)
            coords = [
                complex(point.q1),
                complex(point.q2),
                complex(point.p1),
                complex(point.p2),
            ]
            exact = gradient(obs, point)
            approx = fd_gradient(obs.fn, coords)
            scale = 1.0 + np.max(np.abs(exact))
            assert np.max(np.abs(exact - approx)) <= 1e-5 * scale


def test_gradient_batch_matches_pointwise():
    spec = spec_for("sphere", "2")
    batch = sample_points(spec, None, 40, seed=3)
    h = hamiltonian_observable(spec)
    vals, grads = gradient_batch(h, batch)
    for i in range(len(batch)):
        point = batch.point(i)
        assert vals[i] == pytest.approx(complex(h(point)), rel=1e-13)
        assert np.allclose(grads[:, i], gradient(h, point), rtol=1e-12, atol=1e-14)
        duals = _partials_scalar(h.fn, [point.q1, point.q2, point.p1, point.p2])
        assert np.allclose(grads[:, i], duals, rtol=1e-12, atol=1e-14)


def test_eval_batch_matches_pointwise():
    spec = spec_for("ttw", "3/2")
    batch = sample_points(spec, None, 30, seed=5)
    xp_obs, _, _, _ = higher_integral_observables(spec)
    vals = eval_batch(xp_obs, batch)
    for i in range(len(batch)):
        v = xp_obs(batch.point(i))
        assert vals[i] == pytest.approx(v, rel=1e-12)


def test_eval_batch_constant_observable():
    const = Observable(lambda q1, q2, p1, p2: 2.5, "const")
    batch = PhaseBatch.from_arrays(np.zeros(3), np.ones(3), np.zeros(3), np.ones(3))
    assert np.all(eval_batch(const, batch) == 2.5)
    vals, grads = gradient_batch(const, batch)
    assert np.all(vals == 2.5)
    assert np.all(grads == 0.0)


def _suite_observables(spec):
    """Every observable the identity suite brackets or the independence
    survey differentiates, plus E."""
    obs = [
        hamiltonian_observable(spec),
        second_integral_observable(spec),
        *ladder_observables(spec),
        *higher_integral_observables(spec),
    ]
    if spec.family is Family.EUCLIDEAN:
        return obs + [euclid_y_sector_observable(spec), *shift_observables(spec)]
    if spec.family is Family.SPHERE:
        return obs + [epsilon_observable(spec), *shift_observables(spec)]
    return obs + [epsilon_observable(spec), *ttw_shift_observables(spec).values()]


_GRID = [(family, gamma) for family in ("euclidean", "sphere", "ttw")
         for gamma in ("1", "3/2", "7/5", "17/12")]


@pytest.mark.parametrize("family,gamma", [*_GRID, ("euclidean", "41/29"), ("sphere", "41/29")])
def test_gradient_batch_matches_pointwise_duals(family, gamma):
    spec = spec_for(family, gamma)
    batch = sample_points(spec, default_box(spec), 200, seed=5)
    for obs in _suite_observables(spec):
        vals, grads = gradient_batch(obs, batch)
        for i in range(len(batch)):
            coords = [c[i] for c in batch.arrays()]
            want = np.array([obs.fn(*coords), *_partials_scalar(obs.fn, coords)])
            got = np.array([vals[i], *grads[:, i]])
            gap = np.max(np.abs(got - want))
            assert gap <= 1e-12 * np.linalg.norm(want), (obs.label, i)


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_batch_dtypes_follow_numpy_promotion(family):
    """Real observables and their brackets stay float64; the ladder and
    shift factors and their products are complex128."""
    spec = spec_for(family, "3/2")
    batch = sample_points(spec, None, 20, seed=4)
    h, i2 = hamiltonian_observable(spec), second_integral_observable(spec)
    third = euclid_y_sector_observable(spec) if family == "euclidean" else epsilon_observable(spec)
    real = [h, i2, third]
    xp, xm, _, _ = higher_integral_observables(spec)
    factors = [f for pair in factor_pairs(spec).values() for f in (pair.plus, pair.minus)]
    for obs, dtype in [*((f, np.float64) for f in real),
                       *((f, np.complex128) for f in [xp, xm, *factors])]:
        assert eval_batch(obs, batch).dtype == dtype, obs.label
        vals, grads = gradient_batch(obs, batch)
        assert vals.dtype == grads.dtype == dtype, obs.label
    assert bracket_batch(h, i2, batch).dtype == np.float64


@pytest.mark.parametrize("gamma", ["1", "3/2", "17/12", "141/100"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_float_batches_match_complex_batches(family, gamma):
    """Every observable the suite differentiates agrees with
    :func:`gradient_batch` run on the same points held as complex128, the
    compositions by the chain rule on both sides.  The two differ by
    rounding: complex division ``a/(b+0j)`` rounds twice, and so does
    complex ``tan``.  A factor agrees within 1e-14 of the norm of its row
    (value and partials); a product of ``n + m`` factors carries ``n + m``
    of those differences, so ``X+-``, ``X`` and ``Y`` get ``(n + m) *
    1e-14``."""
    spec = spec_for(family, gamma)
    batch = sample_points(spec, default_box(spec), 200, seed=5)
    with np.errstate(all="ignore"):
        run_suite(spec, None, batch)
    order = spec.gamma.m + spec.gamma.n
    products = {f.label for f in higher_integral_observables(spec)}
    # PhaseBatch.from_arrays refuses complex columns; the fields take them.
    wide = PhaseBatch(*(c.astype(np.complex128) for c in batch.arrays()))
    for obs, grads in batch._gradients.items():
        got = np.vstack([batch._values[obs], grads])
        with np.errstate(all="ignore"):
            want = np.vstack(gradient_batch(obs, wide)).astype(np.complex128)
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want), err_msg=obs.label)
        rows = np.isfinite(want).all(axis=0)
        peak = np.max(np.abs(want[:, rows]), axis=0)
        norm = peak * np.linalg.norm(want[:, rows] / np.where(peak > 0, peak, 1.0), axis=0)
        gap = np.max(np.abs(got[:, rows] - want[:, rows]), axis=0)
        tol = 1e-14 * (order if obs.label in products else 1)
        assert np.all(gap <= tol * norm), (obs.label, np.max(gap / norm))


def _compositions(spec):
    """``X+-``, ``X``, ``Y`` and the TTW pure shifts, the observables
    written as compositions."""
    out = list(higher_integral_observables(spec))
    if spec.family is Family.TTW:
        pure = factor_pairs(spec)["A"]
        out += [pure.plus, pure.minus]
    return out


@pytest.mark.parametrize("family,gamma", [*_GRID, ("euclidean", "41/29"), ("sphere", "41/29")])
def test_compositions_give_the_bits_of_the_tower_and_the_monolithic_code(family, gamma):
    """A composition's batch values, from its outer code on its parts' kept
    values, are the bits of its ``fn`` on the tower, of the array code of
    that whole ``fn`` and of :func:`eval_batch` on a fresh batch.  (Its
    chain-rule partials meet the dual oracle in
    ``test_gradient_batch_matches_pointwise_duals``.)"""
    spec = spec_for(family, gamma)
    batch = sample_points(spec, default_box(spec), 200, seed=5)
    for f in _compositions(spec):
        assert f.parts and f.outer is not None, f.label
        with np.errstate(all="ignore"):
            values, _ = gradient_batch(f, batch)
            tower = f.fn(*batch.arrays())
            monolithic, _ = _batch_code(f)(*batch.arrays())
            evaluated = eval_batch(f, PhaseBatch.from_arrays(*batch.arrays()))
        for other in (tower, monolithic, evaluated):
            assert values.tobytes() == other.tobytes(), f.label


def test_gradient_batch_keeps_the_domain_contracts():
    ones = np.ones(3)
    batch = PhaseBatch.from_arrays([1.0, 0.0, 2.0], ones, ones, ones)
    inv = Observable(lambda q1, q2, p1, p2: p1 / q1, "p1/q1")
    root = Observable(lambda q1, q2, p1, p2: sc.sqrt(q1), "sqrt(q1)")
    for errstate in ("ignore", "raise"):
        with np.errstate(all=errstate):
            for obs in (inv, root):
                with pytest.raises(DomainError):
                    gradient_batch(obs, batch)
                vals, grads = gradient_batch(obs, batch[::2])
                assert np.isfinite(vals).all() and np.isfinite(grads).all()
    negative = PhaseBatch.from_arrays([4.0, -1.0], [0.0] * 2, [0.0] * 2, [0.0] * 2)
    with pytest.raises(DomainError):
        gradient_batch(root, negative)


def test_gradient_batch_complex_constants_and_unused_coordinates():
    f = Observable(lambda q1, q2, p1, p2: 2j * q1 * p2 + 3.0, "2i q1 p2 + 3")
    batch = PhaseBatch.from_arrays([0.5, -1.0], [7.0, 8.0], [9.0, 1.0], [2.0, 4.0])
    vals, grads = gradient_batch(f, batch)
    np.testing.assert_array_equal(vals, [3.0 + 2j, 3.0 - 8j])
    np.testing.assert_array_equal(grads, [[4j, 8j], [0, 0], [0, 0], [1j, -2j]])
    const = Observable(lambda q1, q2, p1, p2: 1.5 - 2j, "const")
    vals, grads = gradient_batch(const, batch)
    assert np.all(vals == 1.5 - 2j) and np.all(grads == 0.0)


def test_gradient_batch_is_kept_on_the_batch_and_its_slices():
    spec = spec_for("sphere", "3/2")
    batch = sample_points(spec, None, 50, seed=2)
    h = hamiltonian_observable(spec)
    vals, grads = gradient_batch(h, batch)
    assert gradient_batch(h, batch)[1] is grads
    with pytest.raises(ValueError):
        grads[0, 0] = 0.0
    head_vals, head_grads = gradient_batch(h, batch[:20])
    np.testing.assert_array_equal(head_grads, grads[:, :20])
    assert np.shares_memory(head_grads, grads)
    mask = np.arange(50) % 3 == 0
    np.testing.assert_array_equal(gradient_batch(h, batch[mask])[0], vals[mask])
    fresh = PhaseBatch.from_arrays(*batch.arrays())
    np.testing.assert_array_equal(gradient_batch(h, fresh)[1], grads)


def test_eval_batch_reads_the_kept_value():
    calls = []

    def fn(q1, q2, p1, p2):
        calls.append(1)
        return q1 * p2 - q2 * sc.sin(p1)

    f = Observable(fn, "counted")
    batch = sample_points(spec_for("euclidean", "1"), None, 20, seed=3)
    vals, _ = gradient_batch(f, batch)
    traced = len(calls)
    np.testing.assert_array_equal(eval_batch(f, batch), vals)
    np.testing.assert_array_equal(eval_batch(f, batch[:5]), vals[:5])
    assert len(calls) == traced
    eval_batch(f, PhaseBatch.from_arrays(*batch.arrays()))
    assert len(calls) == traced + 1


@pytest.mark.parametrize("family,gamma", [("euclidean", "3/2"), ("sphere", "17/12"),
                                          ("ttw", "17/12")])
def test_kept_values_equal_evaluated_values_bit_for_bit(family, gamma):
    """Reading a kept value instead of evaluating changes no report digit."""
    spec = spec_for(family, gamma)
    batch = sample_points(spec, None, 300, seed=6)
    observables = [hamiltonian_observable(spec), second_integral_observable(spec),
                   *higher_integral_observables(spec)]
    if family != "euclidean":
        observables.append(epsilon_observable(spec))
    for pair in factor_pairs(spec).values():
        observables += [pair.plus, pair.minus, pair.target]
        observables += [pair.lam] if pair.lam is not None else []
    for f in observables:
        fresh = PhaseBatch.from_arrays(*batch.arrays())
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(
                gradient_batch(f, batch)[0], eval_batch(f, fresh), err_msg=f.label
            )


def test_bracket_batch_matches_pointwise():
    spec = spec_for("euclidean", "2")
    batch = sample_points(spec, None, 25, seed=9)
    h = hamiltonian_observable(spec)
    bp, _ = ladder_observables(spec)
    vals, scale = bracket_batch_with_scale(h, bp, batch)
    assert np.all(scale >= 0.0)
    assert np.allclose(bracket_batch(h, bp, batch), vals)
    for i in range(len(batch)):
        coords = [c[i] for c in batch.arrays()]
        assert vals[i] == pytest.approx(
            bracket_value(h.fn, bp.fn, coords), rel=1e-12, abs=1e-13
        )


def _rank(observables, point):
    """Rank of the real Jacobian of ``observables`` at one point, from their
    :func:`gradient_batch` rows."""
    batch = batch_of(point)
    rows = np.array([gradient_batch(f, batch)[1][:, 0].real for f in observables])
    return int(gradient_ranks(rows[None])[0])


def test_jacobian_rank_dependent_rows():
    two_q1 = Observable(lambda q1, q2, p1, p2: 2.0 * q1, "2q1")
    point = PhasePoint(0.4, 0.1, -0.2, 0.9)
    assert _rank([Q1, two_q1], point) == 1
    assert _rank([Q1, P1], point) == 2
    assert _rank([Q1, Q2, P1, P2], point) == 4


def test_jacobian_rank_frozen_example():
    spec = spec_for("euclidean", "2")
    point = PhasePoint(0.3, -0.7, 1.1, 0.4)
    h = hamiltonian_observable(spec)
    i2 = second_integral_observable(spec)
    _, _, x_real, _ = higher_integral_observables(spec)
    assert _rank([h, i2, x_real], point) == 3
    hy = euclid_y_sector_observable(spec)
    assert _rank([h, i2, hy], point) == 2


def test_jacobian_rank_zero_gradient():
    const = Observable(lambda q1, q2, p1, p2: 1.0, "one")
    assert _rank([const], PhasePoint(0.0, 0.0, 0.0, 0.0)) == 0


def test_phasepoint_validation_and_arrays():
    with pytest.raises(ValueError):
        PhasePoint(float("nan"), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        PhasePoint(float("inf"), 0.0, 0.0, 0.0)
    p = PhasePoint(1.0, 2.0, 3.0, 4.0)
    assert np.all(p.as_array() == [1.0, 2.0, 3.0, 4.0])


def test_phasebatch_roundtrip_and_validation():
    pts = [PhasePoint(0.1, 0.2, 0.3, 0.4), PhasePoint(-1.0, 2.0, -3.0, 4.0)]
    batch = PhaseBatch.from_arrays(*np.array([p.as_array() for p in pts]).T)
    assert len(batch) == 2
    assert batch.point(1) == pts[1]
    with pytest.raises(ValueError):
        PhaseBatch.from_arrays(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2))
    empty = PhaseBatch.from_arrays([], [], [], [])
    assert len(empty) == 0
    assert {c.dtype for c in batch.arrays()} == {np.dtype(np.float64)}
    ints = PhaseBatch.from_arrays([1], [2], [3], [4])
    assert ints.p2.dtype == np.float64 and ints.point(0) == PhasePoint(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(TypeError, match="column p1 is complex"):
        PhaseBatch.from_arrays([0.5], [0.5], np.array([1.0 + 0j]), [0.5])


def test_observable_singularity_raises():
    inv = Observable(lambda q1, q2, p1, p2: 1.0 / q1, "1/q1")
    with pytest.raises(DomainError):
        inv(PhasePoint(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        bracket_batch(inv, P1, batch_of(PhasePoint(0.0, 0.0, 0.0, 0.0)))


# ---------- compiled gradients ----------


@pytest.mark.parametrize("gamma", ["1", "2", "1/2", "3/2", "2/3", "7/5"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_compiled_gradient_matches_dual_gradient(family, gamma):
    spec = spec_for(family, gamma)
    observables = [hamiltonian_observable(spec), second_integral_observable(spec)]
    if family != "euclidean":
        observables.append(epsilon_observable(spec))
    batch = sample_points(spec, default_box(spec), 200, seed=11)
    for obs in observables:
        grad = compiled_gradient(obs)
        for i in range(len(batch)):
            point = batch.point(i)
            z = [point.q1, point.q2, point.p1, point.p2]
            want = np.array(_partials_scalar(obs.fn, z)).real
            _, partials = grad(*z)
            got = np.array(partials)
            scale = np.max(np.abs(want))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def test_compiled_gradient_rejects_branching_on_a_coordinate():
    def kinked(q1, q2, p1, p2):
        if q1 > 0:
            return q1 * p1
        return -q1 * p1

    with pytest.raises(TypeError, match="cannot compile kinked.*control flow"):
        compiled_gradient(Observable(kinked, "kinked"))
    truthy = Observable(lambda q1, q2, p1, p2: q2 if q1 else p2, "truthy")
    with pytest.raises(TypeError, match="cannot compile truthy"):
        compiled_gradient(truthy)


def test_compiled_gradient_edge_shapes():
    const = compiled_gradient(Observable(lambda q1, q2, p1, p2: 2.5, "const"))
    assert const(1.0, 2.0, 3.0, 4.0) == (2.5, (0.0, 0.0, 0.0, 0.0))
    ident = compiled_gradient(P2)
    assert ident(1.0, 2.0, 3.0, 4.0) == (4.0, (0.0, 0.0, 0.0, 1.0))
    assert compiled_gradient(P2) is ident  # compiled once per observable

    def f(q1, q2, p1, p2):
        unused = sc.sin(q2) * p1  # never reaches the value: no code for it
        # q1 * 0 + 1 reaches the value with a zero weight.
        return sc.ipow(q1, 0) + sc.tan(p1) * p2

    grad = compiled_gradient(Observable(f, "f"))
    value, d = grad(0.3, 0.7, 0.2, 1.5)
    assert value == pytest.approx(1.0 + math.tan(0.2) * 1.5, rel=1e-15)
    assert d[:2] == (0.0, 0.0)
    assert d[2] == pytest.approx(1.5 * (1 + math.tan(0.2) ** 2), rel=1e-15)
    assert d[3] == pytest.approx(math.tan(0.2), rel=1e-15)
    assert "sin" not in grad.source and "dx1" not in grad.source


def test_compiled_gradient_keeps_the_domain_contracts():
    root = compiled_gradient(Observable(lambda q1, q2, p1, p2: sc.sqrt(q1), "root"))
    assert root(4.0, 0.0, 0.0, 0.0) == (2.0, (0.25, 0.0, 0.0, 0.0))
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            root(bad, 0.0, 0.0, 0.0)
    inv = compiled_gradient(Observable(lambda q1, q2, p1, p2: 1.0 / q1, "1/q1"))
    with pytest.raises(ZeroDivisionError):
        inv(0.0, 0.0, 0.0, 0.0)


def _same_bits(got, want):
    """Equal as complex numbers, and the real parts equal bit for bit."""
    got, want = np.array(got, dtype=complex), np.array(want, dtype=complex)
    return np.array_equal(got, want, equal_nan=True) and got.real.tobytes() == want.real.tobytes()


def _tangents_taken(arguments):
    """A float target that takes numpy's tangent, as the array code and the
    tower do on Python floats, and records each argument in ``arguments``."""

    def tan(x):
        arguments.append(x)
        return np.tan(x)

    return phase._Target({**phase._FLOATS.functions, "tan": tan}, phase._FLOATS.divide)


@pytest.mark.parametrize("gamma", ["7/5", "17/12"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_float_code_gives_the_bits_of_the_array_code_and_the_tower(family, gamma):
    """At a single state of Python floats, float code generated with
    numpy's tangent gives the bits of the array code run on the same
    floats, value and partials, and the value of the scalar tower (numpy's
    functions on scalars), for ``H``, ``I2``, ``X`` and ``Y``; ``X`` and
    ``Y`` take complex constants.  The library's float code takes
    :mod:`math`'s tangent; it gives the same bits but at a state where
    some tangent it takes differs from numpy's in the last bit.  Only the
    sphere's shift factor takes a tangent, and at seeds 3 and 5 some of
    its 2000 states are such states."""
    spec = spec_for(family, gamma)
    _, _, x_real, y_real = higher_integral_observables(spec)
    arguments = []
    target = _tangents_taken(arguments)
    for seed in (3, 5):
        batch = sample_points(spec, default_box(spec), 2000 if family == "sphere" else 200, seed)
        apart = 0
        for obs in (hamiltonian_observable(spec), second_integral_observable(spec),
                    x_real, y_real):
            code, array_code = compiled_gradient(obs), _batch_code(obs)
            numpy_code = phase._generate(obs.fn, 4, obs.label, target)
            for i in range(len(batch)):
                z = batch.point(i).as_array().tolist()
                arguments.clear()
                value, partials = numpy_code(*z)
                array_value, array_partials = array_code(*z)
                assert _same_bits([value, *partials], [array_value, *array_partials]), (obs.label, i)
                assert _same_bits(value, obs.fn(*z)), (obs.label, i)
                own_value, own_partials = code(*z)
                if not _same_bits([own_value, *own_partials], [value, *partials]):
                    assert any(math.tan(a) != np.tan(a) for a in arguments), (obs.label, i)
                    apart += 1
        assert (apart > 0) == (family == "sphere"), seed


@pytest.mark.parametrize("gamma", ["3/2", "7/5"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_single_state_wrappers_give_the_bits_of_the_float_code(family, gamma):
    """``Observable.__call__``, :func:`gradient`, ``hamiltonian`` and
    ``second_integral`` are :func:`compiled_gradient` at one state."""
    spec = spec_for(family, gamma)
    batch = sample_points(spec, default_box(spec), 50, seed=3)
    h, i2 = hamiltonian_observable(spec), second_integral_observable(spec)
    _, _, x_real, y_real = higher_integral_observables(spec)
    for i in range(len(batch)):
        point = batch.point(i)
        z = point.as_array().tolist()
        for obs in (h, i2, x_real, y_real):
            value, partials = compiled_gradient(obs)(*z)
            assert _same_bits(obs(point), value), (obs.label, i)
            assert _same_bits(gradient(obs, point), partials), (obs.label, i)
        assert hamiltonian(spec, point) == compiled_gradient(h)(*z)[0]
        assert second_integral(spec, point) == compiled_gradient(i2)(*z)[0]


@pytest.mark.parametrize(
    "fn,point",
    [
        (lambda q1, q2, p1, p2: p1 / q1, (0.0, 0.5, 1.0, 1.0)),
        (lambda q1, q2, p1, p2: sc.sqrt(q1 - p1), (1.0, 0.5, 1.0, 1.0)),
        (lambda q1, q2, p1, p2: sc.sqrt(q1 - p1), (1.0, 0.5, 2.0, 1.0)),
    ],
    ids=["zero divisor", "zero root", "negative root"],
)
def test_single_state_wrappers_raise_domain_error(fn, point):
    obs = Observable(fn, "singular")
    for evaluate in (obs, lambda p: gradient(obs, p)):
        with pytest.raises(DomainError):
            evaluate(PhasePoint(*point))
