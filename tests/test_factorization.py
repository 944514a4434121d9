"""Factor functions: frozen values, product identities, conjugacy, guards, and
the inverse factor chart."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from superfact import (
    DELTA_POS,
    DomainError,
    Family,
    PhasePoint,
    RationalGamma,
    SystemSpec,
    UnsupportedError,
    build_suite,
    default_box,
    domain_mask,
    eval_batch,
    factor_pairs,
    gradient_batch,
    hamiltonian,
    hamiltonian_observable,
    higher_integral_observables,
    ladder_observables,
    sample_points,
    second_integral,
    second_integral_observable,
    shift_observables,
    ttw_shift_observables,
)
from superfact import factorization
from superfact.phase import _batch_code
from superfact.scalars import ipow

from _oracles import batch_of, bracket_value, narrow_box, spec_for

SQH = 1.0 / math.sqrt(2.0)


def _sampled(spec, count, seed):
    return sample_points(spec, narrow_box(spec.family.value), count, seed=seed)


def _factors(spec, name, batch):
    """The two factors of the pair ``name`` of ``factor_pairs(spec)`` over a
    batch, and its additive constant (0 where the record has none)."""
    pair = factor_pairs(spec)[name]
    lam = 0.0 if pair.lam is None else eval_batch(pair.lam, batch).real
    return SimpleNamespace(plus=eval_batch(pair.plus, batch),
                           minus=eval_batch(pair.minus, batch), lam=lam)


def _ttw_shifts(spec, batch):
    """The TTW mixed pairs ``a1``, ``a2`` and the pure pair over a batch."""
    return SimpleNamespace(a1=_factors(spec, "a1", batch), a2=_factors(spec, "a2", batch),
                           pure=_factors(spec, "A", batch))


def _integrals(spec, batch):
    """``X+``, ``X-`` and the real ``X`` and ``Y`` over a batch."""
    xp, xm, x, y = (eval_batch(f, batch) for f in higher_integral_observables(spec))
    return SimpleNamespace(x_plus=xp, x_minus=xm, x_real=x.real, y_real=y.real)


# ---------- frozen values ----------


def test_euclid_gamma1_frozen():
    spec = spec_for("euclidean", "1")
    pt = batch_of(PhasePoint(1.0, 0.0, 0.0, 1.0))
    lad = _factors(spec, "B", pt)
    assert lad.plus == pytest.approx(SQH)
    assert lad.minus == pytest.approx(SQH)
    assert lad.lam == 0.0
    sh = _factors(spec, "A", pt)
    assert sh.plus == pytest.approx(-1j * SQH)
    assert sh.minus == pytest.approx(1j * SQH)
    assert sh.lam == 0.0
    pair = _integrals(spec, pt)
    assert pair.x_plus == pytest.approx(-0.5j)
    assert pair.x_minus == pytest.approx(0.5j)
    assert pair.x_real == pytest.approx(0.0, abs=1e-16)
    assert pair.y_real == pytest.approx(-0.5)


def test_euclid_gamma2_frozen():
    spec = spec_for("euclidean", "2")
    pair = _integrals(spec, batch_of(PhasePoint(0.0, 0.0, 1.0, 1.0)))
    assert pair.x_plus == pytest.approx(0.35355339059327373j)
    assert pair.y_real == pytest.approx(0.35355339059327373)
    assert pair.x_real == pytest.approx(0.0, abs=1e-16)


def test_sphere_origin_frozen():
    spec = spec_for("sphere", "1")
    pt = PhasePoint(0.0, 0.0, 0.0, 0.0)
    assert second_integral(spec, pt) == pytest.approx(0.5)
    lad = _factors(spec, "B", batch_of(pt))
    assert lad.plus == pytest.approx(0.0)
    assert lad.minus == pytest.approx(0.0)
    assert lad.lam == pytest.approx(-0.5)
    sh = _factors(spec, "A", batch_of(pt))
    assert sh.plus == pytest.approx(0.0)
    assert sh.minus == pytest.approx(0.0)
    assert sh.lam == pytest.approx(0.0)


def test_ttw_equilibrium_frozen():
    spec = spec_for("ttw", "1", alpha=1.0, beta=1.0)
    pt = PhasePoint(math.sqrt(2.0), math.pi / 4, 0.0, 0.0)
    assert second_integral(spec, pt) == pytest.approx(4.0)
    assert hamiltonian(spec, pt) == pytest.approx(4.0)
    lad = _factors(spec, "B", batch_of(pt))
    assert lad.plus == pytest.approx(0.0, abs=1e-15)
    assert lad.minus == pytest.approx(0.0, abs=1e-15)
    assert lad.lam == pytest.approx(4.0)
    sh = _ttw_shifts(spec, batch_of(pt))
    assert sh.a1.plus == pytest.approx(0.0, abs=1e-15)
    assert sh.a1.minus == pytest.approx(0.0, abs=1e-15)
    assert sh.a1.lam == pytest.approx(4.0)
    assert sh.a2.plus == pytest.approx(2.0 * math.sqrt(2.0))
    assert sh.a2.lam == pytest.approx(-4.0)
    assert sh.pure.lam == 0.0


def test_ttw_mixed_factors_frozen():
    spec = spec_for("ttw", "1", alpha=0.25, beta=0.25)
    pt = PhasePoint(1.0, math.pi / 4, 1.0, math.sqrt(0.75))
    assert second_integral(spec, pt) == pytest.approx(1.0)
    assert hamiltonian(spec, pt) == pytest.approx(3.0)
    sh = _ttw_shifts(spec, batch_of(pt))
    assert sh.a1.plus == pytest.approx(-1j)
    assert sh.a1.minus == pytest.approx(1j)
    assert sh.a2.plus == pytest.approx(2.0 - 1j)
    assert sh.a2.minus == pytest.approx(2.0 + 1j)
    assert sh.pure.plus == pytest.approx(1.0 - 2j)
    assert sh.pure.minus == pytest.approx(1.0 + 2j)
    assert sh.pure.plus == pytest.approx(sh.a1.plus * sh.a2.minus)
    assert sh.pure.minus == pytest.approx(sh.a1.minus * sh.a2.plus)


# ---------- product identities at sampled points ----------


@pytest.mark.parametrize("family,gamma", [("euclidean", "3/2"), ("sphere", "2"), ("ttw", "2/3")])
def test_ladder_product_identity(family, gamma):
    spec = spec_for(family, gamma, omega=1.3)
    batch = _sampled(spec, 100, seed=5)
    lad = _factors(spec, "B", batch)
    product = lad.plus * lad.minus + lad.lam
    if spec.family is Family.SPHERE:
        expected = eval_batch(factor_pairs(spec)["B"].target, batch)
        fixed = -spec.omega ** 2 / (2 * spec.gamma.value ** 2)
        assert np.all(np.abs(expected - fixed) <= 1e-12 * (1 + abs(fixed)))
    else:
        expected = eval_batch(second_integral_observable(spec), batch)
    assert np.all(np.abs(product - expected) <= 1e-12 * (1 + np.abs(expected)))


def test_shift_product_identity_euclid():
    from superfact import euclid_y_sector_observable

    spec = spec_for("euclidean", "5/2", omega=0.9)
    hy = euclid_y_sector_observable(spec)
    batch = _sampled(spec, 100, seed=7)
    sh = _factors(spec, "A", batch)
    product = sh.plus * sh.minus + sh.lam
    y_sector = eval_batch(hy, batch)
    assert np.all(np.abs(product - y_sector) <= 1e-12 * (1 + np.abs(y_sector)))


def test_shift_product_identity_sphere():
    spec = spec_for("sphere", "3/2", omega=1.1)
    batch = _sampled(spec, 100, seed=9)
    sh = _factors(spec, "A", batch)
    product = sh.plus * sh.minus + sh.lam
    h = eval_batch(hamiltonian_observable(spec), batch)
    assert np.all(np.abs(product - h) <= 1e-12 * (1 + np.abs(h)))


def test_ttw_mixed_product_identities():
    spec = spec_for("ttw", "3/2", omega=1.2, alpha=0.8, beta=0.5)
    w2g2 = (spec.omega * spec.gamma.value) ** 2
    batch = _sampled(spec, 100, seed=11)
    h = eval_batch(hamiltonian_observable(spec), batch)
    i2 = eval_batch(second_integral_observable(spec), batch)
    for name in ("a1", "a2"):
        pair = _factors(spec, name, batch)
        product = pair.plus * pair.minus + pair.lam
        assert np.all(np.abs(product - h) <= 1e-12 * (1 + np.abs(h)))
    pure = _factors(spec, "A", batch)
    product = pure.plus * pure.minus
    expected = h * h - 4 * w2g2 * i2
    assert np.all(np.abs(product - expected) <= 1e-12 * (1 + np.abs(expected) + h * h))


@pytest.mark.parametrize("family,gamma", [("euclidean", "2"), ("sphere", "1/2"), ("ttw", "5/2")])
def test_conjugacy_at_real_points(family, gamma):
    spec = spec_for(family, gamma)
    batch = _sampled(spec, 50, seed=13)
    observables = list(ladder_observables(spec))
    if spec.family is Family.TTW:
        observables += list(ttw_shift_observables(spec).values())
    else:
        observables += list(shift_observables(spec))
    plus_minus = list(zip(observables[::2], observables[1::2]))
    xp, xm, _, _ = higher_integral_observables(spec)
    plus_minus.append((xp, xm))
    for obs_p, obs_m in plus_minus:
        vp, vm = eval_batch(obs_p, batch), eval_batch(obs_m, batch)
        scale = 1.0 + np.abs(vp)
        assert np.all(np.abs(vm - np.conj(vp)) <= 1e-15 * scale), (obs_p.label, obs_m.label)


# ---------- phase cancellation ----------


def _rate(pair, batch):
    rate = np.full(len(batch), pair.rate.factor)
    for obs in pair.rate.observables:
        rate = rate * eval_batch(obs, batch)
    return rate


@pytest.mark.parametrize("gamma", ["1", "3/2", "7/5", "17/12"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_phase_rates_cancel(family, gamma):
    """The rates the records carry cancel in X+ = (B+)^n (A')^m, where A' is
    A+ on the plane and the sphere and A- for TTW."""
    spec = spec_for(family, gamma)
    m, n = spec.gamma.m, spec.gamma.n
    pairs = factor_pairs(spec)
    batch = sample_points(spec, None, 200, seed=31)
    rate_b = _rate(pairs["B"], batch)
    rate_a = _rate(pairs["A"], batch)
    if spec.family is Family.TTW:
        rate_a = -rate_a
    total = n * rate_b + m * rate_a
    scale = n * np.abs(rate_b) + m * np.abs(rate_a)
    assert np.all(scale > 0)
    assert np.all(np.abs(total) <= 1e-12 * scale)


def _relations(pair):
    """``(label, f, g, coefficient, factor)`` for each bracket the record
    states: ``{f, g} = coefficient * factor`` (``factor`` None stands for 1)."""
    out = []
    if pair.sector is not None:
        s = pair.sector
        out += [
            (f"bracket.{s.label}_{pair.name}p", s, pair.plus, pair.sector_rate, pair.plus),
            (f"bracket.{s.label}_{pair.name}m", s, pair.minus, -pair.sector_rate, pair.minus),
        ]
    if pair.mutual is not None:
        out.append((f"bracket.{pair.name}m_{pair.name}p", pair.minus, pair.plus,
                    pair.mutual, None))
    return out


@pytest.mark.parametrize("gamma", ["1", "3/2", "2/3"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_pair_relations_hold(family, gamma):
    """Each record's rotations under its sector and its mutual bracket hold
    against the forward-mode dual bracket, within the identity's tolerance."""
    spec = spec_for(family, gamma)
    tolerance = {ident.label: ident.tolerance for ident in build_suite(spec)}
    batch = sample_points(spec, None, 100, seed=37)
    relations = [r for pair in factor_pairs(spec).values() for r in _relations(pair)]
    assert len(relations) == {"euclidean": 6, "sphere": 4, "ttw": 4}[family]
    for label, f, g, coeff, factor in relations:
        tol = tolerance[label]
        for i in range(len(batch)):
            pt = batch.point(i)
            coords = (pt.q1, pt.q2, pt.p1, pt.p2)
            lhs = bracket_value(f.fn, g.fn, coords)
            rhs = coeff.factor
            for obs in (*coeff.observables, *([factor] if factor is not None else [])):
                rhs = rhs * obs.fn(*coords)
            residual = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
            assert residual <= tol, (label, i, residual)


# ---------- unit frequency ratio reductions ----------


def test_euclid_gamma1_reduction_formulas():
    spec = spec_for("euclidean", "1", omega=1.4)
    w = spec.omega
    batch = _sampled(spec, 200, seed=17)
    pair = _integrals(spec, batch)
    x_expected = -(batch.p1 * batch.p2 + w * w * batch.q1 * batch.q2) / 2
    y_expected = -(w / 2) * (batch.q1 * batch.p2 - batch.q2 * batch.p1)
    scale = 1 + np.abs(x_expected) + np.abs(y_expected)
    assert np.all(np.abs(pair.x_real - x_expected) <= 1e-13 * scale)
    assert np.all(np.abs(pair.y_real - y_expected) <= 1e-13 * scale)


# ---------- composite consistency ----------


def test_higher_integral_matches_factor_powers_euclid():
    spec = spec_for("euclidean", "5/2")
    assert (spec.gamma.m, spec.gamma.n) == (5, 2)
    bp, _ = ladder_observables(spec)
    ap, _ = shift_observables(spec)
    xp_obs, xm_obs, x_obs, y_obs = higher_integral_observables(spec)
    batch = _sampled(spec, 30, seed=19)
    for i in range(len(batch)):
        pt = batch.point(i)
        manual = ipow(bp(pt), 2) * ipow(ap(pt), 5)
        xp = xp_obs(pt)
        assert xp == pytest.approx(manual, rel=1e-13)
        assert x_obs(pt) == pytest.approx((xp + xm_obs(pt)) / 2, rel=1e-13)
        assert y_obs(pt) == pytest.approx((xp - xm_obs(pt)) / 2j, rel=1e-13)


def test_higher_integral_pairs_ladder_with_minus_shift_ttw():
    spec = spec_for("ttw", "3/2")
    assert (spec.gamma.m, spec.gamma.n) == (3, 2)
    batch = _sampled(spec, 30, seed=23)
    lad, pure = _factors(spec, "B", batch), _factors(spec, "A", batch)
    pair = _integrals(spec, batch)
    assert pair.x_plus == pytest.approx(ipow(lad.plus, 2) * ipow(pure.minus, 3), rel=1e-13)
    assert pair.x_minus == pytest.approx(ipow(lad.minus, 2) * ipow(pure.plus, 3), rel=1e-13)


def test_higher_integral_real_parts_from_conjugates():
    spec = spec_for("sphere", "2/3")
    pair = _integrals(spec, _sampled(spec, 30, seed=29))
    assert pair.x_minus == pytest.approx(np.conj(pair.x_plus), rel=1e-13)
    assert pair.x_real == pytest.approx(pair.x_plus.real, rel=1e-12, abs=1e-13)
    assert pair.y_real == pytest.approx(pair.x_plus.imag, rel=1e-12, abs=1e-13)


# ---------- guards ----------


def test_positivity_guard_ttw():
    spec = SystemSpec(Family.TTW, 1.0, RationalGamma(1), alpha=0.0, beta=0.0)
    dead = batch_of(PhasePoint(1.0, 0.7, 0.5, 0.0))  # angular sector carries no energy
    assert not domain_mask(spec, dead, 0.0).any()
    pairs = factor_pairs(spec)
    for f in (pairs["B"].plus, pairs["a1"].plus, pairs["A"].plus,
              higher_integral_observables(spec)[0]):
        with pytest.raises(DomainError):
            eval_batch(f, dead)


def test_positivity_guard_sphere():
    # The sector integral is positive, 5e-13, but below DELTA_POS.
    spec = SystemSpec(Family.SPHERE, 1e-6, RationalGamma(1))
    pt = PhasePoint(0.0, 0.0, 0.0, 0.3)
    assert 0.0 < second_integral(spec, pt) <= DELTA_POS
    assert not domain_mask(spec, batch_of(pt), 0.0).any()


def test_unsupported_combinations():
    ttw = spec_for("ttw", "1")
    euclid = spec_for("euclidean", "1")
    sphere = spec_for("sphere", "1")
    with pytest.raises(UnsupportedError):
        shift_observables(ttw)
    with pytest.raises(UnsupportedError):
        ttw_shift_observables(euclid)
    with pytest.raises(UnsupportedError):
        ttw_shift_observables(sphere)


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_builders_return_the_records_own_observables(family):
    # A spec no other test builds, so its factors are compiled here first.
    spec = spec_for(family, "3/2", omega=1.37)
    pairs = factor_pairs(spec)
    factors = [f for pair in pairs.values() for f in (pair.plus, pair.minus)]
    built = list(ladder_observables(spec))
    if spec.family is Family.TTW:
        shifts = ttw_shift_observables(spec)
        assert list(shifts) == ["a1+", "a1-", "a2+", "a2-", "A+", "A-"]
        built += list(shifts.values())
    else:
        built += list(shift_observables(spec))
    assert len(built) == len(factors)
    assert all(b is f for b, f in zip(built, factors))

    misses = _batch_code.cache_info().misses
    for observables in (factors, built):
        batch = _sampled(spec, 5, seed=3)
        for f in observables:
            gradient_batch(f, batch)
    assert _batch_code.cache_info().misses == misses + len(factors)


@pytest.mark.parametrize("gamma", ["1", "3/2", "7/5"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_higher_integral_reads_its_observables(family, gamma):
    """``X`` and ``Y`` are read off ``X+`` and ``X-`` bit for bit, and the
    builder returns the same observables for the same spec."""
    spec = spec_for(family, gamma)
    xp, xm, x_real, y_real = higher_integral_observables(spec)
    assert all(a is b for a, b in zip(higher_integral_observables(spec), (xp, xm, x_real, y_real)))
    batch = _sampled(spec, 20, seed=29)
    vp, vm = eval_batch(xp, batch), eval_batch(xm, batch)
    np.testing.assert_array_equal(eval_batch(x_real, batch), (vp + vm) * 0.5)
    np.testing.assert_array_equal(eval_batch(y_real, batch), (vp - vm) * (-0.5j))


def test_out_of_domain_raises():
    """A point beyond a wall is outside every batch the factors are
    evaluated on, and the pointwise energy refuses it."""
    for spec, outside in ((spec_for("sphere", "1"), PhasePoint(1.7, 0.0, 0.0, 0.0)),
                          (spec_for("ttw", "1"), PhasePoint(-1.0, 0.7, 0.0, 0.5))):
        assert not domain_mask(spec, batch_of(outside), 0.0).any()
        with pytest.raises(DomainError):
            hamiltonian(spec, outside)


@pytest.mark.parametrize("gamma", ["1", "3/2", "7/5", "141/100"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_inverse_chart_round_trip(family, gamma):
    """The records' own ``B+`` and ``A'`` (``A-`` for TTW) at a state give
    its phases, ``H`` and ``I2`` its moduli; the inverse chart returns the
    same state.  The moduli agree with the squares the floors rest on."""
    spec = spec_for(family, gamma)
    batch = sample_points(spec, default_box(spec), 200, 5)
    pairs = factor_pairs(spec)
    shift = pairs["A"].minus if family == "ttw" else pairs["A"].plus
    ladder, shifted = eval_batch(pairs["B"].plus, batch), eval_batch(shift, batch)
    h = eval_batch(hamiltonian_observable(spec), batch).real
    i2 = eval_batch(second_integral_observable(spec), batch).real
    states = np.stack([c.real for c in batch.arrays()], axis=1)
    ladder_square = [factorization._ladder_square(spec, v) for v in i2]
    shift_square = [factorization._shift_square(spec, hv, v) for hv, v in zip(h, i2)]
    np.testing.assert_allclose(np.abs(ladder) ** 2, ladder_square, rtol=1e-12)
    np.testing.assert_allclose(np.abs(shifted) ** 2, shift_square, rtol=1e-12)
    found = np.array([
        factorization.inverse_chart(spec, *args)
        for args in zip(h, i2, np.angle(ladder), np.angle(shifted))
    ])
    np.testing.assert_allclose(found, states, rtol=1e-12, atol=1e-12)
