"""Factor functions: frozen values, product identities, conjugacy, guards."""

import math

import numpy as np
import pytest

from superfact import (
    DomainError,
    Family,
    PhasePoint,
    PositivityError,
    RationalGamma,
    SystemSpec,
    UnsupportedError,
    eval_batch,
    factor_pairs,
    hamiltonian,
    higher_integral,
    higher_integral_observables,
    ladder,
    ladder_observables,
    sample_points,
    second_integral,
    shift,
    shift_observables,
    shift_ttw,
    sphere_ladder_target_observable,
    ttw_shift_observables,
)
from superfact.scalars import ipow

from _oracles import narrow_box, spec_for

SQH = 1.0 / math.sqrt(2.0)


def _sampled(spec, count, seed):
    return sample_points(spec, narrow_box(spec.family.value), count, seed=seed)


# ---------- frozen values ----------


def test_euclid_gamma1_frozen():
    spec = spec_for("euclidean", "1")
    pt = PhasePoint(1.0, 0.0, 0.0, 1.0)
    lad = ladder(spec, pt)
    assert lad.plus == pytest.approx(SQH)
    assert lad.minus == pytest.approx(SQH)
    assert lad.lam == 0.0
    sh = shift(spec, pt)
    assert sh.plus == pytest.approx(-1j * SQH)
    assert sh.minus == pytest.approx(1j * SQH)
    assert sh.lam == 0.0
    pair = higher_integral(spec, pt)
    assert pair.x_plus == pytest.approx(-0.5j)
    assert pair.x_minus == pytest.approx(0.5j)
    assert pair.x_real == pytest.approx(0.0, abs=1e-16)
    assert pair.y_real == pytest.approx(-0.5)


def test_euclid_gamma2_frozen():
    spec = spec_for("euclidean", "2")
    pt = PhasePoint(0.0, 0.0, 1.0, 1.0)
    pair = higher_integral(spec, pt)
    assert pair.x_plus == pytest.approx(0.35355339059327373j)
    assert pair.y_real == pytest.approx(0.35355339059327373)
    assert pair.x_real == pytest.approx(0.0, abs=1e-16)


def test_sphere_origin_frozen():
    spec = spec_for("sphere", "1")
    pt = PhasePoint(0.0, 0.0, 0.0, 0.0)
    assert second_integral(spec, pt) == pytest.approx(0.5)
    lad = ladder(spec, pt)
    assert lad.plus == pytest.approx(0.0)
    assert lad.minus == pytest.approx(0.0)
    assert lad.lam == pytest.approx(-0.5)
    sh = shift(spec, pt)
    assert sh.plus == pytest.approx(0.0)
    assert sh.minus == pytest.approx(0.0)
    assert sh.lam == pytest.approx(0.0)


def test_ttw_equilibrium_frozen():
    spec = spec_for("ttw", "1", alpha=1.0, beta=1.0)
    pt = PhasePoint(math.sqrt(2.0), math.pi / 4, 0.0, 0.0)
    assert second_integral(spec, pt) == pytest.approx(4.0)
    assert hamiltonian(spec, pt) == pytest.approx(4.0)
    lad = ladder(spec, pt)
    assert lad.plus == pytest.approx(0.0, abs=1e-15)
    assert lad.minus == pytest.approx(0.0, abs=1e-15)
    assert lad.lam == pytest.approx(4.0)
    sh = shift_ttw(spec, pt)
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
    sh = shift_ttw(spec, pt)
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
    if spec.family is Family.SPHERE:
        target = sphere_ladder_target_observable(spec)
        fixed = -spec.omega ** 2 / (2 * spec.gamma.value ** 2)
    for i in range(len(batch)):
        pt = batch.point(i)
        lad = ladder(spec, pt)
        product = lad.plus * lad.minus + lad.lam
        if spec.family is Family.SPHERE:
            expected = target(pt)
            assert abs(expected - fixed) <= 1e-12 * (1 + abs(fixed))
        else:
            expected = second_integral(spec, pt)
        assert abs(product - expected) <= 1e-12 * (1 + abs(expected))


def test_shift_product_identity_euclid():
    from superfact import euclid_y_sector_observable

    spec = spec_for("euclidean", "5/2", omega=0.9)
    hy = euclid_y_sector_observable(spec)
    batch = _sampled(spec, 100, seed=7)
    for i in range(len(batch)):
        pt = batch.point(i)
        sh = shift(spec, pt)
        product = sh.plus * sh.minus + sh.lam
        assert abs(product - hy(pt)) <= 1e-12 * (1 + abs(hy(pt)))


def test_shift_product_identity_sphere():
    spec = spec_for("sphere", "3/2", omega=1.1)
    batch = _sampled(spec, 100, seed=9)
    for i in range(len(batch)):
        pt = batch.point(i)
        sh = shift(spec, pt)
        product = sh.plus * sh.minus + sh.lam
        h = hamiltonian(spec, pt)
        assert abs(product - h) <= 1e-12 * (1 + abs(h))


def test_ttw_mixed_product_identities():
    spec = spec_for("ttw", "3/2", omega=1.2, alpha=0.8, beta=0.5)
    w2g2 = (spec.omega * spec.gamma.value) ** 2
    batch = _sampled(spec, 100, seed=11)
    for i in range(len(batch)):
        pt = batch.point(i)
        sh = shift_ttw(spec, pt)
        h = hamiltonian(spec, pt)
        i2 = second_integral(spec, pt)
        for pair in (sh.a1, sh.a2):
            product = pair.plus * pair.minus + pair.lam
            assert abs(product - h) <= 1e-12 * (1 + abs(h))
        pure = sh.pure.plus * sh.pure.minus
        expected = h * h - 4 * w2g2 * i2
        assert abs(pure - expected) <= 1e-12 * (1 + abs(expected) + h * h)


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
    for i in range(len(batch)):
        pt = batch.point(i)
        for obs_p, obs_m in plus_minus:
            vp, vm = obs_p(pt), obs_m(pt)
            scale = 1.0 + abs(vp)
            assert abs(vm - vp.conjugate()) <= 1e-15 * scale, (obs_p.label, obs_m.label)


# ---------- phase cancellation ----------


def _rate(pair, batch):
    if pair.rate_obs is None:
        return np.full(len(batch), pair.rate_factor)
    return pair.rate_factor * eval_batch(pair.rate_obs, batch)


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


# ---------- unit frequency ratio reductions ----------


def test_euclid_gamma1_reduction_formulas():
    spec = spec_for("euclidean", "1", omega=1.4)
    w = spec.omega
    batch = _sampled(spec, 200, seed=17)
    for i in range(len(batch)):
        pt = batch.point(i)
        pair = higher_integral(spec, pt)
        x_expected = -(pt.p1 * pt.p2 + w * w * pt.q1 * pt.q2) / 2
        y_expected = -(w / 2) * (pt.q1 * pt.p2 - pt.q2 * pt.p1)
        scale = 1 + abs(x_expected) + abs(y_expected)
        assert abs(pair.x_real - x_expected) <= 1e-13 * scale
        assert abs(pair.y_real - y_expected) <= 1e-13 * scale


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
    xp_obs, xm_obs, _, _ = higher_integral_observables(spec)
    for i in range(len(batch)):
        pt = batch.point(i)
        lad = ladder(spec, pt)
        sh = shift_ttw(spec, pt)
        manual_plus = ipow(lad.plus, 2) * ipow(sh.pure.minus, 3)
        manual_minus = ipow(lad.minus, 2) * ipow(sh.pure.plus, 3)
        assert xp_obs(pt) == pytest.approx(manual_plus, rel=1e-13)
        assert xm_obs(pt) == pytest.approx(manual_minus, rel=1e-13)


def test_higher_integral_real_parts_from_conjugates():
    spec = spec_for("sphere", "2/3")
    batch = _sampled(spec, 30, seed=29)
    for i in range(len(batch)):
        pt = batch.point(i)
        pair = higher_integral(spec, pt)
        assert pair.x_minus == pytest.approx(pair.x_plus.conjugate(), rel=1e-13)
        assert pair.x_real == pytest.approx(pair.x_plus.real, rel=1e-12, abs=1e-13)
        assert pair.y_real == pytest.approx(pair.x_plus.imag, rel=1e-12, abs=1e-13)


# ---------- guards ----------


def test_positivity_guard_ttw():
    spec = SystemSpec(Family.TTW, 1.0, RationalGamma(1), alpha=0.0, beta=0.0)
    dead = PhasePoint(1.0, 0.7, 0.5, 0.0)  # angular sector carries no energy
    with pytest.raises(PositivityError):
        ladder(spec, dead)
    with pytest.raises(PositivityError):
        shift_ttw(spec, dead)
    with pytest.raises(PositivityError):
        higher_integral(spec, dead)


def test_positivity_guard_sphere():
    spec = SystemSpec(Family.SPHERE, 1e-6, RationalGamma(1))
    pt = PhasePoint(0.0, 0.0, 0.0, 0.3)
    with pytest.raises(PositivityError):
        ladder(spec, pt)
    with pytest.raises(PositivityError):
        shift(spec, pt)


def test_unsupported_combinations():
    ttw = spec_for("ttw", "1")
    euclid = spec_for("euclidean", "1")
    sphere = spec_for("sphere", "1")
    pt = PhasePoint(1.0, 0.7, 0.0, 0.5)
    with pytest.raises(UnsupportedError):
        shift(ttw, pt)
    with pytest.raises(UnsupportedError):
        shift_observables(ttw)
    with pytest.raises(UnsupportedError):
        shift_ttw(euclid, pt)
    with pytest.raises(UnsupportedError):
        ttw_shift_observables(sphere)
    with pytest.raises(UnsupportedError):
        sphere_ladder_target_observable(euclid)


def test_out_of_domain_raises():
    sphere = spec_for("sphere", "1")
    outside = PhasePoint(1.7, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        ladder(sphere, outside)
    with pytest.raises(DomainError):
        higher_integral(sphere, outside)
    ttw = spec_for("ttw", "1")
    with pytest.raises(DomainError):
        shift_ttw(ttw, PhasePoint(-1.0, 0.7, 0.0, 0.5))
