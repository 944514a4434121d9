"""System descriptions: parameters, charts, observables, domains, defaults."""

import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from superfact import (
    DELTA_MARGIN,
    DELTA_POS,
    DomainBox,
    DomainError,
    Family,
    Observable,
    PhaseBatch,
    PhasePoint,
    RationalGamma,
    SystemSpec,
    UnsupportedError,
    characteristic_period,
    default_box,
    domain_check,
    domain_mask,
    epsilon_observable,
    eval_batch,
    euclid_y_sector_observable,
    hamiltonian,
    hamiltonian_observable,
    higgs_potential_identity,
    bracket_batch,
    sample_points,
    second_integral,
    second_integral_observable,
    to_internal,
)
from superfact import dynamics
from superfact.phase import bracket_batch_with_scale
from superfact.systems import WALLS, plane_coordinates, wall_mask

from _oracles import batch_of, spec_for

HALF_PI = math.pi / 2


# ---------- parameters ----------


def test_rational_gamma_reduces():
    g = RationalGamma(6, 4)
    assert (g.m, g.n) == (3, 2)
    assert g.value == 1.5
    assert str(g) == "3/2"


def test_rational_gamma_parse():
    assert RationalGamma.parse("141/100") == RationalGamma(141, 100)
    assert RationalGamma.parse("2") == RationalGamma(2, 1)
    assert RationalGamma.parse(" 2/3 ") == RationalGamma(2, 3)
    with pytest.raises(ValueError):
        RationalGamma.parse("nope")
    with pytest.raises(ValueError):
        RationalGamma(0, 1)
    with pytest.raises(ValueError):
        RationalGamma(1, -2)
    with pytest.raises(ValueError):
        RationalGamma(1.5, 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec(Family.EUCLIDEAN, 0.0, RationalGamma(1))
    with pytest.raises(ValueError):
        SystemSpec(Family.EUCLIDEAN, -1.0, RationalGamma(1))
    with pytest.raises(ValueError):
        SystemSpec(Family.SPHERE, 1.0, RationalGamma(1, 3))  # below 1/2
    with pytest.raises(ValueError):
        SystemSpec(Family.TTW, 1.0, RationalGamma(1, 5), alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        SystemSpec(Family.TTW, 1.0, RationalGamma(1))  # missing alpha/beta
    with pytest.raises(ValueError):
        SystemSpec(Family.EUCLIDEAN, 1.0, RationalGamma(1), alpha=1.0)
    # boundary ratios are allowed
    SystemSpec(Family.SPHERE, 1.0, RationalGamma(1, 2))
    SystemSpec(Family.TTW, 1.0, RationalGamma(1, 4), alpha=0.5, beta=0.5)


def test_spec_json_roundtrip():
    for spec in (
        spec_for("euclidean", "2/3", omega=1.3),
        spec_for("sphere", "3/2"),
        spec_for("ttw", "2", alpha=0.9, beta=0.2),
    ):
        again = SystemSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert again == spec
    from_str_gamma = SystemSpec.from_json_dict(
        {"family": "sphere", "omega": 2.0, "gamma": "3/2"}
    )
    assert from_str_gamma.gamma == RationalGamma(3, 2)
    with pytest.raises(ValueError):
        SystemSpec.from_json_dict({"family": "sphere", "omega": 1.0, "gamma": 1.5})


# ---------- charts ----------


def test_to_internal_euclid_frozen():
    spec = spec_for("euclidean", "2")
    internal = to_internal(spec, PhasePoint(0.0, 0.0, 2.0, 1.0))
    assert internal == PhasePoint(0.0, 0.0, 1.0, 1.0)


def test_to_internal_ttw_frozen():
    spec = spec_for("ttw", "3/2")
    internal = to_internal(spec, PhasePoint(2.0, math.pi / 6, 0.0, 3.0))
    assert internal.q1 == 2.0
    assert internal.q2 == pytest.approx(math.pi / 4, abs=1e-15)
    assert internal.p1 == 0.0
    assert internal.p2 == pytest.approx(2.0, abs=1e-15)
    r, phi = plane_coordinates(spec, internal.q1, internal.q2, "rtheta")
    assert r == 2.0
    assert phi == pytest.approx(math.pi / 6, abs=1e-15)


def test_to_internal_sphere_rejects_stretched_point():
    spec = spec_for("sphere", "2")
    with pytest.raises(DomainError):
        to_internal(spec, PhasePoint(0.9, 0.0, 0.0, 0.0))  # xi = 1.8 > pi/2


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_chart_is_canonical(family):
    spec = spec_for(family, "3/2")
    g = spec.gamma.value
    if spec.family is Family.TTW:
        u = Observable(lambda q1, q2, p1, p2: g * q2, "theta(ext)")
        v = Observable(lambda q1, q2, p1, p2: p2 / g, "ptheta(ext)")
        w_pair = (
            Observable(lambda q1, q2, p1, p2: q1, "r"),
            Observable(lambda q1, q2, p1, p2: p1, "pr"),
        )
    else:
        u = Observable(lambda q1, q2, p1, p2: g * q1, "xi(ext)")
        v = Observable(lambda q1, q2, p1, p2: p1 / g, "pxi(ext)")
        w_pair = (
            Observable(lambda q1, q2, p1, p2: q2, "y"),
            Observable(lambda q1, q2, p1, p2: p2, "py"),
        )
    batch = batch_of(PhasePoint(0.4, 0.3, -0.2, 0.7))
    assert bracket_batch(u, v, batch)[0] == pytest.approx(1.0, rel=1e-15)
    assert bracket_batch(u, w_pair[1], batch)[0] == 0.0
    assert bracket_batch(w_pair[0], w_pair[1], batch)[0] == 1.0


# ---------- observables ----------


def test_hamiltonian_frozen_values():
    assert hamiltonian(spec_for("euclidean", "2"), PhasePoint(0, 0, 1, 1)) == 2.5
    assert hamiltonian(
        spec_for("ttw", "1", alpha=1.0, beta=1.0),
        PhasePoint(math.sqrt(2.0), math.pi / 4, 0.0, 0.0),
    ) == pytest.approx(4.0, rel=1e-14)
    assert hamiltonian(spec_for("sphere", "1"), PhasePoint(0, 0, 0, 0)) == pytest.approx(
        0.0, abs=1e-15
    )


def test_second_integral_frozen_values():
    assert second_integral(spec_for("euclidean", "2"), PhasePoint(0, 0, 1, 1)) == 0.5
    assert second_integral(spec_for("sphere", "1"), PhasePoint(0, 0, 0, 0)) == 0.5
    assert second_integral(
        spec_for("ttw", "1", alpha=1.0, beta=1.0),
        PhasePoint(math.sqrt(2.0), math.pi / 4, 0.0, 0.0),
    ) == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("family,gamma", [("euclidean", "2/3"), ("sphere", "3/2"), ("ttw", "5/2")])
def test_hamiltonian_decomposes_through_sector(family, gamma):
    spec = spec_for(family, gamma)
    g2 = spec.gamma.value ** 2
    w2 = spec.omega ** 2
    batch = sample_points(spec, None, 100, seed=31)
    for i in range(len(batch)):
        pt = batch.point(i)
        h = hamiltonian(spec, pt)
        i2 = second_integral(spec, pt)
        if spec.family is Family.EUCLIDEAN:
            expected = pt.p2 ** 2 / 2 + w2 * pt.q2 ** 2 / 2 + g2 * i2
        elif spec.family is Family.SPHERE:
            expected = pt.p2 ** 2 / 2 + g2 * i2 / math.cos(pt.q2) ** 2 - w2 / 2
        else:
            expected = pt.p1 ** 2 + w2 * pt.q1 ** 2 + g2 * i2 / pt.q1 ** 2
        assert h == pytest.approx(expected, rel=1e-13)


def test_euclid_y_sector():
    spec = spec_for("euclidean", "2")
    hy = euclid_y_sector_observable(spec)
    assert hy(PhasePoint(5.0, 1.0, 7.0, 2.0)) == 2.0 + 0.5  # p2^2/2 + q2^2/2
    with pytest.raises(UnsupportedError):
        euclid_y_sector_observable(spec_for("sphere", "1"))


@pytest.mark.parametrize("family,gamma", [("euclidean", "3/2"), ("sphere", "2"), ("ttw", "2/3")])
def test_sector_integral_commutes_with_hamiltonian(family, gamma):
    spec = spec_for(family, gamma)
    h = hamiltonian_observable(spec)
    i2 = second_integral_observable(spec)
    batch = sample_points(spec, None, 50, seed=37)
    val, scale = bracket_batch_with_scale(h, i2, batch)
    assert np.all(np.abs(val) <= 1e-12 * (1.0 + scale))


def _epsilon(spec, point):
    return eval_batch(epsilon_observable(spec), batch_of(point))[0]


def test_epsilon_values_and_guards():
    with pytest.raises(UnsupportedError):
        epsilon_observable(spec_for("euclidean", "1"))
    assert _epsilon(spec_for("sphere", "1"), PhasePoint(0, 0, 0, 0)) == 1.0
    assert _epsilon(
        spec_for("ttw", "1", alpha=1.0, beta=1.0),
        PhasePoint(math.sqrt(2.0), math.pi / 4, 0.0, 0.0),
    ) == pytest.approx(2.0, rel=1e-14)
    # near-zero sector integral: frequency-like root undefined, so the point
    # is outside the domain every batch is drawn from
    tiny = SystemSpec(Family.SPHERE, 1e-6, RationalGamma(1))
    assert not domain_mask(tiny, batch_of(PhasePoint(0, 0, 0, 0)), 0.0).any()
    # a sector integral of zero under the root raises
    dead = SystemSpec(Family.TTW, 1.0, RationalGamma(1), alpha=0.0, beta=0.0)
    with pytest.raises(DomainError):
        _epsilon(dead, PhasePoint(1.0, 0.7, 0.5, 0.0))


@pytest.mark.parametrize("family", ["sphere", "ttw"])
def test_epsilon_observable_matches_pointwise(family):
    spec = spec_for(family, "3/2")
    batch = sample_points(spec, None, 20, seed=41)
    i2 = eval_batch(second_integral_observable(spec), batch)
    expected = np.sqrt(2 * i2 if family == "sphere" else i2)
    np.testing.assert_allclose(eval_batch(epsilon_observable(spec), batch), expected, rtol=1e-14)
    for i in range(len(batch)):
        pt = batch.point(i)
        assert epsilon_observable(spec)(pt).real == pytest.approx(expected[i], rel=1e-14)


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_domain_mask_refuses_the_positivity_floor(family):
    """Inside the walls, the batch mask keeps a point of the curved families
    exactly when its sector integral exceeds DELTA_POS; the plane has no
    floor.  Here alpha = beta = 0 and omega tiny, so I2 runs from 0 up
    through the floor as the sector momentum grows."""
    omega = 1.0 if family == "ttw" else 1e-6
    spec = spec_for(family, "1", omega=omega, alpha=0.0, beta=0.0)
    root = math.sqrt(DELTA_POS)
    momentum = np.array([0.0, 0.5, 0.999, 1.001, 2.0, 1e4]) * root
    n = len(momentum)
    if spec.family is Family.TTW:
        batch = PhaseBatch.from_arrays(np.ones(n), np.full(n, 0.7), np.zeros(n), momentum)
    else:
        batch = PhaseBatch.from_arrays(np.zeros(n), np.zeros(n), np.sqrt(2.0) * momentum,
                                       np.zeros(n))
    i2 = eval_batch(second_integral_observable(spec), batch)
    mask = domain_mask(spec, batch, 0.0)
    if spec.family is Family.EUCLIDEAN:
        assert mask.all()
    else:
        np.testing.assert_array_equal(mask, i2 > DELTA_POS)
        np.testing.assert_array_equal(mask, [False] * 3 + [True] * 3)


# ---------- domains ----------


def test_domain_check_euclid_total():
    spec = spec_for("euclidean", "1")
    assert domain_check(spec, PhasePoint(1e6, -1e6, 1e6, -1e6))


def test_domain_check_sphere():
    spec = spec_for("sphere", "1")
    assert domain_check(spec, PhasePoint(0.5, -0.5, 3.0, 3.0))
    bad = domain_check(spec, PhasePoint(1.6, 0.0, 0.0, 0.0))
    assert not bad and "xi" in bad.reason
    bad_y = domain_check(spec, PhasePoint(0.0, -1.6, 0.0, 0.0))
    assert not bad_y and "y" in bad_y.reason
    # the default margin rejects points the bare domain accepts
    edge = PhasePoint(HALF_PI - 0.01, 0.0, 0.0, 0.0)
    assert domain_check(spec, edge, margin=0.0)
    assert not domain_check(spec, edge)


def test_domain_check_ttw():
    spec = spec_for("ttw", "1")
    assert domain_check(spec, PhasePoint(1.0, 0.7, 0.0, 0.0))
    assert not domain_check(spec, PhasePoint(0.01, 0.7, 0.0, 0.0))
    assert not domain_check(spec, PhasePoint(1.0, 1.58, 0.0, 0.0))
    assert not domain_check(spec, PhasePoint(1.0, -0.1, 0.0, 0.0))
    assert domain_check(spec, PhasePoint(0.03, 0.7, 0.0, 0.0), margin=0.0)


def _wall_probe_points(spec, margin):
    """Rows ``(q1, q2)``: every wall and its margin edge, one ulp either
    side of each, NaN in each slot, and a seeded spread."""
    rng = np.random.default_rng(17)
    rows = list(rng.uniform(-2.0, 2.5, size=(300, 2)))
    for wall in WALLS[spec.family]:
        edge = wall.bound - margin if wall.upper else wall.bound + margin
        for v in (wall.bound, edge):
            for x in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)):
                row = rng.uniform(0.2, 1.2, size=2)
                row[wall.index] = x
                rows.append(row)
    rows += [np.array([np.nan, 0.7]), np.array([0.7, np.nan])]
    return np.array(rows)


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
@pytest.mark.parametrize("margin", [0.0, DELTA_MARGIN, 0.5])
def test_wall_guards_agree_point_by_point(family, margin):
    spec = spec_for(family, "3/2")
    q = _wall_probe_points(spec, margin)
    mask = wall_mask(spec.family, (q[:, 0], q[:, 1]), margin)
    events = dynamics._breach_events(spec, margin)
    assert len(events) == len(WALLS[spec.family])
    for i, (q1, q2) in enumerate(q):
        # PhasePoint refuses NaN; domain_check only reads the positions.
        check = domain_check(spec, SimpleNamespace(q1=q1, q2=q2), margin)
        y = np.array([q1, q2, 0.3, -0.2])
        inside_events = all(event(0.0, y) > 0 for event in events)
        assert bool(check) == bool(mask[i]) == inside_events, (q1, q2)
    # The same booleans as the closed forms the walls stand for.
    lim = HALF_PI - margin
    expected = {
        "euclidean": np.ones(len(q), dtype=bool),
        "sphere": (np.abs(q[:, 0]) < lim) & (np.abs(q[:, 1]) < lim),
        "ttw": (q[:, 0] > margin) & (q[:, 1] > margin) & (q[:, 1] < lim),
    }[family]
    np.testing.assert_array_equal(mask, expected)
    # The batch mask adds the positivity floor to the walls, nothing more;
    # one ulp off a bare wall the sector integral may overflow.
    p = np.full(len(q), 0.3)
    with np.errstate(all="ignore"):
        full = domain_mask(spec, PhaseBatch.from_arrays(q[:, 0], q[:, 1], p, -p), margin)
    assert not (full & ~mask).any()


def test_domain_mask_rejects_an_infinite_sector_integral():
    # One ulp above theta = 0, sin(theta)**2 underflows and I2 is infinite.
    spec = spec_for("ttw", "3/2")
    theta = np.array([np.nextafter(0.0, 1.0), 0.3])
    batch = PhaseBatch.from_arrays(np.ones(2), theta, np.full(2, 0.3), np.full(2, -0.2))
    assert wall_mask(spec.family, (batch.q1.real, batch.q2.real), 0.0).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = domain_mask(spec, batch, 0.0)
    np.testing.assert_array_equal(mask, [False, True])


def test_default_box_spans_the_walls_less_the_margin():
    m = DELTA_MARGIN
    sphere = default_box(spec_for("sphere", "1")).intervals
    assert sphere[:2] == ((-(HALF_PI - m), HALF_PI - m),) * 2
    ttw = default_box(spec_for("ttw", "1")).intervals
    assert ttw[:2] == ((0.3, 2.2), (m, HALF_PI - m))
    assert default_box(spec_for("euclidean", "1")).intervals[:2] == ((-1.5, 1.5),) * 2


def test_domain_check_names_the_wall():
    bad = domain_check(spec_for("ttw", "1"), PhasePoint(1.0, 1.58, 0.0, 0.0))
    assert bad.reason == "q2=1.58 not more than 0.05 inside the wall theta = pi/2"


def test_out_of_domain_evaluation_raises():
    spec = spec_for("sphere", "1")
    outside = PhasePoint(1.7, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        hamiltonian(spec, outside)
    with pytest.raises(DomainError):
        second_integral(spec, outside)


def test_domain_box_validation():
    with pytest.raises(ValueError):
        DomainBox(((1.0, 0.0), (0, 1), (0, 1), (0, 1)))
    with pytest.raises(ValueError):
        DomainBox(((0, 1), (0, 1), (0, 1)))
    with pytest.raises(ValueError):
        DomainBox(((0, 1),) * 4, margin=-0.1)
    box = DomainBox(((0, 1), (0, 1), (-1, 1), (-1, 1)))
    assert box.margin == DELTA_MARGIN
    assert box.to_json_dict()["intervals"][0] == [0.0, 1.0]


# ---------- geometry helpers ----------


def test_higgs_potential_identity():
    rng = np.random.default_rng(43)
    for _ in range(200):
        x, y = rng.uniform(-1.4, 1.4, size=2)
        lhs, rhs = higgs_potential_identity(x, y)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))
    with pytest.raises(DomainError):
        higgs_potential_identity(1.6, 0.0)


def test_higgs_potential_identity_over_arrays():
    x = np.linspace(-1.4, 1.4, 9)
    lhs, rhs = higgs_potential_identity(x, 0.9 * x[::-1])
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
    with pytest.raises(DomainError):
        higgs_potential_identity(np.array([0.1, HALF_PI]), np.zeros(2))


def test_higgs_potential_equals_hamiltonian_potential():
    # At unit frequency ratio the rest potential is the tangent-squared well
    # of the geodesic polar radius.
    spec = spec_for("sphere", "1")
    w2 = spec.omega ** 2
    x, y = 0.42, -0.37
    _, rhs = higgs_potential_identity(x, y)
    assert hamiltonian(spec, PhasePoint(x, y, 0.0, 0.0)) == pytest.approx(
        (w2 / 2) * rhs, rel=1e-13
    )


def test_geodesic_polar():
    spec = spec_for("sphere", "1")
    r, phi = plane_coordinates(spec, 0.3, 0.0, "rtheta")
    assert (r, phi) == (pytest.approx(0.3), pytest.approx(0.0))
    r, phi = plane_coordinates(spec, 0.0, 0.4, "rtheta")
    assert (r, phi) == (pytest.approx(0.4), pytest.approx(HALF_PI))
    spec2 = spec_for("sphere", "2")
    r, phi = plane_coordinates(spec2, 0.6, 0.0, "rtheta")
    assert (r, phi) == (pytest.approx(0.3), pytest.approx(0.0))


# ---------- defaults ----------


def test_characteristic_period():
    assert characteristic_period(spec_for("euclidean", "1")) == 2 * math.pi
    assert characteristic_period(spec_for("sphere", "2")) == 2 * math.pi
    assert characteristic_period(spec_for("ttw", "1")) == math.pi
    assert characteristic_period(spec_for("euclidean", "1", omega=2.0)) == math.pi


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_default_box_is_samplable(family):
    spec = spec_for(family, "3/2")
    box = default_box(spec)
    assert len(box.intervals) == 4
    batch = sample_points(spec, box, 100, seed=2)
    assert len(batch) == 100
    for i in range(len(batch)):
        assert domain_check(spec, batch.point(i))
