"""Level search: levels found again, determinism, floors and ceiling, domain guards."""

import itertools
import math
import re

import numpy as np
import pytest

from superfact import (
    DELTA_MARGIN,
    DELTA_POS,
    Family,
    NoSolution,
    Observable,
    PhaseBatch,
    PhasePoint,
    SuperfactError,
    default_box,
    domain_check,
    domain_mask,
    eval_batch,
    factor_pairs,
    gradient,
    hamiltonian,
    hamiltonian_observable,
    higher_integral_observables,
    sample_points,
    second_integral,
    second_integral_observable,
)
from superfact import levels
from superfact.levels import LEVEL_TOLERANCE, solve_levels
from superfact.scalars import Traced
from superfact.systems import wall_mask

from _oracles import spec_for

# One in-domain point per family; the levels read off it are reachable.
SEED_POINTS = {
    "euclidean": PhasePoint(0.5, -0.3, 0.4, 0.7),
    "sphere": PhasePoint(0.4, -0.3, 0.5, 0.2),
    "ttw": PhasePoint(1.2, 0.7, 0.3, -0.4),
}


def _levels_at(spec, point):
    return np.array(
        [
            hamiltonian(spec, point),
            second_integral(spec, point),
            higher_integral_observables(spec)[2](point).real,
        ]
    )


def _reference_search(spec, targets, sym_name="X"):
    """Start-by-start damped Gauss-Newton on scalar evaluations, with the
    least-squares step of an SVD: the loop the search must agree with.
    Returns ``(start index, z)``."""
    h, i2, x = levels._Levels(spec, sym_name, targets).observables
    scale = 1.0 + np.abs(targets)

    def residual(z):
        point = PhasePoint(*z)
        if not domain_check(spec, point):
            return None
        if spec.family is not Family.EUCLIDEAN and i2(point).real <= DELTA_POS:
            return None
        try:
            return np.array([o(point).real for o in (h, i2, x)]) - targets
        except SuperfactError:
            return None

    grid = [
        [lo + t * (hi - lo) for t in (0.25, 0.5, 0.75)]
        for (lo, hi) in default_box(spec).intervals
    ]
    for index, start in enumerate(itertools.product(*grid)):
        z = np.array(start)
        f = residual(z)
        for it in range(levels.MAX_ITERATIONS + 1):
            if f is None:
                break
            err = np.max(np.abs(f) / scale)
            if err <= LEVEL_TOLERANCE:
                return index, z
            if it == levels.MAX_ITERATIONS:
                break
            jac = np.stack([gradient(o, PhasePoint(*z)).real for o in (h, i2, x)])
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]
            for k in range(levels.HALVINGS):
                trial = z + 0.5**k * step
                ft = residual(trial)
                if ft is not None and np.max(np.abs(ft) / scale) < err:
                    z, f = trial, ft
                    break
            else:
                break
    return None, None


@pytest.mark.parametrize("gamma", ["1", "3/2"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_levels_found_again(family, gamma):
    spec = spec_for(family, gamma)
    targets = _levels_at(spec, SEED_POINTS[family])
    z, residual, search = solve_levels(spec, "X", targets)
    assert residual <= LEVEL_TOLERANCE
    found = _levels_at(spec, PhasePoint(*z))
    np.testing.assert_allclose(found, targets, rtol=1e-8, atol=1e-8)
    assert search.valid_starts == 81
    start, z_ref = _reference_search(spec, targets)
    assert search.winning_start == start
    np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-10)


def test_repeat_calls_bit_identical():
    spec = spec_for("ttw", "3/2")
    targets = _levels_at(spec, SEED_POINTS["ttw"])
    z1, r1, _ = solve_levels(spec, "X", targets)
    z2, r2, _ = solve_levels(spec, "X", targets)
    assert z1.tobytes() == z2.tobytes()
    assert r1 == r2


@pytest.mark.parametrize(
    "family, options",
    [
        # The p_xi = 0 starts have a sector integral ~1e-10 below DELTA_POS.
        ("sphere", {"omega": 1e-5}),
        # Without barriers the p_theta = 0 starts have a zero sector
        # integral, where the square roots of X raise.
        ("ttw", {"alpha": 0.0, "beta": 0.0}),
    ],
)
def test_invalid_starts_skipped(family, options):
    spec = spec_for(family, "1", **options)
    targets = _levels_at(spec, SEED_POINTS[family])
    z, residual, search = solve_levels(spec, "X", targets)
    assert search.valid_starts == 54
    # The scalar guard of the search refuses the same starts.
    grid = [[lo + t * (hi - lo) for t in (0.25, 0.5, 0.75)]
            for (lo, hi) in default_box(spec).intervals]
    starts = np.array(list(itertools.product(*grid)))
    search_levels = levels._Levels(spec, "X", targets)
    with np.errstate(all="ignore"):
        valid = search_levels.valid(starts)
    usable = [search_levels.residual(tuple(start)) is not None for start in starts.tolist()]
    assert usable == valid.tolist()
    assert residual <= LEVEL_TOLERANCE
    np.testing.assert_allclose(
        _levels_at(spec, PhasePoint(*z)), targets, rtol=1e-8, atol=1e-8
    )


def _energy_below_floor(spec, family):
    """Levels of the family's seed point with the energy moved 1 below the
    least energy on its sector level."""
    _, i2, x = _levels_at(spec, SEED_POINTS[family])
    g = spec.gamma.value
    floor = {
        "euclidean": g * g * i2,
        "sphere": g * g * i2 - 0.5,
        "ttw": 2 * g * math.sqrt(i2),
    }[family]
    return [floor - 1.0, i2, x]


def _unreachable(spec, family):
    """Levels above the ceiling: ``H`` and ``I2`` of the family's seed point,
    and ``X`` ten times ``|X+|`` there."""
    point = SEED_POINTS[family]
    h, i2, _ = _levels_at(spec, point)
    return [h, i2, 10 * abs(higher_integral_observables(spec)[0](point))]


# Levels of real points on which every start gives up, all at gamma 7/5,
# where Gauss-Newton on a 12th-order level is the weak step: the sphere and
# TTW ones from tools/level_survey.py, the plane's those of the point
# (5.5662595344208405, 4.513778288034487, 5.653401917128203,
# -3.332357280626887), outside the default box.
GIVE_UPS = {
    "euclidean": ("X", [62.5527565137618, 23.88436570108292, 42400190.89001757]),
    "sphere": ("X", [138.21881396497304, 4.422081754914755, -886758304.8930755]),
    "ttw": ("X", [491.3070229482648, 59.492009964912086, 1.514156547117554e+23]),
}


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_unreachable_levels_report_best_residual(family):
    spec = spec_for(family, "7/5")
    sym_name, targets = GIVE_UPS[family]
    assert levels._above_ceiling(spec, sym_name, np.array(targets)) is None
    with pytest.raises(NoSolution, match="no phase point matches") as info:
        solve_levels(spec, sym_name, targets)
    best = float(re.search(r"best residual (\S+)\)", str(info.value)).group(1))
    assert LEVEL_TOLERANCE < best < math.inf
    search = info.value.search
    assert search.valid_starts == 81 and search.winning_start is None
    assert search.iterations >= search.valid_starts


@pytest.mark.parametrize(
    "family, gamma, sym_name, targets, start",
    [
        ("euclidean", "1", "X",
         [1.2144124196813508, 0.30410487505991657, -0.5260912053037884], 1),
        ("sphere", "1", "X",
         [3.3069758802944182, 1.5810156742728938, -0.3663592220124744], 1),
        ("ttw", "7/5", "Y",
         [17.352728912916955, 22.545537074026825, 213285277.21726796], 4),
    ],
)
def test_later_start_wins_as_in_the_reference(family, gamma, sym_name, targets, start):
    """Levels of real points (tools/level_survey.py) that the first valid
    start does not reach: the search goes on, start by start, to the one
    the reference loop finds."""
    spec = spec_for(family, gamma)
    z, residual, search = solve_levels(spec, sym_name, targets)
    assert residual <= LEVEL_TOLERANCE
    assert search.winning_start == start
    assert search.iterations > 0
    ref_start, z_ref = _reference_search(spec, np.array(targets), sym_name)
    assert ref_start == start
    np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "family, second, message",
    [
        ("sphere", 0.4, "sector level 0.4 is below the sphere sector floor 0.5"),
        ("ttw", 3.0, "sector level 3 is below the ttw angular floor 3.24"),
    ],
)
def test_sector_level_below_floor_skips_search(family, second, message, monkeypatch):
    monkeypatch.setattr(levels, "_Levels", None)  # the search must not start
    with pytest.raises(NoSolution, match=message):
        solve_levels(spec_for(family, "1"), "X", [12.0, second, 1.5])


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_energy_below_floor_skips_search(family, monkeypatch):
    spec = spec_for(family, "2")
    h, i2, x = _energy_below_floor(spec, family)
    monkeypatch.setattr(levels, "_Levels", None)  # the search must not start
    message = f"energy {h:g} is below the floor {h + 1.0:g} of sector level {i2:g}"
    with pytest.raises(NoSolution, match=re.escape(message)) as info:
        solve_levels(spec, "X", [h, i2, x])
    search = info.value.search
    assert (search.valid_starts, search.iterations, search.winning_start) == (0, 0, None)


def _h_and_i2(spec, batch):
    return (
        eval_batch(hamiltonian_observable(spec), batch).real,
        eval_batch(second_integral_observable(spec), batch).real,
    )


@pytest.mark.parametrize("omega", [1.0, 2.5])
@pytest.mark.parametrize("gamma", ["1", "2", "1/2", "3/2", "141/100"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_floors_never_refuse_a_real_point(family, gamma, omega):
    """Neither the floors nor the ceiling refuse the levels of a real
    point; an ``X`` or ``Y`` beyond double range is no request."""
    spec = spec_for(family, gamma, omega=omega)
    batch = sample_points(spec, default_box(spec), 2000, 1)
    h, i2 = _h_and_i2(spec, batch)
    _, _, x_real, y_real = higher_integral_observables(spec)
    with np.errstate(all="ignore"):
        x, y = eval_batch(x_real, batch).real, eval_batch(y_real, batch).real
    refused = [
        (hk, ik) for hk, ik in zip(h, i2)
        if levels._below_floor(spec, np.array([hk, ik, 0.0])) is not None
    ]
    assert refused == []
    above = [
        (sym_name, hk, ik, level)
        for sym_name, values in (("X", x), ("Y", y))
        for hk, ik, level in zip(h, i2, values)
        if math.isfinite(level)
        and levels._above_ceiling(spec, sym_name, np.array([hk, ik, level])) is not None
    ]
    assert above == []
    assert np.isfinite(x).sum() >= (1000 if gamma == "141/100" else 2000)


def _ceiling(spec, h, i2):
    """``R(h, i2) = |B+|^n |A'|^m`` from the moduli the levels fix."""
    n, m = spec.gamma.n, spec.gamma.m
    return (levels._ladder_square(spec, i2) ** (n / 2)
            * levels._shift_square(spec, h, i2) ** (m / 2))


@pytest.mark.parametrize("gamma", ["1", "3/2", "7/5"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_ceiling_is_the_modulus_of_x_plus(family, gamma):
    """``|X+|`` at a real point is ``R`` of its ``H`` and ``I2``, and
    ``|X|``, ``|Y|`` are at most ``R``."""
    spec = spec_for(family, gamma)
    batch = sample_points(spec, default_box(spec), 200, 5)
    h, i2 = _h_and_i2(spec, batch)
    x_plus, _, x_real, y_real = higher_integral_observables(spec)
    ceiling = np.array([_ceiling(spec, hk, ik) for hk, ik in zip(h, i2)])
    np.testing.assert_allclose(np.abs(eval_batch(x_plus, batch)), ceiling, rtol=1e-10, atol=0)
    for sym in (x_real, y_real):
        assert np.all(np.abs(eval_batch(sym, batch).real) <= ceiling * (1 + 1e-12))


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_levels_above_the_ceiling_skip_search(family, monkeypatch):
    spec = spec_for(family, "2")
    h, i2, x = _unreachable(spec, family)
    monkeypatch.setattr(levels, "_Levels", None)  # the search must not start
    message = (f"requested levels: |X| {x:g} is above the ceiling |X+| = {x / 10:g} "
               f"of energy {h:g} and sector level {i2:g}")
    with pytest.raises(NoSolution, match=re.escape(message)) as info:
        solve_levels(spec, "X", [h, i2, x])
    search = info.value.search
    assert (search.valid_starts, search.iterations, search.winning_start) == (0, 0, None)


@pytest.mark.parametrize("sym_name", ["X", "Y"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_ceiling_refuses_only_outside_the_tolerance(family, sym_name, monkeypatch):
    """A level ``tol/2`` beyond ``R`` is within the acceptance band of a
    point where ``|X|`` or ``|Y|`` is ``R``, so it is not refused; one
    ``1e-6`` beyond is, of either sign."""
    spec = spec_for(family, "2")
    h, i2, _ = _levels_at(spec, SEED_POINTS[family])
    ceiling = _ceiling(spec, h, i2)

    def beyond(k):
        return ceiling + k * (1 + ceiling)

    for level in (beyond(LEVEL_TOLERANCE / 2), -beyond(LEVEL_TOLERANCE / 2)):
        assert levels._above_ceiling(spec, sym_name, np.array([h, i2, level])) is None
    monkeypatch.setattr(levels, "_Levels", None)  # the search must not start
    for level in (beyond(1e-6), -beyond(1e-6)):
        with pytest.raises(NoSolution, match=f"requested levels: \\|{sym_name}\\| "):
            solve_levels(spec, sym_name, [h, i2, level])


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_ceiling_counts_the_tolerance_band_of_h_and_i2(family):
    """A real point whose ``H`` and ``I2`` lie 0.9 of the tolerance off
    their levels, with ``X = R`` there, meets the request.  Where ``R`` is
    steep in ``H`` and ``I2`` (one above the energy floor, and just above
    the sector floor) that ``X`` lies above ``R`` of the levels themselves
    by more than the ``X`` tolerance, so a ceiling that ignored the band
    would refuse it."""
    spec = spec_for(family, "2")
    _, sector = levels._sector_floor(spec)
    near_floor = sector + 1e-3
    cases = (  # (i2, energy above its floor, sign of the I2 offsets)
        (10.0, 1.0, (0.0, -1.0)),
        (near_floor, 10.0, (1.0,)),
    )
    for i2, above, signs in cases:
        h = levels._energy_floor(spec, i2) + above
        slack_h, slack_i2 = (LEVEL_TOLERANCE * (1 + v) for v in (h, i2))
        for sign in signs:
            level = _ceiling(spec, h + 0.9 * slack_h, i2 + sign * 0.9 * slack_i2)
            assert level - LEVEL_TOLERANCE * (1 + level) > _ceiling(spec, h, i2)
            assert levels._above_ceiling(spec, "X", np.array([h, i2, level])) is None


def test_ceiling_beyond_double_range_never_refuses():
    """On the plane at gamma 141/100, ``R(1e4, 1e3)`` is about ``10^425``."""
    spec = spec_for("euclidean", "141/100")
    for level in (1e300, -1.7e308):
        assert levels._above_ceiling(spec, "X", np.array([1e4, 1e3, level])) is None


@pytest.mark.parametrize("omega", [1.0, 2.5])
@pytest.mark.parametrize("gamma", ["1", "2", "1/2", "3/2", "141/100"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_energy_floor_is_tight(family, gamma, omega):
    """At the minimiser of ``H`` on each sector level the energy is the floor:
    ``q2 = p2 = 0`` on the plane and the sphere; ``p1 = 0`` and
    ``r^4 = gamma^2 I2 / omega^2`` for TTW."""
    spec = spec_for(family, gamma, omega=omega)
    q1, q2, p1, p2 = (c.real for c in sample_points(spec, default_box(spec), 200, 3).arrays())
    if family == "ttw":
        _, i2 = _h_and_i2(spec, PhaseBatch.from_arrays(q1, q2, p1, p2))
        g = spec.gamma.value
        q1, p1 = (g * g * i2 / (omega * omega)) ** 0.25, np.zeros_like(p1)
    else:
        q2, p2 = np.zeros_like(q2), np.zeros_like(p2)
    h, i2 = _h_and_i2(spec, PhaseBatch.from_arrays(q1, q2, p1, p2))
    floor = np.array([levels._energy_floor(spec, v) for v in i2])
    np.testing.assert_allclose(h, floor, rtol=1e-12, atol=0)


@pytest.mark.parametrize("gamma", ["1", "3/2", "141/100"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_floors_agree_with_the_factor_pairs(family, gamma):
    """``plus * minus`` of the shift pair is the distance of ``H`` from the
    energy floor (of ``H^2`` from its square for TTW), and that of the
    ladder pair vanishes at the sector floor."""
    spec = spec_for(family, gamma)
    batch = sample_points(spec, default_box(spec), 200, 7)
    h, i2 = _h_and_i2(spec, batch)
    pairs = factor_pairs(spec)

    def product(name):
        return eval_batch(pairs[name].plus, batch) * eval_batch(pairs[name].minus, batch)

    energy = np.array([levels._energy_floor(spec, v) for v in i2])
    _, sector = levels._sector_floor(spec)
    if family == "ttw":
        shift, shift_scale = h * h - energy * energy, 1 + h * h + energy * energy
        # The ladder modulus also vanishes at (|alpha| - |beta|)^2, below the floor.
        other = (abs(spec.alpha) - abs(spec.beta)) ** 2
        ladder = (i2 - sector) * (i2 - other) / i2
        ladder_scale = 1 + (i2 + sector) * (i2 + other) / i2
    else:
        shift, shift_scale = h - energy, 1 + np.abs(h) + np.abs(energy)
        ladder, ladder_scale = i2 - sector, 1 + i2 + sector
    assert np.all(np.abs(product("A") - shift) <= 1e-12 * shift_scale)
    assert np.all(np.abs(product("B") - ladder) <= 1e-12 * ladder_scale)


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_floors_refuse_only_outside_the_tolerance(family, monkeypatch):
    """A level ``2 tol`` below its floor is refused, one ``tol/2`` below is
    not.  The energy floor is that of the least sector level the search
    accepts, ``I2 - tol (1 + |I2|)``."""
    spec = spec_for(family, "2")
    h, i2, x = _levels_at(spec, SEED_POINTS[family])
    _, sector = levels._sector_floor(spec)
    energy = levels._energy_floor(spec, i2 - LEVEL_TOLERANCE * (1 + abs(i2)))

    def below(floor, k):
        return floor - k * LEVEL_TOLERANCE * (1 + abs(floor))

    assert levels._below_floor(spec, np.array([below(energy, 0.5), i2, x])) is None
    assert levels._below_floor(spec, np.array([h, below(sector, 0.5), x])) is None
    monkeypatch.setattr(levels, "_Levels", None)  # the search must not start
    for targets, level in (
        ([below(energy, 2), i2, x], "energy"),
        ([h, below(sector, 2), x], "sector level"),
    ):
        with pytest.raises(NoSolution, match=f"requested levels: {level} "):
            solve_levels(spec, "X", targets)


@pytest.mark.parametrize("reachable", [True, False])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_search_evaluates_only_batches_inside_the_domain(family, reachable, monkeypatch):
    """Every value the search takes, over the batch of starts or at a single
    state, and every Jacobian lie inside the walls at ``DELTA_MARGIN`` with
    ``I2`` above ``DELTA_POS``; the values of ``I2`` itself, which decide
    that, only inside the walls.  Run on reachable levels at gamma 2 and on
    a search that gives up at gamma 7/5."""
    gamma = "2" if reachable else "7/5"
    spec = spec_for(family, gamma)
    inside = {"values": [], "jacobians": []}

    def check(kind, coords, walls_only):
        batch = PhaseBatch.from_arrays(*(np.atleast_1d(c) for c in coords))
        if walls_only:
            mask = wall_mask(spec.family, (batch.q1, batch.q2), DELTA_MARGIN)
        else:
            mask = domain_mask(spec, batch, DELTA_MARGIN)
        inside[kind].append(bool(mask.all()))

    def checked(obs, walls_only=False):
        def fn(*coords):
            if not isinstance(coords[0], Traced):
                check("values", coords, walls_only)
            return obs.fn(*coords)

        return Observable(fn, obs.label)

    def checked_code(obs):
        code = compile_code(obs)

        def run(*coords):
            check("jacobians", coords, walls_only=False)
            return code(*coords)

        return run

    compile_code = levels._batch_code
    x_plus, x_minus, x_real, y_real = higher_integral_observables(spec)
    monkeypatch.setattr(levels, "_batch_code", checked_code)
    monkeypatch.setattr(levels, "hamiltonian_observable",
                        lambda s: checked(hamiltonian_observable(s)))
    monkeypatch.setattr(levels, "second_integral_observable",
                        lambda s: checked(second_integral_observable(s), walls_only=True))
    monkeypatch.setattr(levels, "higher_integral_observables",
                        lambda s: (x_plus, x_minus, checked(x_real), checked(y_real)))
    if reachable:
        solve_levels(spec, "X", _levels_at(spec, SEED_POINTS[family]))
    else:
        sym_name, targets = GIVE_UPS[family]
        with pytest.raises(NoSolution, match="best residual"):
            solve_levels(spec, sym_name, targets)
    assert inside["values"] and inside["jacobians"]
    assert all(inside["values"]) and all(inside["jacobians"])


def _min_norm_step(jac, f):
    return np.linalg.pinv(np.array(jac)) @ -np.array(f)


def test_gauss_newton_step_is_the_minimum_norm_step(monkeypatch):
    """Rows of independent gradients, however unequal in scale, are solved
    in closed form (no pseudo-inverse is taken) and give the minimum-norm
    solution of ``J s = -f``, as a near-dependent pair above the floor
    does.  The reference is the SVD of the rows scaled to unit norm, which
    has the same solution and keeps the SVD accurate.  The adjugate loses
    about ``log10(1 / det G)`` digits, six in the near-dependent case."""
    rng = np.random.default_rng(3)
    cases = []
    for _ in range(50):
        jac = rng.normal(size=(3, 4)) * np.array([[1.0], [1e-3], [1e8]])
        cases.append((jac, rng.normal(size=3)))
    near = rng.normal(size=(3, 4))
    near[2] = near[0] + 1e-3 * rng.normal(size=4)  # det G about 1e-6
    cases.append((near, rng.normal(size=3)))
    norms = [np.linalg.norm(jac, axis=1) for jac, _ in cases]
    expected = [_min_norm_step(jac / n[:, None], f / n) for (jac, f), n in zip(cases, norms)]
    monkeypatch.setattr(np.linalg, "pinv", None)
    for (jac, f), n, want in zip(cases, norms, expected):
        step = np.array(levels._gauss_newton_step(jac.tolist(), f.tolist()))
        np.testing.assert_allclose(step, want, rtol=1e-8, atol=0)
        scale = n * np.linalg.norm(step) + np.abs(f)
        assert np.all(np.abs(jac @ step + f) <= 1e-10 * scale)


@pytest.mark.parametrize("case", ["equal", "proportional", "near", "zero"])
def test_gauss_newton_step_falls_back_to_the_pseudo_inverse(case):
    """When ``J J^T`` is numerically singular (its determinant, with unit
    rows, at most ``GRAM_FLOOR``) the step is ``-pinv(J) f``: the
    least-squares step of least norm."""
    rng = np.random.default_rng(4)
    jac = rng.normal(size=(3, 4))
    jac[2] = {"equal": jac[0], "proportional": -3.0 * jac[1],
              "near": jac[0] + 1e-5 * rng.normal(size=4), "zero": 0.0}[case]
    f = rng.normal(size=3)
    step = levels._gauss_newton_step(jac.tolist(), f.tolist())
    assert step == _min_norm_step(jac, f).tolist()


def test_gauss_newton_step_refuses_a_non_finite_jacobian():
    jac = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, math.inf, 0.0]]
    assert levels._gauss_newton_step(jac, [1.0, 1.0, 1.0]) is None
    jac[2][2] = math.nan
    assert levels._gauss_newton_step(jac, [1.0, 1.0, 1.0]) is None
