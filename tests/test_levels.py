"""Level search: levels found again, determinism, floors and ceiling, domain guards,
the wall refusal and a survey of levels that real points attain."""

import math
import re

import numpy as np
import pytest

from superfact import (
    DELTA_MARGIN,
    NoSolution,
    PhaseBatch,
    PhasePoint,
    default_box,
    domain_check,
    domain_mask,
    eval_batch,
    factor_pairs,
    hamiltonian,
    hamiltonian_observable,
    higher_integral_observables,
    sample_points,
    second_integral,
    second_integral_observable,
)
from superfact import factorization, levels
from superfact.levels import LEVEL_TOLERANCE, solve_levels
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


@pytest.mark.parametrize("gamma", ["1", "3/2"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_levels_found_again(family, gamma):
    spec = spec_for(family, gamma)
    targets = _levels_at(spec, SEED_POINTS[family])
    z, residual, search = solve_levels(spec, "X", targets)
    assert residual <= LEVEL_TOLERANCE
    found = _levels_at(spec, PhasePoint(*z))
    np.testing.assert_allclose(found, targets, rtol=1e-8, atol=1e-8)
    assert search.splits == 1


def test_repeat_calls_bit_identical():
    spec = spec_for("ttw", "3/2")
    targets = _levels_at(spec, SEED_POINTS["ttw"])
    z1, r1, _ = solve_levels(spec, "X", targets)
    z2, r2, _ = solve_levels(spec, "X", targets)
    assert z1.tobytes() == z2.tobytes()
    assert r1 == r2


@pytest.mark.parametrize(
    "family, options, targets, wall",
    [
        # Levels of sampled points of degenerate specs, a sector level within
        # 0.05 of its floor: the first two split points lie in a wall's band.
        ("sphere", {"omega": 1e-5},
         [0.4111370975677245, 0.04508798577619094, 0.12842803791661292], "xi = pi/2"),
        ("ttw", {"alpha": 0.0, "beta": 0.0},
         [0.36648616102174103, 0.029966395119320765, 0.020709550055863245], "theta = 0"),
    ],
)
def test_invalid_splits_skipped(family, options, targets, wall):
    spec = spec_for(family, "1", **options)
    z, residual, search = solve_levels(spec, "X", targets)
    assert search.splits == 3
    assert residual <= LEVEL_TOLERANCE
    np.testing.assert_allclose(
        _levels_at(spec, PhasePoint(*z)), targets, rtol=1e-8, atol=1e-8
    )
    guarded = levels._Levels(spec, "X", tuple(targets))
    skipped = [guarded.at(factorization.inverse_chart(spec, *targets[:2], *split))
               for split in list(levels._splits(spec, "X", targets))[:2]]
    assert skipped == [f"within 0.05 of the wall {wall}"] * 2


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


# Levels of real points on which the former Gauss-Newton search gave up
# at every start, all at gamma 7/5: the sphere and TTW ones from the survey
# below, the plane's those of the point (5.5662595344208405,
# 4.513778288034487, 5.653401917128203, -3.332357280626887), outside the
# default box.
GIVE_UPS = {
    "euclidean": ("X", [62.5527565137618, 23.88436570108292, 42400190.89001757]),
    "sphere": ("X", [138.21881396497304, 4.422081754914755, -886758304.8930755]),
    "ttw": ("X", [491.3070229482648, 59.492009964912086, 1.514156547117554e+23]),
}


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_former_give_ups_are_found(family):
    spec = spec_for(family, "7/5")
    sym_name, targets = GIVE_UPS[family]
    z, residual, search = solve_levels(spec, sym_name, targets)
    assert residual <= LEVEL_TOLERANCE
    assert search.splits >= 1
    _, _, x_real, y_real = higher_integral_observables(spec)
    point = PhasePoint(*z)
    found = [hamiltonian(spec, point), second_integral(spec, point),
             (x_real if sym_name == "X" else y_real)(point).real]
    scale = 1 + np.abs(targets)
    assert np.all(np.abs(np.array(found) - targets) <= LEVEL_TOLERANCE * scale)


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_unreachable_levels_report_best_residual(family):
    """Levels below the ceiling that no double-precision point meets: at
    ``I2 = 1e6`` and ``H`` ``1e4`` above its floor, ``R`` is about
    ``1e29`` at gamma 7/5, so ``X`` rounds by far more than the tolerance
    of ``X = 1``.  Every split point passes the guards and misses."""
    spec = spec_for(family, "7/5")
    targets = [factorization._energy_floor(spec, 1e6) + 1e4, 1e6, 1.0]
    assert levels._above_ceiling(spec, "X", np.array(targets)) is None
    with pytest.raises(NoSolution, match="no phase point matches") as info:
        solve_levels(spec, "X", targets)
    best = float(re.search(r"best residual (\S+)\)", str(info.value)).group(1))
    assert LEVEL_TOLERANCE < best < math.inf
    assert info.value.search.splits == 2 * levels.SHIFT_PHASES


# Levels of the TTW 3/2 point (1, atan(sqrt(700)), 0, 0.01) at alpha 0.001,
# beta 0.7: 1e-4 above the sector floor, so theta stays near the minimum of
# the angular potential, 0.0378 from the wall theta = pi/2.
NEAR_WALL = ([2.10587725, 0.491501, 6.522747723267012e-10], {"alpha": 0.001, "beta": 0.7})


def test_levels_inside_the_margin_band_name_the_wall():
    targets, options = NEAR_WALL
    spec = spec_for("ttw", "3/2", **options)
    splits = 2 * levels.SHIFT_PHASES
    message = (f"no phase point matches the requested levels: each of the {splits} split "
               f"points tried fails a domain guard: {splits} within 0.05 of the wall "
               f"theta = pi/2")
    with pytest.raises(NoSolution) as info:
        solve_levels(spec, "X", targets)
    assert str(info.value) == message
    assert info.value.search.splits == splits
    # The point itself lies in the band.
    point = PhasePoint(1.0, math.atan(math.sqrt(700)), 0.0, 0.01)
    assert not domain_check(spec, point)
    np.testing.assert_allclose(_levels_at(spec, point), targets, rtol=1e-8)


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
    assert info.value.search.splits == 0


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
    return (factorization._ladder_square(spec, i2) ** (n / 2)
            * factorization._shift_square(spec, h, i2) ** (m / 2))


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
    assert info.value.search.splits == 0


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
    _, sector = factorization._sector_floor(spec)
    near_floor = sector + 1e-3
    cases = (  # (i2, energy above its floor, sign of the I2 offsets)
        (10.0, 1.0, (0.0, -1.0)),
        (near_floor, 10.0, (1.0,)),
    )
    for i2, above, signs in cases:
        h = factorization._energy_floor(spec, i2) + above
        slack_h, slack_i2 = (LEVEL_TOLERANCE * (1 + v) for v in (h, i2))
        for sign in signs:
            level = _ceiling(spec, h + 0.9 * slack_h, i2 + sign * 0.9 * slack_i2)
            assert level - LEVEL_TOLERANCE * (1 + level) > _ceiling(spec, h, i2)
            assert levels._above_ceiling(spec, "X", np.array([h, i2, level])) is None


@pytest.mark.parametrize("family", ["euclidean", "sphere"])
def test_a_level_within_the_tolerance_above_a_small_ceiling_is_met(family):
    """At the point (0.01, 0.01, 0.01, 0.01), ``R`` is about 8e-7: the band
    of ``H`` and ``I2`` widens it by far less than the level's own slack
    ``tol (1 + |X|)``.  A level ``tol/2`` above ``R`` is met at ``psi = 0``,
    so the ceiling must not refuse it."""
    spec = spec_for(family, "2")
    point = PhasePoint(0.01, 0.01, 0.01, 0.01)
    h, i2, _ = _levels_at(spec, point)
    level = _ceiling(spec, h, i2) * (1 + 0.5 * LEVEL_TOLERANCE) + 0.5 * LEVEL_TOLERANCE
    assert levels._above_ceiling(spec, "X", np.array([h, i2, level])) is None
    z, residual, search = solve_levels(spec, "X", [h, i2, level])
    assert residual <= LEVEL_TOLERANCE and search.splits == 1


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
    floor = np.array([factorization._energy_floor(spec, v) for v in i2])
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

    energy = np.array([factorization._energy_floor(spec, v) for v in i2])
    _, sector = factorization._sector_floor(spec)
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
    _, sector = factorization._sector_floor(spec)
    energy = factorization._energy_floor(spec, i2 - LEVEL_TOLERANCE * (1 + abs(i2)))

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


def test_y_levels_try_the_mirror_branch_pi_minus_psi():
    """Levels of a sampled TTW 1 point whose first split point lies in the
    band of the wall theta = 0: the second split, the branch ``pi -
    arcsin(Y/R)`` at ``phi_A = 0``, meets them."""
    spec = spec_for("ttw", "1")
    targets = [117.06752642405539, 357.386504371965, 13.42300977499282]
    z, residual, search = solve_levels(spec, "Y", targets)
    assert search.splits == 2 and residual <= LEVEL_TOLERANCE
    y_plus = higher_integral_observables(spec)[3]
    assert y_plus(PhasePoint(*z)).real == pytest.approx(targets[2], rel=1e-9)
    first = next(levels._splits(spec, "Y", targets))
    guarded = levels._Levels(spec, "Y", tuple(targets))
    assert guarded.at(factorization.inverse_chart(spec, *targets[:2], *first)) == (
        "within 0.05 of the wall theta = 0")


def test_splits_cover_one_turn_of_the_shift_phase_densely():
    """Levels on the degenerate sphere (omega 1e-5, gamma 2/3) with the
    sector level 1e-5 and the energy 1 above their floors and ``X`` at 0.99
    of the ceiling.  Along the level curve ``phi_A = 3t``, ``phi_B = psi/3 -
    2t``, only narrow arcs around ``t = (2j + 1) pi / 6`` clear the walls'
    bands.  The ninth split (``k = 4``, ``t = pi/6``) meets the levels;
    16 splits spread over the three turns of ``phi_A`` miss every arc."""
    spec = spec_for("sphere", "2/3", omega=1e-5)
    targets = [1.0000044444444445, 1.00001125e-05, 3.1306548835666975e-08]
    z, residual, search = solve_levels(spec, "X", targets)
    assert search.splits == 9 and residual <= LEVEL_TOLERANCE
    scale = 1 + np.abs(targets)
    found = _levels_at(spec, PhasePoint(*z))
    assert np.all(np.abs(found - targets) <= LEVEL_TOLERANCE * scale)


def test_levels_below_the_positivity_floor_name_the_guard():
    """On the sphere at omega 1e-5 the sector floor is 5e-11, so a sector
    level of 5e-9 lies above it and below ``DELTA_POS``: every split point
    clears the walls and fails the positivity guard."""
    spec = spec_for("sphere", "1", omega=1e-5)
    targets = [factorization._energy_floor(spec, 5e-9) + 1e-10, 5e-9, 0.0]
    splits = 2 * levels.SHIFT_PHASES
    with pytest.raises(NoSolution) as info:
        solve_levels(spec, "X", targets)
    assert str(info.value).endswith(
        f"each of the {splits} split points tried fails a domain guard: "
        f"{splits} with the sector integral not above 1e-08")


@pytest.mark.parametrize("family, case", [
    ("euclidean", "reachable"), ("sphere", "reachable"), ("ttw", "reachable"),
    ("ttw", "near wall"),
])
def test_search_evaluates_h_and_the_symmetry_only_past_the_guards(family, case, monkeypatch):
    """Every value the search takes lies inside the walls at
    ``DELTA_MARGIN``, and every value of ``H`` and the symmetry inside
    ``domain_mask`` there, with ``I2`` above ``DELTA_POS``.  Run on the
    reachable levels of each family's seed point at gamma 3/2, and on
    levels whose every split point lies in the margin band, where nothing
    past the walls runs."""
    if case == "reachable":
        spec = spec_for(family, "3/2")
        targets = _levels_at(spec, SEED_POINTS[family])
    else:
        targets, options = NEAR_WALL
        spec = spec_for(family, "3/2", **options)
    states = {"walls": [], "domain": []}
    sector_label = second_integral_observable(spec).label

    def checked_code(obs):
        code = compile_code(obs)

        def run(*coords):
            batch = PhaseBatch.from_arrays(*(np.atleast_1d(c) for c in coords))
            if obs.label == sector_label:
                mask = wall_mask(spec.family, (batch.q1, batch.q2), DELTA_MARGIN)
                states["walls"].append(bool(mask.all()))
            else:
                states["domain"].append(bool(domain_mask(spec, batch, DELTA_MARGIN).all()))
            return code(*coords)

        return run

    compile_code = levels.compiled_gradient
    monkeypatch.setattr(levels, "compiled_gradient", checked_code)
    if case == "reachable":
        solve_levels(spec, "X", targets)
        assert states["walls"] == [True] and states["domain"] == [True, True]
    else:
        with pytest.raises(NoSolution, match="of the wall theta = pi/2"):
            solve_levels(spec, "X", targets)
        assert states == {"walls": [], "domain": []}


def _survey(spec, batch):
    """Solve the ``X`` and ``Y`` levels of every point of ``batch``; return
    the refusals or misses, and the largest residual of the points found."""
    h, i2 = _h_and_i2(spec, batch)
    _, _, x_real, y_real = higher_integral_observables(spec)
    failed, worst = [], 0.0
    for sym_name, obs in (("X", x_real), ("Y", y_real)):
        for targets in zip(h, i2, eval_batch(obs, batch).real):
            try:
                _, residual, _ = solve_levels(spec, sym_name, targets)
            except NoSolution as exc:
                failed.append((sym_name, targets, str(exc)))
                continue
            worst = max(worst, residual)
    return failed, worst


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_survey_of_real_levels_finds_every_point(family):
    """The ``X`` and ``Y`` levels of the 30 points of ``sample_points(spec,
    default_box(spec), 30, 11)`` at gamma 1, 2, 1/2, 3/2, 2/3 and 7/5 (TTW
    at alpha 1.1, beta 0.7): 360 requests per family, 1080 in all.  A real
    point attains each, so a refusal or a miss is a fault."""
    for gamma in ("1", "2", "1/2", "3/2", "2/3", "7/5"):
        spec = spec_for(family, gamma)
        failed, worst = _survey(spec, sample_points(spec, default_box(spec), 30, 11))
        assert failed == [] and worst <= LEVEL_TOLERANCE, gamma


@pytest.mark.parametrize("gamma", ["7/5", "5/3"])
def test_survey_of_wide_box_plane_levels_finds_every_point(gamma):
    """The ``X`` and ``Y`` levels of 111 points uniform in ``[-15, 15]^4``
    (ten times the default box; numpy seed 3), where ``|X+|`` reaches 5e12."""
    spec = spec_for("euclidean", gamma)
    coords = np.random.default_rng(3).uniform(-15.0, 15.0, size=(111, 4))
    failed, worst = _survey(spec, PhaseBatch.from_arrays(*coords.T))
    assert failed == [] and worst <= LEVEL_TOLERANCE
