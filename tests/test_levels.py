"""Batched level search: levels found again, determinism, domain-masked batches."""

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
    higher_integral,
    sample_points,
    second_integral,
    second_integral_observable,
)
from superfact import levels
from superfact.levels import LEVEL_TOLERANCE, solve_levels

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
            higher_integral(spec, point).x_real,
        ]
    )


def _reference_search(spec, targets):
    """Start-by-start damped Gauss-Newton on scalar evaluations: the loop
    the batched search must agree with.  Returns ``(start index, z)``."""
    h, i2, x = levels._Levels(spec, "X", targets).observables
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
    """Levels that pass both floors but that no start reaches: ``H`` and
    ``I2`` of the family's seed point, and ``X`` ten times ``|X+|`` there."""
    point = SEED_POINTS[family]
    h, i2, _ = _levels_at(spec, point)
    return [h, i2, 10 * abs(higher_integral(spec, point).x_plus)]


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_unreachable_levels_report_best_residual(family):
    spec = spec_for(family, "2")
    with pytest.raises(NoSolution, match="no phase point matches") as info:
        solve_levels(spec, "X", _unreachable(spec, family))
    best = float(re.search(r"best residual (\S+)\)", str(info.value)).group(1))
    assert LEVEL_TOLERANCE < best < math.inf


# Block sizes of the two-block search: one lane first, the default, and one
# block of all 81 starts (a single batch).
BLOCKS = (1, levels.FIRST_BLOCK, 81)


def _by_block(monkeypatch, run):
    """``run()`` once per block size of :data:`BLOCKS`."""
    out = []
    for block in BLOCKS:
        monkeypatch.setattr(levels, "FIRST_BLOCK", block)
        out.append(run())
    return out


@pytest.mark.parametrize(
    "family, gamma, sym_name, point, start",
    [
        ("euclidean", "2", "X", SEED_POINTS["euclidean"], None),
        ("sphere", "2", "X", SEED_POINTS["sphere"], None),
        ("ttw", "2", "X", SEED_POINTS["ttw"], None),
        # Won by a start after the first, inside and after the default block.
        ("ttw", "7/5", "Y", PhasePoint(0.8, 1.3, 0.5, -1.3), 5),
        ("ttw", "7/5", "Y", PhasePoint(0.774, 1.292, 0.456, -1.257), 17),
    ],
)
def test_block_size_leaves_found_point_unchanged(
    family, gamma, sym_name, point, start, monkeypatch
):
    spec = spec_for(family, gamma)
    hi = higher_integral(spec, point)
    targets = [hamiltonian(spec, point), second_integral(spec, point),
               hi.x_real if sym_name == "X" else hi.y_real]

    def run():
        z, residual, search = solve_levels(spec, sym_name, targets)
        return z.tobytes(), residual, search.winning_start, search.valid_starts

    results = _by_block(monkeypatch, run)
    assert results[0] == results[1] == results[2]
    if start is not None:
        assert results[0][2] == start


@pytest.mark.parametrize("gamma", ["2", "3/2", "7/5"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_block_size_leaves_failed_search_unchanged(family, gamma, monkeypatch):
    spec = spec_for(family, gamma)
    targets = _unreachable(spec, family)

    def run():
        with pytest.raises(NoSolution, match="best residual") as info:
            solve_levels(spec, "X", targets)
        return str(info.value), info.value.search.valid_starts

    results = _by_block(monkeypatch, run)
    assert results[0] == results[1] == results[2]


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
    spec = spec_for(family, gamma, omega=omega)
    h, i2 = _h_and_i2(spec, sample_points(spec, default_box(spec), 2000, 1))
    refused = [
        (hk, ik) for hk, ik in zip(h, i2)
        if levels._below_floor(spec, np.array([hk, ik, 0.0])) is not None
    ]
    assert refused == []


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
    spec = spec_for(family, "2")
    inside = {"eval_batch": [], "gradient_batch": []}

    def checked(name):
        run = getattr(levels, name)

        def wrapper(obs, batch):
            inside[name].append(bool(domain_mask(spec, batch, DELTA_MARGIN).all()))
            return run(obs, batch)

        return wrapper

    for name in inside:
        monkeypatch.setattr(levels, name, checked(name))
    if reachable:
        solve_levels(spec, "X", _levels_at(spec, SEED_POINTS[family]))
    else:
        with pytest.raises(NoSolution, match="best residual"):
            solve_levels(spec, "X", _unreachable(spec, family))
    assert inside["eval_batch"] and inside["gradient_batch"]
    assert all(inside["eval_batch"]) and all(inside["gradient_batch"])
