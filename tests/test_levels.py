"""Batched level search: levels found again, determinism, lane isolation."""

import itertools
import math
import re

import numpy as np
import pytest

from superfact import (
    DELTA_POS,
    DomainError,
    Family,
    NoSolution,
    PhasePoint,
    SuperfactError,
    default_box,
    domain_check,
    gradient,
    hamiltonian,
    higher_integral,
    second_integral,
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
    assert search.lane_retries == 0
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
    assert search.lane_retries == 0
    assert residual <= LEVEL_TOLERANCE
    np.testing.assert_allclose(
        _levels_at(spec, PhasePoint(*z)), targets, rtol=1e-8, atol=1e-8
    )


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_energy_below_floor_reports_best_residual(family):
    spec = spec_for(family, "2")
    _, i2, x = _levels_at(spec, SEED_POINTS[family])
    g = spec.gamma.value
    floor = {
        "euclidean": g * g * i2,
        "sphere": g * g * i2 - 0.5,
        "ttw": 2 * g * math.sqrt(i2),
    }[family]
    with pytest.raises(NoSolution, match="no phase point matches") as info:
        solve_levels(spec, "X", [floor - 1.0, i2, x])
    best = float(re.search(r"best residual (\S+)\)", str(info.value)).group(1))
    assert LEVEL_TOLERANCE < best < math.inf


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


def test_singular_lane_retried_alone():
    spec = spec_for("euclidean", "1")
    lv = levels._Levels(spec, "X", np.zeros(3))
    z = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.2, 0.3, 0.4], [0.5, 0.2, 0.3, 0.4]])

    def fn(obs, batch):
        if (batch.q1 == 0).any():
            raise DomainError("singular denominator in observable evaluation")
        return batch.q1.real[None]

    out = lv._evaluate(fn, z, 1)
    assert lv.retries == 3
    np.testing.assert_array_equal(out[:, 0, 0], [0.1] * 3)
    assert np.isnan(out[:, 0, 1]).all()
    np.testing.assert_array_equal(out[:, 0, 2], [0.5] * 3)
