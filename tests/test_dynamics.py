"""Flow integration, drift auditing, and closed-orbit detection."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import superfact
from superfact import dynamics
from superfact import (
    DomainBreach,
    DomainError,
    InsufficientSpan,
    IntegratorControls,
    PhasePoint,
    StepFailure,
    Trajectory,
    detect_closure,
    drift_report,
    hamilton_rhs,
    hamiltonian,
    integrate,
)

from _oracles import fd_partial, spec_for

TWO_PI = 2 * math.pi


def _flat_hamiltonian_fn(spec):
    return lambda q1, q2, p1, p2: hamiltonian(spec, PhasePoint(q1, q2, p1, p2))


# ---------- vector field ----------


def test_rhs_frozen_euclid():
    spec = spec_for("euclidean", "1")
    np.testing.assert_allclose(
        hamilton_rhs(spec, PhasePoint(1.0, 0.0, 0.0, 0.0)), [0.0, 0.0, -1.0, 0.0]
    )
    spec2 = spec_for("euclidean", "2")
    np.testing.assert_allclose(
        hamilton_rhs(spec2, PhasePoint(0.0, 0.0, 0.5, 1.0)), [2.0, 1.0, 0.0, 0.0]
    )


def test_rhs_equilibria():
    sphere = spec_for("sphere", "1")
    np.testing.assert_allclose(
        hamilton_rhs(sphere, PhasePoint(0.0, 0.0, 0.0, 0.0)), np.zeros(4), atol=1e-15
    )
    ttw = spec_for("ttw", "1", alpha=1.0, beta=1.0)
    circular = PhasePoint(math.sqrt(2.0), math.pi / 4, 0.0, 0.0)
    np.testing.assert_allclose(hamilton_rhs(ttw, circular), np.zeros(4), atol=1e-14)


@pytest.mark.parametrize(
    "family,point",
    [
        ("euclidean", PhasePoint(0.7, -0.4, 0.3, 0.9)),
        ("sphere", PhasePoint(0.5, -0.3, 0.8, 0.2)),
        ("ttw", PhasePoint(1.2, 0.8, -0.4, 0.6)),
    ],
)
def test_rhs_matches_finite_differences(family, point):
    spec = spec_for(family, "3/2")
    fn = _flat_hamiltonian_fn(spec)
    coords = (point.q1, point.q2, point.p1, point.p2)
    grad = [fd_partial(fn, coords, k) for k in range(4)]
    expected = np.array([grad[2], grad[3], -grad[0], -grad[1]], dtype=float)
    rhs = hamilton_rhs(spec, point)
    np.testing.assert_allclose(rhs, expected, rtol=1e-6, atol=1e-7)


def test_rhs_rejects_outside_domain():
    with pytest.raises(DomainError):
        hamilton_rhs(spec_for("sphere", "1"), PhasePoint(1.6, 0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        hamilton_rhs(spec_for("ttw", "1"), PhasePoint(-0.5, 0.7, 0.0, 0.0))


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_rhs_at_non_finite_states_returns_a_row(family):
    rhs = dynamics._rhs_function(spec_for(family, "3/2"))
    for k in range(4):
        for bad in (math.inf, -math.inf, math.nan):
            y = np.array([1.2, 0.6, 0.3, -0.4])
            y[k] = bad
            assert rhs(0.0, y).shape == (4,)
    # math.cos has no value at infinity: the unevaluable state is the NaN row.
    row = dynamics._rhs_function(spec_for("sphere", "1"))(
        0.0, np.array([math.inf, 0.6, 0.3, -0.4])
    )
    assert np.isnan(row).all()


def test_rhs_at_ttw_origin_is_the_nan_row():
    rhs = dynamics._rhs_function(spec_for("ttw", "3/2"))
    assert np.isnan(rhs(0.0, np.array([0.0, 0.7, 0.1, 0.2]))).all()


def test_rhs_function_is_compiled_once_per_spec():
    first = dynamics._rhs_function(spec_for("ttw", "2/3"))
    assert dynamics._rhs_function(spec_for("ttw", "2/3")) is first
    assert dynamics._rhs_function(spec_for("ttw", "3/2")) is not first


_SOURCE_SCRIPT = """
import re
from superfact import Family, RationalGamma, SystemSpec
from superfact.phase import compiled_gradient
from superfact.systems import hamiltonian_observable

for spec in (
    SystemSpec(Family.EUCLIDEAN, 1.0, RationalGamma(3, 2)),
    SystemSpec(Family.SPHERE, 1.0, RationalGamma(2, 3)),
    SystemSpec(Family.TTW, 1.0, RationalGamma(7, 5), alpha=1.1, beta=0.7),
):
    grad = compiled_gradient(hamiltonian_observable(spec))
    print(grad.source)
    print([(k, repr(v)) for k, v in grad.__globals__.items() if re.fullmatch("c[0-9]+", k)])
"""


def test_rhs_compiled_source_is_deterministic():
    src = str(Path(superfact.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _SOURCE_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("def gradient") == 3


# ---------- flows with known solutions ----------


def test_unit_ratio_orbit_returns_after_one_period():
    spec = spec_for("euclidean", "1")
    initial = PhasePoint(0.3, -0.2, 0.4, 0.1)
    traj = integrate(spec, initial, TWO_PI)
    assert traj.t[0] == 0.0 and traj.t[-1] == TWO_PI
    np.testing.assert_allclose(traj.states[-1], initial.as_array(), atol=1e-8)


def test_lissajous_closed_form():
    spec = spec_for("euclidean", "2")
    traj = integrate(spec, PhasePoint(0.0, 0.0, 0.5, 1.0), TWO_PI)
    t = traj.t
    expected = np.column_stack(
        [np.sin(2 * t), np.sin(t), 0.5 * np.cos(2 * t), np.cos(t)]
    )
    np.testing.assert_allclose(traj.states, expected, atol=1e-8)


def test_equilibrium_has_zero_drift():
    spec = spec_for("ttw", "1", alpha=1.0, beta=1.0)
    circular = PhasePoint(math.sqrt(2.0), math.pi / 4, 0.0, 0.0)
    traj = integrate(spec, circular, 3 * math.pi)
    report = drift_report(traj)
    for label in ("H", "I2", "X", "Y"):
        assert report.entry(label).relative_drift <= 1e-12
    with pytest.raises(KeyError):
        report.entry("Z")


def test_drift_shrinks_with_tolerance():
    spec = spec_for("euclidean", "2")
    initial = PhasePoint(0.0, 0.0, 0.5, 1.0)
    coarse = integrate(
        spec,
        initial,
        5 * TWO_PI,
        IntegratorControls(rel_tol=1e-4, abs_tol=1e-8),
    )
    fine = integrate(spec, initial, 5 * TWO_PI)
    d_coarse = drift_report(coarse).entry("H").relative_drift
    d_fine = drift_report(fine).entry("H").relative_drift
    assert d_fine < d_coarse
    assert d_coarse > 1e-10
    assert d_fine < 1e-8


def test_time_reversal_adaptive():
    spec = spec_for("sphere", "2")
    initial = PhasePoint(0.2, -0.15, 0.4, 0.3)
    fwd = integrate(spec, initial, TWO_PI)
    turn = PhasePoint(*fwd.states[-1] * np.array([1.0, 1.0, -1.0, -1.0]))
    back = integrate(spec, turn, TWO_PI)
    recovered = back.states[-1] * np.array([1.0, 1.0, -1.0, -1.0])
    np.testing.assert_allclose(recovered, initial.as_array(), atol=1e-6)


def test_time_reversal_midpoint_is_symmetric():
    spec = spec_for("sphere", "2")
    initial = PhasePoint(0.2, -0.15, 0.4, 0.3)
    controls = IntegratorControls(
        method="midpoint", sample_dt=TWO_PI / 50, fixed_dt=TWO_PI / 500
    )
    fwd = integrate(spec, initial, TWO_PI, controls)
    turn = PhasePoint(*fwd.states[-1] * np.array([1.0, 1.0, -1.0, -1.0]))
    back = integrate(spec, turn, TWO_PI, controls)
    recovered = back.states[-1] * np.array([1.0, 1.0, -1.0, -1.0])
    np.testing.assert_allclose(recovered, initial.as_array(), atol=1e-8)


def test_midpoint_tracks_closed_form():
    spec = spec_for("euclidean", "2")
    controls = IntegratorControls(
        method="midpoint", sample_dt=TWO_PI / 100, fixed_dt=TWO_PI / 2000
    )
    traj = integrate(spec, PhasePoint(0.0, 0.0, 0.5, 1.0), TWO_PI, controls)
    t = traj.t
    expected = np.column_stack(
        [np.sin(2 * t), np.sin(t), 0.5 * np.cos(2 * t), np.cos(t)]
    )
    np.testing.assert_allclose(traj.states, expected, atol=1e-3)
    assert drift_report(traj).entry("H").relative_drift <= 1e-4


# ---------- sampling grid ----------


def test_sample_grid_multiples_plus_endpoint():
    spec = spec_for("euclidean", "1")
    traj = integrate(
        spec, PhasePoint(0.1, 0.0, 0.0, 0.1), 1.0, IntegratorControls(sample_dt=0.3)
    )
    np.testing.assert_allclose(traj.t, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)
    exact = integrate(
        spec, PhasePoint(0.1, 0.0, 0.0, 0.1), 1.0, IntegratorControls(sample_dt=0.25)
    )
    np.testing.assert_allclose(exact.t, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)


# ---------- validation and failure modes ----------


def test_controls_validation():
    with pytest.raises(ValueError):
        IntegratorControls(method="leapfrog")
    with pytest.raises(ValueError):
        IntegratorControls(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorControls(abs_tol=-1e-9)
    with pytest.raises(ValueError):
        IntegratorControls(sample_dt=-1.0)
    with pytest.raises(ValueError):
        IntegratorControls(fixed_dt=0.0)
    with pytest.raises(ValueError):
        IntegratorControls(breach_margin=0.0)


def test_integrate_requires_positive_horizon():
    spec = spec_for("euclidean", "1")
    with pytest.raises(ValueError):
        integrate(spec, PhasePoint(0.1, 0.0, 0.0, 0.1), 0.0)
    with pytest.raises(ValueError):
        integrate(spec, PhasePoint(0.1, 0.0, 0.0, 0.1), -1.0)


def test_immediate_breach():
    spec = spec_for("sphere", "1")
    hot = PhasePoint(math.pi / 2 - 0.01, 0.0, 0.0, 0.0)
    with pytest.raises(DomainBreach) as exc_info:
        integrate(spec, hot, 1.0)
    breach = exc_info.value
    assert breach.time == 0.0
    assert breach.state == hot
    traj = breach.trajectory
    assert len(traj) == 0
    assert traj.states.shape == (0, 4)
    assert traj.initial == hot
    assert traj.rhs_evaluations == 0


def test_midrun_breach_adaptive():
    spec = spec_for("sphere", "1")
    fast = PhasePoint(0.0, 0.0, 45.0, 0.0)
    with pytest.raises(DomainBreach) as exc_info:
        integrate(spec, fast, 1.0)
    breach = exc_info.value
    assert 0.0 < breach.time < 0.1
    traj = breach.trajectory
    assert traj is not None and len(traj) >= 2
    assert np.all(np.diff(traj.t) > 0)
    assert traj.t[-1] == pytest.approx(breach.time, abs=1e-12)
    wall = math.pi / 2 - 0.025  # default breach margin is half the sampling one
    assert breach.state.q1 == pytest.approx(wall, abs=1e-6)


def test_midrun_breach_midpoint():
    spec = spec_for("sphere", "1")
    controls = IntegratorControls(method="midpoint", breach_margin=0.5, fixed_dt=0.002)
    with pytest.raises(DomainBreach) as exc_info:
        integrate(spec, PhasePoint(0.0, 0.0, 2.0, 0.0), 3.0, controls)
    breach = exc_info.value
    assert breach.time > 0.0
    assert breach.trajectory is not None
    assert breach.state.q1 >= math.pi / 2 - 0.5 - 1e-9


@pytest.mark.parametrize(
    "family,start,wall",
    [("sphere", (0.0, 0.0, 2.0, 0.0), "xi = pi/2"), ("ttw", (1.0, 0.7, -4.0, 0.0), "r = 0")],
)
def test_both_integrators_name_the_same_wall(family, start, wall):
    spec = spec_for(family, "1")
    for method in dynamics.METHODS:
        controls = IntegratorControls(method=method, breach_margin=0.5, fixed_dt=0.002)
        with pytest.raises(DomainBreach) as exc_info:
            integrate(spec, PhasePoint(*start), 3.0, controls)
        assert str(exc_info.value).endswith(f": wall {wall}"), method


@pytest.mark.parametrize("method", ["dop853", "midpoint"])
def test_trajectory_counts_rhs_evaluations(monkeypatch, method):
    calls = []
    compiled = dynamics._rhs_function

    def counting(spec):
        rhs = compiled(spec)

        def counted(t, y):
            calls.append(t)
            return rhs(t, y)

        return counted

    monkeypatch.setattr(dynamics, "_rhs_function", counting)
    spec = spec_for("ttw", "3/2")
    controls = IntegratorControls(method=method, fixed_dt=0.01)
    traj = integrate(spec, PhasePoint(1.2, 0.8, -0.4, 0.6), 2.0, controls)
    assert traj.rhs_evaluations == len(calls) > 0


def test_step_failure_midpoint_giant_step():
    spec = spec_for("sphere", "1")
    controls = IntegratorControls(method="midpoint", sample_dt=10.0, fixed_dt=10.0)
    with pytest.raises(StepFailure):
        integrate(spec, PhasePoint(0.3, 0.2, 1.5, -0.8), 10.0, controls)


# ---------- closure detection ----------


def test_closure_circle():
    spec = spec_for("euclidean", "1")
    traj = integrate(spec, PhasePoint(1.0, 0.0, 0.0, 1.0), 2 * TWO_PI)
    result = detect_closure(traj)
    assert result.closed
    assert result.period == pytest.approx(TWO_PI, abs=1e-6)
    assert result.return_distance <= 1e-4


def test_closure_lissajous():
    spec = spec_for("euclidean", "2")
    traj = integrate(spec, PhasePoint(0.0, 0.0, 0.5, 1.0), 2 * TWO_PI)
    result = detect_closure(traj)
    assert result.closed
    assert result.period == pytest.approx(TWO_PI, abs=1e-6)


def test_closure_equilibrium():
    spec = spec_for("ttw", "1", alpha=1.0, beta=1.0)
    circular = PhasePoint(math.sqrt(2.0), math.pi / 4, 0.0, 0.0)
    traj = integrate(spec, circular, math.pi)
    result = detect_closure(traj)
    assert result.closed
    assert result.period is None
    assert result.return_distance <= 1e-10


def test_closure_needs_enough_span():
    spec = spec_for("euclidean", "1")
    traj = integrate(spec, PhasePoint(1.0, 0.0, 0.0, 1.0), 2.0)
    with pytest.raises(InsufficientSpan):
        detect_closure(traj)


def test_closure_argument_validation():
    spec = spec_for("euclidean", "1")
    traj = integrate(spec, PhasePoint(1.0, 0.0, 0.0, 1.0), 2 * TWO_PI)
    with pytest.raises(ValueError):
        detect_closure(traj, eps=0.0)
    stub = Trajectory(
        t=np.zeros(1),
        states=np.zeros((1, 4)),
        energy=np.zeros(1),
        second=np.zeros(1),
        sym_x=np.zeros(1),
        sym_y=np.zeros(1),
        spec=spec,
        initial=PhasePoint(0.0, 0.0, 0.0, 0.0),
        controls=IntegratorControls(),
    )
    with pytest.raises(InsufficientSpan):
        detect_closure(stub)
