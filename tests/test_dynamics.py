"""Flow integration, drift auditing, and closed-orbit detection."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853
from scipy.optimize import brentq

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
    default_box,
    detect_closure,
    drift_report,
    hamiltonian,
    integrate,
    sample_points,
)

from superfact.factorization import orbit_period
from superfact.systems import DELTA_MARGIN, characteristic_period

from _oracles import fd_partial, integrate_adaptive_scipy, spec_for

TWO_PI = 2 * math.pi


def _flat_hamiltonian_fn(spec):
    return lambda q1, q2, p1, p2: hamiltonian(spec, PhasePoint(q1, q2, p1, p2))


def _field(spec, point):
    """The vector field that integrate runs, ``(dq1, dq2, dp1, dp2)`` at one
    point."""
    return np.array(dynamics._rhs_function(spec)(point.q1, point.q2, point.p1, point.p2))


# ---------- vector field ----------


def test_rhs_frozen_euclid():
    spec = spec_for("euclidean", "1")
    np.testing.assert_allclose(
        _field(spec, PhasePoint(1.0, 0.0, 0.0, 0.0)), [0.0, 0.0, -1.0, 0.0]
    )
    spec2 = spec_for("euclidean", "2")
    np.testing.assert_allclose(
        _field(spec2, PhasePoint(0.0, 0.0, 0.5, 1.0)), [2.0, 1.0, 0.0, 0.0]
    )


def test_rhs_equilibria():
    sphere = spec_for("sphere", "1")
    np.testing.assert_allclose(
        _field(sphere, PhasePoint(0.0, 0.0, 0.0, 0.0)), np.zeros(4), atol=1e-15
    )
    ttw = spec_for("ttw", "1", alpha=1.0, beta=1.0)
    circular = PhasePoint(math.sqrt(2.0), math.pi / 4, 0.0, 0.0)
    np.testing.assert_allclose(_field(ttw, circular), np.zeros(4), atol=1e-14)


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
    rhs = _field(spec, point)
    np.testing.assert_allclose(rhs, expected, rtol=1e-6, atol=1e-7)


def test_rhs_rejects_outside_domain():
    """The field runs only from a start inside the walls: integrate refuses
    one outside before it evaluates the field once."""
    for spec, outside in ((spec_for("sphere", "1"), PhasePoint(1.6, 0.0, 0.0, 0.0)),
                          (spec_for("ttw", "1"), PhasePoint(-0.5, 0.7, 0.0, 0.0))):
        with pytest.raises(DomainBreach) as info:
            integrate(spec, outside, 1.0)
        assert info.value.time == 0.0
        assert info.value.trajectory.rhs_evaluations == 0


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_rhs_at_non_finite_states_returns_a_row(family):
    rhs = dynamics._rhs_function(spec_for(family, "3/2"))
    for k in range(4):
        for bad in (math.inf, -math.inf, math.nan):
            y = np.array([1.2, 0.6, 0.3, -0.4])
            y[k] = bad
            assert np.shape(rhs(*y.tolist())) == (4,)
    # math.cos has no value at infinity: the unevaluable state is the NaN row.
    row = dynamics._rhs_function(spec_for("sphere", "1"))(math.inf, 0.6, 0.3, -0.4)
    assert np.isnan(row).all()


def test_rhs_at_ttw_origin_is_the_nan_row():
    rhs = dynamics._rhs_function(spec_for("ttw", "3/2"))
    assert np.isnan(rhs(0.0, 0.7, 0.1, 0.2)).all()


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

from superfact import dynamics
print(dynamics._dop853_source())
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
    assert outputs[0].count("def step") == outputs[0].count("def dense") == 1


# Any import of scipy raises in this interpreter; it prints the exit codes
# of the commands in argv and the scipy modules loaded after them.
_NO_SCIPY_SCRIPT = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is not installed: {name}")

sys.meta_path.insert(0, NoScipy())
import superfact.cli
codes = [superfact.cli.main(argv.split()) for argv in sys.argv[1:]]
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""

_TTW = "integrate --system ttw --gamma {} --alpha {b} --beta {b} --q0 1.0,0.7 --p0={} --t-end 3"
# One run into each wall: the sphere's xi and y, TTW theta = pi/2, theta = 0, r = 0.
_BREACH_RUNS = (
    "integrate --system sphere --gamma 1 --q0 0,0 --p0 45,0 --t-end 3",
    "integrate --system sphere --gamma 1 --q0 0,0 --p0 0,45 --t-end 3",
    _TTW.format(1, "0,3", b=0.05),
    _TTW.format(2, "0,-3", b=0.05),
    _TTW.format(1, "-4,0", b=0.01),
)


def test_no_command_imports_scipy(tmp_path):
    src = str(Path(superfact.__file__).resolve().parents[1])
    commands = [
        "verify --system ttw --gamma 3/2 --alpha 1.1 --beta 0.7 --samples 50",
        "integrate --system euclidean --gamma 2 --q0 1,0 --p0 0,1 --t-end 5",
        "trace --system ttw --gamma 2 --alpha 1.1 --beta 0.7 --energy 12 --second 4 "
        "--symmetry X=1.5 --plane xy",
        *_BREACH_RUNS,
    ]
    run = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT,
         *(f"{argv} --out run{i}" for i, argv in enumerate(commands))],
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0] + [3] * len(_BREACH_RUNS)
    assert result["loaded"] == []


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


def test_relative_drift_divides_by_one_plus_the_modulus_of_the_initial_value():
    """``X(0)`` is negative at this start; every entry's relative drift is
    its drift over ``1 + |Q(0)|``."""
    spec = spec_for("euclidean", "2")
    traj = integrate(spec, PhasePoint(0.5, -0.3, 0.4, 0.7), 2.0,
                     IntegratorControls(rel_tol=1e-4, abs_tol=1e-8))
    report = drift_report(traj)
    assert report.entry("X").initial < -0.05
    for entry in report.entries:
        assert entry.max_drift > 0
        assert entry.relative_drift == entry.max_drift / (1.0 + abs(entry.initial))


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
        IntegratorControls(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorControls(abs_tol=-1e-9)
    with pytest.raises(ValueError):
        IntegratorControls(sample_dt=-1.0)


def test_integrate_refuses_a_sphere_start_below_the_sector_floor():
    """The sphere's sector integral is at least ``omega**2 / (2 gamma**2)``,
    below the floor at a slow enough oscillator."""
    spec = spec_for("sphere", "1", omega=1e-5)
    with pytest.raises(DomainError, match=r"sector integral I2=5e-11 is not above"):
        integrate(spec, PhasePoint(0.0, 0.2, 0.0, 0.3), 1.0)


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


# Specs on which the starts below run into a wall within t = 3: the TTW
# barriers are weak enough for a start to reach r = 0.
BREACH_SPECS = {
    "sphere": spec_for("sphere", "1"),
    "ttw": spec_for("ttw", "1", alpha=0.01, beta=0.01),
}


@pytest.mark.parametrize(
    "family,start,wall",
    [("sphere", (0.0, 0.0, 45.0, 0.0), "xi = pi/2"), ("ttw", (1.0, 0.7, -4.0, 0.0), "r = 0")],
)
def test_both_integrators_name_the_same_wall(family, start, wall):
    with pytest.raises(DomainBreach) as exc_info:
        integrate(BREACH_SPECS[family], PhasePoint(*start), 3.0)
    assert str(exc_info.value).endswith(f": wall {wall}")


def test_trajectory_counts_rhs_evaluations(monkeypatch):
    calls = []
    compiled = dynamics._rhs_function

    def counting(spec):
        rhs = compiled(spec)

        def counted(*y):
            calls.append(y)
            return rhs(*y)

        return counted

    monkeypatch.setattr(dynamics, "_rhs_function", counting)
    spec = spec_for("ttw", "3/2")
    traj = integrate(spec, PhasePoint(1.2, 0.8, -0.4, 0.6), 2.0)
    assert traj.rhs_evaluations == len(calls) > 0


# ---------- the generated DOP853 stepper against scipy ----------


def test_tableau_is_scipys_double_for_double():
    for name in ("A", "B", "E3", "E5", "D", "A_EXTRA"):
        ours, scipys = getattr(dynamics._Tableau, name), getattr(DOP853, name)
        assert ours.shape == scipys.shape, name
        assert np.array_equal(ours, scipys), name
    assert dynamics._dop853_source() == dynamics._dop853_source(DOP853)


def _bracketed(q, root, scale):
    """``f(x) = scale (x - root) q(x)``, ``q`` by Horner from its highest
    coefficient: of degree at most 7 when ``q`` has at most 7 coefficients,
    like DOP853's interpolant."""

    def f(x):
        total = 0.0
        for c in q:
            total = total * x + c
        return scale * (x - root) * total

    return f


@st.composite
def _brackets(draw):
    """``(q, root, a, b, scale)`` of a :func:`_bracketed` ``f`` that changes
    sign on ``[a, b]`` or is zero at an end: the root lies in ``[a, b]``,
    at an end in some draws.  At ``scale = 1e-170`` the extrapolation's
    divisor underflows to zero."""
    a = draw(st.floats(-100, 100))
    b = a + draw(st.floats(1e-9, 10))
    assume(b > a)
    root = draw(st.one_of(st.just(a), st.just(b), st.floats(a, b)))
    q = draw(st.lists(st.floats(-10, 10), min_size=1, max_size=7))
    scale = draw(st.sampled_from((1.0, 1e-170)))
    f = _bracketed(q, root, scale)
    assume(f(a) == 0 or f(b) == 0 or (f(a) < 0) != (f(b) < 0))
    return q, root, a, b, scale


@settings(deadline=None, max_examples=400, derandomize=True)
@given(_brackets())
@example(([-2.0, -1.0], 0.39, 0.0, 1.0, 1.0))  # the bound 3 |sbis| - delta decides
@example(([-2.0, 7.0, 0.0], -4.72, -5.0, -4.5, 1e-170))  # a divisor underflows to 0
def test_brentq_is_scipys_double_for_double(bracket):
    q, root, a, b, scale = bracket
    f = _bracketed(q, root, scale)
    try:
        expected = brentq(f, a, b, xtol=dynamics._EVENT_TOL, rtol=dynamics._EVENT_TOL)
    except RuntimeError:  # no convergence within 100 iterations
        with pytest.raises(RuntimeError):
            dynamics._brentq(f, a, b)
    else:
        assert dynamics._brentq(f, a, b).hex() == expected.hex()


@pytest.mark.parametrize("f", [lambda x: 1.0 + x, lambda x: -x, lambda x: math.nan])
def test_brentq_refuses_ends_without_a_sign_change(f):
    for solver in (brentq, dynamics._brentq):
        with pytest.raises(ValueError):
            solver(f, 1.0, 2.0)


def _both_steppers(spec, start, t_end, controls=IntegratorControls()):
    """:func:`integrate` and the scipy reference on one start, the
    reference given the controls as :func:`integrate` resolves them.
    Returns the :class:`DomainBreach` raised, or ``None``."""
    period = characteristic_period(spec)
    max_step = controls.max_step if controls.max_step is not None else period / 10
    ts = dynamics._sample_times(t_end, dynamics.sample_interval(spec, t_end, controls))
    margin = DELTA_MARGIN / 2
    y0 = np.array(start, dtype=float)
    try:
        traj, breach = integrate(spec, PhasePoint(*y0), t_end, controls), None
    except DomainBreach as exc:
        traj, breach = exc.trajectory, exc
    ref_t, ref_states, ref_breach, ref_nfev = integrate_adaptive_scipy(
        spec, y0, t_end, ts, controls, max_step, margin
    )
    assert traj.rhs_evaluations == ref_nfev
    assert len(traj.t) == len(ref_t)
    ref_states = np.asarray(ref_states).reshape(-1, 4)
    assert np.all(np.abs(traj.states - ref_states) <= 1e-11 * (1.0 + np.abs(ref_states)))
    assert (breach is None) == (ref_breach is None)
    if breach is not None:
        assert str(breach).endswith(f": wall {ref_breach[2].label}")
        assert abs(breach.time - ref_breach[0]) <= 1e-12
    return breach


@pytest.mark.parametrize("gamma", ["1", "2", "1/2", "3/2", "2/3"])
@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_stepper_takes_scipys_steps_from_default_box_starts(family, gamma):
    spec = spec_for(family, gamma)
    starts = sample_points(spec, default_box(spec), 2, seed=13)
    half_period = characteristic_period(spec) / 2
    for i in range(len(starts)):
        _both_steppers(spec, starts.point(i).as_array(), half_period)


@pytest.mark.parametrize(
    "family,start,t_end,controls",
    [
        ("sphere", (0.0, 0.0, 45.0, 0.0), 1.0, IntegratorControls()),
        ("sphere", (0.0, 0.0, 0.0, 45.0), 3.0, IntegratorControls(rel_tol=1e-6)),
        ("ttw", (1.0, 0.7, -4.0, 0.0), 3.0, IntegratorControls()),
    ],
)
def test_stepper_breaches_where_scipy_does(family, start, t_end, controls):
    assert _both_steppers(BREACH_SPECS[family], start, t_end, controls) is not None


def test_non_finite_field_rejects_the_step_and_recovers(monkeypatch):
    spec = spec_for("euclidean", "1")
    field = dynamics._rhs_function(spec)
    probes = []

    def walled(q1, q2, p1, p2):
        # The orbit q1 = cos t stays below the wall; a long step's stage does not.
        if q1 > 1.001:
            probes.append(q1)
            return (math.nan,) * 4
        return field(q1, q2, p1, p2)

    start = PhasePoint(1.0, 0.0, 0.0, 1.0)
    controls = IntegratorControls(rel_tol=1e-3, abs_tol=1e-6, max_step=TWO_PI)
    clean = integrate(spec, start, 2 * TWO_PI, controls)
    monkeypatch.setattr(dynamics, "_rhs_function", lambda spec: walled)
    traj = integrate(spec, start, 2 * TWO_PI, controls)
    assert probes
    assert traj.steps_rejected == clean.steps_rejected + 1
    assert traj.t[-1] == 2 * TWO_PI
    np.testing.assert_allclose(traj.states, clean.states, atol=1e-3)
    _both_steppers(spec, start.as_array(), 2 * TWO_PI, controls)


@pytest.mark.parametrize(
    "family,start,controls",
    [
        ("ttw", (1.2, 0.8, -0.4, 0.6), IntegratorControls()),
        ("sphere", (0.0, 0.0, 0.0, 45.0), IntegratorControls()),
        ("sphere", (0.3, 0.2, 1.5, -0.8), IntegratorControls(rel_tol=1e-3, max_step=10.0)),
    ],
)
def test_dop853_evaluation_count_follows_its_steps(monkeypatch, family, start, controls):
    step, dense = dynamics._dop853()
    dense_calls = []

    def counted_dense(*args):
        dense_calls.append(args[1])
        return dense(*args)

    monkeypatch.setattr(dynamics, "_dop853", lambda: (step, counted_dense))
    try:
        traj = integrate(spec_for(family, "3/2"), PhasePoint(*start), 3.0, controls)
    except DomainBreach as exc:
        traj = exc.trajectory
    steps = traj.steps_accepted + traj.steps_rejected
    assert traj.rhs_evaluations == 2 + 12 * steps + 3 * len(dense_calls)
    assert 0 < len(dense_calls) <= traj.steps_accepted


def test_step_failure_adaptive_names_the_time_and_step(monkeypatch):
    monkeypatch.setattr(
        dynamics, "_rhs_function", lambda spec: lambda *y: (math.nan,) * 4
    )
    with pytest.raises(StepFailure, match=r"at t=0: the step size fell to nan"):
        integrate(spec_for("sphere", "1"), PhasePoint(0.3, 0.2, 1.5, -0.8), 1.0)


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


CLOSURE_RATIOS = ("1", "2", "1/2", "3/2", "2/3", "7/5")


def _box_starts(spec):
    """Ten seeded starts from the family's default box."""
    starts = sample_points(spec, default_box(spec), 10, seed=5)
    return [starts.point(i) for i in range(len(starts))]


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_orbit_period_returns_every_default_box_start(family):
    """Each start is back within 1e-5 at the predicted period ``T`` and at
    least 0.01 away at ``T/2`` (the smallest is 0.17 on these starts), so
    ``T`` is no even multiple of the least period."""
    for gamma in CLOSURE_RATIOS:
        spec = spec_for(family, gamma)
        for start in _box_starts(spec):
            period = orbit_period(spec, hamiltonian(spec, start))
            traj = integrate(spec, start, period, IntegratorControls(sample_dt=period / 2))
            z0, half, z = traj.states
            assert np.linalg.norm(z - z0) <= 1e-5
            assert np.linalg.norm(half - z0) > 0.01


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_closure_reads_closed_at_the_predicted_period(family):
    """Over 1.5 periods at the default sample interval every start reads
    closed at ``T``, also where the return falls between two samples."""
    for gamma in CLOSURE_RATIOS:
        spec = spec_for(family, gamma)
        for start in _box_starts(spec):
            period = orbit_period(spec, hamiltonian(spec, start))
            result = detect_closure(integrate(spec, start, 1.5 * period))
            assert result.closed and result.period == period


def test_closure_takes_the_largest_return_over_every_multiple():
    """Samples at 0, T and 2T that return at T but not at 2T read open,
    with the return at 2T as the distance."""
    z0 = np.array([1.0, 0.0, 0.0, 1.0])
    states = np.stack([z0, z0, z0 + [0.1, 0.0, 0.0, 0.0]])
    energy = np.ones(3)
    stub = Trajectory(
        t=np.array([0.0, TWO_PI, 2 * TWO_PI]), states=states, energy=energy, second=energy,
        sym_x=energy, sym_y=energy, spec=spec_for("euclidean", "1"),
        initial=PhasePoint(*z0), controls=IntegratorControls(),
    )
    result = detect_closure(stub)
    assert not result.closed
    assert result.period == TWO_PI
    assert result.return_distance == pytest.approx(0.1, rel=1e-12)


def test_closure_needs_enough_span():
    spec = spec_for("euclidean", "1")
    traj = integrate(spec, PhasePoint(1.0, 0.0, 0.0, 1.0), 2.0)
    with pytest.raises(InsufficientSpan, match=r"t_end = 2 is shorter than the orbit "
                                               r"period T = 6\.28318531; extend t_end"):
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
    with pytest.raises(DomainBreach) as breach:
        integrate(spec_for("sphere", "1"), PhasePoint(1.56, 0.0, 0.0, 0.0), 1.0)
    assert len(breach.value.trajectory) == 0
    with pytest.raises(InsufficientSpan, match="no samples"):
        detect_closure(breach.value.trajectory)
