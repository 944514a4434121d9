"""Random-point certification: sampler, identity suites, independence ranks."""

import collections
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import superfact
from superfact import phase, verification
from superfact import (
    DELTA_POS,
    DomainBox,
    Family,
    IdentitySpec,
    PhaseBatch,
    REPORT_SCHEMA,
    SamplerExhausted,
    TOL_CHAIN,
    TOL_HIGH_ORDER,
    TOL_POLY,
    UnsupportedError,
    bracket_batch,
    build_suite,
    default_box,
    domain_check,
    euclid_y_sector_observable,
    eval_batch,
    factor_pairs,
    hamiltonian_observable,
    higher_integral_observables,
    independence_report,
    ladder_observables,
    run_identity,
    run_suite,
    sample_points,
    second_integral,
    second_integral_observable,
    symmetry_tolerance,
    verify_system,
)

from _oracles import narrow_box, run_identity_pointwise, spec_for


# ---------- sampling ----------


def test_sampler_is_deterministic():
    spec = spec_for("sphere", "3/2")
    a = sample_points(spec, None, 50, seed=4)
    b = sample_points(spec, None, 50, seed=4)
    for name in ("q1", "q2", "p1", "p2"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = sample_points(spec, None, 50, seed=5)
    assert not np.array_equal(a.q1, c.q1)


@pytest.mark.parametrize("family", ["sphere", "ttw"])
def test_sampler_yields_valid_points(family):
    spec = spec_for(family, "2")
    batch = sample_points(spec, None, 1000, seed=8)
    assert len(batch) == 1000
    for i in range(len(batch)):
        pt = batch.point(i)
        assert domain_check(spec, pt)
        assert second_integral(spec, pt) > DELTA_POS


def test_sampler_count_validation():
    with pytest.raises(ValueError):
        sample_points(spec_for("euclidean", "1"), None, 0, seed=0)


def test_sampler_exhausted_on_hopeless_box():
    spec = spec_for("ttw", "1")
    # The whole radial interval sits inside the safety margin.
    box = DomainBox(((0.0, 0.04), (0.5, 1.0), (-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(SamplerExhausted):
        sample_points(spec, box, 10, seed=0)


# ---------- suite execution ----------


@pytest.mark.parametrize(
    "family,gamma",
    [
        ("euclidean", "1"),
        ("euclidean", "5/2"),
        ("sphere", "1/2"),
        ("sphere", "2"),
        ("ttw", "2/3"),
        ("ttw", "2"),
    ],
)
def test_full_suite_passes(family, gamma):
    spec = spec_for(family, gamma)
    report = verify_system(spec, count=100, seed=12, box=narrow_box(family))
    assert report.samples == 100
    assert len(report.identities) > 10
    failing = [r.label for r in report.identities if not r.passed]
    assert report.passed, failing
    for r in report.identities:
        assert r.max_residual <= r.tolerance


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_high_order_surrogate_ratio_passes(family):
    spec = spec_for(family, "141/100")
    report = verify_system(spec, count=20, seed=14, box=narrow_box(family))
    assert report.passed, [r.label for r in report.identities if not r.passed]


def test_report_lookup():
    spec = spec_for("euclidean", "1")
    report = verify_system(spec, count=10, seed=1, box=narrow_box("euclidean"))
    assert report.result("fact.ladder").passed
    with pytest.raises(KeyError):
        report.result("no.such.identity")


def test_empty_batch_passes_vacuously():
    spec = spec_for("euclidean", "1")
    empty = PhaseBatch.from_arrays(
        np.empty(0), np.empty(0), np.empty(0), np.empty(0)
    )
    report = run_suite(spec, None, empty)
    assert report.samples == 0
    assert report.passed
    assert all(r.samples == 0 for r in report.identities)


def test_mutated_identity_fails_almost_everywhere():
    spec = spec_for("euclidean", "3/2")
    w_over_g = spec.omega / spec.gamma.value
    bp, bm = ladder_observables(spec)
    batch = sample_points(spec, narrow_box("euclidean"), 200, seed=21)

    def wrong_rhs(b):
        return np.full(len(b), 1j * w_over_g, dtype=np.complex128)  # sign flipped

    flipped = IdentitySpec("bracket.Bm_Bp.flipped",
                           lambda b: bracket_batch(bm, bp, b), wrong_rhs, TOL_POLY)
    result = run_identity(flipped, batch)
    assert not result.passed
    lhs = bracket_batch(bm, bp, batch)
    residual = np.abs(lhs - wrong_rhs(batch)) / (
        1.0 + np.maximum(np.abs(lhs), np.abs(wrong_rhs(batch)))
    )
    assert np.mean(residual > TOL_POLY) >= 0.99
    true_result = run_identity(build_suite(spec)[5], batch)
    assert true_result.label == "bracket.Bm_Bp" and true_result.passed


def test_polynomial_tolerance_resolves_a_coefficient_off_by_2e_11():
    """``decomp.H`` on the plane passes at ``TOL_POLY``; the same identity
    with ``gamma^2`` 2e-11 off in its right side fails almost everywhere."""
    spec = spec_for("euclidean", "3/2")
    batch = sample_points(spec, default_box(spec), 200, seed=4)
    h, i2 = hamiltonian_observable(spec), second_integral_observable(spec)
    hy = euclid_y_sector_observable(spec)
    g2 = spec.gamma.value ** 2

    def sectors(factor):
        return lambda b: eval_batch(hy, b) + g2 * factor * eval_batch(i2, b)

    assert run_identity(IdentitySpec("decomp.H", lambda b: eval_batch(h, b), sectors(1.0),
                                     TOL_POLY), batch).passed
    off = IdentitySpec("decomp.H.off", lambda b: eval_batch(h, b), sectors(1.0 + 2e-11),
                       TOL_POLY)
    result = run_identity(off, batch)
    assert not result.passed and result.max_residual > 2 * TOL_POLY


def test_run_identity_reports_pointwise_errors():
    spec = spec_for("euclidean", "1")
    batch = PhaseBatch.from_arrays(
        np.array([1.0, 0.0]), np.zeros(2), np.zeros(2), np.zeros(2)
    )
    bad = IdentitySpec(
        "div.q1",
        lambda b: 1.0 / b.q1,
        lambda b: np.zeros(len(b), dtype=np.complex128),
        TOL_POLY,
    )
    result = run_identity(bad, batch)
    assert not result.passed
    assert result.errors and "point 1" in result.errors[0]


def _flagged_points(result) -> list[int]:
    return [int(e.split(":")[0].removeprefix("point ")) for e in result.errors]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize(
    "family,gamma", [("sphere", "141/100"), ("ttw", "141/100"), ("ttw", "99/70")]
)
def test_one_pass_flags_what_the_pointwise_reference_flags(family, gamma, seed):
    spec = spec_for(family, gamma)
    points = sample_points(spec, None, 300, seed)
    # The reference must meet each overflow itself, so it gets its own batch.
    fresh = PhaseBatch.from_arrays(*points.arrays())
    flagged = 0
    for ident in build_suite(spec):
        got = run_identity(ident, points)
        want = run_identity_pointwise(ident, fresh)
        assert _flagged_points(got) == _flagged_points(want), ident.label
        assert got.max_residual == want.max_residual, ident.label
        assert got.passed == want.passed, ident.label
        flagged += len(got.errors)
    assert flagged > 0


def test_a_point_whose_scale_alone_overflows_is_flagged():
    spec = spec_for("ttw", "141/100")
    points = sample_points(spec, None, 1000, seed=7)
    ident = next(i for i in build_suite(spec) if i.label == "sym.H_Xp")
    point = points[624:625]
    with np.errstate(all="ignore"):
        bracket, scale = ident.lhs(point)
        residual = np.abs(bracket) / (1.0 + np.abs(scale))
    assert np.isfinite(bracket).all() and not np.isfinite(scale).any()
    assert residual[0] == 0.0
    result = run_identity(ident, points)
    assert "point 624: scale not finite" in result.errors
    assert not result.passed


def test_chunked_suite_reports_what_one_pass_reports(monkeypatch):
    """Chunks of 97 points give the one-pass report: global point indices,
    the largest residual, and one error for a batch error in any chunk."""
    spec = spec_for("ttw", "141/100")
    points = sample_points(spec, None, 1000, seed=7)
    cut = np.quantile(points.q1, 0.95)

    def raises_beyond_cut(batch):
        if (batch.q1 > cut).any():
            raise superfact.DomainError("a point beyond the cut")
        return batch.q1

    suite = (*build_suite(spec),
             IdentitySpec("cut", raises_beyond_cut, lambda b: b.q1, TOL_POLY),
             IdentitySpec("q1", lambda b: b.q1, lambda b: b.q1 * (1.0 + 1e-9), TOL_POLY))
    one_pass = run_suite(spec, suite, PhaseBatch.from_arrays(*points.arrays()), seed=7)
    monkeypatch.setattr(verification, "CHUNK_POINTS", 97)
    chunked = run_suite(spec, suite, PhaseBatch.from_arrays(*points.arrays()), seed=7)
    assert chunked.to_json_dict() == one_pass.to_json_dict()
    assert chunked.result("cut").errors == ("DomainError: a point beyond the cut",)
    assert chunked.result("q1").samples == 1000 and not chunked.result("q1").passed
    flagged = [i for r in chunked.identities if r.label != "cut" for i in _flagged_points(r)]
    assert flagged and max(flagged) >= 97


def test_suite_names_a_domain_error_without_raising():
    spec = spec_for("ttw", "3/2")
    points = sample_points(spec, None, 20, seed=2)
    q1 = points.q1.copy()
    q1[5] = 0.0  # r = 0: the compiled code of H meets an exact-zero divisor
    report = run_suite(spec, None, PhaseBatch.from_arrays(q1, *points.arrays()[1:]))
    assert not report.passed
    errors = [e for r in report.identities for e in r.errors]
    assert "DomainError: singular denominator in observable evaluation" in errors
    assert report.result("comm.H_I2").errors == (
        "DomainError: singular denominator in observable evaluation",
    )
    json.dumps(report.to_json_dict(), allow_nan=False)


def test_report_json_is_deterministic_and_valid():
    jsonschema = pytest.importorskip("jsonschema")
    spec = spec_for("ttw", "3/2")
    box = narrow_box("ttw")
    d1 = verify_system(spec, count=50, seed=33, box=box).to_json_dict()
    d2 = verify_system(spec, count=50, seed=33, box=box).to_json_dict()
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    jsonschema.validate(d1, REPORT_SCHEMA)
    assert d1["summary"]["pass"] is True
    assert d1["spec"]["gamma"] == {"m": 3, "n": 2}


def _count_gradient_runs(monkeypatch) -> tuple[collections.Counter, collections.Counter]:
    """Count, by observable, the runs of each compiled array code: an
    observable's own code, and the outer code of a composition."""
    counts = collections.Counter(), collections.Counter()
    for calls, name in zip(counts, ("_batch_code", "_outer_code")):
        compile_once = getattr(phase, name)

        def counted(f, calls=calls, compile_once=compile_once):
            code = compile_once(f)

            def run(*columns):
                calls[f] += 1
                return code(*columns)

            return run

        monkeypatch.setattr(phase, name, counted)
    return counts


@pytest.mark.parametrize("family,gamma", [("euclidean", "3/2"), ("sphere", "7/5"), ("ttw", "17/12")])
def test_verify_takes_each_gradient_once_per_batch(family, gamma, monkeypatch):
    """One suite runs each part's code once and differentiates ``X+-``,
    ``X``, ``Y`` and the TTW pure shifts by the chain rule alone: their
    outer code once each, and no array code of their own."""
    calls, outer_calls = _count_gradient_runs(monkeypatch)
    spec = spec_for(family, gamma)
    points = sample_points(spec, None, 300, seed=4)
    report = run_suite(spec, None, points)
    assert report.passed
    suite_calls = dict(calls), dict(outer_calls)
    for which in ("with_X", "with_Y"):
        assert independence_report(spec, points[:200], which)["fraction_full"] >= 0.99
    assert (calls, outer_calls) == suite_calls
    compositions = set(higher_integral_observables(spec))
    if spec.family is Family.TTW:
        pure = factor_pairs(spec)["A"]
        compositions |= {pure.plus, pure.minus}
    assert set(outer_calls) == compositions
    assert not compositions & set(calls)
    assert {p for f in compositions for p in f.parts} - compositions <= set(calls)
    assert max(calls.values()) == max(outer_calls.values()) == 1
    assert hamiltonian_observable(spec) in calls


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_each_bracket_is_taken_once(family, monkeypatch):
    """A bracket identity, conserved ones included, takes its bracket once."""
    taken = collections.Counter()
    take = phase.bracket_batch_with_scale

    def counted(f, g, batch):
        taken[f, g] += 1
        return take(f, g, batch)

    monkeypatch.setattr(phase, "bracket_batch_with_scale", counted)
    monkeypatch.setattr(verification, "bracket_batch_with_scale", counted)
    spec = spec_for(family, "3/2")
    suite = build_suite(spec)
    assert run_suite(spec, suite, sample_points(spec, None, 50, seed=3)).passed
    brackets = [i for i in suite if i.label.split(".")[0] in ("bracket", "comm", "sym")]
    assert sum(taken.values()) == len(brackets)
    assert max(taken.values()) == 1


def test_overflowing_gradients_run_once_per_suite(monkeypatch):
    calls, outer_calls = _count_gradient_runs(monkeypatch)
    spec = spec_for("ttw", "141/100")
    points = sample_points(spec, None, 300, seed=7)
    report = run_suite(spec, None, points)
    assert report.result("sym.H_Xp").errors
    suite_calls = dict(calls), dict(outer_calls)
    for which in ("with_X", "with_Y"):
        assert independence_report(spec, points[:200], which)["non_finite"] > 0
    assert (calls, outer_calls) == suite_calls
    assert max(calls.values()) == max(outer_calls.values()) == 1


_VERIFY_SCRIPT = """
import sys
from superfact import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_verify_reports_are_byte_identical_across_interpreters(tmp_path):
    src = str(Path(superfact.__file__).resolve().parents[1])
    reports = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"run{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _VERIFY_SCRIPT, "verify", "--system", "ttw",
             "--alpha", "1.1", "--beta", "0.7", "--gamma", "17/12",
             "--samples", "300", "--seed", "8", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        reports.append((tmp_path / f"run{hash_seed}.report.json").read_bytes())
    assert reports[0] == reports[1]


# ---------- functional independence ----------


def test_independence_with_higher_integral():
    spec = spec_for("euclidean", "1")
    points = sample_points(spec, narrow_box("euclidean"), 200, seed=6)
    report = independence_report(spec, points, "with_X")
    assert report["points"] == 200
    assert report["functions"] == ["H", "I2", "X"]
    assert report["fraction_full"] >= 0.99


def test_independence_dependent_sector_triple():
    spec = spec_for("euclidean", "2")
    points = sample_points(spec, narrow_box("euclidean"), 200, seed=6)
    report = independence_report(spec, points, "sectors")
    assert report["ranks"] == {"2": 200}
    assert report["fraction_full"] == 0.0


def test_independence_with_y_on_sphere():
    spec = spec_for("sphere", "2")
    points = sample_points(spec, narrow_box("sphere"), 200, seed=9)
    report = independence_report(spec, points, "with_Y")
    assert report["fraction_full"] >= 0.99


def test_independence_selector_validation():
    spec = spec_for("sphere", "1")
    points = sample_points(spec, narrow_box("sphere"), 5, seed=0)
    with pytest.raises(ValueError):
        independence_report(spec, points, "bogus")
    with pytest.raises(UnsupportedError):
        independence_report(spec, points, "sectors")


# ---------- tolerance policy ----------


def test_symmetry_tolerance_grades_by_order():
    assert symmetry_tolerance(spec_for("euclidean", "2")) == TOL_CHAIN
    assert symmetry_tolerance(spec_for("euclidean", "3/2")) == TOL_HIGH_ORDER
    assert symmetry_tolerance(spec_for("ttw", "141/100")) == TOL_HIGH_ORDER
    assert math.isclose(TOL_CHAIN, 1e-9) and math.isclose(TOL_HIGH_ORDER, 1e-8)
