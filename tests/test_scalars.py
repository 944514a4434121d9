"""Dual-number scalar tower: arithmetic, exact derivatives, guard rails."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superfact import DomainError, DualComplex
from superfact import scalars as sc

from _oracles import fd_partial

finite_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_cube_value_and_derivative():
    d = DualComplex(2.0, 1.0)
    y = d * d * d
    assert y.val == 8.0
    assert y.eps == 12.0


def test_quotient_rule():
    x0 = 0.7
    d = DualComplex(complex(x0), 1.0)
    y = (d + 1.0) / (d * d + 3.0)
    expected = ((x0 * x0 + 3.0) - (x0 + 1.0) * 2.0 * x0) / (x0 * x0 + 3.0) ** 2
    assert y.eps == pytest.approx(expected, rel=1e-14)


def test_reflected_operators():
    d = DualComplex(2.0, 1.0)
    assert (1.0 + d).val == 3.0 and (1.0 + d).eps == 1.0
    assert (3.0 - d).val == 1.0 and (3.0 - d).eps == -1.0
    assert (2.0 * d).val == 4.0 and (2.0 * d).eps == 2.0
    y = 6.0 / d
    assert y.val == 3.0
    assert y.eps == pytest.approx(-6.0 / 4.0, rel=1e-15)
    assert (-d).val == -2.0 and (-d).eps == -1.0
    assert (+d) is d


def test_derivative_matches_finite_difference():
    def fn(x):
        return sc.sin(x) * sc.cos(x * x) + x / (2.0 + sc.tan(x / 3.0))

    for x0 in (0.37, -1.1, 2.4):
        dual = fn(DualComplex(complex(x0), 1.0))
        fd = (fn(complex(x0 + 1e-6)) - fn(complex(x0 - 1e-6))) / 2e-6
        assert dual.eps == pytest.approx(fd, rel=1e-8, abs=1e-8)


def test_nested_duals_second_derivative():
    # f(x) = x^3: f''(2) = 12, computed by seeding a dual inside a dual.
    x = DualComplex(DualComplex(2.0, 1.0), DualComplex(1.0, 0.0))
    y = x * x * x
    assert y.val.val == 8.0
    assert y.val.eps == 12.0
    assert y.eps.val == 12.0
    assert y.eps.eps == 12.0  # (3x^2)' = 6x = 12 at x = 2


def test_trig_identity_on_duals():
    d = DualComplex(0.6 + 0.1j, 1.0)
    one = sc.sin(d) * sc.sin(d) + sc.cos(d) * sc.cos(d)
    assert one.val == pytest.approx(1.0, abs=1e-15)
    assert abs(one.eps) <= 1e-15


def test_tan_derivative_equals_sec_squared():
    x0 = 0.8
    d = sc.tan(DualComplex(complex(x0), 1.0))
    assert d.eps == pytest.approx(1.0 / math.cos(x0) ** 2, rel=1e-14)


def test_sqrt_value_derivative_and_guard():
    d = sc.sqrt(DualComplex(4.0, 1.0))
    assert d.val == 2.0
    assert d.eps == 0.25
    with pytest.raises(DomainError):
        sc.sqrt(-1.0)
    with pytest.raises(DomainError):
        sc.sqrt(0.0)
    with pytest.raises(DomainError):
        sc.sqrt(np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        sc.sqrt(DualComplex(-4.0, 1.0))


def test_division_by_zero_guard():
    with pytest.raises(DomainError):
        DualComplex(1.0, 0.0) / 0.0
    with pytest.raises(DomainError):
        DualComplex(1.0, 0.0) / DualComplex(0.0, 1.0)
    with pytest.raises(DomainError):
        DualComplex(np.ones(3), np.zeros(3)) / np.array([1.0, 0.0, 2.0])


def test_ipow_basics():
    assert sc.ipow(3.0, 5) == 243.0
    d = DualComplex(1.3, 1.0)
    cube = sc.ipow(d, 3)
    manual = d * d * d
    assert cube.val == manual.val and cube.eps == manual.eps
    unit = sc.ipow(d, 0)
    assert unit.val == 1.0 and unit.eps == 0.0
    with pytest.raises(TypeError):
        sc.ipow(d, 2.5)
    with pytest.raises(ValueError):
        sc.ipow(d, -1)


def _repeated_product(x, n):
    out = x * 0 + 1.0
    for _ in range(n):
        out = out * x
    return out


@pytest.mark.parametrize(
    "x",
    [
        1.013,
        complex(0.97, 0.11),
        np.array([0.9, -1.02, 1.005 + 0.03j]),
        DualComplex(complex(1.01, -0.04), complex(0.3, 0.2)),
    ],
    ids=["float", "complex", "array", "dual"],
)
def test_ipow_agrees_with_repeated_multiplication(x):
    for n in range(101):
        got, want = sc.ipow(x, n), _repeated_product(x, n)
        parts = [(got.val, want.val), (got.eps, want.eps)] if isinstance(x, DualComplex) else [(got, want)]
        for g, w in parts:
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=0, err_msg=f"n={n}")


def test_ipow_multiplies_logarithmically_often():
    for n in range(1, 101):
        tape = sc.Tape(1)
        sc.ipow(tape.inputs[0], n)
        muls = sum(op == "mul" for _, op, _ in tape.ops)
        assert muls <= 2 * math.ceil(math.log2(n)), n


def test_tape_records_each_subexpression_and_constant_once():
    tape = sc.Tape(2)
    x0, x1 = tape.inputs
    a = sc.sin(x0) * x1
    b = sc.sin(x0) * x1
    assert a.name == b.name
    c = 2j * x1 + 2j * x0
    assert tape.constants == [2j]
    d = (x0 * 0.0, x0 * -0.0)
    assert d[0].name != d[1].name and len(tape.constants) == 3
    ops = [op for _, op, _ in tape.ops]
    assert ops == ["sin", "mul", "mul", "mul", "add", "mul", "mul"]
    assert c.name == tape.ops[4][0]


def test_array_components():
    d = DualComplex(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    sq = d * d
    assert np.allclose(sq.val, [1.0, 4.0])
    assert np.allclose(sq.eps, [2.0, 4.0])


def test_ndarray_defers_to_dual():
    d = DualComplex(2.0, 1.0)
    out = np.array([1.0, 3.0]) * d
    assert isinstance(out, DualComplex)
    assert np.allclose(out.val, [2.0, 6.0])
    assert np.allclose(out.eps, [1.0, 3.0])


def test_scalar_functions_on_plain_values():
    # The helpers fall through to numpy on any input that is neither dual
    # nor traced: floats, complex numbers and arrays.
    for x in (0.5, complex(0.5, 0.2), np.array([0.1, 0.2 + 0.1j])):
        for helper, reference in ((sc.sin, np.sin), (sc.cos, np.cos), (sc.tan, np.tan),
                                  (sc.sqrt, np.sqrt)):
            got = helper(x)
            assert np.array_equal(got, reference(x)) and np.shape(got) == np.shape(x)
    assert sc.sqrt(9.0) == 3.0


def _horner(cs, x):
    total = 0.0
    for c in reversed(cs):
        total = total * x + c
    return total


@settings(deadline=None)
@given(
    st.lists(finite_floats, min_size=2, max_size=4),
    st.lists(finite_floats, min_size=2, max_size=4),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_product_rule(ps, qs, x0):
    d = DualComplex(complex(x0), 1.0)
    p, q = _horner(ps, d), _horner(qs, d)
    lhs = (p * q).eps
    rhs = p.eps * q.val + p.val * q.eps
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-9 * scale


@settings(deadline=None)
@given(
    st.lists(finite_floats, min_size=2, max_size=4),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_chain_rule_through_sine(ps, x0):
    d = DualComplex(complex(x0), 1.0)
    p = _horner(ps, d)
    lhs = sc.sin(p).eps
    rhs = cmath.cos(p.val) * p.eps
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))


@settings(deadline=None)
@given(finite_floats, finite_floats, finite_floats, finite_floats)
def test_commutativity_is_bit_exact(a, b, da, db):
    u = DualComplex(complex(a), complex(da))
    v = DualComplex(complex(b), complex(db))
    s1, s2 = u + v, v + u
    m1, m2 = u * v, v * u
    assert s1.val == s2.val and s1.eps == s2.eps
    assert m1.val == m2.val and m1.eps == m2.eps
