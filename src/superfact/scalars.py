"""Scalar tower shared by every observable.

Phase-space functions are written once against these helpers and then
evaluate unchanged over numpy arrays (batches of points); anything that is
neither dual nor traced goes to numpy's functions.

A function can also be run once on :class:`Traced` values, which compute
nothing and instead record each operation on a :class:`Tape`;
:mod:`superfact.phase` turns that record into straight-line code over
floats (the vector field) or over numpy arrays (every batch gradient).

:class:`DualComplex` is a plain forward-mode number: seeding a coordinate
with a unit dual part gives its derivative exact to machine rounding, and
duals nest for higher derivatives.  No library path evaluates with it; it
is the independent reference that the tests hold the compiled code to.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DomainError

__all__ = ["DualComplex", "Tape", "Traced", "sin", "cos", "tan", "sqrt", "ipow"]


def _check_divisor(v):
    # Guarded domains keep evaluation away from the singular sets, so an
    # exact zero denominator is a contract violation rather than bad luck.
    # A dual divisor is checked where its parts are divided.
    if np.any(v == 0):
        raise DomainError("singular denominator in observable evaluation")


class DualComplex:
    """``val + eps * d`` with ``eps**2 == 0``.

    ``val`` and ``eps`` may be complex scalars, numpy arrays, or nested
    ``DualComplex`` values; arithmetic only ever touches them through the
    ordinary operators, so all three cases share one code path.
    """

    __slots__ = ("val", "eps")

    # Make ndarray binary ops defer to the reflected operators below instead
    # of broadcasting elementwise over this object.
    __array_ufunc__ = None
    __array_priority__ = 1000.0

    def __init__(self, val, eps=0.0):
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"DualComplex({self.val!r}, {self.eps!r})"

    # ---------- arithmetic ----------

    def __add__(self, other):
        if isinstance(other, DualComplex):
            return DualComplex(self.val + other.val, self.eps + other.eps)
        return DualComplex(self.val + other, self.eps + 0.0)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DualComplex):
            return DualComplex(self.val - other.val, self.eps - other.eps)
        return DualComplex(self.val - other, self.eps - 0.0)

    def __rsub__(self, other):
        if isinstance(other, DualComplex):
            return DualComplex(other.val - self.val, other.eps - self.eps)
        return DualComplex(other - self.val, 0.0 - self.eps)

    def __mul__(self, other):
        if isinstance(other, DualComplex):
            return DualComplex(
                self.val * other.val, self.val * other.eps + self.eps * other.val
            )
        return DualComplex(self.val * other, self.val * 0.0 + self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DualComplex):
            _check_divisor(other.val)
            return DualComplex(
                self.val / other.val,
                (self.eps * other.val - self.val * other.eps)
                / (other.val * other.val),
            )
        _check_divisor(other)
        return DualComplex(
            self.val / other, (self.eps * other - self.val * 0.0) / (other * other)
        )

    def __rtruediv__(self, other):
        if isinstance(other, DualComplex):
            return other.__truediv__(self)
        _check_divisor(self.val)
        return DualComplex(
            other / self.val,
            (0.0 * self.val - other * self.eps) / (self.val * self.val),
        )

    def __neg__(self):
        return DualComplex(-self.val, -self.eps)

    def __pos__(self):
        return self

    def __pow__(self, n):
        return ipow(self, n)


# ---------- tracing ----------


class Tape:
    """Operations applied to :class:`Traced` values, in execution order.

    ``inputs`` are the traced arguments, named ``x0, x1, ...``.  Each entry
    of ``ops`` is ``(result, op, operands)``: the result is named ``v<i>``,
    ``op`` is one of ``add sub mul div neg sin cos tan sqrt`` and each
    operand names a traced value or a constant.  Constants are real or
    complex numbers, named ``c<i>`` after their index in ``constants``.

    Each distinct constant and each distinct ``(op, operands)`` is recorded
    once; repeating it returns the earlier name.  Every op is a pure
    function of its operands, so this common-subexpression elimination
    changes no value: a sector integral that several factors compute is
    computed once.
    """

    def __init__(self, n_inputs: int):
        self.inputs = [Traced(self, f"x{k}") for k in range(n_inputs)]
        self.ops: list[tuple[str, str, tuple[str, ...]]] = []
        self.constants: list[float | complex] = []
        # Name of each recorded (op, operands) and, keyed by repr so that
        # 0.0 and -0.0 stay apart, of each constant.
        self._names: dict[tuple, str] = {}

    def operand(self, x) -> str:
        if isinstance(x, Traced):
            return x.name
        if not isinstance(x, numbers.Complex):
            raise TypeError(f"non-numeric constant {x!r}")
        c = float(x) if isinstance(x, numbers.Real) else complex(x)
        key = ("constant", repr(c))
        if key not in self._names:
            self._names[key] = f"c{len(self.constants)}"
            self.constants.append(c)
        return self._names[key]

    def record(self, op: str, *operands) -> "Traced":
        key = (op, tuple(self.operand(x) for x in operands))
        if key not in self._names:
            self._names[key] = f"v{len(self.ops)}"
            self.ops.append((self._names[key], *key))
        return Traced(self, self._names[key])


def _no_control_flow(*_):
    raise TypeError(
        "value-dependent control flow (a comparison or truth test) cannot be "
        "traced into straight-line code"
    )


def _forward(op):
    return lambda self, other: self.tape.record(op, self, other)


class Traced:
    """A value that records the operations applied to it on a
    :class:`Tape` instead of computing them.

    It has no comparisons and no truth value, so an observable that
    branches on a coordinate raises ``TypeError`` while being traced rather
    than recording one branch.
    """

    __slots__ = ("tape", "name")

    # Numpy scalars defer to the reflected operators, as for DualComplex.
    __array_ufunc__ = None

    def __init__(self, tape: Tape, name: str):
        self.tape = tape
        self.name = name

    __add__ = _forward("add")

    def __radd__(self, other):
        return self.tape.record("add", other, self)

    __sub__ = _forward("sub")

    def __rsub__(self, other):
        return self.tape.record("sub", other, self)

    __mul__ = _forward("mul")

    def __rmul__(self, other):
        return self.tape.record("mul", other, self)

    __truediv__ = _forward("div")

    def __rtruediv__(self, other):
        return self.tape.record("div", other, self)

    def __neg__(self):
        return self.tape.record("neg", self)

    def __pos__(self):
        return self

    def __pow__(self, n):
        return ipow(self, n)

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _no_control_flow
    __hash__ = None


# ---------- elementary functions ----------


def sin(x):
    if isinstance(x, DualComplex):
        return DualComplex(sin(x.val), cos(x.val) * x.eps)
    if isinstance(x, Traced):
        return x.tape.record("sin", x)
    return np.sin(x)


def cos(x):
    if isinstance(x, DualComplex):
        return DualComplex(cos(x.val), -(sin(x.val)) * x.eps)
    if isinstance(x, Traced):
        return x.tape.record("cos", x)
    return np.cos(x)


def tan(x):
    if isinstance(x, DualComplex):
        t = tan(x.val)
        return DualComplex(t, (1 + t * t) * x.eps)
    if isinstance(x, Traced):
        return x.tape.record("tan", x)
    return np.tan(x)


def _require_positive(v):
    # All square roots in scope act on sector integrals that are positive on
    # the guarded domain; the principal branch never sees a cut.
    if np.any(np.real(v) <= 0):
        raise DomainError("square root of a non-positive sector value")


def sqrt(x):
    if isinstance(x, DualComplex):
        s = sqrt(x.val)
        return DualComplex(s, x.eps / (2 * s))
    if isinstance(x, Traced):
        # The positivity contract is checked when the compiled code runs.
        return x.tape.record("sqrt", x)
    _require_positive(x)
    return np.sqrt(x)


def ipow(x, n):
    """Integer power by square-and-multiply: ``2 * floor(log2 n)``
    multiplications at most (no complex log/exp)."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"integer exponent required, got {n!r}")
    if n < 0:
        raise ValueError("negative exponents are not used here")
    n = int(n)
    if n == 0:
        return x * 0 + 1.0
    out = None
    while True:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if not n:
            return out
        x = x * x
