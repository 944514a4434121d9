"""Scalar tower shared by every observable.

Phase-space functions are written once against these helpers and then
evaluate unchanged over floats, complex numbers, numpy arrays (batches of
points), and first-order dual numbers.  Seeding a coordinate with a unit
dual part produces derivatives exact to machine rounding, which is what the
bracket engine relies on.  Duals nest (a ``DualComplex`` may hold
``DualComplex`` components), so bracket expressions can themselves be
differentiated; the Jacobi-identity checks use that.

A function of real inputs can also be run once on :class:`Traced` values,
which compute nothing and instead record each operation on a
:class:`Tape`; :func:`superfact.phase.compiled_gradient` turns that record
into straight-line float code.
"""

from __future__ import annotations

import cmath
import numbers

import numpy as np

from .errors import DomainError

__all__ = ["DualComplex", "Tape", "Traced", "sin", "cos", "tan", "sqrt", "ipow"]


def _check_divisor(v):
    # Guarded domains keep evaluation away from the singular sets, so an
    # exact zero denominator is a contract violation rather than bad luck.
    if isinstance(v, DualComplex):
        _check_divisor(v.val)
    elif isinstance(v, np.ndarray):
        if (v == 0).any():
            raise DomainError("singular denominator in observable evaluation")
    elif v == 0:
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

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, DualComplex) else DualComplex(x, 0.0)

    # The non-dual branches below spell out the coerced expressions verbatim
    # (an implicit zero dual part) instead of wrapping the operand, so the
    # hot paths skip a _coerce call and an allocation without changing a bit
    # of the arithmetic.

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
    operand names a traced value or a constant.  Constants are real and
    named ``c<i>`` after their index in ``constants``.
    """

    def __init__(self, n_inputs: int):
        self.inputs = [Traced(self, f"x{k}") for k in range(n_inputs)]
        self.ops: list[tuple[str, str, tuple[str, ...]]] = []
        self.constants: list[float] = []

    def operand(self, x) -> str:
        if isinstance(x, Traced):
            return x.name
        if not isinstance(x, numbers.Real):
            raise TypeError(f"non-real constant {x!r}")
        self.constants.append(float(x))
        return f"c{len(self.constants) - 1}"

    def record(self, op: str, *operands) -> "Traced":
        out = Traced(self, f"v{len(self.ops)}")
        self.ops.append((out.name, op, tuple(self.operand(x) for x in operands)))
        return out


def _no_control_flow(*_):
    raise TypeError(
        "value-dependent control flow (a comparison or truth test) cannot be "
        "traced into straight-line code"
    )


class Traced:
    """A real value that records the operations applied to it on a
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

    def __add__(self, other):
        return self.tape.record("add", self, other)

    def __radd__(self, other):
        return self.tape.record("add", other, self)

    def __sub__(self, other):
        return self.tape.record("sub", self, other)

    def __rsub__(self, other):
        return self.tape.record("sub", other, self)

    def __mul__(self, other):
        return self.tape.record("mul", self, other)

    def __rmul__(self, other):
        return self.tape.record("mul", other, self)

    def __truediv__(self, other):
        return self.tape.record("div", self, other)

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
        v = x.val
        if isinstance(v, (DualComplex, np.ndarray)):
            return DualComplex(sin(v), cos(v) * x.eps)
        return DualComplex(cmath.sin(v), cmath.cos(v) * x.eps)
    if isinstance(x, np.ndarray):
        return np.sin(x)
    if isinstance(x, Traced):
        return x.tape.record("sin", x)
    return cmath.sin(x)


def cos(x):
    if isinstance(x, DualComplex):
        v = x.val
        if isinstance(v, (DualComplex, np.ndarray)):
            return DualComplex(cos(v), -(sin(v)) * x.eps)
        return DualComplex(cmath.cos(v), -(cmath.sin(v)) * x.eps)
    if isinstance(x, np.ndarray):
        return np.cos(x)
    if isinstance(x, Traced):
        return x.tape.record("cos", x)
    return cmath.cos(x)


def tan(x):
    if isinstance(x, DualComplex):
        v = x.val
        t = tan(v) if isinstance(v, (DualComplex, np.ndarray)) else cmath.tan(v)
        return DualComplex(t, (1 + t * t) * x.eps)
    if isinstance(x, np.ndarray):
        return np.tan(x)
    if isinstance(x, Traced):
        return x.tape.record("tan", x)
    return cmath.tan(x)


def _require_positive(v):
    # All square roots in scope act on sector integrals that are positive on
    # the guarded domain; the principal branch never sees a cut.
    if isinstance(v, np.ndarray):
        if (v.real <= 0).any():
            raise DomainError("square root of a non-positive sector value")
    elif complex(v).real <= 0:
        raise DomainError("square root of a non-positive sector value")


def sqrt(x):
    if isinstance(x, DualComplex):
        v = x.val
        if isinstance(v, (DualComplex, np.ndarray)):
            s = sqrt(v)
        else:
            _require_positive(v)
            s = cmath.sqrt(v)
        return DualComplex(s, x.eps / (2 * s))
    if isinstance(x, np.ndarray):
        _require_positive(x)
        return np.sqrt(x)
    if isinstance(x, Traced):
        # The positivity contract is checked when the compiled code runs.
        return x.tape.record("sqrt", x)
    _require_positive(x)
    return cmath.sqrt(x)


def ipow(x, n):
    """Integer power by repeated multiplication (no complex log/exp)."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"integer exponent required, got {n!r}")
    if n < 0:
        raise ValueError("negative exponents are not used here")
    if n == 0:
        return x * 0 + 1.0
    out = x
    for _ in range(n - 1):
        out = out * x
    return out
