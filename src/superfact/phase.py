"""Phase points, observables, and the canonical bracket engine.

A phase point is the 4-tuple ``(q1, q2, p1, p2)``; the coordinate meaning is
fixed by the system that interprets it.  Observables are plain callables of
the four coordinates written against :mod:`superfact.scalars`, so the same
definition is evaluated at numpy arrays (batches of points at once) or at
traced values (compiled code).

Derivatives come from one code generator.  It traces a function once,
drops repeated subexpressions, and emits straight-line code that returns
the value and the partials in its inputs from one reverse sweep.  The code
is generated for two targets, each compiled once per observable.  On
float64 arrays, which numpy promotes to complex128 only at a complex
constant, it serves :func:`gradient_batch` and, through it, every bracket
and rank survey.  The builders return one observable per spec, and a batch
keeps each value and gradient taken on it.

An observable can be declared as a composition (:meth:`Observable.compose`):
part observables and an outer function of their values.  Its batch
gradient follows the chain rule, ``sum_k d outer / d u_k * grad part_k``:
the array code of the outer function runs on the parts' kept values, and
each part's gradient is taken once per batch.  ``X+-``, ``X`` and ``Y``,
products of powers of the factors, are compositions, so over 1000
default-box points the four cost 0.23 ms (euclidean 3/2) to 0.41 ms (TTW
17/12) once the factors' gradients are kept, against 0.58 ms to 4.5 ms for
monolithic code that traced and swept every factor inside each of them
again (2-core Xeon, numpy 2.4).  On Python floats, which become complex
only at a complex constant, :func:`compiled_gradient` gives every
evaluation at a single state: the single-trajectory vector field, each
split point the level solver tries, and an observable called at a
:class:`PhasePoint` or its :func:`gradient` there; a composition's float
code is that of its whole ``fn``.  Array code runs only on batches and
float code only at single states.  Given the same four Python floats, the
two give the same numbers, real parts bit for bit, except where numpy's
tangent differs from :mod:`math`'s in the last bit; on float64 arrays
numpy also rounds complex products and quotients differently from Python,
so a batch value of ``X`` can differ from the single-state one in the last
bit.
Every derivative is exact to machine rounding; no finite-difference step
enters any of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from . import scalars as sc
from .scalars import Tape, _check_divisor, _require_positive

COORDS = ("q1", "q2", "p1", "p2")

#: Relative singular-value cutoff used by :func:`gradient_ranks`.
RANK_TOL = 1e-8


@dataclass(frozen=True)
class PhasePoint:
    """A single phase-space point with finite coordinates."""

    q1: float
    q2: float
    p1: float
    p2: float

    def __post_init__(self):
        for name in COORDS:
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate {name}={v!r}")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        return np.array([self.q1, self.q2, self.p1, self.p2], dtype=float)


@dataclass(frozen=True)
class Observable:
    """A labelled phase-space function.

    ``fn(q1, q2, p1, p2)`` must be written against the scalar tower so that
    it accepts array and traced inputs alike (and dual numbers, which the
    tests use as an independent reference).  Called at a
    :class:`PhasePoint`, it returns the value of its compiled float code
    (:func:`compiled_gradient`) as a complex number, and raises
    :class:`~superfact.errors.DomainError` at a singular evaluation.
    Evaluation is pure: identical inputs give bit-identical outputs.

    An observable built by :meth:`compose` also keeps its ``parts`` and
    the ``outer`` function of their values that its ``fn`` applies.
    """

    fn: Callable
    label: str = ""
    parts: tuple["Observable", ...] = field(default=(), compare=False)
    outer: Callable | None = field(default=None, compare=False)

    @classmethod
    def compose(cls, outer: Callable, parts, label: str) -> "Observable":
        """The observable ``outer(*values of parts)``.  ``outer`` is written
        against the scalar tower, as an ``fn`` is, and takes one value per
        part; the derived ``fn`` evaluates the parts in order and applies
        it, so it traces to the operations the same function written out
        would record."""
        parts = tuple(parts)

        def fn(q1, q2, p1, p2):
            return outer(*(part.fn(q1, q2, p1, p2) for part in parts))

        return cls(fn, label, parts, outer)

    def __call__(self, point: PhasePoint) -> complex:
        return complex(_at_state(self, point)[0])


# ---------- compiled gradients ----------

# Forward code of each op; division is spelled by the target.
_FORWARD = {
    "add": "{0} + {1}",
    "sub": "{0} - {1}",
    "mul": "{0} * {1}",
    "neg": "-{0}",
    "sin": "sin({0})",
    "cos": "cos({0})",
    "tan": "tan({0})",
    "sqrt": "sqrt({0})",
}

# Contribution of each op to the adjoints of its operands, one
# ``(sign, expression)`` per operand: ``{d}`` is the result's adjoint,
# ``{v}`` its value, and ``{0}``, ``{1}`` name the operands.
_ADJOINT = {
    "add": (("+", "{d}"), ("+", "{d}")),
    "sub": (("+", "{d}"), ("-", "{d}")),
    "mul": (("+", "{d} * {1}"), ("+", "{d} * {0}")),
    "div": (("+", "{d} / {1}"), ("-", "{d} * {v} / {1}")),
    "neg": (("-", "{d}"),),
    "sin": (("+", "{d} * cos({0})"),),
    "cos": (("-", "{d} * sin({0})"),),
    "tan": (("+", "{d} * (1.0 + {v} * {v})"),),
    "sqrt": (("+", "{d} / ({v} + {v})"),),
}


def _sqrt(x):
    _require_positive(x)
    return math.sqrt(x)


def _nonzero(divisor):
    _check_divisor(divisor)
    return divisor


@dataclass(frozen=True)
class _Target:
    """What generated code computes with: the functions it calls and how it
    divides."""

    functions: dict
    divide: str


# Python floats for single states: math's functions, and a singular
# denominator raises ZeroDivisionError, as Python division does.  Python
# promotes to complex at a complex constant, as numpy does.
_FLOATS = _Target(
    {"sin": math.sin, "cos": math.cos, "tan": math.tan, "sqrt": _sqrt},
    "{0} / {1}",
)

# Numpy arrays for batches: the contracts of the scalar tower, a
# DomainError at an exact-zero divisor or a non-positive square root.
_ARRAYS = _Target(
    {"sin": sc.sin, "cos": sc.cos, "tan": sc.tan, "sqrt": sc.sqrt, "nonzero": _nonzero},
    "{0} / nonzero({1})",
)


def _generate(fn: Callable, arity: int, label: str, target: _Target) -> Callable:
    """Straight-line code for ``fn`` of ``arity`` inputs and its partials
    on ``target``.

    ``fn`` runs once on :class:`~superfact.scalars.Traced` inputs.  The
    recorded operations become one Python function of the ``arity``
    inputs (the four coordinates of an observable, or the part values of
    a composition) that evaluates ``fn`` and its partials from one reverse
    sweep
    (Griewank-Walther, *Evaluating Derivatives*, ch. 3-4); operations that
    do not reach the value are dropped.  Every operation is holomorphic,
    so the same adjoints give complex partials of complex observables.
    Constants are bound by name in the function's namespace, so the
    generated text, kept as the function's ``source``, never depends on
    how a constant prints.  Raises ``TypeError`` naming ``label`` when
    ``fn`` branches on an input.
    """
    label = label or "observable"
    tape = Tape(arity)
    try:
        result = tape.operand(fn(*tape.inputs))
    except TypeError as exc:
        raise TypeError(f"cannot compile {label}: {exc}") from exc

    # Reverse sweep.  A name is live once its adjoint is assigned; the
    # reverse order reaches every consumer of a value before the value.
    # Adjoints are never updated in place: on arrays, one adjoint may be
    # bound to another's array.
    live: set[str] = set()
    adjoint: list[str] = []

    def accumulate(name, sign, expr):
        if name.startswith("c"):
            return
        if name in live:
            adjoint.append(f"d{name} = d{name} {sign} {expr}")
        else:
            live.add(name)
            adjoint.append(f"d{name} = {expr}" if sign == "+" else f"d{name} = -({expr})")

    accumulate(result, "+", "1.0")
    for name, op, args in reversed(tape.ops):
        if name in live:
            for arg, (sign, expr) in zip(args, _ADJOINT[op]):
                accumulate(arg, sign, expr.format(*args, d=f"d{name}", v=name))
    forward = [
        f"{name} = {(target.divide if op == 'div' else _FORWARD[op]).format(*args)}"
        for name, op, args in tape.ops
        if name in live
    ]
    partials = ", ".join(f"d{x.name}" if x.name in live else "0.0" for x in tape.inputs)
    body = forward + adjoint + [f"return {result}, ({partials},)"]
    inputs = ", ".join(x.name for x in tape.inputs)
    source = f"def gradient({inputs}):\n" + "".join(f"    {line}\n" for line in body)

    namespace = dict(target.functions)
    namespace.update((f"c{i}", c) for i, c in enumerate(tape.constants))
    exec(compile(source, f"<gradient of {label}>", "exec"), namespace)
    fn = namespace["gradient"]
    fn.source = source
    return fn


@functools.lru_cache(maxsize=1024)
def compiled_gradient(f: Observable) -> Callable:
    """``f`` and its partials as straight-line float code, compiled once per
    observable (the bound is that of :func:`_batch_code`).

    One Python function of four floats returns ``(value, (df/dq1, df/dq2,
    df/dp1, df/dp2))``, as the array code does; see :func:`_generate`.  The
    numbers are floats, or complex where a complex constant enters; they
    equal the array code's run on the same four floats, real parts bit for
    bit.  The function raises ``ZeroDivisionError`` at a singular
    denominator, :class:`~superfact.errors.DomainError` at a non-positive
    square-root argument and ``ValueError`` where :mod:`math` has no value
    (a sine at infinity, say); a complex argument of a sine, cosine, tangent
    or square root, which no observable in scope has, raises ``TypeError``.
    Compiling raises ``TypeError`` naming the observable when it branches
    on a coordinate.  A composition's code is that of its derived ``fn``.
    """
    return _generate(f.fn, 4, f.label, _FLOATS)


@functools.lru_cache(maxsize=1024)
def _batch_code(f: Observable) -> Callable:
    """``f`` and its partials as array code, compiled once per observable.

    The observable builders return the same :class:`Observable` for the
    same spec, so a spec's code is compiled once per process.  One round
    of the benchmark's ``certify`` workload (23 specs) compiles 160
    distinct observables here and the outer functions of 106 compositions
    (:func:`_outer_code`), and one ``trace`` round (15 specs) compiles the
    float code of 45; a second round of either compiles none, so the bound
    keeps a whole workload.  :func:`gradient_batch` runs this code for
    every observable but a composition, whose chain-rule values have the
    bits of this code of its whole ``fn``.
    """
    return _generate(f.fn, 4, f.label, _ARRAYS)


@functools.lru_cache(maxsize=1024)
def _outer_code(f: Observable) -> Callable:
    """The outer function of the composition ``f`` and its partials in the
    values of its parts, as array code compiled once per observable."""
    return _generate(f.outer, len(f.parts), f"{f.label} of its parts", _ARRAYS)


# ---------- batched evaluation ----------


@dataclass(frozen=True)
class PhaseBatch:
    """Phase points stored column-wise as float64 arrays for batch evaluation."""

    q1: np.ndarray
    q2: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    # Values and gradients by observable; see eval_batch and gradient_batch.
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _gradients: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_arrays(cls, q1, q2, p1, p2) -> "PhaseBatch":
        for name, c in zip(COORDS, (q1, q2, p1, p2)):
            if np.iscomplexobj(c):
                raise TypeError(f"batch column {name} is complex; coordinates are real")
        cols = [np.array(c, dtype=np.float64) for c in (q1, q2, p1, p2)]
        n = {c.shape for c in cols}
        if len(n) != 1:
            raise ValueError("batch columns must share one shape")
        return cls(*cols)

    def arrays(self):
        return (self.q1, self.q2, self.p1, self.p2)

    def __len__(self):
        return self.q1.shape[0]

    def __getitem__(self, index) -> "PhaseBatch":
        """The points picked by a slice or a boolean mask, as a batch.  It
        keeps the values and gradients already taken on this batch."""
        out = PhaseBatch(*(c[index] for c in self.arrays()))
        for f, values in self._values.items():
            out._values[f] = _read_only(values[index])
        for f, grads in self._gradients.items():
            out._gradients[f] = _read_only(grads[:, index])
        return out

    def point(self, i: int) -> PhasePoint:
        return PhasePoint(self.q1[i], self.q2[i], self.p1[i], self.p2[i])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def eval_batch(f: Observable, batch: PhaseBatch) -> np.ndarray:
    """Evaluate ``f`` at every point of the batch (no derivatives), in the
    dtype of :func:`gradient_batch`'s values, read-only.  The value is kept
    on the batch, and a value kept there (by either function) is read, not
    computed again.  A composition applies its outer function to its
    parts' values, which gives the bits of its ``fn``."""
    values = batch._values.get(f)
    if values is None:
        if f.parts:
            value = f.outer(*(eval_batch(part, batch) for part in f.parts))
        else:
            value = f.fn(*batch.arrays())
        values = batch._values[f] = np.broadcast_to(value, (len(batch),))
    return values


def gradient_batch(f: Observable, batch: PhaseBatch):
    """Values and all four partials of ``f`` over a batch.

    Runs array code once per observable and batch: the result is kept on
    the batch, read-only, finite or not, and later calls (and slices of
    the batch) reuse it.  For most observables the code is
    :func:`_batch_code`.  A composition is differentiated by the chain
    rule: :func:`_outer_code` runs on its parts' kept values and gives
    ``d outer / d u_k``, and the gradient is ``sum_k d outer / d u_k *
    grad part_k``, over the parts' kept gradients.  Its values have the
    bits of its ``fn``; its partials are those of the same sums taken in
    another order.  Raises :class:`~superfact.errors.DomainError` at an
    exact-zero divisor or a non-positive square-root argument anywhere in
    the batch.  Returns ``(values (n,), grads (4, n))``: float64, or
    complex128 where a complex constant enters (the ladder and shift
    factors and their products).
    """
    grads = batch._gradients.get(f)
    if grads is not None:
        return batch._values[f], grads
    n = len(batch)
    if f.parts:
        kept = [gradient_batch(part, batch) for part in f.parts]
        value, partials = _outer_code(f)(*(values for values, _ in kept))
        grads = None
        for partial, (_, part_grads) in zip(partials, kept):
            term = partial * part_grads
            grads = term if grads is None else grads + term
    else:
        value, partials = _batch_code(f)(*batch.arrays())
        grads = np.empty((4, n), dtype=np.result_type(value, *partials))
        for k, partial in enumerate(partials):
            grads[k] = partial
    values = batch._values.setdefault(f, np.broadcast_to(value, (n,)))
    batch._gradients[f] = _read_only(grads)
    return values, grads


def _at_state(f: Observable, point: PhasePoint):
    """:func:`compiled_gradient` of ``f`` at ``point``; a singular
    denominator, or an argument :mod:`math` has no value for, raises
    :class:`~superfact.errors.DomainError`."""
    try:
        return compiled_gradient(f)(point.q1, point.q2, point.p1, point.p2)
    except (ZeroDivisionError, ValueError) as exc:
        raise DomainError(f"singular evaluation of {f.label or 'observable'}: {exc}") from exc


def gradient(f: Observable, point: PhasePoint) -> np.ndarray:
    """The four partials of ``f`` at one point, from :func:`compiled_gradient`.
    Raises :class:`~superfact.errors.DomainError` at a singular evaluation."""
    value, partials = _at_state(f, point)
    return np.array(partials, dtype=np.result_type(value, *partials))


def bracket_batch_with_scale(f: Observable, g: Observable, batch: PhaseBatch):
    """Bracket values over a batch plus the per-point term-magnitude scale."""
    _, df = gradient_batch(f, batch)
    _, dg = gradient_batch(g, batch)
    t0 = df[0] * dg[2]
    t1 = df[2] * dg[0]
    t2 = df[1] * dg[3]
    t3 = df[3] * dg[1]
    val = t0 - t1 + t2 - t3
    scale = np.abs(t0) + np.abs(t1) + np.abs(t2) + np.abs(t3)
    return val, scale


def bracket_batch(f: Observable, g: Observable, batch: PhaseBatch) -> np.ndarray:
    return bracket_batch_with_scale(f, g, batch)[0]


# ---------- functional independence ----------


def gradient_ranks(grads: np.ndarray) -> np.ndarray:
    """Numerical ranks of real gradient matrices stacked as ``(n, k, 4)``.

    Each gradient row is scaled to unit norm before the SVD: functional
    independence is a statement about gradient directions, and without the
    scaling an observable of large magnitude (a high-order product, say)
    would numerically swamp an O(1) one.  Rows are divided by their largest
    entry first, so a finite row beyond ``1e154`` does not overflow its
    norm.  Rank is then the number of singular values above :data:`RANK_TOL`
    relative to the largest one; an all-zero matrix has rank 0.
    """
    peak = np.max(np.abs(grads), axis=-1, keepdims=True)
    grads = np.divide(grads, peak, out=np.zeros_like(grads), where=peak > 0.0)
    norms = np.linalg.norm(grads, axis=-1, keepdims=True)
    unit = np.divide(grads, norms, out=grads.copy(), where=norms > 0.0)
    svals = np.linalg.svd(unit, compute_uv=False)  # (n, k)
    lead = svals[:, :1]
    return np.where(lead[:, 0] > 0.0, np.sum(svals > RANK_TOL * lead, axis=1), 0)
