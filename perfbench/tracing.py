"""Span tracing around the public functions each superfact module calls into.

The benchmark installs a wrapper for every traced function in every
superfact module namespace that binds it (``verification`` imports
``gradient_batch`` by name, ``cli`` imports ``integrate``, ``dynamics``
imports scipy's ``solve_ivp``), so calls across modules are caught as well
as calls inside one.  Spans stay in memory and are written out once, when
the run ends.  The program itself is not changed.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# Layers that spans cover; ``scalars`` is measured by microbenchmarks instead,
# since a span around each dual-number operation would swamp it.
LAYERS = ("phase", "systems", "factorization", "verification", "dynamics", "cli")

# (span name, module, attribute); a dotted attribute names a method.
TARGETS = (
    ("phase.eval_batch", "superfact.phase", "eval_batch"),
    ("phase.gradient_batch", "superfact.phase", "gradient_batch"),
    ("phase.bracket_batch_with_scale", "superfact.phase", "bracket_batch_with_scale"),
    ("phase.gradient", "superfact.phase", "gradient"),
    ("phase.observable_call", "superfact.phase", "Observable.__call__"),
    ("systems.domain_check", "superfact.systems", "domain_check"),
    ("systems.default_box", "superfact.systems", "default_box"),
    ("systems.hamiltonian_observable", "superfact.systems", "hamiltonian_observable"),
    ("systems.second_integral_observable", "superfact.systems", "second_integral_observable"),
    ("systems.epsilon_observable", "superfact.systems", "epsilon_observable"),
    ("factorization.higher_integral_observables", "superfact.factorization",
     "higher_integral_observables"),
    ("factorization.ladder_observables", "superfact.factorization", "ladder_observables"),
    ("factorization.shift_observables", "superfact.factorization", "shift_observables"),
    ("factorization.ttw_shift_observables", "superfact.factorization", "ttw_shift_observables"),
    ("verification.sample_points", "superfact.verification", "sample_points"),
    ("verification.build_suite", "superfact.verification", "build_suite"),
    ("verification.run_suite", "superfact.verification", "run_suite"),
    ("verification.run_identity", "superfact.verification", "run_identity"),
    ("verification.independence_report", "superfact.verification", "independence_report"),
    ("dynamics.integrate", "superfact.dynamics", "integrate"),
    ("dynamics.solve_ivp", "superfact.dynamics", "solve_ivp"),
    ("dynamics.drift_report", "superfact.dynamics", "drift_report"),
    ("dynamics.detect_closure", "superfact.dynamics", "detect_closure"),
)

# The benchmark opens this span around each CLI command.
COMMAND_SPAN = "cli.main"

# Leaf functions called hundreds of thousands of times per round by the
# level solver; their spans are rolled up per parent span (calls, seconds,
# longest call) instead of being stored one by one.
LEAVES = frozenset({"phase.observable_call", "phase.gradient", "systems.domain_check"})


class Tracer:
    """In-memory span recorder.

    A span is ``[parent, name, request, start, end]``; ``parent`` is the
    index of the enclosing span (-1 at top level) and ``request`` the index
    of the CLI command it belongs to.  Calls of a leaf function are kept as
    ``leaves[(parent, name)] = [calls, seconds, longest]``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list] = {}
        self.nfev = 0  # summed OdeResult.nfev of the traced solve_ivp calls
        self.request = -1
        self._stack = [-1]

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([self._stack[-1], name, self.request, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def wrap(self, name: str, fn):
        if name in LEAVES:
            return self._wrap_leaf(name, fn)
        tracer = self
        count_nfev = name == "dynamics.solve_ivp"

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if count_nfev:
                tracer.nfev += out.nfev
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_leaf(self, name: str, fn):
        leaves = self.leaves
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                entry = leaves.get((stack[-1], name))
                if entry is None:
                    leaves[(stack[-1], name)] = [1, dur, dur]
                else:
                    entry[0] += 1
                    entry[1] += dur
                    if dur > entry[2]:
                        entry[2] = dur

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        """Write the spans as CSV, then the rolled-up leaf calls."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,request,start_s,end_s\n")
            for sid, (parent, name, request, t0, t1) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{request},{t0!r},{t1!r}\n")
            fh.write("\nparent,name,calls,seconds,longest_s\n")
            for (parent, name), (calls, secs, longest) in sorted(self.leaves.items()):
                fh.write(f"{parent},{name},{calls},{secs!r},{longest!r}\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced function through ``tracer`` until the block ends."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "superfact" or n.startswith("superfact.")]
    undo = []
    try:
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, tracer.wrap(name, original))
                undo.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def summarize(tracer: Tracer):
    """Totals per span name and per layer.

    Returns ``(by_name, by_layer)``.  A span's self time is its duration
    minus the time of its direct children; spans nest properly on one
    thread, so children never overlap.  A layer's busy time counts only its
    outermost spans, so a layer calling into itself is not counted twice.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for parent, _, _, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for (parent, _), (_, secs, _) in tracer.leaves.items():
        if parent >= 0:
            child_time[parent] += secs
    by_name: dict[str, dict[str, float]] = {}
    by_layer = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}

    def add(parent, name, calls, secs, own, longest):
        entry = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "s_max": 0.0})
        entry["calls"] += calls
        entry["s"] += secs
        entry["self_s"] += own
        entry["s_max"] = max(entry["s_max"], longest)
        layer = name.split(".")[0]
        totals = by_layer[layer]
        totals["calls"] += calls
        totals["self_s"] += own
        if parent < 0 or spans[parent][1].split(".")[0] != layer:
            totals["busy_s"] += secs

    for sid, (parent, name, _, t0, t1) in enumerate(spans):
        add(parent, name, 1, t1 - t0, t1 - t0 - child_time[sid], t1 - t0)
    for (parent, name), (calls, secs, longest) in tracer.leaves.items():
        add(parent, name, calls, secs, secs, longest)
    return by_name, by_layer
