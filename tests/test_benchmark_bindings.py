"""The names the benchmark binds stay in the package.

``perfbench/`` is the benchmark's own tree and is not edited with the
package: its tracer wraps every function of ``tracing.TARGETS``, its
workloads call ``sf.<name>`` and read points with ``PhaseBatch.point``,
and ``run.microbench`` builds ``scalars.DualComplex`` values.  A deletion
that removes one of them breaks a traced run or the workload generation;
these tests fail first.  They read ``perfbench/`` without importing its
scripts' dependencies.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import superfact

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, dotted):
    obj = importlib.import_module(module_name)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_target_resolves():
    targets = _tracing().TARGETS
    assert targets
    for _, module_name, attr in targets:
        assert callable(_resolve(module_name, attr)), (module_name, attr)


def test_every_name_the_benchmark_imports_resolves():
    """``from superfact... import name`` anywhere under ``perfbench/``,
    ``scalars.DualComplex`` among them."""
    imported = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("superfact"):
                imported |= {(node.module, alias.name) for alias in node.names}
    assert ("superfact.scalars", "DualComplex") in imported
    for module_name, name in imported:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")


def test_every_package_name_the_workloads_use_exists():
    source = (PERFBENCH / "workloads.py").read_text()
    used = {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "sf"
    }
    assert {"PhasePoint", "hamiltonian", "second_integral", "eval_batch"} <= used
    missing = sorted(name for name in used if not hasattr(superfact, name))
    assert missing == []
    # The workloads read one point of a batch and evaluate X at it.
    assert callable(superfact.PhaseBatch.point)
    assert callable(superfact.Observable.__call__)


def test_all_resolves_without_duplicates():
    names = superfact.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(superfact, name), name
