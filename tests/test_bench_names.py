"""The names the benchmark binds in the package still resolve.

``perfbench/tracer.py`` patches the functions listed in its ``SPANS`` and
``COUNTERS`` by name, and the benchmark scripts import names from fct.
A name deleted or renamed in the package would otherwise only show as a
broken traced benchmark run.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from fct import _purecore, cli, kernels, noncrossing, poly, verify

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _guarded(tree) -> set:
    """Ids of the import nodes inside a try that catches ImportError."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
            isinstance(h.type, ast.Name) and h.type.id == "ImportError"
            for h in node.handlers
        ):
            out.update(id(sub) for stmt in node.body for sub in ast.walk(stmt))
    return out


def test_tracer_spans_and_counters_resolve():
    tracer = _load("tracer")
    for modname, attr, *_ in tracer.SPANS + tracer.COUNTERS:
        module = importlib.import_module(f"fct.{modname}")
        assert callable(getattr(module, attr, None)), f"fct.{modname}.{attr}"
    spans = {name: (modname, attr) for modname, attr, name, *_ in tracer.SPANS}
    for name in tracer.KEYED:
        assert name in spans, name
    # the tracer binds the interval build's arguments as its cache key
    assert list(inspect.signature(noncrossing._interval_tables).parameters) == ["rs"]
    assert isinstance(vars(poly.KFamily)["fit"], classmethod)
    assert callable(poly.KFamily.predict)
    assert callable(cli._emit)
    assert verify.IDENTITIES


def test_bench_imports_resolve():
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        guarded = _guarded(tree)
        for node in ast.walk(tree):
            if id(node) in guarded:
                continue
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fct"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name) or importlib.util.find_spec(
                        f"{node.module}.{alias.name}"
                    ), f"{path.name}: {node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("fct"):
                        importlib.import_module(alias.name)


def test_kernel_probe_kernels_resolve():
    """The probe calls each kernel it names on both cores by name."""
    tree = ast.parse((BENCH / "kernel_probe.py").read_text())
    probe = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_inputs"
    )
    table = next(node.value for node in ast.walk(probe) if isinstance(node, ast.Return))
    names = [key.value for key in table.keys]
    assert names
    for name in names:
        assert callable(getattr(_purecore, name)), name
        assert callable(getattr(kernels, name)), name
