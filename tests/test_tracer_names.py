"""The benchmark's tracer wraps library functions by (module, name).

Renaming or deleting one of them would silently drop a per-layer metric, so
every traced name must resolve to a callable in the package.  The benchmark
scripts read more names of the package than the tracer wraps; each of those
must resolve too, or a deletion breaks the benchmark unnoticed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_callables():
    tracing = _tracing()
    names = list(tracing.SPANNED + tracing.COUNTED)
    assert ("polytope", "project") in names and ("kernels", "hull_facets") in names
    # the circuits hook sizes its search with this function
    names.append(("reliability", "search_space"))
    for mod_name, fn_name in names:
        module = importlib.import_module(f"shadowcover.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def _package_references(path):
    """(module, name) for every ``module.name`` a script reads, where module
    is the package or a submodule it imported from the package, and for
    every name it imports from the package."""
    tree = ast.parse(path.read_text())
    bound = {}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "shadowcover":
                    bound[alias.asname or alias.name] = "shadowcover"
        elif isinstance(node, ast.ImportFrom) and node.module == "shadowcover":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"shadowcover.{alias.name}"
                refs.add(("shadowcover", alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            refs.add((bound[node.value.id], node.attr))
    return refs


def test_benchmark_references_resolve():
    refs = set()
    for script in ("workloads.py", "run.py", "check_counts.py"):
        refs |= _package_references(PERFBENCH / script)
    assert {
        ("shadowcover.linalg", "integerize"),
        ("shadowcover.polytope", "translate_of"),
        ("shadowcover", "backend_name"),
    } <= refs
    assert len(refs) >= 30
    for mod_name, name in sorted(refs):
        module = importlib.import_module(mod_name)
        if mod_name == "shadowcover" and importlib.util.find_spec(f"shadowcover.{name}"):
            # a submodule, imported as a name from the package
            importlib.import_module(f"shadowcover.{name}")
        assert hasattr(module, name), f"{mod_name}.{name}"
    # read off a DirectionSet, which the walk above cannot type
    reliability = importlib.import_module("shadowcover.reliability")
    assert callable(reliability.DirectionSet.integer_directions)
