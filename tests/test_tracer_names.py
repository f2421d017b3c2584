"""The benchmark's tracer wraps library functions by (module, name).

Renaming or deleting one of them would silently drop a per-layer metric, so
every traced name must resolve to a callable in the package.  The benchmark
scripts read more names of the package than the tracer wraps; each of those
must resolve too, and each call they make into the package must bind to the
callee's signature, or a deletion or a signature change breaks the benchmark
unnoticed.  The package itself holds no ``assert`` statement, so that every
witness check still runs under ``python -O``, and no function or class that
neither the package nor the benchmark uses.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"
SCRIPTS = ("workloads.py", "run.py", "check_counts.py")


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


def _package_bindings(tree):
    """The names a script binds to the package, or to a submodule it
    imports from the package, mapped to the module's name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "shadowcover":
                    bound[alias.asname or alias.name] = "shadowcover"
        elif isinstance(node, ast.ImportFrom) and node.module == "shadowcover":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"shadowcover.{alias.name}"
    return bound


def _package_references(path):
    """(module, name) for every ``module.name`` a script reads, where module
    is the package or a submodule it imported from the package, and for
    every name it imports from the package."""
    tree = ast.parse(path.read_text())
    bound = _package_bindings(tree)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "shadowcover":
            refs |= {("shadowcover", alias.name) for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            refs.add((bound[node.value.id], node.attr))
    return refs


def _package_calls(path):
    """(module, ast.Call) for every call ``module.name(...)`` a script
    makes, where module is bound to the package or one of its modules."""
    tree = ast.parse(path.read_text())
    bound = _package_bindings(tree)
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name) and func.value.id in bound):
            yield bound[func.value.id], node


def test_benchmark_references_resolve():
    refs = set()
    for script in SCRIPTS:
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


def test_benchmark_calls_bind_to_signatures():
    """Every ``module.name(...)`` call of the benchmark scripts binds to the
    callee's signature, by its positional-argument count and keyword names."""
    checked = 0
    for script in SCRIPTS:
        for mod_name, call in _package_calls(PERFBENCH / script):
            target = getattr(importlib.import_module(mod_name), call.func.attr)
            args = [None] * sum(not isinstance(a, ast.Starred) for a in call.args)
            kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
            sig = inspect.signature(target)
            # a starred argument hides its count, so only a partial binding holds
            starred = len(args) < len(call.args) or len(kwargs) < len(call.keywords)
            try:
                (sig.bind_partial if starred else sig.bind)(*args, **kwargs)
            except TypeError as exc:
                raise AssertionError(
                    f"{script}:{call.lineno}: {ast.unparse(call.func)}: {exc}"
                ) from None
            checked += 1
    assert checked >= 40


def test_package_has_no_assert_statements():
    """Witness checks raise explicitly; an ``assert`` would vanish under -O."""
    found = []
    for path in sorted((ROOT / "src" / "shadowcover").glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


# names kept without a caller in the package, each with its reason
_UNCALLED = {
    # the README promises independent re-verification of a bundle from its
    # JSON document; a ``verify`` subcommand is to become its caller
    ("jsonio", "bundle_from_doc"),
}


def test_every_package_name_has_a_caller():
    """Every top-level function and class of the package is loaded somewhere
    in the package outside its own definition and ``__init__.py``, or is
    read by a benchmark script.  Names are matched by their text, as a bare
    name or an attribute."""
    package = ROOT / "src" / "shadowcover"
    defined, loads = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [node for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        defined += [(path.stem, node) for node in defs]
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.append((path.stem, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((path.stem, node.attr, node.lineno))
    read = {name for script in SCRIPTS
            for _, name in _package_references(PERFBENCH / script)}
    uncalled = []
    for module, node in defined:
        inside = range(node.lineno, node.end_lineno + 1)
        called = any(name == node.name and not (mod == module and line in inside)
                     for mod, name, line in loads)
        kept = node.name in read or (module, node.name) in _UNCALLED
        if not called and not kept:
            uncalled.append(f"{module}.{node.name}")
    assert not uncalled, uncalled
