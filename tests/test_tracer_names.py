"""The benchmark's tracer wraps library functions by (module, name).

Renaming or deleting one of them would silently drop a per-layer metric, so
every traced name must resolve to a callable in the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
