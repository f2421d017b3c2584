"""JSON interchange for polytopes, direction sets and bundles.

Rationals travel as exact strings "p" or "p/q" in lowest terms; the reader
rejects anything else (floats in particular).  Integer-valued fields such as
direction coordinates may also be plain JSON integers.  Integer fields (a
document's 'dim', a bundle's dimension, indices, seeds and counts) must be
plain JSON integers; floats, strings and booleans are rejected, and so are a
dimension, trial count or entry bound below 1, a failure count outside
[0, shadow_trials], a family whose members and coefficients differ in
number, and a certificate entry that is not an [index, multiplier] pair.
Writing is canonical (sorted keys, fixed indentation), so identical objects
serialise to identical bytes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any

from .containment import FarkasCertificate
from .counterexample import CounterexampleBundle
from .linalg import Vector, vector
from .polytope import Polytope, hull_from_vertices
from .reliability import DirectionSet, SimplicialFamily, direction_set

_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")


class FormatError(ValueError):
    """Malformed interchange document."""


def parse_rational(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise FormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.match(value):
        return Fraction(value)
    raise FormatError(f"not a rational: {value!r}")


def _parse_integer(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"not an integer: {value!r}")
    return value


def _parse_at_least(value: Any, low: int, name: str) -> int:
    value = _parse_integer(value)
    if value < low:
        raise FormatError(f"bundle '{name}' must be at least {low}, got {value}")
    return value


def _parse_dim(doc: dict, kind: str) -> int:
    try:
        return _parse_at_least(doc.get("dim"), 1, "dim")
    except FormatError:
        raise FormatError(f"{kind} 'dim' must be a positive integer") from None


def _parse_pair(entry: Any) -> tuple[int, Fraction]:
    if not isinstance(entry, list) or len(entry) != 2:
        raise FormatError(f"expected an [index, multiplier] pair, got {entry!r}")
    return _parse_integer(entry[0]), parse_rational(entry[1])


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _parse_point(entry: Any, dim: int) -> Vector:
    if not isinstance(entry, list) or len(entry) != dim:
        raise FormatError(f"expected a list of {dim} rationals, got {entry!r}")
    return vector([parse_rational(x) for x in entry])


def polytope_to_doc(p: Polytope) -> dict:
    return {
        "dim": p.dim,
        "vertices": [[format_rational(x) for x in v] for v in p.vertices],
    }


def polytope_from_doc(doc: Any) -> Polytope:
    if not isinstance(doc, dict):
        raise FormatError("polytope document must be an object")
    dim = _parse_dim(doc, "polytope")
    verts = doc.get("vertices")
    if not isinstance(verts, list) or not verts:
        raise FormatError("polytope 'vertices' must be a nonempty list")
    points = [_parse_point(v, dim) for v in verts]
    return hull_from_vertices(points)


def directions_to_doc(a: DirectionSet) -> dict:
    return {
        "dim": a.dim,
        "directions": [[format_rational(x) for x in u] for u in a.directions],
    }


def directions_from_doc(doc: Any) -> DirectionSet:
    if not isinstance(doc, dict):
        raise FormatError("directions document must be an object")
    dim = _parse_dim(doc, "directions")
    dirs = doc.get("directions")
    if not isinstance(dirs, list) or not dirs:
        raise FormatError("'directions' must be a nonempty list")
    try:
        return direction_set(dim, [_parse_point(u, dim) for u in dirs])
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def bundle_to_doc(b: CounterexampleBundle) -> dict:
    return {
        "kind": "counterexample-bundle",
        "d": b.d,
        "cover": polytope_to_doc(b.cover),
        "body": polytope_to_doc(b.body),
        "family": {
            "members": list(b.family.members),
            "coefficients": [format_rational(c) for c in b.family.coefficients],
        },
        "alpha": format_rational(b.alpha),
        "alpha_min_observed": format_rational(b.alpha_min_observed),
        "margin": format_rational(b.margin),
        "noncontainment": [
            [i, format_rational(lam)] for i, lam in b.noncontainment.multipliers
        ],
        "search_seed": b.search_seed,
        "search_trials": b.search_trials,
        "entry_bound": b.entry_bound,
        "verify_seed": b.verify_seed,
        "shadow_trials": b.shadow_trials,
        "shadow_failures": b.shadow_failures,
    }


def bundle_from_doc(doc: Any) -> CounterexampleBundle:
    if not isinstance(doc, dict) or doc.get("kind") != "counterexample-bundle":
        raise FormatError("not a counterexample bundle document")
    try:
        family = SimplicialFamily(
            tuple(_parse_integer(i) for i in doc["family"]["members"]),
            vector([parse_rational(c) for c in doc["family"]["coefficients"]]),
        )
        if len(family.members) != len(family.coefficients):
            raise FormatError("bundle family has unequal members and coefficients")
        cert = FarkasCertificate(tuple(map(_parse_pair, doc["noncontainment"])))
        shadow_trials = _parse_at_least(doc["shadow_trials"], 1, "shadow_trials")
        shadow_failures = _parse_at_least(doc["shadow_failures"], 0, "shadow_failures")
        if shadow_failures > shadow_trials:
            raise FormatError("bundle 'shadow_failures' exceeds 'shadow_trials'")
        return CounterexampleBundle(
            cover=polytope_from_doc(doc["cover"]),
            d=_parse_at_least(doc["d"], 1, "d"),
            family=family,
            body=polytope_from_doc(doc["body"]),
            alpha=parse_rational(doc["alpha"]),
            alpha_min_observed=parse_rational(doc["alpha_min_observed"]),
            margin=parse_rational(doc["margin"]),
            noncontainment=cert,
            search_seed=_parse_integer(doc["search_seed"]),
            search_trials=_parse_at_least(doc["search_trials"], 1, "search_trials"),
            entry_bound=_parse_at_least(doc["entry_bound"], 1, "entry_bound"),
            verify_seed=_parse_integer(doc["verify_seed"]),
            shadow_trials=shadow_trials,
            shadow_failures=shadow_failures,
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed bundle document: {exc}") from None


def dumps_canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def read_json(path: str | Path) -> Any:
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise FormatError(f"JSON in {path} is nested too deeply") from None


def write_json(path: str | Path, doc: Any) -> None:
    Path(path).write_text(dumps_canonical(doc))


def load_body(path: str | Path) -> Polytope | DirectionSet:
    """Load either a polytope or a direction-set document."""
    doc = read_json(path)
    if isinstance(doc, dict) and "directions" in doc:
        return directions_from_doc(doc)
    return polytope_from_doc(doc)
