"""JSON interchange for polytopes, direction sets and bundles.

Rationals travel as exact strings "p" or "p/q" in lowest terms; the reader
rejects anything else (floats in particular).  Integer-valued fields such as
direction coordinates may also be plain JSON integers.  Integer fields (a
document's 'dim', a bundle's dimension and indices) must be plain JSON
integers; floats, strings and booleans are rejected, and so are a dimension
below 1, a family whose members and coefficients differ in number, a
certificate entry that is not an [index, multiplier] pair, and a
cover-certificate subset that is not d+1 increasing vertex indices of the
bundle's body.
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


def _shown(value: Any) -> str:
    """The repr of an offending value, cut to 80 characters, so that an error
    echoes a bounded part of the input on its one line."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


def parse_rational(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise FormatError(f"not a rational: {_shown(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.match(value):
        return Fraction(value)
    raise FormatError(f"not a rational: {_shown(value)}")


def _parse_integer(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"not an integer: {_shown(value)}")
    return value


def _parse_at_least(value: Any, low: int, name: str) -> int:
    value = _parse_integer(value)
    if value < low:
        raise FormatError(
            f"bundle '{name}' must be at least {low}, got {_shown(value)}"
        )
    return value


def _parse_dim(doc: dict, kind: str) -> int:
    try:
        return _parse_at_least(doc.get("dim"), 1, "dim")
    except FormatError:
        raise FormatError(f"{kind} 'dim' must be a positive integer") from None


def _parse_pair(entry: Any) -> tuple[int, Fraction]:
    if not isinstance(entry, list) or len(entry) != 2:
        raise FormatError(f"expected an [index, multiplier] pair, got {_shown(entry)}")
    return _parse_integer(entry[0]), parse_rational(entry[1])


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _parse_point(entry: Any, dim: int) -> Vector:
    if not isinstance(entry, list) or len(entry) != dim:
        raise FormatError(f"expected a list of {dim} rationals, got {_shown(entry)}")
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
        "noncontainment": [
            [i, format_rational(lam)] for i, lam in b.noncontainment.multipliers
        ],
        "cover_certificate": [
            {"vertices": list(t), "translation": [format_rational(x) for x in w]}
            for t, w in b.cover_certificate
        ],
        "minimiser": list(b.minimiser),
    }


def _parse_subset(entry: Any, size: int, vertex_count: int) -> tuple[int, ...]:
    if not isinstance(entry, list) or len(entry) != size:
        raise FormatError(f"expected {size} vertex indices, got {_shown(entry)}")
    subset = tuple(_parse_integer(i) for i in entry)
    if any(not 0 <= i < j for i, j in zip(subset, subset[1:] + (vertex_count,))):
        raise FormatError(
            f"expected increasing vertex indices below {vertex_count}, "
            f"got {_shown(entry)}"
        )
    return subset


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
        d = _parse_at_least(doc["d"], 1, "d")
        body = polytope_from_doc(doc["body"])
        count = len(body.vertices)
        cover_certificate = tuple(
            (_parse_subset(entry["vertices"], d + 1, count),
             _parse_point(entry["translation"], body.dim))
            for entry in doc["cover_certificate"]
        )
        return CounterexampleBundle(
            cover=polytope_from_doc(doc["cover"]),
            d=d,
            family=family,
            body=body,
            alpha=parse_rational(doc["alpha"]),
            noncontainment=cert,
            cover_certificate=cover_certificate,
            minimiser=_parse_subset(doc["minimiser"], d + 1, count),
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
