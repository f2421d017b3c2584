import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowcover.counterexample import build_counterexample, verify_bundle
from shadowcover.jsonio import (
    FormatError,
    bundle_from_doc,
    bundle_to_doc,
    directions_from_doc,
    directions_to_doc,
    dumps_canonical,
    format_rational,
    parse_rational,
    polytope_from_doc,
    polytope_to_doc,
)

F = Fraction


def test_parse_rational_accepts():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(5) == F(5)
    assert parse_rational("-3/2") == F(-3, 2)


@pytest.mark.parametrize(
    "bad", ["1.5", "3/0", "03/", "1/-2", " 1", "1/2/3", None, 2.5, True, [1]]
)
def test_parse_rational_rejects(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


def test_format_lowest_terms():
    assert format_rational(F(6, 4)) == "3/2"
    assert format_rational(F(-8, 2)) == "-4"
    assert format_rational(F(0)) == "0"


def test_polytope_round_trip(pyramid):
    doc = polytope_to_doc(pyramid)
    again = polytope_from_doc(doc)
    assert again == pyramid


def test_polytope_doc_normalises_redundant_points():
    doc = {"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["0", "2"], ["1", "1"]]}
    p = polytope_from_doc(doc)
    assert len(p.vertices) == 3


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 2},
        {"vertices": [["1", "2"]]},
        {"dim": 0, "vertices": [[]]},
        {"dim": 2, "vertices": []},
        {"dim": 2, "vertices": [["1"]]},
        {"dim": 2, "vertices": [["1", "0.5"]]},
        [1, 2],
    ],
)
def test_polytope_doc_rejects(doc):
    with pytest.raises(FormatError):
        polytope_from_doc(doc)


def test_polytope_doc_rejects_boolean_dim():
    with pytest.raises(FormatError, match="polytope 'dim' must be a positive integer"):
        polytope_from_doc({"dim": True, "vertices": [["0"], ["1"]]})


def test_directions_doc_rejects_boolean_dim():
    with pytest.raises(FormatError, match="directions 'dim' must be a positive integer"):
        directions_from_doc({"dim": True, "directions": [[1], [-1]]})


def test_directions_round_trip(q_directions):
    doc = directions_to_doc(q_directions)
    assert directions_from_doc(doc) == q_directions


def test_directions_reject_duplicates():
    doc = {"dim": 2, "directions": [[1, 0], [2, 0]]}
    with pytest.raises(FormatError):
        directions_from_doc(doc)


@pytest.fixture(scope="module")
def octahedron_bundle(octahedron):
    return build_counterexample(octahedron, 2)


def test_bundle_round_trip(octahedron_bundle):
    bundle = octahedron_bundle
    doc = bundle_to_doc(bundle)
    again = bundle_from_doc(json.loads(dumps_canonical(doc)))
    assert again == bundle
    assert verify_bundle(again).passed
    # canonical serialisation is byte-stable
    assert dumps_canonical(doc) == dumps_canonical(bundle_to_doc(again))


def _set(path, value):
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        # int() would have read these as 0, 1, 2, 0 and 1 without complaint
        _set(("family", "members", 0), 0.9),
        _set(("noncontainment", 0, 0), True),
        _set(("d",), 2.0),
        _set(("cover_certificate", 0, "vertices", 0), "0"),
        _set(("minimiser", 1), True),
    ],
    ids=["member-float", "index-bool", "d-float", "vertex-str", "minimiser-bool"],
)
def test_bundle_integer_fields_reject_non_integers(octahedron_bundle, edit):
    doc = json.loads(dumps_canonical(bundle_to_doc(octahedron_bundle)))
    edit(doc)
    with pytest.raises(FormatError):
        bundle_from_doc(doc)


@pytest.mark.parametrize(
    "edit",
    [
        _set(("d",), 0),
        _set(("family", "coefficients"), ["1", "1"]),
        _set(("noncontainment", 0), [0]),
        _set(("noncontainment", 0), [0, "1", "2"]),
    ],
    ids=["d-zero", "family-unequal", "certificate-single", "certificate-triple"],
)
def test_bundle_ranges_and_shapes_rejected(octahedron_bundle, edit):
    doc = json.loads(dumps_canonical(bundle_to_doc(octahedron_bundle)))
    assert len(doc["family"]["members"]) == 4
    edit(doc)
    with pytest.raises(FormatError):
        bundle_from_doc(doc)


@pytest.mark.parametrize(
    "edit",
    [
        _set(("cover_certificate", 0, "vertices"), [0, 1, 4]),
        _set(("cover_certificate", 0, "vertices"), [-1, 1, 2]),
        _set(("cover_certificate", 0, "vertices"), [0, 1]),
        _set(("cover_certificate", 0, "vertices"), [0, 1, 2, 3]),
        _set(("cover_certificate", 0, "vertices"), [0, 0, 1]),
        _set(("cover_certificate", 0, "vertices"), [1, 0, 2]),
        _set(("cover_certificate", 0, "vertices"), "012"),
        _set(("cover_certificate", 0, "translation"), ["0", "0"]),
        _set(("cover_certificate", 0), [[0, 1, 2], ["0", "0", "0"]]),
        _set(("cover_certificate",), {"vertices": [0, 1, 2]}),
        _set(("minimiser",), [2, 3, 4]),
        _set(("minimiser",), [0, 1]),
        lambda doc: doc.pop("cover_certificate"),
    ],
    ids=[
        "vertex-out-of-range", "vertex-negative", "subset-short", "subset-long",
        "subset-repeated", "subset-unordered", "subset-string",
        "translation-short", "entry-not-object", "cover-not-list",
        "minimiser-out-of-range", "minimiser-short", "cover-missing",
    ],
)
def test_bundle_cover_certificate_rejected(octahedron_bundle, edit):
    doc = json.loads(dumps_canonical(bundle_to_doc(octahedron_bundle)))
    assert len(doc["body"]["vertices"]) == 4 and doc["d"] == 2
    edit(doc)
    with pytest.raises(FormatError) as exc:
        bundle_from_doc(doc)
    assert len(str(exc.value)) < 200 and "\n" not in str(exc.value)


def test_canonical_dump_is_sorted():
    text = dumps_canonical({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


@given(st.fractions())
@settings(max_examples=200, deadline=None)
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q
