"""Quick self-verification: the exact named-example checks at reduced scale.

One line per check, PASS or FAIL.  This is the fast subset of the full
acceptance suite (tests/test_acceptance.py), trimmed to run in seconds on
fewer and smaller bodies; every check is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .containment import translate_fit
from .corpus import named, names, random_polytope
from .counterexample import build_counterexample, verify_bundle
from .decomposability import is_decomposable
from .polytope import Polytope, hull_certificate_valid, hull_from_vertices
from .reliability import direction_set, family_valid, is_reliable, parallelotope_check


def _check(label: str, ok: bool, results: list[bool]) -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {label}")


def run_selftest() -> bool:
    results: list[bool] = []

    pyr = named("square-pyramid")
    v1 = is_reliable(pyr, 1)
    _check(
        "square pyramid: not 1-reliable, certificate of size 3",
        not v1.reliable and v1.certificate.size == 3,
        results,
    )
    _check("square pyramid: 2-reliable", is_reliable(pyr, 2).reliable, results)
    _check(
        "square pyramid: not 2-decomposable",
        not is_decomposable(pyr, 2)[0],
        results,
    )

    q = named("q-directions")
    _check("12-direction set: no simplicial 5-family", is_reliable(q, 3).reliable, results)
    vq = is_reliable(q, 2)
    _check(
        "12-direction set: a simplicial 4-family exists",
        not vq.reliable and vq.certificate.size == 4,
        results,
    )
    okdims = is_decomposable(q, 3)[1].dims() == (4,)
    _check("12-direction set: single 4-dimensional component", okdims, results)

    # one normal component per polygon, each of rank 2: none is searched at d=2
    polygons = [named(n) for n in ("hexagon", "cube-2", "standard-simplex-2")]
    summed = direction_set(6, [
        (0,) * (2 * i) + a + (0,) * (4 - 2 * i)
        for i, p in enumerate(polygons) for a, _, _ in p.int_facets
    ])
    _check("three-polygon direct sum in R^6: 2-reliable",
           is_reliable(summed, 2).reliable, results)
    # components {0, 2} of rank 1 and {1, 3, 4} of rank 2, holding the family
    split = direction_set(
        3, [(0, 0, 1), (1, 0, 0), (0, 0, -1), (0, 1, 0), (-1, -1, 0)]
    )
    vs = is_reliable(split, 1)
    _check(
        "decomposable, not 1-reliable: certificate lifted from its component",
        is_decomposable(split, 2)[0] and not vs.reliable
        and vs.certificate.members == (1, 3, 4) and family_valid(split, vs.certificate),
        results,
    )

    corpus: list[Polytope] = [
        body for body in (named(n) for n in names()) if isinstance(body, Polytope)
    ]
    corpus += [random_polytope(s, 3, 7, 4) for s in range(4)]
    full = [p for p in corpus if p.is_full_dimensional]

    agree = all(
        is_reliable(p, 1).reliable == parallelotope_check(p) for p in full
    )
    _check("1-reliable coincides with parallelotope on the corpus", agree, results)

    mono = True
    for p in full:
        if p.dim < 2:
            continue
        dec_rel = all(
            is_reliable(p, d).reliable
            for d in range(1, p.dim)
            if is_decomposable(p, d)[0]
        )
        mono = mono and dec_rel
    _check("decomposable implies reliable on the corpus", mono, results)

    infra = all(
        hull_certificate_valid(p) and hull_from_vertices(p.vertices) == p for p in full
    )
    _check("hull round-trip and hull certificate on the corpus", infra, results)

    cube = named("cube-3")
    big = hull_from_vertices([tuple(2 * x for x in v) for v in cube.vertices])
    fit = translate_fit(cube, big)
    nofit = translate_fit(big, cube)
    _check(
        "containment verdicts carry exact witnesses/certificates",
        fit.fits and not nofit.fits and nofit.certificate is not None,
        results,
    )

    try:
        bundle = build_counterexample(named("octahedron"), 2)
        ok = bundle.alpha == Fraction(3, 2) and verify_bundle(bundle).passed
    except Exception:
        ok = False
    _check(
        "octahedron counterexample: alpha = 3/2, both certificates verify",
        ok,
        results,
    )

    print(f"{sum(results)}/{len(results)} checks passed")
    return all(results)
