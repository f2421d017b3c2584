"""Command-line front end.

Subcommands: validate, reliability, decompose, contain, shadow-cover,
counterexample, corpus, selftest.  Exit codes are a stable contract:
0 affirmative/clean, 1 negative verdict, 2 usage or input error.

JSON reports are the machine contract: canonical key order, rationals as
exact strings, no floats, and the full run configuration embedded so that
rerunning the printed command reproduces the report byte for byte.  Text
output is for humans and unversioned; decimal approximations there are
marked with '~'.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .containment import (
    ContainmentVerdict,
    ShadowCoverReport,
    SubspaceSampler,
    sampled_shadow_cover,
    translate_fit,
)
from .counterexample import (
    NoUsableScaleError,
    ReliableCoverError,
    build_counterexample,
)
from .decomposability import extract_factors, is_decomposable
from .jsonio import (
    FormatError,
    bundle_to_doc,
    directions_to_doc,
    dumps_canonical,
    format_rational,
    load_body,
    polytope_from_doc,
    polytope_to_doc,
    read_json,
    write_json,
)
from .polytope import (
    Polytope,
    Subspace,
    hull_from_vertices,
    is_centrally_symmetric,
    project,
    vector_area_check,
)
from .reliability import (
    DirectionSet, facet_direction_set, family_search_space, is_reliable,
)
from . import corpus as corpus_mod
from . import selftest as selftest_mod


def _fr(q: Fraction) -> str:
    return format_rational(q)


def _vec(v) -> list[str]:
    return [format_rational(x) for x in v]


def _emit(args, command: str, keys: list[str], result: dict, lines) -> None:
    """Print the text lines, or with --format json the report: the result
    and the run configuration, the arguments named by keys."""
    if args.format != "json":
        for line in lines:
            print(line)
        return
    config = {k: getattr(args, k.replace("-", "_")) for k in keys}
    sys.stdout.write(dumps_canonical({
        "tool": "shadowcover",
        "version": __version__,
        "command": command,
        "config": {k: _fr(v) if isinstance(v, Fraction) else v
                   for k, v in config.items()},
        "result": result,
    }))


def _poly_summary(p: Polytope) -> dict:
    return {
        "dim": p.dim,
        "affine_dim": p.affine_dim,
        "vertex_count": len(p.vertices),
        "facet_count": len(p.facets),
    }


def _verdict_doc(v: ContainmentVerdict) -> dict:
    doc: dict = {"fits": v.fits}
    if v.witness is not None:
        doc["witness"] = _vec(v.witness)
    if v.certificate is not None:
        doc["certificate"] = [[i, _fr(l)] for i, l in v.certificate.multipliers]
    if v.hull_mismatch:
        doc["hull_mismatch"] = True
    return doc


def _shadow_doc(r: ShadowCoverReport) -> dict:
    doc = {
        "kind": "statistical-evidence",
        "d": r.d,
        "trials": r.trials,
        "passes": r.passes,
        "failures": r.failures,
    }
    if r.failed_trial is not None:
        doc["first_failure"] = {
            "trial": r.failed_trial,
            "subspace": [_vec(row) for row in r.failed_subspace.basis],
            "verdict": _verdict_doc(r.failed_verdict),
        }
    return doc


def cmd_validate(args) -> int:
    doc = read_json(args.file)
    p = polytope_from_doc(doc)
    input_points = len(doc.get("vertices", []))
    notes = []
    if input_points != len(p.vertices):
        notes.append(
            f"normalised: {input_points} input points, "
            f"{len(p.vertices)} extreme vertices kept"
        )
    round_trip = hull_from_vertices(p.vertices) == p
    if p.is_full_dimensional:
        area_ok = vector_area_check(p)
        area_note = "pass" if area_ok else "FAIL"
    else:
        area_ok = True
        area_note = "skipped (not full-dimensional)"
    centre = is_centrally_symmetric(p)
    passed = round_trip and area_ok
    result = {
        "summary": _poly_summary(p),
        "round_trip": round_trip,
        "vector_area_check": area_note,
        "centrally_symmetric": _vec(centre) if centre is not None else None,
        "facets": [
            {"normal": _vec(f.normal), "offset": _fr(f.offset),
             "incident_vertices": len(f.incident)}
            for f in p.facets
        ],
        "notes": notes,
        "passed": passed,
    }
    lines = [
        f"polytope: dim {p.dim}, affine dim {p.affine_dim}, "
        f"{len(p.vertices)} vertices, {len(p.facets)} facets",
        f"round trip: {'pass' if round_trip else 'FAIL'}",
        f"vector area identity: {area_note}",
        "centrally symmetric: "
        + (f"yes, centre ({', '.join(_vec(centre))})" if centre else "no"),
        *notes,
        "PASS" if passed else "FAIL",
    ]
    _emit(args, "validate", ["file", "format"], result, lines)
    return 0 if passed else 1


def cmd_reliability(args) -> int:
    body = load_body(args.file)
    a = body if isinstance(body, DirectionSet) else facet_direction_set(body)
    # checked before family_search_space, which cannot size a search for d < 1
    if not 1 <= args.d <= a.dim - 1:
        raise ValueError("reliability needs 1 <= d <= ambient dimension - 1")
    space = family_search_space(a, args.d)
    if space > 10**7:
        print(
            f"warning: family search ranges over {space} subsets; "
            "this may take a while",
            file=sys.stderr,
        )
    verdict = is_reliable(body, args.d)
    result = {
        "d": args.d,
        "directions": len(a.directions),
        "search_space": space,
        "reliable": verdict.reliable,
    }
    lines = [f"directions: {len(a.directions)}, shadow dimension d={args.d}"]
    if verdict.reliable:
        lines.append(f"RELIABLE: every simplicial family has size <= {args.d + 1}")
    else:
        fam = verdict.certificate
        result["certificate"] = {
            "members": list(fam.members),
            "directions": [_vec(a.directions[i]) for i in fam.members],
            "coefficients": _vec(fam.coefficients),
        }
        lines.append(
            f"NOT RELIABLE: simplicial family of size {fam.size} "
            f"at facet indices {list(fam.members)}"
        )
        lines.append(
            "  positive dependency: "
            + " + ".join(
                f"{_fr(c)}*({', '.join(_vec(a.directions[i]))})"
                for i, c in zip(fam.members, fam.coefficients)
            )
            + " = 0"
        )
    _emit(args, "reliability", ["file", "d", "format"], result, lines)
    return 0 if verdict.reliable else 1


def cmd_decompose(args) -> int:
    body = load_body(args.file)
    if args.out and isinstance(body, DirectionSet):
        raise ValueError("--out writes factor polytopes; a direction set has none")
    factors_doc = None
    if isinstance(body, Polytope):
        if body.affine_dim == 0:
            raise ValueError("a single point has nothing to decompose")
        if not body.is_full_dimensional:
            if not args.affine:
                print(
                    "error: polytope is lower-dimensional; "
                    "pass --affine to analyse it inside its affine hull",
                    file=sys.stderr,
                )
                return 2
            body = project(body, Subspace(body.dim, (body.int_basis, 1)))
        decomposable, report = is_decomposable(body, args.d or 1)
        factors = extract_factors(
            body, [c.subspace for c in report.components]
        )
        factors_doc = [
            {"subspace": [_vec(r) for r in sp.basis], "factor": polytope_to_doc(f)}
            for sp, f in factors
        ]
        if args.out:
            for i, (_, f) in enumerate(factors):
                write_json(f"{args.out}/factor_{i}.json", polytope_to_doc(f))
    else:
        decomposable, report = is_decomposable(body, args.d or 1)
    n = report.directions.dim
    table = {str(d): report.decomposable_at(d) for d in range(1, n)}
    result = {
        "component_dims": list(report.dims()),
        "components": [
            {
                "members": list(c.members),
                "dim": c.subspace.dim,
                "basis": [_vec(r) for r in c.subspace.basis],
            }
            for c in report.components
        ],
        "decomposable_at": table,
    }
    if factors_doc is not None:
        result["factors"] = factors_doc
    lines = [
        f"components: {len(report.components)} with dims {list(report.dims())}",
        "decomposability: "
        + ", ".join(f"d={d}: {'yes' if ok else 'no'}" for d, ok in table.items()),
    ]
    if args.d:
        result["d"] = args.d
        result["decomposable"] = report.decomposable_at(args.d)
        lines.append(
            f"{args.d}-decomposable: {'yes' if report.decomposable_at(args.d) else 'no'}"
        )
    _emit(args, "decompose", ["file", "d", "affine", "format"], result, lines)
    if args.d:
        return 0 if report.decomposable_at(args.d) else 1
    return 0


def cmd_contain(args) -> int:
    k = polytope_from_doc(read_json(args.file_k))
    l = polytope_from_doc(read_json(args.file_l))
    verdict = translate_fit(k, l)
    result = _verdict_doc(verdict)
    lines = []
    if verdict.fits:
        lines.append(
            "FITS: translate by (" + ", ".join(_vec(verdict.witness)) + ")"
        )
    elif verdict.hull_mismatch:
        lines.append("NO FIT: affine hull directions are incompatible")
    else:
        lines.append("NO FIT: Farkas certificate over facets "
                     f"{[i for i, _ in verdict.certificate.multipliers]}")
    _emit(args, "contain", ["file_k", "file_l", "format"], result, lines)
    return 0 if verdict.fits else 1


def cmd_shadow_cover(args) -> int:
    k = polytope_from_doc(read_json(args.file_k))
    l = polytope_from_doc(read_json(args.file_l))
    sampler = SubspaceSampler(args.seed, args.d, args.bound)
    report = sampled_shadow_cover(k, l, args.d, sampler, args.trials)
    result = _shadow_doc(report)
    lines = [
        f"sampled shadow cover (statistical evidence, not proof): "
        f"{report.passes}/{report.trials} passed at d={args.d}",
    ]
    if report.failed_trial is not None:
        lines.append(f"first failure at trial {report.failed_trial}")
    keys = ["file_k", "file_l", "d", "seed", "trials", "bound", "format"]
    _emit(args, "shadow-cover", keys, result, lines)
    return 0 if report.all_passed else 1


def cmd_counterexample(args) -> int:
    l = polytope_from_doc(read_json(args.file_l))
    try:
        bundle = build_counterexample(
            l,
            args.d,
            seed=args.seed,
            trials=args.trials,
            margin=args.margin,
            entry_bound=args.bound,
            verify_trials=args.verify_trials,
        )
    except (ReliableCoverError, NoUsableScaleError, RuntimeError) as exc:
        # run outcomes, not usage errors: exit 1 like any negative verdict
        print(f"no counterexample: {exc}", file=sys.stderr)
        return 1
    doc = bundle_to_doc(bundle)
    if args.out:
        write_json(args.out, doc)
    result = {"bundle": doc}
    lines = [
        f"counterexample body with {len(bundle.body.vertices)} vertices built "
        f"from a simplicial family of size {bundle.family.size}",
        f"alpha = {_fr(bundle.alpha)} (~{float(bundle.alpha):.6g}), "
        f"observed shadow slack alpha_min = {_fr(bundle.alpha_min_observed)}",
        "exact half: alpha*S never fits (Farkas certificate on family facets)",
        f"sampled half: {bundle.shadow_trials} fresh shadow trials, "
        f"{bundle.shadow_failures} failures (statistical evidence)",
    ]
    if args.out:
        lines.append(f"bundle written to {args.out}")
    keys = ["file_l", "d", "seed", "trials", "margin", "bound", "verify_trials",
            "out", "format"]
    _emit(args, "counterexample", keys, result, lines)
    return 0


def cmd_corpus(args) -> int:
    if not args.name:
        _emit(args, "corpus", ["format"], {"names": corpus_mod.names()},
              corpus_mod.names())
        return 0
    body = corpus_mod.named(args.name)
    doc = (
        directions_to_doc(body)
        if isinstance(body, DirectionSet)
        else polytope_to_doc(body)
    )
    if args.out:
        write_json(args.out, doc)
        print(f"wrote {args.name} to {args.out}")
    else:
        sys.stdout.write(dumps_canonical(doc))
    return 0


def cmd_selftest(args) -> int:
    ok = selftest_mod.run_selftest()
    return 0 if ok else 1


def _fraction_arg(text: str) -> Fraction:
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None
    return q


def _positive_int_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return n


def _margin_arg(text: str) -> Fraction:
    q = _fraction_arg(text)
    if not 0 < q < 1:
        raise argparse.ArgumentTypeError("margin must be strictly between 0 and 1")
    return q


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowcover",
        description=(
            "Exact decisions for rational polytopes: can a body hide behind "
            "a cover (shadow containment) without fitting inside it?"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="check a polytope file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "reliability", help="decide whether a body is a d-reliable cover"
    )
    p.add_argument("file", help="polytope or directions JSON")
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("decompose", help="direct-sum decomposition from normals")
    p.add_argument("file", help="polytope or directions JSON")
    # argparse does not convert a non-string default, so without --d the
    # report keeps "d": 0 and only the table is checked
    p.add_argument("--d", type=_positive_int_arg, default=0)
    p.add_argument("--affine", action="store_true",
                   help="analyse a lower-dimensional body inside its affine hull")
    p.add_argument("--out", help="directory for factor polytope files (polytope input)")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("contain", help="does L contain a translate of K?")
    p.add_argument("file_k")
    p.add_argument("file_l")
    common(p)
    p.set_defaults(func=cmd_contain)

    p = sub.add_parser(
        "shadow-cover", help="sampled check that L's shadows cover K's"
    )
    p.add_argument("file_k")
    p.add_argument("file_l")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=_positive_int_arg, default=1000)
    p.add_argument("--bound", type=_positive_int_arg, default=10)
    common(p)
    p.set_defaults(func=cmd_shadow_cover)

    p = sub.add_parser(
        "counterexample",
        help="build a body that hides behind L without fitting inside",
    )
    p.add_argument("file_l")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=_positive_int_arg, default=1000)
    p.add_argument(
        "--verify-trials", type=_positive_int_arg, default=2000, dest="verify_trials"
    )
    p.add_argument("--margin", type=_margin_arg, default=Fraction(1, 2))
    p.add_argument("--bound", type=_positive_int_arg, default=10)
    p.add_argument("--out", help="file for the bundle JSON")
    common(p)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("corpus", help="list or emit named example bodies")
    p.add_argument("name", nargs="?")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("selftest", help="run the quick acceptance subset")
    common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
