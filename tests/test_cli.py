import json
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

import pytest

import shadowcover

from shadowcover.cli import main
from shadowcover.corpus import named
from shadowcover.jsonio import polytope_to_doc, write_json


@pytest.fixture()
def pyramid_file(tmp_path):
    path = tmp_path / "pyramid.json"
    write_json(path, polytope_to_doc(named("square-pyramid")))
    return str(path)


@pytest.fixture()
def cube_file(tmp_path):
    path = tmp_path / "cube.json"
    write_json(path, polytope_to_doc(named("cube-3")))
    return str(path)


@pytest.fixture()
def big_cube_file(tmp_path):
    from shadowcover.polytope import scale_polytope

    path = tmp_path / "big.json"
    write_json(path, polytope_to_doc(scale_polytope(named("cube-3"), 2)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_pass(capsys, pyramid_file):
    code, out, _ = run(capsys, "validate", pyramid_file)
    assert code == 0
    assert "PASS" in out and "5 facets" in out


def test_validate_duplicate_vertex_notes(capsys, tmp_path):
    path = tmp_path / "dup.json"
    write_json(
        path,
        {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"],
                                ["1", "1"], ["1", "1"], ["1/2", "1/2"]]},
    )
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "normalised" in out


def test_validate_malformed_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "vertices": [["0.5", "1"]]}')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "input error" in err


def test_validate_boolean_dim_exits_2(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"dim": true, "vertices": [["0"], ["1"]]}')
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert "'dim' must be a positive integer" in err


def test_validate_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/nope.json")
    assert code == 2


def test_deeply_nested_json_exits_2(capsys, tmp_path, cube_file):
    """JSON nested past the decoder's recursion limit is an input error, with
    one line on stderr, for a whole document and for a polytope's vertices."""
    deep = "[" * 100_000 + "]" * 100_000
    (tmp_path / "deep.json").write_text(deep)
    (tmp_path / "deep-vertices.json").write_text(f'{{"dim": 3, "vertices": {deep}}}')
    for argv in (["validate", "deep.json"],
                 ["contain", "deep-vertices.json", cube_file]):
        code, out, err = run(capsys, argv[0], str(tmp_path / argv[1]), *argv[2:])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("input error: ")
        assert "nested too deeply" in err


@pytest.mark.parametrize("vertex", ['[1, 0, 0, "' + "9" * 100_000 + '"]',
                                    "[" * 900 + "]" * 900])
def test_malformed_vertex_echo_is_bounded(capsys, tmp_path, vertex):
    """The offending value is echoed cut short, so one bad vertex gives one
    short stderr line however large or deep it is."""
    path = tmp_path / "bad.json"
    path.write_text(f'{{"dim": 3, "vertices": [{vertex}]}}')
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("input error: expected a list")
    assert len(err.encode()) < 200


def test_reliability_exit_codes(capsys, pyramid_file):
    code, out, _ = run(capsys, "reliability", pyramid_file, "--d", "2")
    assert code == 0 and "RELIABLE" in out
    code, out, _ = run(capsys, "reliability", pyramid_file, "--d", "1")
    assert code == 1 and "NOT RELIABLE" in out


def test_reliability_directions_input(capsys, tmp_path):
    from shadowcover.jsonio import directions_to_doc

    path = tmp_path / "q.json"
    write_json(path, directions_to_doc(named("q-directions")))
    code, out, _ = run(capsys, "reliability", str(path), "--d", "3")
    assert code == 0
    code, out, _ = run(capsys, "reliability", str(path), "--d", "2")
    assert code == 1 and "size 4" in out


@pytest.mark.parametrize("value", ["-3", "0", "3"])
def test_reliability_rejects_d_out_of_range(capsys, pyramid_file, value):
    # checked before the search is sized, which would fail on d <= -3
    code, out, err = run(capsys, "reliability", pyramid_file, "--d", value)
    assert code == 2 and out == ""
    assert err == "error: reliability needs 1 <= d <= ambient dimension - 1\n"


def test_decompose_pyramid(capsys, pyramid_file):
    code, out, _ = run(capsys, "decompose", pyramid_file, "--d", "2")
    assert code == 1
    assert "dims [3]" in out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_decompose_rejects_nonpositive_d(capsys, pyramid_file, value):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", pyramid_file, "--d", value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert [line for line in err.splitlines() if "error" in line] == [
        f"shadowcover decompose: error: argument --d: "
        f"must be a positive integer: '{value}'"
    ]


def test_decompose_writes_factors(capsys, cube_file, tmp_path):
    outdir = tmp_path / "factors"
    outdir.mkdir()
    code, out, _ = run(capsys, "decompose", cube_file, "--out", str(outdir))
    assert code == 0
    assert len(list(outdir.glob("factor_*.json"))) == 3


def test_decompose_directions_refuse_out(capsys, tmp_path, monkeypatch):
    """A direction set has no factors to write, so --out is refused before
    any analysis rather than accepted and left empty."""
    from shadowcover import cli
    from shadowcover.jsonio import directions_to_doc

    def analysis(*args):
        raise AssertionError("analysis started")

    monkeypatch.setattr(cli, "is_decomposable", analysis)
    path = tmp_path / "q.json"
    write_json(path, directions_to_doc(named("q-directions")))
    outdir = tmp_path / "factors"
    outdir.mkdir()
    code, out, err = run(capsys, "decompose", str(path), "--out", str(outdir))
    assert code == 2 and out == ""
    assert err == "error: --out writes factor polytopes; a direction set has none\n"
    assert not any(outdir.iterdir())


def test_decompose_lower_dimensional_needs_affine(capsys, tmp_path):
    path = tmp_path / "flat.json"
    write_json(
        path,
        {"dim": 3, "vertices": [["0", "0", "0"], ["1", "0", "0"],
                                ["0", "1", "0"], ["1", "1", "0"]]},
    )
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 2 and "--affine" in err
    code, out, _ = run(capsys, "decompose", str(path), "--affine")
    assert code == 0


@pytest.mark.parametrize("affine", [[], ["--affine"]])
def test_decompose_single_point_exits_2(capsys, tmp_path, affine):
    path = tmp_path / "point.json"
    write_json(path, {"dim": 3, "vertices": [["1", "2", "3"]]})
    code, out, err = run(capsys, "decompose", str(path), *affine)
    assert code == 2 and out == ""
    assert err == "error: a single point has nothing to decompose\n"


def test_contain_exit_codes(capsys, cube_file, big_cube_file):
    code, out, _ = run(capsys, "contain", cube_file, big_cube_file)
    assert code == 0 and "FITS" in out
    code, out, _ = run(capsys, "contain", big_cube_file, cube_file)
    assert code == 1 and "NO FIT" in out


def test_shadow_cover_requires_seed(capsys, cube_file, big_cube_file):
    with pytest.raises(SystemExit):
        main(["shadow-cover", cube_file, big_cube_file, "--d", "2"])


def test_shadow_cover_runs(capsys, cube_file, big_cube_file):
    code, out, _ = run(
        capsys, "shadow-cover", cube_file, big_cube_file,
        "--d", "2", "--seed", "5", "--trials", "40",
    )
    assert code == 0 and "40/40" in out


def test_shadow_cover_failure_exit(capsys, cube_file, big_cube_file):
    code, out, _ = run(
        capsys, "shadow-cover", big_cube_file, cube_file,
        "--d", "1", "--seed", "5", "--trials", "40",
    )
    assert code == 1


def test_json_reports_reproduce_byte_for_byte(capsys, pyramid_file):
    code1, out1, _ = run(
        capsys, "reliability", pyramid_file, "--d", "1", "--format", "json"
    )
    code2, out2, _ = run(
        capsys, "reliability", pyramid_file, "--d", "1", "--format", "json"
    )
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["tool"] == "shadowcover"
    assert doc["config"]["d"] == 1
    assert doc["result"]["certificate"]["coefficients"] == ["1", "2", "1"]


def test_counterexample_bundle_output(capsys, tmp_path):
    from shadowcover.jsonio import polytope_to_doc as pdoc

    oct_file = tmp_path / "oct.json"
    write_json(oct_file, pdoc(named("octahedron")))
    bundle_file = tmp_path / "bundle.json"
    code, out, _ = run(
        capsys, "counterexample", str(oct_file), "--d", "2", "--seed", "7",
        "--trials", "60", "--verify-trials", "80", "--out", str(bundle_file),
    )
    assert code == 0
    assert "alpha" in out
    doc = json.loads(bundle_file.read_text())
    assert doc["kind"] == "counterexample-bundle"
    assert doc["shadow_failures"] == 0


def test_counterexample_reliable_cover_exits_1(capsys, pyramid_file):
    code, _, err = run(
        capsys, "counterexample", pyramid_file, "--d", "2", "--seed", "1",
        "--trials", "10", "--verify-trials", "10",
    )
    assert code == 1
    assert "2-reliable" in err


def _no_counterexample(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"no counterexample: {reason}"]


def test_counterexample_point_shadow_exits_0(capsys, pyramid_file, tmp_path):
    # at seed 0, trial 493 samples a line on which the shadow of S is a
    # point; that trial bounds no scale and the search goes on
    from shadowcover.counterexample import verify_bundle
    from shadowcover.jsonio import bundle_from_doc, read_json

    bundle_file = tmp_path / "bundle.json"
    code, _, err = run(
        capsys, "counterexample", pyramid_file, "--d", "1", "--seed", "0",
        "--out", str(bundle_file),
    )
    assert code == 0 and err == ""
    bundle = bundle_from_doc(read_json(bundle_file))
    assert verify_bundle(bundle, fresh_seed=11).passed


def test_counterexample_margin_insufficient_exits_1(capsys, tmp_path):
    path = tmp_path / "cross4.json"
    write_json(path, polytope_to_doc(named("cross-polytope-4")))
    _no_counterexample(
        capsys,
        ["counterexample", str(path), "--d", "1", "--seed", "6",
         "--trials", "5", "--verify-trials", "40"],
        "safety margin insufficient: a fresh shadow sample failed; "
        "retry with a smaller margin or more search trials",
    )


def test_counterexample_no_usable_scale_exits_1(capsys, monkeypatch, tmp_path):
    from fractions import Fraction

    from shadowcover import counterexample

    monkeypatch.setattr(counterexample, "_alpha_scan", lambda *a: Fraction(1))
    path = tmp_path / "oct.json"
    write_json(path, polytope_to_doc(named("octahedron")))
    _no_counterexample(
        capsys,
        ["counterexample", str(path), "--d", "2", "--seed", "7"],
        "no usable scale: a sampled shadow admits no enlargement",
    )


def test_corpus_listing_and_output(capsys, tmp_path):
    code, out, _ = run(capsys, "corpus")
    assert code == 0 and "square-pyramid" in out
    target = tmp_path / "sp.json"
    code, out, _ = run(capsys, "corpus", "square-pyramid", "--out", str(target))
    assert code == 0 and target.exists()
    code, _, err = run(capsys, "corpus", "no-such-body")
    assert code == 2


def test_invalid_margin_rejected(capsys, pyramid_file):
    with pytest.raises(SystemExit):
        main(["counterexample", pyramid_file, "--d", "1", "--seed", "1",
              "--margin", "2"])


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "positive integer" in err.splitlines()[-1]


@pytest.mark.parametrize("flag,value", [
    ("--trials", "0"), ("--trials", "-5"), ("--bound", "0"), ("--bound", "-1"),
])
def test_shadow_cover_rejects_nonpositive(capsys, cube_file, big_cube_file, flag, value):
    _usage_error(
        capsys,
        ["shadow-cover", cube_file, big_cube_file, "--d", "2", "--seed", "5",
         flag, value],
    )


@pytest.mark.parametrize("flag", ["--trials", "--verify-trials", "--bound"])
def test_counterexample_rejects_nonpositive(capsys, pyramid_file, flag):
    _usage_error(
        capsys,
        ["counterexample", pyramid_file, "--d", "1", "--seed", "1", flag, "0"],
    )


def test_shadow_cover_bound_zero_exits_without_hanging(cube_file, big_cube_file):
    src = str(Path(shadowcover.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "shadowcover.cli", "shadow-cover", cube_file,
         big_cube_file, "--d", "2", "--seed", "5", "--bound", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "positive integer" in proc.stderr.strip().splitlines()[-1]


def test_json_reports_pinned_by_digest(capsys, tmp_path, monkeypatch):
    """stdout and exit codes of every report command with --format json, on
    corpus bodies and a flat hexagon in R^3, pinned by a digest recorded
    while polytopes still stored their Fraction vertices and facets, then
    re-pinned when validate's "vector_area_check" field became
    "hull_certificate" (with the old key the digest is 88b4dc4ecdeb...)."""
    import hashlib

    from oracles import embed, translate
    from shadowcover.polytope import apply_linear, scale_polytope

    flat = translate(
        apply_linear(embed(named("hexagon"), 3), [[1, 0, 0], [0, 1, 0], [1, 2, 1]]),
        [0, 0, Fraction(1, 2)],
    )
    bodies = {
        "pyramid": named("square-pyramid"),
        "octahedron": named("octahedron"),
        "cube": named("cube-3"),
        "big": scale_polytope(named("cube-3"), 2),
        "prism": named("hexagonal-prism"),
        "flat": flat,
        "flat2": scale_polytope(flat, 2),
    }
    monkeypatch.chdir(tmp_path)
    for name, body in bodies.items():
        write_json(f"{name}.json", polytope_to_doc(body))
    runs = [
        ["validate", "pyramid.json"],
        ["validate", "flat.json"],
        ["decompose", "cube.json"],
        ["decompose", "prism.json", "--d", "2"],
        ["decompose", "flat.json", "--affine"],
        ["contain", "octahedron.json", "cube.json"],
        ["contain", "cube.json", "octahedron.json"],
        ["contain", "big.json", "cube.json"],
        ["contain", "flat.json", "flat2.json"],
        ["contain", "cube.json", "flat2.json"],
        ["shadow-cover", "cube.json", "big.json", "--d", "2", "--seed", "5",
         "--trials", "30"],
        ["shadow-cover", "big.json", "octahedron.json", "--d", "1", "--seed", "3",
         "--trials", "30"],
        ["shadow-cover", "flat.json", "flat2.json", "--d", "2", "--seed", "1",
         "--trials", "20"],
        ["reliability", "pyramid.json", "--d", "1"],
        ["counterexample", "octahedron.json", "--d", "2", "--seed", "7",
         "--trials", "60", "--verify-trials", "80"],
    ]
    text = []
    for argv in runs:
        code, out, _ = run(capsys, *argv, "--format", "json")
        text.append(f"{' '.join(argv)} -> {code}\n{out}")
    assert [t.split("\n", 1)[0].rsplit(" ", 1)[1] for t in text] == [
        "0", "0", "0", "0", "0", "1", "1", "1", "0", "1", "0", "1", "0", "1", "0",
    ]
    assert hashlib.sha256("".join(text).encode()).hexdigest() == (
        "b0f28cfa057613de8e85a511709be51bed2499351002a61a862b6ef2178d54a7"
    )


def test_rational_direction_reports_pinned_by_digest(capsys, tmp_path, monkeypatch):
    """reliability and decompose JSON on rational, unreduced directions, pinned
    by a digest recorded while components still held Fraction basis rows,
    then re-pinned when ``search_space`` came to count subsets per normal
    component: components {0, 1, 2} of rank 2 and {3, 4} of rank 1 at d = 1
    range over one subset, not the 15 of all five directions."""
    import hashlib

    monkeypatch.chdir(tmp_path)
    write_json("dirs.json", {
        "dim": 3,
        "directions": [["1/2", 0, 0], [0, "2/3", 0], [-3, -3, 0], [0, 0, 2],
                       [0, 0, "-1/5"]],
    })
    text = []
    for argv in (["reliability", "dirs.json", "--d", "1"],
                 ["decompose", "dirs.json", "--d", "1"]):
        code, out, _ = run(capsys, *argv, "--format", "json")
        text.append(f"{' '.join(argv)} -> {code}\n{out}")
    assert hashlib.sha256("".join(text).encode()).hexdigest() == (
        "7fcfecb46fa67226f5f0a96319227fbf112c4f0c33d596f033dd435fda69055b"
    )
