import copy
import decimal
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polypath import cli, zerodim
from polypath.cli import (decomposition_to_json, main, read_decomposition,
                          write_decomposition)
from polypath.errors import CorruptFile, RefinementDiverged, SchemaVersionMismatch
from polypath.parser import parse_input_file
from polypath.witness import membership_test, numerical_irreducible_decomposition

CIRCLES = """vars x, y;
f1 = x^2 + y^2 - 1;
f2 = (x - 1)^2 + y^2 - 1;
"""

SPHERE_LINE = """vars x, y, z;
f1 = (y^2 + x^2 + z^2 - 1)*x;
f2 = (y^2 + x^2 + z^2 - 1)*y;
"""

FAMILY = """vars x, y;
params a, b, c;
f1 = a*x^2 + b*y^2 - c;
f2 = y;
"""

QUADRICS = """vars x, y, z;
projective;
f1 = y^2 - 4*z^2;
f2 = 16*x^2 - y^2;
"""

CONIC_POINT = """vars x, y, z;
projective;
f1 = (x^2 + y^2 - z^2)*(z - x);
f2 = (x^2 + y^2 - z^2)*(z + y);
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "circles.sys").write_text(CIRCLES)
    (tmp_path / "sphereline.sys").write_text(SPHERE_LINE)
    (tmp_path / "family.sys").write_text(FAMILY)
    (tmp_path / "quadrics.sys").write_text(QUADRICS)
    (tmp_path / "conicpoint.sys").write_text(CONIC_POINT)
    return tmp_path


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def _coords(sol):
    return [complex(float(c["re"]), float(c["im"])) for c in sol["coordinates"]]


def test_solve_circles(workdir, capsys):
    code, out = _run(capsys, "solve", workdir / "circles.sys", "--seed", 7)
    assert code == 0
    data = json.loads(out)
    assert data["schemaVersion"] == 1 and data["mode"] == "solve"
    sols = data["solutions"]
    assert len(sols) == 2
    ys = sorted(_coords(s)[1].real for s in sols)
    assert abs(ys[0] + math.sqrt(3) / 2) <= 1e-5
    assert abs(ys[1] - math.sqrt(3) / 2) <= 1e-5
    for s in sols:
        assert set(s) >= {"conditionNumber", "coordinates", "cycleNumber",
                          "functionResidual", "lastT", "maxPrecisionBits",
                          "newtonResidual", "solutionNumber"}
        assert float(s["functionResidual"]) <= 1e-8


def test_every_numeric_field_is_a_decimal_string(workdir, capsys):
    _, out = _run(capsys, "solve", workdir / "circles.sys", "--seed", 7)
    sol = json.loads(out)["solutions"][0]
    for key in ("conditionNumber", "functionResidual", "lastT", "newtonResidual"):
        assert isinstance(sol[key], str)
    for c in sol["coordinates"]:
        assert isinstance(c["re"], str) and isinstance(c["im"], str)
    for key in ("cycleNumber", "maxPrecisionBits", "solutionNumber"):
        assert isinstance(sol[key], int)


def test_solve_deterministic_bytes(workdir, capsys):
    _, a = _run(capsys, "solve", workdir / "circles.sys", "--seed", 3)
    _, b = _run(capsys, "solve", workdir / "circles.sys", "--seed", 3)
    assert a == b


def test_solve_out_file(workdir, capsys):
    out_path = workdir / "sols.json"
    code, out = _run(capsys, "solve", workdir / "circles.sys", "--seed", 7,
                     "--out", out_path)
    assert code == 0 and out == ""
    data = json.loads(out_path.read_text())
    assert len(data["solutions"]) == 2


def test_refine_command(workdir, capsys):
    out_path = workdir / "sols.json"
    _run(capsys, "solve", workdir / "circles.sys", "--seed", 7, "--out", out_path)
    code, out = _run(capsys, "refine", workdir / "circles.sys",
                     "--solutions", out_path, "--digits", 20)
    assert code == 0
    data = json.loads(out)
    assert data["digits"] == 20
    ys = [s["coordinates"][1]["re"] for s in data["solutions"]]
    # 20-digit output needs more than double precision in the decimal string
    assert any(len(y.replace("-", "").replace(".", "")) >= 21 for y in ys)
    for y in ys:
        assert abs(abs(float(y)) - math.sqrt(3) / 2) <= 1e-15
    assert all(s["maxPrecisionBits"] >= 106 for s in data["solutions"])


def test_param_matches_paper(workdir, capsys):
    code, out = _run(capsys, "param", workdir / "family.sys",
                     "--values", "1,1,1;2,3,4", "--seed", 7)
    assert code == 0
    data = json.loads(out)
    assert data["pathsPerTuple"] == 2
    sets = data["solutionSets"]
    assert len(sets) == 2
    xs1 = sorted(_coords(s)[0].real for s in sets[0])
    assert abs(xs1[0] + 1) <= 1e-5 and abs(xs1[1] - 1) <= 1e-5
    xs2 = sorted(_coords(s)[0].real for s in sets[1])
    assert abs(xs2[0] + 1.41421) <= 1e-5 and abs(xs2[1] - 1.41421) <= 1e-5


def test_param_of_a_family_without_nonsingular_start_roots(workdir, capsys):
    # the generic member of (x - a)^2 has only a double root, so stage 1
    # keeps no start: every tuple gets an empty set, and the call succeeds
    family = workdir / "double.sys"
    family.write_text("vars x;\nparams a;\nf = (x - a)^2;\n")
    code, out = _run(capsys, "param", family, "--values", "1;2;0", "--seed", 3)
    assert code == 0
    data = json.loads(out)
    assert data["pathsPerTuple"] == 0
    assert data["solutionSets"] == [[], [], []]

def test_projective_flag_and_file_statement(workdir, capsys):
    code, out = _run(capsys, "solve", workdir / "quadrics.sys", "--seed", 3)
    assert code == 0
    data = json.loads(out)
    assert data["projective"] is True
    assert len(data["solutions"]) == 4


def test_affine_flag_conflicts_with_projective_file(workdir, capsys):
    code, out = _run(capsys, "solve", workdir / "quadrics.sys", "--affine")
    assert code == 1
    assert "error" in json.loads(out)


def test_posdim_member_sample_workflow(workdir, capsys):
    nv_path = workdir / "nv.json"
    code, _ = _run(capsys, "posdim", workdir / "sphereline.sys", "--seed", 0,
                   "--out", nv_path)
    assert code == 0
    stored = json.loads(nv_path.read_text())
    assert [(c["dim"], c["degree"]) for c in stored["components"]] == [(1, 1), (2, 2)]

    code, out = _run(capsys, "member", workdir / "sphereline.sys",
                     "--decomposition", nv_path,
                     "--point", "0,0,0", "--point", "5,5,5")
    assert code == 0
    data = json.loads(out)
    assert data["memberships"] == [["1/0"], []]

    code, out = _run(capsys, "sample", workdir / "sphereline.sys",
                     "--decomposition", nv_path,
                     "--dim", 1, "--index", 0, "--count", 3, "--seed", 5)
    assert code == 0
    pts = json.loads(out)["points"]
    assert len(pts) == 3
    for p in pts:
        assert abs(float(p[0]["re"])) <= 1e-8 and abs(float(p[1]["re"])) <= 1e-8


def test_projective_posdim_member_sample_workflow(workdir, capsys):
    nv_path = workdir / "cp.json"
    code, _ = _run(capsys, "posdim", workdir / "conicpoint.sys", "--seed", 0,
                   "--out", nv_path)
    assert code == 0
    stored = json.loads(nv_path.read_text())
    assert stored["projective"] is True
    assert stored["patch"] is not None
    assert [(c["dim"], c["degree"]) for c in stored["components"]] == [(0, 1), (1, 2)]

    # the isolated point is [1 : -1 : 1]; any representative of it is a member
    code, out = _run(capsys, "member", workdir / "conicpoint.sys",
                     "--decomposition", nv_path, "--point", "2,-2,2",
                     "--point", "1,1,1")
    assert code == 0
    data = json.loads(out)
    assert data["memberships"][0] == ["0/0"]
    assert data["memberships"][1] == []

    code, out = _run(capsys, "sample", workdir / "conicpoint.sys",
                     "--decomposition", nv_path,
                     "--dim", 1, "--index", 0, "--count", 2, "--seed", 9)
    assert code == 0
    for p in json.loads(out)["points"]:
        x, y, z = (complex(float(c["re"]), float(c["im"])) for c in p)
        assert abs(x * x + y * y - z * z) <= 1e-6 * max(1.0, abs(x) ** 2)


def test_decomposition_roundtrip(workdir, sphere_line):
    nv = numerical_irreducible_decomposition(sphere_line, seed=0)
    path = workdir / "roundtrip.json"
    write_decomposition(nv, str(path))
    loaded = read_decomposition(str(path))
    assert loaded.seed == nv.seed
    assert loaded.dims() == nv.dims()
    for dim in nv.dims():
        for a, b in zip(nv.components[dim], loaded.components[dim]):
            assert a.degree == b.degree
            for p, q in zip(a.points, b.points):
                assert np.max(np.abs(p - q)) <= 1e-15
    # membership through the reloaded object agrees with the in-memory one
    assert (membership_test(loaded, [[0, 0, 0]])
            == membership_test(nv, [[0, 0, 0]]))


def test_tampered_decomposition_is_corrupt(workdir, sphere_line, capsys):
    nv = numerical_irreducible_decomposition(sphere_line, seed=0)
    path = workdir / "nv.json"
    write_decomposition(nv, str(path))
    data = json.loads(path.read_text())
    del data["components"][0]["slice"]
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptFile):
        read_decomposition(str(path))
    code, out = _run(capsys, "member", workdir / "sphereline.sys",
                     "--decomposition", path, "--point", "0,0,0")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CorruptFile"


def test_schema_version_mismatch(workdir, sphere_line):
    nv = numerical_irreducible_decomposition(sphere_line, seed=0)
    path = workdir / "nv.json"
    write_decomposition(nv, str(path))
    data = json.loads(path.read_text())
    data["schemaVersion"] = 2
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaVersionMismatch):
        read_decomposition(str(path))


def test_member_rejects_mismatched_system(workdir, capsys):
    nv_path = workdir / "nv.json"
    _run(capsys, "posdim", workdir / "sphereline.sys", "--seed", 0, "--out", nv_path)
    code, out = _run(capsys, "member", workdir / "circles.sys",
                     "--decomposition", nv_path, "--point", "0,0")
    assert code == 1


def test_parse_error_reports_position(workdir, capsys):
    bad = workdir / "bad.sys"
    bad.write_text("vars x, y;\nf1 = x + w;\n")
    code, out = _run(capsys, "solve", bad)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "UndeclaredIdentifier"
    assert err["line"] == 2


def test_refinement_divergence_exit_code(workdir, capsys):
    sq = workdir / "square.sys"
    sq.write_text("vars x;\nf1 = x^2;\n")
    sols = workdir / "sols.json"
    sols.write_text(json.dumps({"solutions": [{
        "conditionNumber": "1.0", "coordinates": [{"re": "0.001", "im": "0.0"}],
        "cycleNumber": 2, "functionResidual": "1e-6", "lastT": "0.001",
        "maxPrecisionBits": 53, "newtonResidual": "1e-6", "solutionNumber": 0,
    }]}))
    code, out = _run(capsys, "refine", sq, "--solutions", sols, "--digits", 20)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "RefinementDiverged"


def test_out_into_a_missing_directory_is_an_error_payload(workdir, capsys):
    target = workdir / "nodir" / "x.json"
    code, out = _run(capsys, "solve", workdir / "circles.sys", "--out", target)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"
    assert not target.parent.exists()


def test_help_for_every_subcommand(capsys):
    for mode in ("solve", "posdim", "refine", "param", "member", "sample"):
        with pytest.raises(SystemExit) as exc:
            main([mode, "--help"])
        assert exc.value.code == 0
        capsys.readouterr()


def test_unknown_flag_exits_one(workdir, capsys):
    code = main(["solve", str(workdir / "circles.sys"), "--frobnicate"])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage" in err.lower()


@pytest.mark.parametrize("name, projective", [("sphereline", False), ("conicpoint", True)])
def test_projective_and_patch_must_agree(workdir, capsys, name, projective):
    path = workdir / "nv.json"
    code, _ = _run(capsys, "posdim", workdir / f"{name}.sys", "--seed", 0, "--out", path)
    data = json.loads(path.read_text())
    assert code == 0 and data["projective"] is projective is (data["patch"] is not None)
    path.write_text(json.dumps({**data, "projective": not projective}))
    with pytest.raises(CorruptFile, match='"projective" and "patch" disagree'):
        read_decomposition(str(path))
    code, out = _run(capsys, "member", workdir / f"{name}.sys", "--decomposition", path,
                     "--point", "1,-1,1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CorruptFile"


@pytest.mark.parametrize("seed", range(5))
def test_param_with_an_invalid_stage_two_start_is_an_error_payload(workdir, capsys, seed):
    # H is exactly the stage-1 system at t = 1 however large the tuple, so
    # the stage-1 roots pass the start check; the stage-2 paths to a tuple
    # 1e10 times the unit-modulus start parameters then collapse, and a
    # failed path fails the call
    code, out = _run(capsys, "param", workdir / "family.sys", "--values", "1e10,1,1",
                     "--seed", seed)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "PathFailure"
    assert error["message"].startswith("parameter tuple 0 (a=10000000000.0, b=1.0, c=1.0)")


@pytest.mark.parametrize("values", ["1e8,1,1", "1e10,1,1"])
@pytest.mark.parametrize("seed", range(5))
def test_param_with_a_failed_stage_two_path_exits_two(workdir, capsys, values, seed):
    # both tuples have two finite roots that the stage-2 paths lose (a step
    # collapse, straight and in the endgame): not an empty set
    code, out = _run(capsys, "param", workdir / "family.sys",
                     "--values", f"1,1,1;{values}", "--seed", seed)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "PathFailure"
    assert error["message"].startswith("parameter tuple 1 ")


@pytest.mark.parametrize("values", ["0.01,1,1", "3e-3,1,1", "0.001,1,1"])
@pytest.mark.parametrize("seed", range(5))
def test_param_with_a_small_conic_tuple_finds_both_roots(workdir, capsys, values, seed):
    # a*x^2 + y^2 - 1, y has the roots (+-a^-1/2, 0), far from the stage-1
    # roots at small a; the straight stage-2 paths reach both, while the
    # endgame's growth counter calls the samples of some not Cauchy
    code, out = _run(capsys, "param", workdir / "family.sys",
                     "--values", f"1,1,1;{values}", "--seed", seed)
    assert code == 0
    root = float(values.split(",")[0]) ** -0.5
    points = sorted((_coords(sol) for sol in json.loads(out)["solutionSets"][1]),
                    key=lambda z: z[0].real)
    assert len(points) == 2
    for z, x in zip(points, (-root, root)):
        assert np.abs(np.array(z) - (x, 0)).max() <= 1e-12 * root


@pytest.fixture
def moved_witness_point(workdir, capsys):
    """A sphere-line decomposition whose first sphere witness point is moved
    0.3 off its slice."""
    path = workdir / "nv.json"
    code, _ = _run(capsys, "posdim", workdir / "sphereline.sys", "--seed", 0, "--out", path)
    assert code == 0
    data = json.loads(path.read_text())
    sphere = next(c for c in data["components"] if c["dim"] == 2)
    x = sphere["points"][0][0]
    x["re"] = repr(float(x["re"]) + 0.3)
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("argv", [
    ["member", "--point", "0,0,0"],
    ["sample", "--dim", "2", "--index", "0", "--count", "2"],
])
def test_a_witness_point_off_its_slice_is_an_error_payload(workdir, capsys,
                                                           moved_witness_point, argv):
    code, out = _run(capsys, argv[0], workdir / "sphereline.sys",
                     "--decomposition", moved_witness_point, *argv[1:])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "StartPointInvalid"


@pytest.fixture(scope="module")
def sphere_line_data():
    """The JSON of the sphere-line decomposition at seed 0: the line as
    dimension 1, then the sphere as dimension 2."""
    nv = numerical_irreducible_decomposition(parse_input_file(SPHERE_LINE).system, seed=0)
    return decomposition_to_json(nv)


def _written(path, data):
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return path


def _degree_off(data):
    data["components"][0]["degree"] += 1
    return data


def _system_broken(data):
    data["system"] = "vars x, y, z"
    return data


# Each input error that no other test reaches: argv from (workdir, the
# sphere-line decomposition's JSON), and the error type of the payload.
EXIT_ONE = {
    "unreadable problem file": (lambda d, nv: ["solve", d / "missing.sys"], "CorruptFile"),
    "unreadable decomposition": (
        lambda d, nv: ["member", d / "sphereline.sys", "--decomposition", d / "missing.json",
                       "--point", "0,0,0"], "CorruptFile"),
    "decomposition not JSON": (
        lambda d, nv: ["member", d / "sphereline.sys", "--decomposition",
                       _written(d / "nv.json", "{"), "--point", "0,0,0"], "CorruptFile"),
    "not a decomposition": (
        lambda d, nv: ["member", d / "sphereline.sys", "--decomposition",
                       _written(d / "nv.json", "[]"), "--point", "0,0,0"], "CorruptFile"),
    "degree mismatch": (
        lambda d, nv: ["member", d / "sphereline.sys", "--decomposition",
                       _written(d / "nv.json", _degree_off(nv)), "--point", "0,0,0"],
        "CorruptFile"),
    "embedded system does not parse": (
        lambda d, nv: ["member", d / "sphereline.sys", "--decomposition",
                       _written(d / "nv.json", _system_broken(nv)), "--point", "0,0,0"],
        "CorruptFile"),
    "solutions not JSON": (
        lambda d, nv: ["refine", d / "circles.sys", "--solutions", _written(d / "s.json", "{"),
                       "--digits", "20"], "CorruptFile"),
    "solutions without solutions": (
        lambda d, nv: ["refine", d / "circles.sys", "--solutions", _written(d / "s.json", "{}"),
                       "--digits", "20"], "CorruptFile"),
    "point of the wrong length": (
        lambda d, nv: ["member", d / "sphereline.sys", "--decomposition",
                       _written(d / "nv.json", nv), "--point", "0,0"], "DimensionMismatch"),
    "param without params": (
        lambda d, nv: ["param", d / "circles.sys", "--values", "1"], "DimensionMismatch"),
    "values without a tuple": (
        lambda d, nv: ["param", d / "family.sys", "--values", " ; "], "DimensionMismatch"),
    "sample of a missing component": (
        lambda d, nv: ["sample", d / "sphereline.sys", "--decomposition",
                       _written(d / "nv.json", nv), "--dim", "0", "--index", "0",
                       "--count", "1"], "DimensionMismatch"),
}


@pytest.mark.parametrize("case", sorted(EXIT_ONE))
def test_each_input_error_is_an_exit_one_payload(workdir, capsys, sphere_line_data, case):
    argv, error = EXIT_ONE[case]
    code, out = _run(capsys, *argv(workdir, copy.deepcopy(sphere_line_data)))
    assert code == 1
    assert json.loads(out)["error"]["type"] == error


def _line(data):
    return next(c for c in data["components"] if c["dim"] == 1)


def _sphere(data):
    return next(c for c in data["components"] if c["dim"] == 2)


def _listed_twice(data, index):
    data["components"].append({**copy.deepcopy(_line(data)), "index": index})


# Hand edits of the sphere-line decomposition that the reader refuses.  Read
# unchecked, some of them make `member` answer wrongly with exit 0, and
# others fail deep in the tracker or in numpy.  tools/golden_cli.py runs
# `member` of MALFORMED_QUERIES and `sample` against each.
MALFORMED_DECOMPOSITIONS = {
    "line at dimension 0": lambda d: _line(d).update(dim=0),
    "component listed twice": lambda d: _listed_twice(d, 0),
    "indices 0 and 5": lambda d: _listed_twice(d, 5),
    "dimension above the top": lambda d: _sphere(d).update(dim=3),
    "point one coordinate short": lambda d: _line(d)["points"][0].pop(),
    "slice row one entry short": lambda d: _line(d)["slice"]["coefficients"][0].pop(),
    "one extra constant": lambda d: _line(d)["slice"]["constants"].append(
        {"re": "1.0", "im": "0.0"}),
    "nan coordinate": lambda d: _line(d)["points"][0][0].update(re="nan"),
    "infinite slice constant": lambda d: _sphere(d)["slice"]["constants"][0].update(im="inf"),
    "non-integer dim": lambda d: _sphere(d).update(dim=2.5),
    "string degree": lambda d: _sphere(d).update(degree="2"),
    "fractional index": lambda d: _line(d).update(index=0.7),
}
MALFORMED_QUERIES = ["0,0,1", "0,0,0.5", "0.6,0.8,0"]


@pytest.mark.parametrize("case", sorted(MALFORMED_DECOMPOSITIONS))
def test_a_malformed_decomposition_is_corrupt(workdir, capsys, sphere_line_data, case):
    data = copy.deepcopy(sphere_line_data)
    MALFORMED_DECOMPOSITIONS[case](data)
    path = _written(workdir / "nv.json", data)
    with pytest.raises(CorruptFile):
        read_decomposition(str(path))
    for argv in (["member", *(a for q in MALFORMED_QUERIES for a in ("--point", q))],
                 ["sample", "--dim", "1", "--index", "1", "--count", "2"]):
        code, out = _run(capsys, argv[0], workdir / "sphereline.sys", "--decomposition", path,
                         *argv[1:])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "CorruptFile"


@pytest.mark.parametrize("value", [1.5, True])
def test_the_seed_of_a_decomposition_must_be_a_json_integer(sphere_line_data, value):
    data = copy.deepcopy(sphere_line_data)
    data["seed"] = value
    with pytest.raises(CorruptFile, match='"seed" is not an integer'):
        cli.decomposition_from_json(data)


def test_a_projective_patch_of_the_wrong_length_is_corrupt(workdir, capsys):
    path = workdir / "cp.json"
    code, _ = _run(capsys, "posdim", workdir / "conicpoint.sys", "--seed", 0, "--out", path)
    data = json.loads(path.read_text())
    data["patch"].pop()
    _written(path, data)
    code, out = _run(capsys, "member", workdir / "conicpoint.sys", "--decomposition", path,
                     "--point", "1,-1,1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CorruptFile"


@pytest.mark.parametrize("argv", [
    ["solve", "huge.sys"],
    ["param", "family.sys", "--values", "1e400,1,1"],
    ["member", "sphereline.sys", "--decomposition", "nv.json", "--point", "1e400,0,0"],
])
def test_a_literal_beyond_the_float_range_is_a_parse_error(workdir, capsys, sphere_line_data,
                                                          argv):
    _written(workdir / "huge.sys", "vars x, y;\nf1 = 1e400*x^2 + y^2 - 1;\nf2 = x - y;\n")
    _written(workdir / "nv.json", sphere_line_data)
    code, out = _run(capsys, argv[0], *(workdir / a if a.endswith((".sys", ".json")) else a
                                        for a in argv[1:]))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError" and "1e400" in error["message"]


@pytest.mark.parametrize("body", ["(" * 300 + "x" + ")" * 300 + " - 1",
                                  "1e200*1e200*x^2 + y^2 - 1"], ids=["nesting", "overflow"])
def test_deep_nesting_and_an_overflowing_coefficient_are_parse_errors(workdir, capsys, body):
    path = _written(workdir / "bad.sys", f"vars x, y;\nf1 = {body};\nf2 = x - y;\n")
    code, out = _run(capsys, "solve", path)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ParseError"


# -- successive calls in one process ---------------------------------------------

def test_successive_member_calls_answer_only_their_own_points(workdir, capsys):
    nv_path = workdir / "nv.json"
    _run(capsys, "posdim", workdir / "sphereline.sys", "--seed", 0, "--out", nv_path)
    member = ["member", workdir / "sphereline.sys", "--decomposition", nv_path]
    code, out = _run(capsys, *member, "--point", "0,0,0", "--point", "5,5,5")
    assert code == 0
    assert json.loads(out)["memberships"] == [["1/0"], []]
    code, out = _run(capsys, *member, "--point", "1,0,0")
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 1 and float(data["points"][0][0]["re"]) == 1.0
    assert data["memberships"] == [["2/0"]]


def test_a_usage_error_leaves_the_next_call_unchanged(workdir, capsys):
    solve = ["solve", workdir / "circles.sys", "--seed", 7]
    code, expected = _run(capsys, *solve)
    assert code == 0
    assert main(["solve", str(workdir / "circles.sys"), "--frobnicate"]) == 1
    assert main(["sample"]) == 1
    capsys.readouterr()
    assert _run(capsys, *solve) == (0, expected)


def test_a_projective_solve_leaves_the_next_solve_affine(workdir, capsys):
    quadrics = workdir / "quadrics-plain.sys"
    quadrics.write_text(QUADRICS.replace("projective;\n", ""))
    code, out = _run(capsys, "solve", quadrics, "--projective", "--seed", 3)
    assert code == 0 and json.loads(out)["projective"] is True
    code, out = _run(capsys, "solve", workdir / "circles.sys", "--seed", 7)
    data = json.loads(out)
    assert code == 0 and data["projective"] is False and len(data["solutions"]) == 2


# -- 160-bit decimal strings ----------------------------------------------------

def _read_real(x) -> Fraction:
    """A JSON coordinate part read at 160 bits, as the solutions reader reads it."""
    return zerodim._fraction(*zerodim._dyadic(x))


def _mpf_value(x) -> Fraction:
    """A finite mpmath mpf as an exact Fraction."""
    sign, m, e, _ = x._mpf_
    return (-1) ** sign * m * Fraction(2) ** e


def _random_dyadics(rng, count):
    """count random 160-bit values m * 2**e with |value| from 2^-1200 to
    2^1100; every fifth is 10^k (1 - 2^-j) at 160 bits, whose 33-digit
    form carries into the next power of ten."""
    for i in range(count):
        if i % 5 == 0:
            with mpmath.workprec(160):
                x = mpmath.mpf(10) ** rng.randint(-360, 330) * (1 - mpmath.mpf(2) ** -rng.randint(115, 159))
            _, m, e, _ = x._mpf_
        else:
            bits = rng.randint(1, 160)
            m = rng.getrandbits(bits) | 1 << (bits - 1)
            e = rng.randint(-1200, 1100) - bits
        yield rng.choice((-1, 1)) * m, e


def test_decimal_strings_match_mpmath_on_random_160_bit_values():
    rng = random.Random(12)
    carried = 0
    with mpmath.workprec(160):
        for m, e in _random_dyadics(rng, 10_000):
            x = mpmath.mpf((m, e))
            text = cli._fmt_real(zerodim._fraction(m, e))
            assert text == mpmath.nstr(x, 33), (m, e)
            carried += text.lstrip("-").startswith("1.0")
            strings = [text, mpmath.nstr(x, 35)]
            if 2.0 ** -1022 <= abs(float(x)) < math.inf:
                strings.append(repr(float(x)))
            for s in strings:
                assert _read_real(s) == _mpf_value(mpmath.mpf(s)), s
    assert carried >= 1500


def _rounded_to_160_bits(x: Fraction) -> Fraction:
    """x rounded to a 160-bit mantissa, ties to even, in Fraction arithmetic."""
    if not x:
        return x
    a = abs(x)
    e = a.numerator.bit_length() - a.denominator.bit_length()
    if a >= Fraction(2) ** e:
        e += 1
    # 2**(e - 1) <= a < 2**e
    scaled = a * Fraction(2) ** (160 - e)
    q = scaled.numerator // scaled.denominator
    rest = scaled - q
    if rest > Fraction(1, 2) or (rest == Fraction(1, 2) and q & 1):
        q += 1
    return (1 if x > 0 else -1) * q * Fraction(2) ** (e - 160)


def _random_plain_literal(rng):
    """A decimal literal of up to 60 digits, in any of the plain forms the
    reader takes: blanks, a sign, digits with or without a point ("1.",
    ".5" too), an exponent up to 10 000 in magnitude with e or E, a sign and
    leading zeros."""
    digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 60)))
    cut = rng.randint(0, len(digits))
    mantissa = rng.choice([digits, digits[:cut] + "." + digits[cut:], digits + ".",
                           "." + digits])
    exponent = ""
    if rng.random() < 0.8:
        bound = rng.choice((60, 10_000))
        exponent = (rng.choice("eE") + rng.choice(("", "+", "-")) + "0" * rng.randint(0, 2)
                    + str(rng.randint(0, bound)))
    blanks = ("", " ", "\t", " \n ")
    return rng.choice(blanks) + rng.choice(("", "+", "-")) + mantissa + exponent + rng.choice(blanks)


def test_plain_literals_read_as_their_exact_value_rounded_to_160_bits():
    rng = random.Random(20)
    for _ in range(4000):
        text = _random_plain_literal(rng)
        assert _read_real(text) == _rounded_to_160_bits(Fraction(text)), text
    # forms outside the plain pattern keep Fraction's reading
    for text in ["1_000.5", "1.5e1_0", " 22/7 ", "-1/3", "0/5", "+.5e-3", "00012.50e-0004",
                 "1" * 2100 + "." + "3" * 2100]:
        assert _read_real(text) == _rounded_to_160_bits(Fraction(text)), text


def test_pair_printer_matches_mpmath_on_reduced_and_unreduced_pairs():
    rng = random.Random(12)
    with mpmath.workprec(160):
        for m, e in _random_dyadics(rng, 10_000):
            k = rng.choice((0, rng.randint(1, 64)))
            assert cli._fmt_real((m << k, e - k)) == mpmath.nstr(mpmath.mpf((m, e)), 33), (m, e)
    assert cli._fmt_real((0, -500)) == cli._fmt_real((0, 7)) == "0.0"


def test_refine_solutions_returns_the_fractions_the_cli_prints(workdir, capsys):
    system = parse_input_file(CIRCLES).system
    y = "0.8660254037844386"
    points = [[zerodim.ExactComplex(Fraction(1, 2), Fraction(0)), (y, "0")],
              [0.5, complex(float(y), 1e-9)], [("0.5", "-0.0"), (-float(y), 0)],
              *zerodim.zero_dim_solve(system, seed=7)]
    refined = zerodim.refine_solutions(system, points, 30)
    for sp in refined:
        assert all(type(c) is zerodim.ExactComplex and type(c.real) is Fraction
                   and type(c.imag) is Fraction for c in sp.coordinates)
    sols = _solutions_file(workdir / "sols.json", [{"re": "0.5", "im": "0.0"}, {"re": y, "im": "0"}])
    code, out = _run(capsys, "refine", workdir / "circles.sys", "--solutions", sols, "--digits", 30)
    assert code == 0
    assert json.loads(out)["solutions"][0]["coordinates"] == [
        {"re": cli._fmt_real(c.real), "im": cli._fmt_real(c.imag)} for c in refined[0].coordinates]


@pytest.mark.parametrize("text", ["1/3", "-2/7", " 0.1 ", "1e-320", "5e-324", "-0.0", "0",
                                  "1.7976931348623157e308", "2.5E+3", "-1e400", "1e-400"])
def test_reader_matches_mpmath_on_fractions_subnormals_and_zeros(text):
    with mpmath.workprec(160):
        assert _read_real(text) == _mpf_value(mpmath.mpf(text))
        assert cli._read_float(text) == float(mpmath.mpf(text))
    assert cli._fmt_real(_read_real("-0.0")) == "0.0"


def test_decomposition_numbers_are_rounded_once_to_a_float():
    # 1 + 2^-53 + 2^-200 to 120 digits lies just above the midpoint between
    # 1 and the next float; rounded to 160 bits first, it would be the
    # midpoint itself, which rounds to even: 1.0
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        text = str(decimal.Decimal(1) + decimal.Decimal(2) ** -53 + decimal.Decimal(2) ** -200)
    assert len(text) == 121
    assert cli._read_float(text) == 1.0000000000000002 == float(text)
    assert cli._read_float(text[:20]) == 1.0
    # the other forms: a fraction, underscores, past the float range
    assert cli._read_float("1/3") == 1 / 3 and cli._read_float("1_000.5") == 1000.5
    assert cli._read_float("-1e400") == -math.inf == -cli._read_float(2 ** 2000)


def test_exact_midpoints_round_to_even():
    rng = random.Random(4)
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        for q in [2 ** 159, 2 ** 159 + 1, 2 ** 160 - 1] + [rng.getrandbits(160) | 1 << 159
                                                           for _ in range(40)]:
            for e in (-1100, -300, -7, 0, 1, 25, 900):
                mid = (2 * q + 1) * Fraction(2) ** (e - 1)
                text = str(decimal.Decimal(mid.numerator) / mid.denominator)
                assert Fraction(text) == mid
                want = (q + (q & 1)) * Fraction(2) ** e
                assert _read_real(text) == want


def test_reader_rounds_correctly_past_mpmaths_exponent_range():
    # mpmath reads a decimal exponent beyond +-400 through a power of ten
    # at 170 bits, which is not correctly rounded; these 60-digit strings
    # lie within 1e-59 relative of a midpoint between two 160-bit values,
    # on a known side of it
    rng = random.Random(8)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for _ in range(200):
            q = rng.getrandbits(160) | 1 << 159
            e = rng.choice((-1, 1)) * rng.randint(1500, 4000) - 160
            mid = (2 * q + 1) * Fraction(2) ** (e - 1)
            for rounding, want in ((decimal.ROUND_DOWN, q), (decimal.ROUND_UP, q + 1)):
                ctx.rounding = rounding
                text = str(decimal.Decimal(mid.numerator) / mid.denominator)
                assert abs(int(text.split("E")[1])) > 400 and Fraction(text) != mid
                assert _read_real(text) == want * Fraction(2) ** e
                assert _read_real("-" + text) == -want * Fraction(2) ** e


@pytest.mark.parametrize("text", ["1e999999999", "-1e999999999", "1e-999999999",
                                  "-1e-999999999", "1e10001", "1E-1_0001", "1e+0000010001"])
def test_reader_refuses_a_decimal_exponent_beyond_ten_thousand_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        _read_real(text)
    with pytest.raises(ValueError):
        cli._read_float(text)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("exponent", [10000, -10000])
def test_reader_is_exact_up_to_the_exponent_bound(exponent):
    # the string and its exact value as a Fraction round to one 160-bit value
    text = f"-2.{'3' * 40}e{exponent}"
    assert _read_real(text) == _read_real(Fraction(text)) != 0


def test_writer_past_mpmaths_exponent_range_is_within_half_a_unit():
    # past |e + bitlen| > 3500 mpmath's nstr first divides by a power of
    # ten at 129 bits; the writer cuts the exact value, so its 33 digits are
    # the exact ones rounded half up, up to a fixed-point truncation of a
    # few units in the 38th digit
    rng = random.Random(5)
    for _ in range(300):
        m = rng.getrandbits(160) | 1 << 159
        e = rng.choice((-1, 1)) * rng.randint(3501, 14000) - 160
        x = rng.choice((-1, 1)) * zerodim._fraction(m, e)
        text = cli._fmt_real(x)
        mantissa, exponent = text.split("e")
        assert mantissa[1 if x < 0 else 0] in "123456789" and len(mantissa.strip("-.0")) <= 34
        unit = Fraction(10) ** (int(exponent) - 32)
        assert abs(Fraction(text) - x) <= unit * Fraction(5001, 10000)


def _solutions_file(path, coordinates):
    path.write_text(json.dumps({"solutions": [{
        "conditionNumber": "1.0", "coordinates": coordinates, "cycleNumber": 1,
        "functionResidual": "1e-6", "lastT": "0.0", "maxPrecisionBits": 53,
        "newtonResidual": "1e-6", "solutionNumber": 0,
    }]}))
    return path


def test_json_numbers_read_as_their_exact_values(workdir, capsys):
    # a JSON number is the exact value of its float: the string of that value
    y = 0.8660254037844386
    outs = []
    for coords in ([{"re": "0.5", "im": "0.0"}, {"re": str(decimal.Decimal(y)), "im": "-0.0"}],
                   [{"re": 0.5, "im": 0}, {"re": y, "im": -0.0}]):
        sols = _solutions_file(workdir / "sols.json", coords)
        code, out = _run(capsys, "refine", workdir / "circles.sys", "--solutions", sols,
                         "--digits", 30)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert _read_real(0.1) == Fraction(0.1) and _read_real(3) == 3


@pytest.mark.parametrize("part", ["inf", "-inf", "+inf", "nan", " NaN ", math.inf])
def test_non_finite_coordinates_diverge(workdir, capsys, part):
    sols = _solutions_file(workdir / "sols.json",
                           [{"re": "0.5", "im": part}, {"re": "0.8660254037844386", "im": "0"}])
    code, out = _run(capsys, "refine", workdir / "circles.sys", "--solutions", sols,
                     "--digits", 20)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "RefinementDiverged"
    with pytest.raises(RefinementDiverged):
        zerodim.refine_solutions(parse_input_file(CIRCLES).system,
                                 [[("0.5", part), ("0.8660254037844386", "0")]], 20)


@pytest.mark.parametrize("coordinate, error", [
    ({"re": "0.5"}, "CorruptFile"), ({"re": None, "im": "0"}, "CorruptFile"),
    (None, "CorruptFile"), ({"re": [1], "im": "0"}, "CorruptFile"), ("0.5", "CorruptFile"),
    ({"re": "abc", "im": "0"}, "ValueError"), ({"re": "Infinity", "im": "0"}, "ValueError"),
    ({"re": "1e999999999", "im": "0"}, "ValueError"),
])
def test_malformed_coordinates_are_usage_errors(workdir, capsys, coordinate, error):
    sols = _solutions_file(workdir / "sols.json",
                           [coordinate, {"re": "0.8660254037844386", "im": "0"}])
    code, out = _run(capsys, "refine", workdir / "circles.sys", "--solutions", sols,
                     "--digits", 20)
    assert code == 1
    assert json.loads(out)["error"]["type"] == error


@pytest.mark.parametrize("field, value", [
    ("cycleNumber", 1.5), ("solutionNumber", "7"), ("maxPrecisionBits", True),
    ("multiplicity", 2.0),
])
def test_an_integer_field_of_a_solution_must_be_a_json_integer(workdir, capsys, field, value):
    sols = _solutions_file(workdir / "sols.json", [{"re": "0.5", "im": "0"},
                                                   {"re": "0.8660254037844386", "im": "0"}])
    data = json.loads(sols.read_text())
    data["solutions"][0][field] = value
    code, out = _run(capsys, "refine", workdir / "circles.sys",
                     "--solutions", _written(sols, data), "--digits", 20)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "CorruptFile" and f'"{field}"' in error["message"]


def test_the_runtime_does_not_import_mpmath():
    src = os.path.dirname(os.path.dirname(zerodim.__file__))
    probe = "import sys, polypath, polypath.cli; print('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"
