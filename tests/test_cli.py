import json
import math

import numpy as np
import pytest

from polypath.cli import main, read_decomposition, write_decomposition
from polypath.errors import CorruptFile, SchemaVersionMismatch
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
