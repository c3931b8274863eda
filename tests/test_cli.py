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
from polypath.cli import main, read_decomposition, write_decomposition
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
    # with a tuple 1e10 times the unit-modulus start parameters, p(1) is not
    # p_start to the last bits, and the stage-1 roots miss the start check
    code, out = _run(capsys, "param", workdir / "family.sys", "--values", "1e10,1,1",
                     "--seed", seed)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "StartPointInvalid"


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
                assert cli._read_real(s) == _mpf_value(mpmath.mpf(s)), s
    assert carried >= 1500


@pytest.mark.parametrize("text", ["1/3", "-2/7", " 0.1 ", "1e-320", "5e-324", "-0.0", "0",
                                  "1.7976931348623157e308", "2.5E+3", "-1e400", "1e-400"])
def test_reader_matches_mpmath_on_fractions_subnormals_and_zeros(text):
    with mpmath.workprec(160):
        assert cli._read_real(text) == _mpf_value(mpmath.mpf(text))
        assert cli._read_float(text) == float(mpmath.mpf(text))
    assert cli._fmt_real(cli._read_real("-0.0")) == "0.0"


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
                assert cli._read_real(text) == want


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
                assert cli._read_real(text) == want * Fraction(2) ** e
                assert cli._read_real("-" + text) == -want * Fraction(2) ** e


@pytest.mark.parametrize("text", ["1e999999999", "-1e999999999", "1e-999999999",
                                  "-1e-999999999", "1e10001", "1E-1_0001", "1e+0000010001"])
def test_reader_refuses_a_decimal_exponent_beyond_ten_thousand_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        cli._read_real(text)
    with pytest.raises(ValueError):
        cli._read_float(text)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("exponent", [10000, -10000])
def test_reader_is_exact_up_to_the_exponent_bound(exponent):
    # the string and its exact value as a Fraction round to one 160-bit value
    text = f"-2.{'3' * 40}e{exponent}"
    assert cli._read_real(text) == cli._read_real(Fraction(text)) != 0


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
    assert cli._read_real(0.1) == Fraction(0.1) and cli._read_real(3) == 3


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


def test_the_runtime_does_not_import_mpmath():
    src = os.path.dirname(os.path.dirname(zerodim.__file__))
    probe = "import sys, polypath, polypath.cli; print('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"
