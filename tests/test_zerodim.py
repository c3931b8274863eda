import contextlib
import dataclasses
import math

import mpmath
import numpy as np
import pytest

from polypath import zerodim
from polypath.algebra import (
    Rng,
    condition_estimate,
    conditioned_solve_stack,
    lin_solve,
    vec_inf_norm,
)
from polypath.errors import NotHomogeneous, NotSquare, PathFailure, RefinementDiverged
from polypath.parser import parse_polynomial
from polypath.polysys import MonomialKernel, Polynomial, PolySystem
from polypath.tracker import PathResult, PathStatus
from polypath.zerodim import (
    _clustered,
    _solution_sets,
    dedupe,
    parameter_homotopy,
    refine_solutions,
    total_degree_start,
    zero_dim_solve,
)


def _mpc(c):
    """A coordinate (ExactComplex or a number) as an mpmath mpc: exact at a
    working precision of 160 bits or more."""
    if not isinstance(c, zerodim.ExactComplex):
        c = complex(c)
    return mpmath.mpc(mpmath.mpmathify(c.real), mpmath.mpmathify(c.imag))


def _sys(texts, variables, params=()):
    return PolySystem(variables,
                      [parse_polynomial(t, variables, params) for t in texts],
                      params)


def _fake_result(coords):
    z = np.asarray(coords, dtype=complex)
    return PathResult(status=PathStatus.SUCCESS, endpoint=z, last_t=1e-4,
                      cycle_number=1, newton_residual=1e-15, function_residual=1e-15,
                      steps_taken=10)


# -- start systems ----------------------------------------------------------

def test_total_degree_start_circle_pair(circles):
    start = total_degree_start(circles)
    assert start.start_system.degrees() == [2, 2]
    pts = [tuple(np.round(p.real).astype(int)) for p in start.start_points]
    assert pts == [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def test_total_degree_start_cube_roots():
    sys = _sys(["x^3 - 2"], ["x"])
    start = total_degree_start(sys)
    expect = [np.exp(2j * np.pi * k / 3) for k in range(3)]
    for p, e in zip(start.start_points, expect):
        assert abs(p[0] - e) <= 1e-14


def test_total_degree_start_path_count_matches_root_count(family):
    specialized = family.specialize([1.0, 1.0, 1.0])
    start = total_degree_start(specialized)
    assert len(start.start_points) == 2


def test_start_points_satisfy_start_system(circles):
    start = total_degree_start(circles)
    for p in start.start_points:
        assert vec_inf_norm(start.start_system.evaluate(p)) <= 1e-12


def test_total_degree_start_requires_square(family):
    with pytest.raises(NotSquare):
        total_degree_start(family)          # still has parameters
    with pytest.raises(NotSquare):
        total_degree_start(_sys(["x^2 + y^2 - 1"], ["x", "y"]))


# -- zero-dimensional solving --------------------------------------------------

def test_circle_pair_solutions(circles):
    sols = zero_dim_solve(circles, seed=7)
    assert len(sols) == 2
    ys = sorted(sp.coordinates[1].real for sp in sols)
    assert abs(ys[0] + math.sqrt(3) / 2) <= 1e-5
    assert abs(ys[1] - math.sqrt(3) / 2) <= 1e-5
    for sp in sols:
        assert abs(sp.coordinates[0] - 0.5) <= 1e-5
        assert sp.function_residual <= 1e-8
        assert sp.cycle_number == 1
        assert sp.last_t <= 1e-3
        assert sp.multiplicity == 1
    assert [sp.solution_number for sp in sols] == [0, 1]


def test_circle_line_solutions(circle_line):
    sols = zero_dim_solve(circle_line, seed=5)
    assert len(sols) == 2
    s = math.sqrt(2) / 2
    got = sorted((sp.coordinates[0].real, sp.coordinates[1].real) for sp in sols)
    assert abs(got[0][0] + s) <= 1e-5 and abs(got[0][1] + s) <= 1e-5
    assert abs(got[1][0] - s) <= 1e-5 and abs(got[1][1] - s) <= 1e-5


def test_solution_residual_invariant(circles):
    for sp in zero_dim_solve(circles, seed=3):
        z = sp.coordinate_array()
        assert vec_inf_norm(circles.evaluate(z)) <= 1e-8 * (1.0 + vec_inf_norm(z))


def test_solve_requires_square(family, quadrics):
    with pytest.raises(NotSquare):
        zero_dim_solve(family)
    with pytest.raises(NotSquare):
        zero_dim_solve(_sys(["x^2 - 1"], ["x", "y"]))
    with pytest.raises(NotSquare):
        zero_dim_solve(quadrics)  # 2 equations in 3 variables, affine mode


def test_projective_requires_homogeneous(circles):
    with pytest.raises(NotHomogeneous):
        zero_dim_solve(circles, projective=True)


def test_projective_quadric_points(quadrics):
    sols = zero_dim_solve(quadrics, projective=True, seed=3)
    assert len(sols) == 4
    ratios = set()
    for sp in sols:
        x, y, z = sp.coordinate_array()
        assert sp.is_projective
        ratios.add((round((y / z).real), round((y / x).real)))
        assert abs((y / z).imag) <= 1e-5 and abs((y / x).imag) <= 1e-5
    assert ratios == {(2, 4), (2, -4), (-2, 4), (-2, -4)}


def test_projective_stability_across_seeds(quadrics):
    def normalized(sols):
        out = []
        for sp in sols:
            z = sp.coordinate_array()
            z = z / z[np.argmax(np.abs(z))]
            out.append(z)
        return out

    a = normalized(zero_dim_solve(quadrics, projective=True, seed=3))
    b = normalized(zero_dim_solve(quadrics, projective=True, seed=4))
    for za in a:
        assert min(vec_inf_norm(za - zb) for zb in b) <= 1e-5


@pytest.mark.parametrize("seed", [0, 7])
def test_projective_condition_is_chart_free(quadrics, seed):
    # the four sign-symmetric roots are images of one another under
    # symmetries of the system, so they share one condition number
    sols = zero_dim_solve(quadrics, projective=True, seed=seed)
    assert len(sols) == 4
    for sp in sols:
        assert abs(sp.condition_number - 8.809524) <= 1e-6


def test_double_root_multiplicity_and_cycle():
    # both Bezout paths land on the double root (0, 1)
    sys = _sys(["x^2", "y - 1"], ["x", "y"])
    sols = zero_dim_solve(sys, seed=3)
    assert len(sols) == 1
    sp = sols[0]
    assert sp.multiplicity == 2
    assert sp.cycle_number == 2
    assert vec_inf_norm(sp.coordinate_array() - np.array([0.0, 1.0])) <= 1e-6


# -- dedupe ---------------------------------------------------------------------

def test_dedupe_clusters_close_endpoints():
    res = [_fake_result([1.0, 2.0]), _fake_result([1.0 + 1e-9, 2.0 - 1e-9])]
    sols = dedupe(res)
    assert len(sols) == 1
    assert sols[0].multiplicity == 2


def _pairwise_clusters(points, projective):
    """The clustering rule one pair at a time: a point joins the first
    representative within DEDUPE_TOL, projective ones after normalizing."""
    tol = zerodim.DEDUPE_TOL

    def same(p, q):
        if not projective:
            return vec_inf_norm(p - q) < tol
        i = int(np.argmax(np.abs(p)))
        if abs(p[i]) == 0.0 or abs(q[i]) <= tol * float(np.max(np.abs(q))):
            return False
        return vec_inf_norm(p / p[i] - q / q[i]) < tol

    reps, sizes = [], []
    for k, p in enumerate(points):
        for i, r in enumerate(reps):
            if same(points[r], p):
                sizes[i] += 1
                break
        else:
            reps.append(k)
            sizes.append(1)
    return reps, sizes


@pytest.mark.parametrize("projective", [False, True])
def test_clusters_match_the_pairwise_rule(projective):
    rng = np.random.default_rng(11)
    tol = zerodim.DEDUPE_TOL
    for _ in range(20):
        base = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
        points = []
        for p in base:
            points.append(p)
            # copies offset by just inside or just outside tol (before rescaling)
            for factor in (0.5, 0.999, 1.001, 2.0):
                offset = rng.normal(size=4) + 1j * rng.normal(size=4)
                q = p + factor * tol * offset / np.abs(offset).max()
                if projective:
                    q = q * complex(*rng.normal(size=2))   # another representative
                points.append(q)
        points.append(np.zeros(4, dtype=complex))
        points = [points[i] for i in rng.permutation(len(points))]
        reps, sizes = zerodim._clusters(points, projective=projective)
        assert (reps, sizes) == _pairwise_clusters(points, projective)
        assert len(base) < len(reps) < len(points)


def test_dedupe_empty():
    assert dedupe([]) == []


def test_dedupe_idempotent():
    res = [_fake_result([0.0, 0.0]), _fake_result([5e-7, 0.0]),
           _fake_result([1.0, 1.0])]
    first = dedupe(res)
    again = dedupe([_fake_result(sp.coordinate_array()) for sp in first])
    assert len(again) == len(first)
    assert [sp.multiplicity for sp in again] == [1] * len(first)


def test_dedupe_ignores_failures():
    bad = PathResult(status=PathStatus.AT_INFINITY, endpoint=np.array([1e9 + 0j]),
                     last_t=0.1, cycle_number=1, newton_residual=1.0,
                     function_residual=1.0, steps_taken=5)
    assert dedupe([bad]) == []


# -- refinement -------------------------------------------------------------------

def test_refine_circle_pair_to_twenty_digits(circles):
    sols = zero_dim_solve(circles, seed=7)
    refined = refine_solutions(circles, sols, 20)
    with mpmath.workprec(200):
        target = mpmath.sqrt(mpmath.mpf(3)) / 2
        for sp in refined:
            y = _mpc(sp.coordinates[1])
            assert abs(abs(y.real) - target) <= mpmath.mpf(10) ** -19
            assert abs(y.imag) <= mpmath.mpf(10) ** -19
            assert sp.max_precision_bits >= 106


def test_refine_returns_exact_160_bit_coordinates(circles):
    sols = zero_dim_solve(circles, seed=7)
    for sp, ref in zip(sols, refine_solutions(circles, sols, 20)):
        for c in ref.coordinates:
            assert isinstance(c, zerodim.ExactComplex)
            for part in c:
                num, den = part.as_integer_ratio()
                assert not den & (den - 1) and abs(num).bit_length() <= 160
        assert vec_inf_norm(ref.coordinate_array() - sp.coordinate_array()) <= 1e-8
        assert ref.coordinate_array().tolist() == [complex(float(c.real), float(c.imag))
                                                   for c in ref.coordinates]


def test_refine_to_twenty_nine_digits(circle_line):
    sols = zero_dim_solve(circle_line, seed=5)
    refined = refine_solutions(circle_line, sols, 29)
    with mpmath.workprec(200):
        target = mpmath.sqrt(mpmath.mpf(2)) / 2
        for sp in refined:
            for c in map(_mpc, sp.coordinates):
                assert abs(abs(c.real) - target) <= mpmath.mpf(10) ** -28


def test_refine_exact_root_is_fixed_point(circle_line):
    s = math.sqrt(2) / 2
    refined = refine_solutions(circle_line, [[s, s]], 10)
    z = refined[0].coordinate_array()
    assert vec_inf_norm(z - np.array([s, s])) <= 1e-10


def test_refine_residual_bound(circles):
    sols = zero_dim_solve(circles, seed=7)
    for d in (10, 20, 30):
        refined = refine_solutions(circles, sols, d)
        for sp in refined:
            assert sp.function_residual <= 10.0 ** (1 - d)


def test_refine_diverges_on_singular_root():
    sys = _sys(["x^2"], ["x"])
    with pytest.raises(RefinementDiverged):
        refine_solutions(sys, [[1e-3]], 20)


def test_refine_rejects_bad_digit_counts(circles):
    with pytest.raises(ValueError):
        refine_solutions(circles, [], 31)


def _katsura3(z):
    """katsura-3 from its formula: sum_l x_|l| x_|m-l| - x_m for m = 0..2,
    and x0 + 2 (x1 + x2 + x3) - 1."""
    eqs = [sum(z[abs(l)] * z[abs(m - l)] for l in range(-3, 4) if abs(m - l) <= 3)
           - z[m] for m in range(3)]
    return eqs + [z[0] + 2 * (z[1] + z[2] + z[3]) - 1]


def _katsura3_jacobian(z):
    jac = [[sum(z[abs(m - l)] * (abs(l) == k) + z[abs(l)] * (abs(m - l) == k)
                for l in range(-3, 4) if abs(m - l) <= 3) - (m == k)
            for k in range(4)] for m in range(3)]
    return jac + [[1, 2, 2, 2]]


def test_refine_matches_a_300_bit_newton_on_katsura3():
    system = _sys(["x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0",
                   "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1",
                   "2*x0*x2 + x1^2 + 2*x1*x3 - x2",
                   "x0 + 2*x1 + 2*x2 + 2*x3 - 1"], ["x0", "x1", "x2", "x3"])
    sols = zero_dim_solve(system, seed=0)
    assert len(sols) == 8
    refined = refine_solutions(system, sols, 30)
    with mpmath.workprec(300):
        for sp, ref in zip(sols, refined):
            z = mpmath.matrix([mpmath.mpc(c) for c in sp.coordinates])
            for _ in range(12):
                z -= mpmath.lu_solve(mpmath.matrix(_katsura3_jacobian(z)),
                                     mpmath.matrix(_katsura3(z)))
            assert max(abs(v) for v in _katsura3(z)) < mpmath.mpf(10) ** -80
            for zi, ri in zip(z, map(_mpc, ref.coordinates)):
                assert abs(ri - zi) <= mpmath.mpf(10) ** -30 * (1 + abs(zi))
            assert ref.function_residual <= 1e-29
            assert ref.newton_residual <= 1e-30 * (1 + max(abs(_mpc(c)) for c in ref.coordinates))


def _near_singular_line_pair(eps):
    """x + y - 2 and x + (1 + eps) y - (2 + eps): root (1, 1), kappa_inf ~ 4/eps."""
    return PolySystem(["x", "y"], [Polynomial.linear([1, 1], -2, 2),
                                   Polynomial.linear([1, 1 + eps], -(2 + eps), 2)])


def test_refine_contracts_slowly_but_converges_when_ill_conditioned(monkeypatch):
    # eps = 2^-30 (about 1e-9) keeps every coefficient and the root exact
    # in binary; kappa_inf ~ 4.3e9, so a correction shrinks the error by
    # only about kappa_inf * 2^-53 ~ 5e-7.  The start is given to 35
    # digits, so the residuals do not round exactly to complex128.
    system = _near_singular_line_pair(2.0 ** -30)
    start = [("1.0031415926535897932384626433832795", "0"),
             ("0.99728171817154095235360287471352662", "0")]
    solves = []

    def counting_solve(a, b):
        solves.append(1)
        return conditioned_solve_stack(a, b)

    monkeypatch.setattr(zerodim, "conditioned_solve_stack", counting_solve)
    (sp,) = refine_solutions(system, [start], 30)
    assert 4 <= len(solves) < 30
    with mpmath.workprec(160):
        for c in map(_mpc, sp.coordinates):
            assert abs(c - 1) <= mpmath.mpf(10) ** -30
    assert sp.newton_residual <= 2e-30


def test_refine_reports_a_jacobian_past_the_singular_bound():
    # eps = 2^-50 (about 1e-15): kappa_inf ~ 4.5e15 >= 1e14, so lin_solve
    # counts the Jacobian as singular and refinement cannot correct
    system = _near_singular_line_pair(2.0 ** -50)
    with pytest.raises(RefinementDiverged, match="kappa_inf < 1e14"):
        refine_solutions(system, [[1.25, 0.75]], 30)


def test_tracker_solves_a_jacobian_that_lin_solve_calls_singular():
    # the same kappa_inf ~ 4.5e15 Jacobian: only results (lin_solve, refine,
    # the endpoint polish) apply the 1e14 bound, the tracker's solve does not
    from polypath.errors import SingularMatrix
    from polypath.tracker import _solve_rows

    jac = _near_singular_line_pair(2.0 ** -50).jacobian([1.25, 0.75])
    b = np.array([1.0, 2.0], dtype=complex)
    x, ok = _solve_rows(jac[None], b[None])
    assert ok.tolist() == [True]
    assert np.isfinite(x).all() and vec_inf_norm(jac @ x[0] - b) <= 1e-15 * vec_inf_norm(x)
    with pytest.raises(SingularMatrix):
        lin_solve(jac, b)


def test_refine_reports_a_residual_beyond_hardware_range():
    # f(1e200) = 1e400 overflows complex128, so no correction is defined
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RefinementDiverged, match="kappa_inf < 1e14"):
        refine_solutions(_sys(["x^2 - 1"], ["x"]), [[1e200]], 10)


def _reference_values(system, coordinates):
    """f at the coordinates, evaluated term by term in mpmath at 1000 bits and
    rounded once to complex128."""
    with mpmath.workprec(1000):
        z = [_mpc(c) for c in coordinates]
        out = []
        for poly in system.polys:
            total = mpmath.mpc(0)
            for row, c in zip(poly.exps.tolist(), poly.coeffs.tolist()):
                term = mpmath.mpc(c.real, c.imag)
                for zj, e in zip(z, row):
                    term *= zj ** e
                total += term
            out.append(complex(total))
    return np.array(out)


def _exact_values(system, coordinates):
    return zerodim._ExactSystem(system)(zerodim._dyadic_point(coordinates))


def _random_dyadic(rng, low, high):
    """A random real with a 160-bit mantissa and magnitude 2^k to 2^(k+1),
    k drawn from [low, high]."""
    m = int.from_bytes(rng.bytes(20), "big") | 1 << 159 | 1
    sign = -1 if rng.uniform() < 0.5 else 1
    return zerodim._fraction(sign * m, int(rng.integers(low, high + 1)) - 159)


@pytest.mark.parametrize("name", ["katsura5", "cyclic5"])
def test_exact_values_at_160_bit_roots_match_a_1000_bit_evaluation(name, katsura5, cyclic5):
    system = katsura5 if name == "katsura5" else cyclic5
    sols = zero_dim_solve(system, seed=1)[:12]
    for sp in refine_solutions(system, sols, 30):
        got = _exact_values(system, sp.coordinates)
        assert got.tobytes() == _reference_values(system, sp.coordinates).tobytes()
        assert 0 < np.abs(got).max() < 1e-40


def test_exact_values_at_random_dyadic_points_with_mixed_exponents():
    rng = np.random.default_rng(11)
    for _ in range(20):
        nv = 3
        polys = []
        for _ in range(nv):
            terms = {}
            for _ in range(5):
                exps = tuple(int(e) for e in rng.integers(0, 3, size=nv))
                terms[exps] = complex(rng.normal() * 2.0 ** int(rng.integers(-30, 30)),
                                      rng.normal() * 2.0 ** int(rng.integers(-30, 30)))
            polys.append(Polynomial.from_terms(terms, nv))
        system = PolySystem(["x", "y", "z"], polys)
        point = [zerodim.ExactComplex(_random_dyadic(rng, -200, 40), _random_dyadic(rng, -200, 40))
                 for _ in range(nv)]
        got = _exact_values(system, point)
        assert got.tobytes() == _reference_values(system, point).tobytes()


def test_exact_values_at_zero_coordinates_and_the_constant_monomial():
    system = _sys(["x^2*y + 3*y - 0.1", "x*y^2 + 2.5*x + (1 + 2*I)", "z^3 - 0.3*z + 7"],
                  ["x", "y", "z"])
    with mpmath.workprec(160):
        third = zerodim._fraction(*(mpmath.mpf(1) / 3).man_exp)
    exact = zerodim.ExactComplex
    for point in ([0, 0, 0], [exact(third, 0), 0, exact(0, third)],
                  [exact(third, 0), exact(0, 1), 0.0]):
        got = _exact_values(system, point)
        assert got.tobytes() == _reference_values(system, point).tobytes()
    assert _exact_values(system, [0, 0, 0]).tolist() == [-0.1, 1 + 2j, 7]


def test_exact_values_overflow_to_infinity():
    system = _sys(["x^2 - 1", "-x*y^3"], ["x", "y"])
    got = _exact_values(system, [1e200, 1e200])
    assert got.tolist() == [complex(math.inf, 0), complex(-math.inf, 0)]
    huge = zerodim.ExactComplex(zerodim._fraction(1, 5000), 0)
    assert _exact_values(system, [huge, 1])[0] == complex(math.inf, 0)


def test_iterates_round_to_160_bits_as_mpmath_does():
    rng = np.random.default_rng(5)
    cases = [(1 << 160) + 1, (1 << 161) + 1, (1 << 161) + 3, (1 << 161) - 1, 3 << 200]
    cases += [int.from_bytes(rng.bytes(int(n)), "big") for n in rng.integers(1, 60, size=40)]
    with mpmath.workprec(160):
        for m in cases:
            for sign in (1, -1):
                got = zerodim._round_bits(sign * m, -7)
                assert abs(got[0]).bit_length() <= 160
                assert mpmath.mpf(got) == mpmath.mpf((sign * m, -7))


def test_refine_of_a_list_equals_refining_each_root_alone(katsura4):
    system = katsura4
    sols = zero_dim_solve(system, seed=3)
    together = refine_solutions(system, sols, 30)
    for sp, got in zip(sols, together):
        (alone,) = refine_solutions(system, [sp], 30)
        with mpmath.workprec(160):
            size = max(abs(_mpc(c)) for c in alone.coordinates)
            for a, b in zip(map(_mpc, got.coordinates), map(_mpc, alone.coordinates)):
                assert abs(a - b) <= mpmath.mpf(10) ** -46 * (1 + size)
        assert (got.solution_number, got.multiplicity) == (alone.solution_number,
                                                            alone.multiplicity)


def test_refine_raises_the_lowest_index_failure():
    # x^2 (x - 1): root 0 converges, root 1 creeps towards the double root
    # 0 and runs out of iterations, and root 2 sits on it, where the
    # Jacobian is singular at the first iteration
    system = _sys(["x^3 - x^2"], ["x"])
    with pytest.raises(RefinementDiverged) as alone:
        refine_solutions(system, [[1e-3]], 20)
    assert str(alone.value) == "no agreement to 20 digits within 30 iterations"
    with pytest.raises(RefinementDiverged, match="singular Jacobian"):
        refine_solutions(system, [[0.0]], 20)
    with pytest.raises(RefinementDiverged) as both:
        refine_solutions(system, [[1.0], [1e-3], [0.0]], 20)
    assert str(both.value) == str(alone.value)


def _one_point_condition(system, z, projective=False):
    """_conditions for one root, from condition_estimate."""
    jac = system.jacobian(z)
    degrees = np.array(system.degrees())
    zeta = z if projective else np.append(z, 1.0)
    if not projective:
        jac = np.column_stack([jac, degrees * system.evaluate(z) - jac @ z])
    norm = float(np.linalg.norm(zeta))
    jac = jac * (norm ** (1.0 - degrees))[:, None]
    return condition_estimate(np.vstack([jac, zeta.conj() / norm]))


def test_stacked_condition_numbers_match_one_point_ones(cyclic5, quadrics):
    sols = zero_dim_solve(cyclic5, seed=2)
    z = np.array([sp.coordinate_array() for sp in sols])
    stacked = zerodim._conditions(cyclic5.kernel(z), z, np.array(cyclic5.degrees()))
    for zi, kappa in zip(z, stacked):
        assert abs(kappa - _one_point_condition(cyclic5, zi)) <= 1e-12 * kappa
    sols = zero_dim_solve(quadrics, projective=True, seed=0)
    z = np.array([sp.coordinate_array() for sp in sols])
    stacked = zerodim._conditions(quadrics.kernel(z), z, np.array(quadrics.degrees()),
                                  projective=True)
    for zi, kappa in zip(z, stacked):
        assert abs(kappa - _one_point_condition(quadrics, zi, True)) <= 1e-12 * kappa


def _kernel_calls(monkeypatch):
    """The kernels of every MonomialKernel call, in call order."""
    calls, original = [], MonomialKernel.__call__

    def recorded(self, point, paths=None):
        calls.append(self)
        return original(self, point, paths)

    monkeypatch.setattr(MonomialKernel, "__call__", recorded)
    return calls


def test_affine_solve_diagnoses_its_roots_in_one_kernel_call(katsura4, monkeypatch):
    calls = _kernel_calls(monkeypatch)
    sols = zero_dim_solve(katsura4, seed=0)
    assert len(sols) == 16
    assert sum(kernel is katsura4.kernel for kernel in calls) == 1


def test_projective_solve_takes_its_residuals_from_the_patched_system(quadrics, monkeypatch):
    patched, patch = [], zerodim.affine_patch

    def recorded(system, rng):
        patched.append(patch(system, rng))
        return patched[-1]

    monkeypatch.setattr(zerodim, "affine_patch", recorded)
    calls = _kernel_calls(monkeypatch)
    sols = zero_dim_solve(quadrics, projective=True, seed=0)
    solved = patched[0][0]
    assert sum(kernel is quadrics.kernel for kernel in calls) == 1
    assert sum(kernel is solved.kernel for kernel in calls) == 1
    z = np.array([sp.coordinate_array() for sp in sols])
    assert [sp.function_residual for sp in sols] == np.abs(
        solved.kernel(z)[:, :, 0]).max(axis=1).tolist()


# -- parameter homotopy ---------------------------------------------------------

def test_parameter_homotopy_paper_tuples(family):
    res = parameter_homotopy(family, ["a", "b", "c"], [[1, 1, 1], [2, 3, 4]], seed=7)
    assert res.paths_per_tuple == 2
    assert len(res) == 2
    first = sorted(sp.coordinates[0].real for sp in res[0])
    assert abs(first[0] + 1.0) <= 1e-5 and abs(first[1] - 1.0) <= 1e-5
    second = sorted(sp.coordinates[0].real for sp in res[1])
    r2 = math.sqrt(2.0)
    assert abs(second[0] + r2) <= 1e-5 and abs(second[1] - r2) <= 1e-5
    for sols in res:
        for sp in sols:
            assert abs(sp.coordinates[1]) <= 1e-8


def test_parameter_homotopy_negative_tuple(family):
    res = parameter_homotopy(family, ["a", "b", "c"], [[1, 1, -1]], seed=2)
    xs = sorted(sp.coordinates[0].imag for sp in res[0])
    assert abs(xs[0] + 1.0) <= 1e-5 and abs(xs[1] - 1.0) <= 1e-5
    for sp in res[0]:
        assert abs(sp.coordinates[0].real) <= 1e-5


def test_parameter_homotopy_generic_tuple_keeps_count(family):
    generic = [0.31 + 0.84j, -0.77 + 0.41j, 0.56 - 0.71j]
    res = parameter_homotopy(family, ["a", "b", "c"], [generic], seed=9)
    assert len(res[0]) == res.paths_per_tuple


def test_parameter_homotopy_solutions_satisfy_specialization(family):
    tuples = [[1, 1, 1], [2, 3, 4]]
    res = parameter_homotopy(family, ["a", "b", "c"], tuples, seed=1)
    for tup, sols in zip(tuples, res):
        target = family.specialize([complex(v) for v in tup])
        for sp in sols:
            z = sp.coordinate_array()
            assert vec_inf_norm(target.evaluate(z)) <= 1e-8 * (1 + vec_inf_norm(z))


def test_parameter_homotopy_name_order(family):
    # names give the tuple order; (c, a, b) = (1, 1, 1) is the same system
    res = parameter_homotopy(family, ["c", "a", "b"], [[4, 2, 3]], seed=7)
    xs = sorted(sp.coordinates[0].real for sp in res[0])
    r2 = math.sqrt(2.0)
    assert abs(xs[0] + r2) <= 1e-5 and abs(xs[1] - r2) <= 1e-5


def test_parameter_homotopy_validation(family, circles):
    with pytest.raises(Exception):
        parameter_homotopy(circles, ["a"], [[1.0]])
    with pytest.raises(Exception):
        parameter_homotopy(family, ["a", "b"], [[1, 1]])
    with pytest.raises(Exception):
        parameter_homotopy(family, ["a", "b", "c"], [[1, 1]])


@pytest.mark.parametrize("seed", [0, 7])
def test_parameter_homotopy_condition_matches_solve(family, seed):
    res = parameter_homotopy(family, ["a", "b", "c"], [[1, 1, 1], [2, 3, 4]],
                             seed=seed)
    # at (1, 1, 1) the root (1, 0) has homogenized Jacobian rows
    # (sqrt2, 0, -sqrt2), (0, 1, 0) at its unit representative; with the
    # row (1, 0, 1)/sqrt2 appended the infinity-norm condition is exactly 3,
    # and x -> -x carries this over to the root (-1, 0)
    for sp in res[0]:
        assert abs(sp.condition_number - 3.0) <= 1e-12
    solved = zero_dim_solve(family.specialize([2, 3, 4]), seed=seed)
    for sp in list(res[1]) + solved:
        assert abs(sp.condition_number - 7.884788) <= 1e-6


def test_katsura4_root_count_over_seeds(katsura4):
    for seed in range(6):
        sols = zero_dim_solve(katsura4, seed=seed)
        assert len(sols) == 16, f"seed {seed}: {len(sols)} roots"
        assert all(sp.multiplicity == 1 for sp in sols)


def test_parameter_homotopy_batch_equals_one_tuple_calls(family):
    rng = Rng(31)
    tuples = [list(rng.unit_complex(3) * rng.uniform(0.5, 2.0, size=3)) for _ in range(16)]
    # the double root (1, 1, 0) is tracked again with the endgame
    tuples.append([1, 1, 0])
    batch = parameter_homotopy(family, ["a", "b", "c"], tuples, seed=5)
    assert len(batch) == 17
    for tup, sols in zip(tuples, batch):
        alone = parameter_homotopy(family, ["a", "b", "c"], [tup], seed=5)
        assert alone.paths_per_tuple == batch.paths_per_tuple
        assert len(alone[0]) == len(sols) == (1 if tup == [1, 1, 0] else 2)
        assert list(alone[0]) == list(sols)
    assert [sp.multiplicity for sp in batch[16]] == [2] and batch[16][0].last_t > 0


def _stage_two_calls(monkeypatch):
    """The (target parameters, keywords, results) of every stage-2
    track_paths call that parameter_homotopy makes while the test runs."""
    calls, track = [], zerodim.track_paths

    def recorded(h, starts, **kwargs):
        results = track(h, starts, **kwargs)
        if h.p_target is not None:      # stage 1 tracks a straight-line homotopy
            calls.append((h.p_target, kwargs, list(results)))
        return results

    monkeypatch.setattr(zerodim, "track_paths", recorded)
    return calls


@pytest.mark.parametrize("change, doubt", [
    ({}, False),
    ({"status": PathStatus.AT_INFINITY}, True),
    ({"status": PathStatus.STEP_FAILURE}, True),
    ({"endpoint": np.array([1.0 + 5e-7, 2.0])}, True),       # meets the first path
    ({"endpoint": np.array([1.0 + 2e-6, 2.0])}, False),
    ({"newton_residual": 2e-11}, False),                     # FINAL_TOL * (1 + 2) = 3e-11
    ({"newton_residual": 4e-11}, True),
], ids=["clear", "at infinity", "failed", "meets", "apart", "fast polish", "slow polish"])
def test_parameter_homotopy_doubt_rules(change, doubt):
    # one tuple's straight paths: the first at (1, 2), the second changed
    paths = [_fake_result([1.0, 2.0]), _fake_result([-1.0, 2.0])]
    paths[1] = dataclasses.replace(paths[1], **change)
    assert zerodim._in_doubt(paths) is doubt


@pytest.mark.parametrize("tup, seed, fails", [
    ([2, 3, 4], 0, None),
    # the straight paths collapse: the endgame's paths collapse too
    ([1e8, 1, 1], 0, "main-phase step collapse"),
    # the double root: the straight paths fail the success gate
    ([1, 1, 0], 3, None),
    # the straight paths end at the roots +-3.16e-4, but their polish
    # converged slowly; the endgame's samples there are not Cauchy
    ([1, 1, 1e-7], 0, "residual above the success gate"),
])
def test_parameter_homotopy_tracks_tuples_in_doubt_again(family, monkeypatch, tup, seed,
                                                         fails):
    calls = _stage_two_calls(monkeypatch)
    with pytest.raises(PathFailure, match=fails) if fails else contextlib.nullcontext():
        parameter_homotopy(family, ["a", "b", "c"], [[1, 1, 1], tup], seed=seed)
    targets = np.array([[1, 1, 1], tup], dtype=complex)
    again = tup != [2, 3, 4]
    # the straight pass over both tuples, then the endgame over the one in doubt
    assert [kwargs for _, kwargs, _ in calls] == [{"endgame": False}] + [{}] * again
    assert calls[0][0].tolist() == np.repeat(targets, 2, axis=0).tolist()
    if again:
        assert calls[1][0].tolist() == np.repeat(targets[1:], 2, axis=0).tolist()


def _endgame_run(monkeypatch, family, tuples, seed):
    """parameter_homotopy with every stage-2 path tracked through the
    endgame, as track_paths(..., endgame=True) of the same homotopy."""
    track = zerodim.track_paths
    with monkeypatch.context() as patch:
        patch.setattr(zerodim, "track_paths", lambda h, starts, **kwargs: track(h, starts))
        return parameter_homotopy(family, list(family.parameters), tuples, seed=seed)


@pytest.mark.parametrize("case", ["1,1,0", "1,2,0", "batch"])
@pytest.mark.parametrize("seed", [0, 3])
def test_parameter_homotopy_tuples_in_doubt_equal_the_endgame_run(family, monkeypatch,
                                                                   case, seed):
    # a tuple tracked again gets the endgame's roots to the last bit; a
    # tuple tracked straight gets roots with lastT 0 and cycle number 1, at
    # the endgame's points to about an ulp
    if case == "batch":
        rng = Rng(11)
        tuples = [list(rng.unit_complex(3) * rng.uniform(0.5, 2.0, size=3)) for _ in range(15)]
        tuples.insert(6, [1, 1, 0])
    else:
        tuples = [[float(v) for v in case.split(",")]]
    endgame = _endgame_run(monkeypatch, family, tuples, seed)
    calls = _stage_two_calls(monkeypatch)
    res = parameter_homotopy(family, ["a", "b", "c"], tuples, seed=seed)
    # only the double roots are in doubt
    again = np.array([[1, 1, 0]] if case == "batch" else tuples, dtype=complex).tolist()
    assert len(calls) == 2 and calls[1][0][::res.paths_per_tuple].tolist() == again
    for tup, sols, ref in zip(np.array(tuples, dtype=complex).tolist(), res, endgame):
        if tup in again:
            assert repr(sols) == repr(ref)
            assert [sp.multiplicity for sp in sols] == [2]
            continue
        assert [sp.multiplicity for sp in sols] == [sp.multiplicity for sp in ref] == [1, 1]
        assert {(sp.last_t, sp.cycle_number) for sp in sols} == {(0.0, 1)}
        z, z_ref = (np.array([sp.coordinates for sp in s]) for s in (sols, ref))
        assert np.abs(z - z_ref).max() <= 1e-15 * (1 + np.abs(z_ref).max())


@pytest.mark.parametrize("seed", range(3))
def test_parameter_homotopy_double_root_passing_the_gate_is_one_root(monkeypatch, seed):
    # x^2 - 2 a x + b has the double root x = 10 at (10, 100); the straight
    # paths end 6e-5 apart with residuals 1e-9, inside the success gate at
    # |x| = 10, but their polish converges linearly, so the endgame decides
    # and finds one root of multiplicity 2, not two simple roots
    fam = _sys(["x^2 - 2*a*x + b", "y"], ["x", "y"], ["a", "b"])
    endgame = _endgame_run(monkeypatch, fam, [[10, 100]], seed)
    res = parameter_homotopy(fam, ["a", "b"], [[10, 100]], seed=seed)
    assert [sp.multiplicity for sp in res[0]] == [2]
    assert abs(res[0][0].coordinates[0] - 10) <= 1e-6
    assert repr(list(res)) == repr(list(endgame))


MERGING_FAMILY = ["a*x^2 + b*x^2 + c*x^2 + y^2 - 1", "y - a*x + b*x"]
DEGREE_DROP_FAMILY = ["a*x*y^2 + x^2 - 1", "y"]


def _stage_two_results(monkeypatch, family, tuples, seed):
    """parameter_homotopy's result and each tuple's final stage-2 path
    results, tuple after tuple: those of the last stage-2 track of its
    paths, the endgame's where the tuple was tracked again."""
    calls = _stage_two_calls(monkeypatch)
    res = parameter_homotopy(family, list(family.parameters), tuples, seed=seed)
    final = []
    for tup in np.array(tuples, dtype=complex):
        for targets, _, results in reversed(calls):
            rows = (targets == tup).all(axis=1).nonzero()[0]
            if rows.size:
                final += [results[i] for i in rows]
                break
    return res, final


@pytest.mark.parametrize("case", ["conic", "merging", "degree drop"])
@pytest.mark.parametrize("seed", [0, 3])
def test_parameter_homotopy_diagnosis_equals_one_system_per_tuple(family, monkeypatch,
                                                                   case, seed):
    # every tuple's roots are diagnosed in one kernel call over the family's
    # terms; each must get the bits that its own specialized system gives:
    # terms that vanish at a tuple ((1, 0, 1), a = 0), a singular root
    # ((1, 1, 0)), terms that merge when specialized, and a degree that drops
    generic = [[0.31 + 0.84j, -0.77 + 0.41j, 0.56 - 0.71j], [1.3 - 0.2j, 0.6j, -1.1 + 0.4j]]
    fam, tuples = {
        "conic": (family, generic + [[1, 0, 1], [1, 1, 0], [2, 3, 4]]),
        "merging": (_sys(MERGING_FAMILY, ["x", "y"], ["a", "b", "c"]), generic + [[1, 2, 3]]),
        "degree drop": (_sys(DEGREE_DROP_FAMILY, ["x", "y"], ["a"]), [[0], [2]]),
    }[case]
    res, results = _stage_two_results(monkeypatch, fam, tuples, seed)
    k = res.paths_per_tuple
    assert k == 2
    for j, (tup, sols) in enumerate(zip(tuples, res)):
        target = fam.specialize(np.array(tup, dtype=complex))
        ends, sizes = _clustered(results[j * k:(j + 1) * k])
        z = np.array([res.endpoint for res in ends])
        alone = _solution_sets([(ends, sizes)], z, target.kernel(z),
                               np.array(target.degrees()))[0]
        assert sols and repr(sols) == repr(alone)
    if case == "degree drop":
        # at a = 0, f1 = x^2 - 1 has degree 2, not the family's 3
        assert [sp.condition_number for sp in res[0]] == [3.0, 3.0]

