import numpy as np
import pytest

from polypath.algebra import Rng, condition_estimate, vec_inf_norm
from polypath.errors import DimensionMismatch, NotHomogeneous
from polypath.parser import parse_input_file, parse_polynomial
from polypath.polysys import Polynomial, PolySystem, affine_patch, random_slice


def _poly(text, variables, params=()):
    return parse_polynomial(text, variables, params)


def _random_system(rng, nvars, max_deg, npolys=None):
    npolys = npolys or nvars
    names = [f"z{i}" for i in range(nvars)]
    polys = []
    for _ in range(npolys):
        terms = {}
        for _ in range(6):
            e = tuple(rng.integers(max_deg + 1) for _ in range(nvars))
            if sum(e) > max_deg:
                continue
            terms[e] = complex(rng.unit_complex())
        if not terms:
            terms[(0,) * nvars] = 1.0 + 0j
        polys.append(Polynomial.from_terms(terms, nvars))
    return PolySystem(names, polys)


def test_evaluate_on_variety_point():
    circle = PolySystem(["x", "y"], [_poly("x^2 + y^2 - 1", ["x", "y"])])
    assert vec_inf_norm(circle.evaluate([1.0, 0.0])) == 0.0


def test_evaluate_at_paper_intersection(circles):
    vals = circles.evaluate([0.5, 0.866025])
    assert vec_inf_norm(vals) <= 1e-5
    exact = circles.evaluate([0.5, np.sqrt(3.0) / 2.0])
    assert vec_inf_norm(exact) <= 1e-14


def test_evaluate_with_parameters(family):
    vals = family.evaluate([1.0, 0.0], [1.0, 1.0, 1.0])
    assert vec_inf_norm(vals) == 0.0


def test_evaluate_dimension_errors(circles, family):
    with pytest.raises(DimensionMismatch):
        circles.evaluate([1.0])
    with pytest.raises(DimensionMismatch):
        family.evaluate([1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        family.evaluate([1.0, 0.0], [1.0])


def test_jacobian_monomial_rule():
    sys = PolySystem(["x", "y"], [_poly("x^2 + y^2 - 1", ["x", "y"])])
    assert np.allclose(sys.jacobian([1.0, 2.0]), [[2.0, 4.0]], atol=0)


def test_jacobian_product_symmetry():
    sys = PolySystem(["x", "y"], [_poly("x*y", ["x", "y"])])
    a, b = 1.7 - 0.3j, -2.2 + 1.1j
    assert np.allclose(sys.jacobian([a, b]), [[b, a]], atol=0)


def test_jacobian_matches_finite_differences():
    h = 1e-5
    for seed in range(20):
        rng = Rng(seed)
        sys = _random_system(rng, 3, 3)
        z = np.asarray(rng.unit_complex(3))
        jac = sys.jacobian(z)
        for j in range(3):
            e = np.zeros(3, dtype=complex)
            e[j] = h
            fd = (sys.evaluate(z + e) - sys.evaluate(z - e)) / (2 * h)
            denom = np.maximum(np.abs(jac[:, j]), 1.0)
            assert np.max(np.abs(fd - jac[:, j]) / denom) <= 1e-6


def test_degrees_and_bezout(circles, quadrics, family):
    assert circles.degrees() == [2, 2]
    assert circles.bezout_number() == 4
    assert quadrics.degrees() == [2, 2]
    assert quadrics.bezout_number() == 4
    assert family.degrees() == [2, 1]
    assert family.bezout_number() == 2


def test_bezout_multiplies_under_concatenation(circles, family):
    combined = PolySystem(circles.variables, circles.polys + circles.polys)
    assert combined.bezout_number() == circles.bezout_number() ** 2


def test_is_homogeneous(quadrics, circles):
    assert quadrics.is_homogeneous()
    assert not circles.is_homogeneous()


def test_specialize_paper_tuples(family):
    s1 = family.specialize([1.0, 1.0, 1.0])
    expect = parse_input_file("vars x, y; f1 = x^2 + y^2 - 1; f2 = y;").system
    assert s1.polys[0] == expect.polys[0]
    assert s1.polys[1] == expect.polys[1]
    s2 = family.specialize([2.0, 3.0, 4.0])
    expect2 = parse_input_file("vars x, y; f1 = 2*x^2 + 3*y^2 - 4; f2 = y;").system
    assert s2.polys[0] == expect2.polys[0]


def test_specialize_empty_is_identity(circles):
    again = circles.specialize([])
    assert all(p == q for p, q in zip(again.polys, circles.polys))


def test_specialize_commutes_with_evaluate(family):
    rng = Rng(4)
    for _ in range(20):
        p = np.asarray(rng.unit_complex(3))
        z = np.asarray(rng.unit_complex(2))
        a = family.specialize(p).evaluate(z)
        b = family.evaluate(z, p)
        assert vec_inf_norm(a - b) <= 1e-12 * (1.0 + vec_inf_norm(b))


def _specialized_one_by_one(family, values):
    """specialize as a loop over polynomials and parameters: the reference."""
    nv = family.num_vars
    out = []
    for p in family.polys:
        scale = np.ones(p.coeffs.shape[0], dtype=complex)
        for j, val in enumerate(values):
            scale *= val ** p.exps[:, nv + j]
        out.append(Polynomial(p.exps[:, :nv], p.coeffs * scale, width=nv))
    return out


@pytest.mark.parametrize("text", [
    "vars x, y; params a, b, c; f1 = a*x^2 + b*y^2 - c; f2 = y;",
    # terms that merge when specialized, and powers of the parameters
    "vars x, y; params a, b, c; f1 = a*x^2 + b*x^2 + c*x^2 + y^2 - 1; f2 = y - a*x + b*x;",
    "vars x, y; params a, b; f1 = a^3*x*y + 3*a*b^2*x*y - b*x*y + a*b; f2 = (a + b)^2*y^2 - x;",
])
def test_specialize_equals_the_term_by_term_loop(text):
    family = parse_input_file(text).system
    rng = Rng(6)
    values = [np.asarray(rng.unit_complex(len(family.parameters)))
              * rng.uniform(0.1, 10.0, size=len(family.parameters)) for _ in range(8)]
    values += [np.eye(len(family.parameters), dtype=complex)[0],
               np.zeros(len(family.parameters), dtype=complex)]
    exps, coeffs, rows = family.specialized_terms(np.array(values))
    for k, v in enumerate(values):
        expect = _specialized_one_by_one(family, v)
        got = family.specialize(v).polys
        for i, (p, q) in enumerate(zip(got, expect)):
            assert np.array_equal(p.exps, q.exps)
            assert p.coeffs.tobytes() == q.coeffs.tobytes()
            # the stacked terms hold the same coefficients, zeros kept
            live = np.abs(coeffs[k, rows == i]) > 0
            assert np.array_equal(exps[rows == i][live], q.exps)
            assert coeffs[k, rows == i][live].tobytes() == q.coeffs.tobytes()


def _assert_as_the_constructor_builds(family, values):
    """specialize's polynomials equal Polynomial() of the same merged terms."""
    exps, coeffs, rows = family.specialized_terms(np.asarray(values, dtype=complex)[None])
    polys = family.specialize(values).polys
    for i, p in enumerate(polys):
        q = Polynomial(exps[rows == i], coeffs[0, rows == i], width=family.num_vars)
        assert p.exps.shape == q.exps.shape and np.array_equal(p.exps, q.exps)
        assert p.coeffs.tobytes() == q.coeffs.tobytes()
    return polys


def test_specialize_builds_its_polynomials_as_the_constructor_would(family):
    rng = Rng(8)
    for values in [rng.unit_complex(3) * rng.uniform(0.1, 10.0, size=3) for _ in range(6)] \
            + [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]:
        _assert_as_the_constructor_builds(family, values)
    # the x^2 terms cancel at (1, 1, -2), and so do the x terms of f2
    merging = parse_input_file("vars x, y; params a, b, c; "
                               "f1 = a*x^2 + b*x^2 + c*x^2 + y^2 - 1; f2 = y - a*x + b*x;").system
    f1, f2 = _assert_as_the_constructor_builds(merging, [1.0, 1.0, -2.0])
    assert f1.exps.tolist() == [[0, 2], [0, 0]] and f2.exps.tolist() == [[0, 1]]


def test_random_slice_shapes_and_independence():
    rng = Rng(8)
    one = random_slice(3, 1, rng)
    assert one.coefficients.shape == (1, 3)
    assert one.constants.shape == (1,)
    two = random_slice(3, 2, rng)
    gram = two.coefficients @ two.coefficients.conj().T
    assert condition_estimate(gram) < 1e12
    with pytest.raises(DimensionMismatch):
        random_slice(3, 4, rng)


def test_random_slice_determinism():
    a = random_slice(4, 2, Rng(21))
    b = random_slice(4, 2, Rng(21))
    assert np.array_equal(a.coefficients, b.coefficients)
    assert np.array_equal(a.constants, b.constants)


def test_affine_patch_squares_the_quadrics(quadrics):
    patched, coeffs = affine_patch(quadrics, Rng(2))
    assert patched.n == 3 and patched.num_vars == 3
    z = np.asarray(Rng(3).unit_complex(3))
    patch_val = patched.evaluate(z)[-1]
    assert abs(patch_val - (coeffs @ z - 1.0)) <= 1e-14


def test_affine_patch_rejects_inhomogeneous(circles):
    with pytest.raises(NotHomogeneous):
        affine_patch(circles, Rng(0))


def test_homogeneous_scaling_property(quadrics):
    rng = Rng(12)
    degs = np.array(quadrics.degrees())
    for _ in range(10):
        z = np.asarray(rng.unit_complex(3)) * 1.7
        lam = complex(rng.unit_complex()) * 0.8
        lhs = quadrics.evaluate(lam * z)
        rhs = lam ** degs * quadrics.evaluate(z)
        assert vec_inf_norm(lhs - rhs) <= 1e-10 * (1.0 + vec_inf_norm(rhs))


def _fd_partials(system, z, params, h=1e-6):
    """Central differences of evaluate by each variable, then each parameter."""
    point = np.concatenate([z, params])
    nv = system.num_vars
    cols = []
    for j in range(point.shape[0]):
        e = np.zeros(point.shape[0], dtype=complex)
        e[j] = h
        up, down = point + e, point - e
        cols.append((system.evaluate(up[:nv], up[nv:])
                     - system.evaluate(down[:nv], down[nv:])) / (2 * h))
    return np.column_stack(cols)


def _conic_values_and_partials(z, params):
    """The conic family {a x^2 + b y^2 - c, y} plus a zero row and the
    constant row 2.5 - i, with its partials by (x, y, a, b, c), by hand."""
    x, y = z
    a, b, c = params
    return np.array([[a * x * x + b * y * y - c, 2 * a * x, 2 * b * y, x * x, y * y, -1],
                     [y, 0, 1, 0, 0, 0],
                     [0, 0, 0, 0, 0, 0],
                     [2.5 - 1j, 0, 0, 0, 0, 0]], dtype=complex)


def test_kernel_matches_term_values_and_finite_differences(family):
    # the conic family plus a zero row and a constant row
    extra = [Polynomial(np.zeros((0, 5), np.int64), [], width=5),
             Polynomial(np.zeros((1, 5), np.int64), [2.5 - 1j])]
    system = PolySystem(family.variables, family.polys + extra, family.parameters)
    rng = Rng(13)
    for _ in range(10):
        z = np.asarray(rng.unit_complex(2)) * 1.3
        p = np.asarray(rng.unit_complex(3))
        point = np.concatenate([z, p])
        out = system.values_and_partials(z, p)
        assert out.shape == (4, 6)
        exact = _conic_values_and_partials(z, p)
        assert vec_inf_norm(out[:, 0] - exact[:, 0]) <= 1e-14
        assert np.array_equal(system.evaluate(z, p), out[:, 0])
        assert np.array_equal(system.jacobian(z, p), out[:, 1:3])
        assert np.array_equal(system.param_jacobian(z, p), out[:, 3:])
        assert vec_inf_norm((out[:, 1:] - exact[:, 1:]).ravel()) <= 1e-14
        fd = _fd_partials(system, z, p)
        assert vec_inf_norm((fd - out[:, 1:]).ravel()) <= 1e-8
        # one point is computed as a one-row stack: the product of each
        # monomial's factors over a C-contiguous gather, then a one-point
        # vector-matrix product
        kernel = system.kernel
        pw = (point[:, None] ** kernel.powers).reshape(1, -1)
        mon = np.multiply.reduce(pw.take(kernel.gather, axis=1), axis=1)[0]
        assert np.array_equal(out, (mon @ kernel.coeffs).reshape(kernel.shape))
    assert np.all(out[2:, 1:] == 0) and out[2, 0] == 0 and out[3, 0] == 2.5 - 1j


def test_kernel_on_one_variable_system():
    system = PolySystem(["x"], [_poly("3*x^4 - x + 2", ["x"])])
    for x in (0.0, 1.0, -0.7 + 0.2j, 2.0j):
        assert abs(system.evaluate([x])[0] - (3 * x ** 4 - x + 2)) <= 1e-13
        assert abs(system.jacobian([x])[0, 0] - (12 * x ** 3 - 1)) <= 1e-13
    assert system.param_jacobian([1.0], None).shape == (1, 0)


def test_kernel_of_an_all_zero_system():
    zero = Polynomial(np.zeros((0, 2), np.int64), [], width=2)
    kernel = PolySystem(["x", "y"], [zero, zero]).kernel
    assert np.array_equal(kernel(np.array([1.0 + 2j, -3.0])), np.zeros((2, 3)))


@pytest.mark.parametrize("name", ["katsura5", "cyclic5", "family"])
def test_one_point_equals_its_row_of_a_stacked_kernel_call(name, request):
    system = request.getfixturevalue(name)
    nv, npar = system.num_vars, len(system.parameters)
    gen = np.random.default_rng(22)
    for size in (1, 2, 7, 130):
        z = gen.standard_normal((size, nv)) + 1j * gen.standard_normal((size, nv))
        params = gen.standard_normal((size, npar)) + 1j * gen.standard_normal((size, npar))
        stack = system.kernel(np.concatenate([z, params], axis=1))
        assert stack.shape == (size, system.n, 1 + system.width)
        for i in range(size):
            p = params[i] if npar else None
            assert system.values_and_partials(z[i], p).tobytes() == stack[i].tobytes()
            assert system.evaluate(z[i], p).tobytes() == stack[i, :, 0].tobytes()


def test_linear_polynomial_drops_zero_terms():
    p = Polynomial.linear([1.0, 0.0, 2j], -1.0, 4)
    assert p.terms() == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 2j, (0, 0, 0, 0): -1}
    assert Polynomial.linear([0.0, 3.0], 0.0, 2).terms() == {(0, 1): 3}
