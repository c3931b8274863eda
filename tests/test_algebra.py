import math
import warnings

import numpy as np
import pytest

from polypath.algebra import (
    Rng,
    condition_estimate,
    gesv_stack,
    lin_solve,
    random_unit_complex,
    vec_inf_norm,
)
from polypath.errors import DimensionMismatch, SingularMatrix


def test_lin_solve_identity():
    x = lin_solve(np.eye(2), [3.0, 4.0j])
    assert np.allclose(x, [3.0, 4.0j], atol=0)


def test_lin_solve_diagonal():
    x = lin_solve([[2.0, 0.0], [0.0, 2.0]], [2.0, 2.0])
    assert np.allclose(x, [1.0, 1.0], atol=0)


def test_lin_solve_hand_elimination():
    # x1 + x2 = 2, x1 - x2 = 0  =>  x1 = x2 = 1
    x = lin_solve([[1.0, 1.0], [1.0, -1.0]], [2.0, 0.0])
    assert np.allclose(x, [1.0, 1.0], atol=1e-15)


def test_lin_solve_residual_on_random_systems():
    rng = Rng(11)
    for _ in range(30):
        a = rng.unit_complex((5, 5))
        if condition_estimate(a) >= 1e6:
            continue
        b = rng.unit_complex(5)
        x = lin_solve(a, b)
        assert vec_inf_norm(a @ x - b) <= 1e-10 * (1.0 + vec_inf_norm(b))


def test_lin_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        lin_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    with pytest.raises(SingularMatrix):
        lin_solve([[1.0, 1.0], [1.0, 1.0 + 1e-15]], [1.0, 2.0])


def test_lin_solve_shape_checks():
    with pytest.raises(DimensionMismatch):
        lin_solve(np.ones((2, 3)), [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        lin_solve(np.eye(2), [1.0, 2.0, 3.0])


def test_condition_identity_exact():
    assert condition_estimate(np.eye(3)) == 1.0


def test_condition_diagonal():
    kappa = condition_estimate(np.diag([1.0, 1e-6]))
    assert abs(kappa - 1e6) <= 0.1 * 1e6


def test_condition_scale_invariance():
    rng = Rng(5)
    a = rng.unit_complex((4, 4))
    base = condition_estimate(a)
    for alpha in (2.0, -0.3, 1e4, 1j):
        scaled = condition_estimate(alpha * np.asarray(a))
        assert abs(scaled - base) <= 0.1 * base


def test_condition_singular_sentinel():
    assert condition_estimate(np.zeros((2, 2))) == math.inf
    assert condition_estimate([[1.0, 1.0], [1.0, 1.0]]) == math.inf


def test_condition_of_circle_intersection_jacobian():
    # Jacobian of the shifted-circle pair at (1/2, sqrt(3)/2).  Every p-norm
    # condition number of this matrix is tiny (kappa_2 = sqrt(3)); the
    # matrix itself is as well-conditioned as the geometry is transversal.
    y = math.sqrt(3.0) / 2.0
    jac = np.array([[2 * 0.5, 2 * y], [2 * (0.5 - 1.0), 2 * y]])
    kappa = condition_estimate(jac)
    assert 1.0 <= kappa <= 5.0
    assert abs(kappa - (1 + 2 * y) / 1.0) < 1e-12  # exact infinity-norm value


def test_random_unit_complex_modulus_and_determinism():
    gamma = random_unit_complex(Rng(1))
    assert abs(abs(gamma) - 1.0) <= 1e-12
    assert random_unit_complex(Rng(1)) == gamma


def test_random_unit_complex_mean():
    rng = Rng(3)
    draws = rng.unit_complex(10_000)
    assert abs(np.mean(draws)) < 0.05


def test_rng_fork_determinism():
    a = Rng(9)
    b = Rng(9)
    fa, fb = a.fork(), b.fork()
    assert fa.seed == fb.seed
    assert np.array_equal(fa.unit_complex(8), fb.unit_complex(8))
    # the parent streams stay aligned too
    assert a.integers(1000) == b.integers(1000)


def test_lin_solve_two_dimensional_right_hand_side():
    rng = Rng(17)
    a = rng.unit_complex((5, 5)) + 3.0 * np.eye(5)
    b = rng.unit_complex((5, 3))
    x = lin_solve(a, b)
    assert x.shape == (5, 3)
    for k in range(3):
        assert vec_inf_norm(x[:, k] - lin_solve(a, b[:, k])) <= 1e-14
    assert vec_inf_norm((a @ x - b).ravel()) <= 1e-13


def test_lin_solve_singular_near_singular_and_non_finite_raise():
    # kappa_inf of [[1, 2], [1, 2 + d]] is (3 + d)(4 + d) / d
    lin_solve([[1.0, 2.0], [1.0, 2.0 + 1e-12]], [1.0, 1.0])   # 1.2e13: solvable
    for a, b in (
            ([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]),            # exactly singular
            (np.zeros((3, 3)), np.ones(3)),
            ([[1.0, 2.0], [1.0, 2.0 + 1e-15]], [1.0, 1.0]),    # 1.2e16
            ([[math.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            ([[math.inf, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            (np.eye(2), [math.inf, 1.0]),
            (np.eye(2), [1.0, math.nan])):
        with pytest.raises(SingularMatrix):
            lin_solve(a, b)


def test_condition_matches_numpy_on_random_matrices():
    rng = Rng(23)
    for _ in range(50):
        a = rng.unit_complex((5, 5)) * rng.uniform(0.1, 10.0, size=(5, 1))
        expect = np.linalg.cond(a, np.inf)
        assert abs(condition_estimate(a) - expect) <= 1e-12 * expect


# -- gesv_stack: the tracker's stacked solve --------------------------------------

def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_gesv_stack_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(16)
    for m in (1, 2, 5, 33, 129):
        for n in range(2, 8):
            a = _complex_normal(rng, (m, n, n))
            for k in (1, n + 1):
                b = _complex_normal(rng, (m, n, k))
                with np.errstate(all="ignore"):     # as track_paths holds it
                    x, ok = gesv_stack(a, b)
                assert ok.all() and ok.shape == (m,)
                assert x.shape == (m, n, k)
                assert x.tobytes() == np.linalg.solve(a, b).tobytes()


def test_gesv_stack_fails_only_the_singular_and_non_finite_rows():
    rng = np.random.default_rng(17)
    a = _complex_normal(rng, (7, 4, 4))
    b = _complex_normal(rng, (7, 4, 2))
    a[1, :, 2] = 0.0                  # a zero column: exactly singular
    a[3, 0, 0] = math.nan
    b[5, 2, 1] = math.inf
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        x, ok = gesv_stack(a, b)
    assert ok.tolist() == [True, False, True, False, True, False, True]
    assert np.isnan(x[~ok]).all()
    good = ok.nonzero()[0]
    assert x[good].tobytes() == np.linalg.solve(a[good], b[good]).tobytes()
    for i in good:
        assert x[i].tobytes() == np.linalg.solve(a[i], b[i]).tobytes()
