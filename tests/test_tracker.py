import math

import numpy as np
import pytest

import polypath.tracker
from polypath.algebra import Rng, random_unit_complex, vec_inf_norm
from polypath.errors import DimensionMismatch, StartPointInvalid
from polypath.parser import parse_polynomial
from polypath.polysys import PolySystem, random_slice
from polypath.tracker import (
    ENDGAME_START,
    Homotopy,
    ParameterPathHomotopy,
    PathStatus,
    _Paths,
    _solve_rows,
    _tangent,
    homotopy_eval,
    slice_move_homotopy,
    straight_line_homotopy,
    track_path,
    track_paths,
)
from polypath.zerodim import total_degree_start


def _sys(texts, variables, params=()):
    return PolySystem(variables,
                      [parse_polynomial(t, variables, params) for t in texts],
                      params)


GAMMA = 0.6 + 0.8j


def test_homotopy_endpoint_identities(circles):
    start = total_degree_start(circles).start_system
    h = straight_line_homotopy(circles, start, GAMMA)
    rng = Rng(2)
    for _ in range(100):
        z = np.asarray(rng.unit_complex(2)) * 1.5
        v1, _, _ = homotopy_eval(h, z, 1.0)
        expect1 = GAMMA * start.evaluate(z)
        assert vec_inf_norm(v1 - expect1) <= 1e-12 * (1.0 + vec_inf_norm(expect1))
        v0, _, _ = homotopy_eval(h, z, 0.0)
        expect0 = circles.evaluate(z)
        assert vec_inf_norm(v0 - expect0) <= 1e-12 * (1.0 + vec_inf_norm(expect0))


def test_homotopy_t_derivative_formula(circles):
    start = total_degree_start(circles).start_system
    h = straight_line_homotopy(circles, start, GAMMA)
    rng = Rng(3)
    z = np.asarray(rng.unit_complex(2))
    _, _, dt = homotopy_eval(h, z, 0.37)
    assert vec_inf_norm(dt - (GAMMA * start.evaluate(z) - circles.evaluate(z))) <= 1e-14
    # f and the start system share the monomials x^2, y^2 and 1
    for t in (0.1, 0.37, 0.5, 0.93):
        value, dz, _ = homotopy_eval(h, z, t)
        expect = (1.0 - t) * circles.evaluate(z) + GAMMA * t * start.evaluate(z)
        assert vec_inf_norm(value - expect) <= 1e-14
        expect_dz = (1.0 - t) * circles.jacobian(z) + GAMMA * t * start.jacobian(z)
        assert vec_inf_norm((dz - expect_dz).ravel()) <= 1e-14


def test_homotopy_t_derivative_finite_difference(circles):
    start = total_degree_start(circles).start_system
    h = straight_line_homotopy(circles, start, GAMMA)
    rng = Rng(4)
    eps = 1e-6
    for _ in range(10):
        z = np.asarray(rng.unit_complex(2))
        t = float(rng.uniform(0.1, 0.9))
        _, _, dt = homotopy_eval(h, z, t)
        fd = (h.eval(z, t + eps)[0] - h.eval(z, t - eps)[0]) / (2 * eps)
        assert vec_inf_norm(fd - dt) <= 1e-6 * (1.0 + vec_inf_norm(dt))


def test_homotopy_requires_matching_shapes(circles):
    other = _sys(["x^2 - 1"], ["x"])
    with pytest.raises(DimensionMismatch):
        straight_line_homotopy(circles, other, GAMMA)
    h = straight_line_homotopy(circles, total_degree_start(circles).start_system, GAMMA)
    for z in ([0.5], [0.5, 0.2, 0.1]):
        with pytest.raises(DimensionMismatch):
            homotopy_eval(h, z, 0.5)
        with pytest.raises(DimensionMismatch):
            track_path(h, z)


def test_parameter_path_endpoints(family):
    p0 = np.array([1.0 + 0.5j, -0.3 + 1.0j, 0.9 - 0.2j])
    p1 = np.array([1.0, 1.0, 1.0], dtype=complex)
    h = ParameterPathHomotopy(family, p0, p1)
    z = np.array([0.3 - 0.1j, 0.7 + 0.2j])
    v0, _, _ = homotopy_eval(h, z, 0.0)
    assert vec_inf_norm(v0 - family.specialize(p1).evaluate(z)) <= 1e-14
    v1, _, _ = homotopy_eval(h, z, 1.0)
    assert vec_inf_norm(v1 - family.specialize(p0).evaluate(z)) <= 1e-14


def test_rk4_predictor_exact_on_linear_path():
    # H = (1-t)(x-1) + t(x-2) has the exact path x(t) = 1 + t
    f = _sys(["x - 1"], ["x"])
    g = _sys(["x - 2"], ["x"])
    h = straight_line_homotopy(f, g, 1.0)
    paths = _Paths(h, np.array([[2.0 + 0.0j]]), 1.0)
    _, paths.jac, paths.dt = h.eval_batch(paths.z, paths.t)
    predicted = paths._predict(np.array([-0.5]))[0]
    assert abs(predicted[0] - 1.5) <= 1e-12


def test_identity_homotopy_is_stationary():
    f = _sys(["x^2 - 1", "y^3 - 1"], ["x", "y"])
    h = straight_line_homotopy(f, f, GAMMA)
    res = track_path(h, np.array([1.0, 1.0], dtype=complex))
    assert res.status is PathStatus.SUCCESS
    assert vec_inf_norm(res.endpoint - np.array([1.0, 1.0])) <= 1e-10


def test_univariate_square_root_paths():
    # identity target/start pair with a twist: endpoints stay +-1
    f = _sys(["x^2 - 1"], ["x"])
    h = straight_line_homotopy(f, f, random_unit_complex(Rng(6)))
    for s in (1.0, -1.0):
        res = track_path(h, np.array([s], dtype=complex))
        assert res.status is PathStatus.SUCCESS
        assert abs(res.endpoint[0] - s) <= 1e-10


def test_circle_pair_paths(circles):
    start = total_degree_start(circles)
    h = straight_line_homotopy(circles, start.start_system, random_unit_complex(Rng(7)))
    results = [track_path(h, p) for p in start.start_points]
    assert len(results) == 4
    finite = [r for r in results if r.status is PathStatus.SUCCESS]
    expected = [np.array([0.5, math.sqrt(3) / 2]), np.array([0.5, -math.sqrt(3) / 2])]
    found = set()
    for r in finite:
        for i, e in enumerate(expected):
            if vec_inf_norm(r.endpoint - e) <= 1e-5:
                found.add(i)
    assert found == {0, 1}
    # every one of the four paths is accounted for
    assert all(isinstance(r.status, PathStatus) for r in results)


def test_success_invariants(circles):
    start = total_degree_start(circles)
    h = straight_line_homotopy(circles, start.start_system, random_unit_complex(Rng(8)))
    for p in start.start_points:
        r = track_path(h, p)
        if r.status is PathStatus.SUCCESS:
            fres = vec_inf_norm(circles.evaluate(r.endpoint))
            assert fres <= 1e-8 * (1.0 + vec_inf_norm(r.endpoint))
            assert r.last_t <= 1e-3
            # the endgame schedule leaves lastT = 0.1 * 2^-k
            k = math.log2(0.1 / r.last_t)
            assert abs(k - round(k)) <= 1e-9
            assert r.max_precision_bits == 53


def test_double_root_endgame_cycle_two():
    # H(x,t) = x^2 - t, the closed-form path x = sqrt(t)
    f = _sys(["x^2"], ["x"])
    g = _sys(["x^2 - 1"], ["x"])
    h = straight_line_homotopy(f, g, 1.0)
    for s in (1.0, -1.0):
        res = track_path(h, np.array([s], dtype=complex))
        assert res.status is PathStatus.SUCCESS
        assert abs(res.endpoint[0]) <= 1e-6
        assert res.cycle_number == 2


def test_start_point_must_solve_start_system(circles):
    start = total_degree_start(circles)
    h = straight_line_homotopy(circles, start.start_system, GAMMA)
    with pytest.raises(StartPointInvalid):
        track_path(h, np.array([2.0, 2.0], dtype=complex))


def test_determinism_bitwise(circles):
    start = total_degree_start(circles)
    h = straight_line_homotopy(circles, start.start_system, GAMMA)
    a = track_path(h, start.start_points[0])
    b = track_path(h, start.start_points[0])
    assert a.status == b.status
    assert np.array_equal(a.endpoint, b.endpoint)
    assert a.last_t == b.last_t
    assert a.newton_residual == b.newton_residual
    assert a.function_residual == b.function_residual
    assert a.steps_taken == b.steps_taken


def test_max_steps_is_reported(circles, monkeypatch):
    start = total_degree_start(circles)
    h = straight_line_homotopy(circles, start.start_system, GAMMA)
    monkeypatch.setattr(polypath.tracker, "MAX_STEPS", 3)
    res = track_path(h, start.start_points[0])
    assert res.status is PathStatus.MAX_STEPS


def test_all_paths_diverge_for_infeasible_system(monkeypatch):
    # x = 0 contradicts x*y = 1, so both Bezout paths leave every compact set
    f = _sys(["x*y - 1", "x"], ["x", "y"])
    start = total_degree_start(f)
    h = straight_line_homotopy(f, start.start_system, random_unit_complex(Rng(10)))
    monkeypatch.setattr(polypath.tracker, "INFINITY_THRESHOLD", 1e3)
    statuses = {track_path(h, p).status for p in start.start_points}
    assert PathStatus.SUCCESS not in statuses
    assert statuses <= {PathStatus.AT_INFINITY, PathStatus.STEP_FAILURE}


def test_gamma_trick_over_many_seeds(circles):
    # no unit-modulus gamma in 100 seeded draws hits the bad measure-zero set
    start = total_degree_start(circles)
    expected = [np.array([0.5, math.sqrt(3) / 2]), np.array([0.5, -math.sqrt(3) / 2])]
    for seed in range(100):
        gamma = random_unit_complex(Rng(seed))
        h = straight_line_homotopy(circles, start.start_system, gamma)
        finite = []
        for p in start.start_points:
            r = track_path(h, p)
            if r.status is PathStatus.SUCCESS:
                finite.append(r.endpoint)
        hits = {i for z in finite for i, e in enumerate(expected)
                if vec_inf_norm(z - e) <= 1e-6}
        assert hits == {0, 1}, f"seed {seed} lost a root"


def test_parameter_path_eval_matches_its_formula(family):
    p0 = np.array([1.0 + 0.5j, -0.3 + 1.0j, 0.9 - 0.2j])
    p1 = np.array([2.0, 3.0, 4.0], dtype=complex)
    h = ParameterPathHomotopy(family, p0, p1)
    rng = Rng(14)
    for _ in range(10):
        z = np.asarray(rng.unit_complex(2)) * 1.4
        t = float(rng.uniform(0.0, 1.0))
        p = t * p0 + (1.0 - t) * p1
        value, dz, dt = h.eval(z, t)
        assert vec_inf_norm(value - family.evaluate(z, p)) <= 1e-14
        assert vec_inf_norm((dz - family.jacobian(z, p)).ravel()) <= 1e-14
        expect_dt = family.param_jacobian(z, p) @ (p0 - p1)
        assert vec_inf_norm(dt - expect_dt) <= 1e-14


def test_slice_move_eval_matches_its_formula(sphere_line):
    rng = Rng(15)
    fixed = PolySystem(sphere_line.variables, sphere_line.polys[:1])
    source, target = random_slice(3, 2, rng), random_slice(3, 2, rng)
    h = slice_move_homotopy(fixed, source, target, GAMMA)
    for _ in range(10):
        z = np.asarray(rng.unit_complex(3)) * 0.9
        t = float(rng.uniform(0.0, 1.0))
        value, dz, dt = h.eval(z, t)
        moving = (1.0 - t) * target.evaluate(z) + GAMMA * t * source.evaluate(z)
        assert vec_inf_norm(value - np.concatenate([fixed.evaluate(z), moving])) <= 1e-14
        moving_dz = (1.0 - t) * target.coefficients + GAMMA * t * source.coefficients
        expect_dz = np.vstack([fixed.jacobian(z), moving_dz])
        assert vec_inf_norm((dz - expect_dz).ravel()) <= 1e-14
        expect_dt = np.concatenate([[0.0], GAMMA * source.evaluate(z) - target.evaluate(z)])
        assert vec_inf_norm(dt - expect_dt) <= 1e-14


def test_every_homotopy_evaluates_as_a_parameter_path(circles, family, sphere_line,
                                                     monkeypatch):
    calls = []
    original = ParameterPathHomotopy.eval

    def counted(self, z, t):
        calls.append(self)
        return original(self, z, t)

    monkeypatch.setattr(ParameterPathHomotopy, "eval", counted)
    rng = Rng(16)
    fixed = PolySystem(sphere_line.variables, sphere_line.polys[:1])
    homotopies = [
        straight_line_homotopy(circles, total_degree_start(circles).start_system, GAMMA),
        slice_move_homotopy(fixed, random_slice(3, 2, rng), random_slice(3, 2, rng), GAMMA),
        ParameterPathHomotopy(family, [1.0, 2.0, 3.0], [3.0, 2.0, 1.0]),
    ]
    for h in homotopies:
        assert type(h) is ParameterPathHomotopy
        homotopy_eval(h, np.ones(h.num_vars), 0.5)
    assert calls == homotopies


class _FlatBelowBoundary(Homotopy):
    """H = z - t, regular above the endgame boundary t = 0.1.  At and below
    it H gains an offset of 1e-10 and dH/dz is exactly 0: the corrector
    accepts the boundary point without a solve, and the endgame's first
    polish meets a singular Jacobian."""

    num_vars = 1

    def eval(self, z, t):
        below = t <= 0.1
        value = z - t + (1e-10 if below else 0.0)
        return value, np.array([[0.0 if below else 1.0]], dtype=complex), np.array([-1.0 + 0j])


def _from_the_boundary(h, points):
    """Paths of h started at t = ENDGAME_START and driven through the endgame."""
    paths = _Paths(h, np.array(points, dtype=complex), ENDGAME_START)
    with np.errstate(all="ignore"):
        paths.endgame()
    return paths.results()


def test_endgame_reports_a_singular_jacobian_as_divergence():
    [res] = _from_the_boundary(_FlatBelowBoundary(), [[0.1 + 1e-10]])
    assert res.status is PathStatus.STEP_FAILURE
    assert res.reason == "singular Jacobian in the endgame"


class _PowerMinusT(Homotopy):
    """H = z^k - t, defining eval only: a root of multiplicity k at t = 0."""

    num_vars = 1

    def __init__(self, k):
        self.k = k

    def eval(self, z, t):
        k = self.k
        return (np.array([z[0] ** k - t]), np.array([[k * z[0] ** (k - 1)]]),
                np.array([-1.0 + 0j]))


def test_endgame_finds_the_cycle_of_a_double_root():
    res = track_path(_PowerMinusT(2), np.array([1.0], dtype=complex))
    assert res.status is PathStatus.SUCCESS
    assert abs(res.endpoint[0]) <= 1e-12
    assert res.cycle_number == 2
    assert res.last_t <= 1e-3


def test_endgame_of_a_regular_root_has_cycle_one():
    res = track_path(_PowerMinusT(1), np.array([1.0], dtype=complex))
    assert res.status is PathStatus.SUCCESS
    assert abs(res.endpoint[0]) <= 1e-12
    assert res.cycle_number == 1


@pytest.mark.parametrize("last_t_max, last_t", [
    (None, 0.1 * 2.0 ** -7),          # the default, 1e-3
    (0.02, 0.0125),
    (0.004, 0.003125),
    (1e-9, 0.1 * 2.0 ** -12),         # below the halving cap: stops there
])
def test_a_regular_path_stops_at_the_first_halving_the_stop_rule_allows(
        last_t_max, last_t, monkeypatch):
    # H = z - t: the samples are linear in t, so every extrapolant is the
    # limit 0 and two agree as soon as the stop rule may compare them
    if last_t_max is not None:
        monkeypatch.setattr(polypath.tracker, "ENDGAME_LAST_T_MAX", last_t_max)
    res = track_path(_PowerMinusT(1), np.array([1.0], dtype=complex))
    assert res.status is PathStatus.SUCCESS
    assert res.last_t == last_t
    assert res.cycle_number == 1
    assert res.endpoint[0] == 0.0


def test_singular_jacobian_in_the_endgame_is_a_step_failure():
    # started at the boundary: from t = 1 the last RK4 stage of the step to
    # t = 0.1 would already solve with the singular Jacobian there
    [res] = _from_the_boundary(_FlatBelowBoundary(), [[0.1]])
    assert res.status is PathStatus.STEP_FAILURE
    assert res.last_t == 0.1
    assert abs(res.endpoint[0] - 0.1) <= 1e-9


def test_reused_evaluation_keeps_paths_bitwise_identical(circles, monkeypatch):
    start = total_degree_start(circles)
    base = straight_line_homotopy(circles, start.start_system, GAMMA)

    class Counting(Homotopy):
        num_vars = 2
        calls = 0

        def eval(self, z, t):
            Counting.calls += 1
            return base.eval(z, t)

    reused = [track_path(Counting(), p) for p in start.start_points]
    with_reuse = Counting.calls
    Counting.calls = 0
    monkeypatch.setattr(_Paths, "_first_tangent",
                        lambda self: _tangent(self.h, self.z, self.t))
    fresh = [track_path(Counting(), p) for p in start.start_points]
    for a, b in zip(reused, fresh):
        assert a.status == b.status and a.steps_taken == b.steps_taken
        assert np.array_equal(a.endpoint, b.endpoint)
        assert a.function_residual == b.function_residual
    # reuse saves an evaluation on at least every other step
    assert Counting.calls - with_reuse >= sum(r.steps_taken for r in fresh) // 2


def test_non_finite_start_points_are_rejected(circle_line):
    # NaN compares false against the start-residual bound, so these used to
    # run 20 rejected steps and end as StepFailure
    start = total_degree_start(circle_line)
    h = straight_line_homotopy(circle_line, start.start_system, GAMMA)
    for bad in ([math.nan, 1.0], [math.inf, 1.0]):
        point = np.array(bad, dtype=complex)
        with pytest.raises(StartPointInvalid):
            track_path(h, point)
        with pytest.raises(StartPointInvalid):
            track_paths(h, [start.start_points[0], point])


def test_track_paths_of_no_starts_is_empty(circles):
    h = straight_line_homotopy(circles, total_degree_start(circles).start_system, GAMMA)
    assert track_paths(h, []) == []
    with pytest.raises(DimensionMismatch):
        track_paths(h, [[0.5, 0.2, 0.1]])


def test_reason_names_a_singular_jacobian_in_the_endgame():
    [res] = _from_the_boundary(_FlatBelowBoundary(), [[0.1]])
    assert res.status is PathStatus.STEP_FAILURE
    assert res.reason == "singular Jacobian in the endgame"


def _cyclic5_seed1_homotopy(cyclic5):
    # the gamma that zero_dim_solve draws at seed 1
    rng = Rng(1)
    rng.integers(2**63)
    start = total_degree_start(cyclic5)
    return straight_line_homotopy(cyclic5, start.start_system, random_unit_complex(rng)), start


def test_reason_names_a_diverging_cyclic5_path(cyclic5):
    h, start = _cyclic5_seed1_homotopy(cyclic5)
    diverging, finite = track_paths(h, [start.start_points[0], start.start_points[4]])
    assert diverging.status is PathStatus.STEP_FAILURE
    assert diverging.reason == "endgame samples not Cauchy"
    assert finite.status is PathStatus.SUCCESS and finite.reason is None


def test_reasons_of_infinity_and_step_budget(circles, monkeypatch):
    f = _sys(["x*y - 1", "x"], ["x", "y"])
    start = total_degree_start(f)
    h = straight_line_homotopy(f, start.start_system, random_unit_complex(Rng(10)))
    # both paths pass |z| = 3 in the main phase and |z| = 10 in the endgame
    for threshold in (3.0, 10.0):
        monkeypatch.setattr(polypath.tracker, "INFINITY_THRESHOLD", threshold)
        for res in track_paths(h, start.start_points):
            assert res.status is PathStatus.AT_INFINITY
            assert res.reason == "beyond the infinity threshold"
            assert vec_inf_norm(res.endpoint) > threshold
    monkeypatch.undo()
    h = straight_line_homotopy(circles, total_degree_start(circles).start_system, GAMMA)
    monkeypatch.setattr(polypath.tracker, "MAX_STEPS", 3)
    res = track_path(h, total_degree_start(circles).start_points[0])
    assert res.status is PathStatus.MAX_STEPS and res.reason == "step budget"


def _assert_same_path(a, b):
    assert (a.status, a.reason, a.cycle_number, a.steps_taken) == \
        (b.status, b.reason, b.cycle_number, b.steps_taken)
    assert vec_inf_norm(a.endpoint - b.endpoint) <= 1e-12 * (1.0 + vec_inf_norm(b.endpoint))


def test_katsura4_paths_do_not_depend_on_their_batch(katsura4):
    start = total_degree_start(katsura4)
    h = straight_line_homotopy(katsura4, start.start_system, random_unit_complex(Rng(3)))
    batch = track_paths(h, start.start_points)
    assert len(batch) == 16
    for p, res in zip(start.start_points, batch):
        _assert_same_path(res, track_path(h, p))


def test_sphere_slice_move_does_not_depend_on_its_batch(sphere_line):
    from polypath.witness import _fixed_rows, move_slice, numerical_irreducible_decomposition

    ws = numerical_irreducible_decomposition(sphere_line, seed=0).components[2][0]
    assert ws.degree == 2
    target = random_slice(3, ws.slice.codim, Rng(21))
    # the homotopy move_slice builds from a fresh Rng(5)
    rng = Rng(5)
    fixed = _fixed_rows(ws.system, ws.dimension, rng, ws.patch)
    h = slice_move_homotopy(fixed, ws.slice, target, random_unit_complex(rng))
    batch = track_paths(h, ws.points)
    for p, res in zip(ws.points, batch):
        _assert_same_path(res, track_path(h, p))
    moved = move_slice(ws, target, Rng(5))
    for q, res in zip(moved.points, batch):
        assert np.array_equal(q, res.endpoint)


def test_endgame_free_paths_reach_the_same_regular_roots_at_t_zero(katsura4):
    start = total_degree_start(katsura4)
    h = straight_line_homotopy(katsura4, start.start_system, random_unit_complex(Rng(3)))
    with_endgame = track_paths(h, start.start_points)
    without = track_paths(h, start.start_points, endgame=False)
    for a, b in zip(with_endgame, without, strict=True):
        assert a.status is b.status is PathStatus.SUCCESS
        assert b.last_t == 0.0 and b.cycle_number == 1
        assert b.function_residual <= 1e-8 * (1.0 + vec_inf_norm(b.endpoint))
        assert vec_inf_norm(a.endpoint - b.endpoint) <= 1e-12 * (1.0 + vec_inf_norm(a.endpoint))
        assert b.steps_taken < a.steps_taken


def test_without_the_endgame_a_double_root_fails_the_gate():
    # H(x,t) = x^2 - t: the endgame finds the cycle-2 limit 0; tracked straight
    # to t = 0 the corrector stops short of it, and the gate says so
    h = straight_line_homotopy(_sys(["x^2"], ["x"]), _sys(["x^2 - 1"], ["x"]), 1.0)
    for res in track_paths(h, [[1.0], [-1.0]], endgame=False):
        assert res.status is PathStatus.STEP_FAILURE
        assert res.reason == "residual above the success gate"
        assert res.last_t == 0.0


class _FlatOnTheRight(Homotopy):
    """H = z + t on the left half-plane, a regular path z = -t; on the right
    _FlatBelowBoundary, whose path meets an exactly singular Jacobian."""

    num_vars = 1

    def eval(self, z, t):
        if z[0].real < 0:
            return z + t, np.array([[1.0 + 0j]]), np.array([1.0 + 0j])
        return _FlatBelowBoundary().eval(z, t)


def test_an_exactly_singular_jacobian_fails_only_its_own_path():
    h = _FlatOnTheRight()
    left, right = [-0.1], [0.1]
    batch = _from_the_boundary(h, [left, right, left])
    assert batch[1].status is PathStatus.STEP_FAILURE
    assert batch[1].reason == "singular Jacobian in the endgame"
    [alone] = _from_the_boundary(h, [left])
    assert alone.status is PathStatus.SUCCESS
    for res in (batch[0], batch[2]):
        _assert_same_path(res, alone)


class _SingularOnceOnTheRight(_PowerMinusT):
    """H = z^2 - t, whose Jacobian reads exactly 0 on the right half-plane
    at the midpoint time of the first RK4 step from t = 1: that stage's
    solve fails, so the step from z = 1 predicts NaN and is rejected."""

    T_HALF = 1.0 + 0.5 * -polypath.tracker.INITIAL_STEP

    def __init__(self):
        super().__init__(2)

    def eval(self, z, t):
        value, jac, dt = super().eval(z, t)
        if t == self.T_HALF and z[0].real > 0:
            jac = np.zeros_like(jac)
        return value, jac, dt


def test_a_non_finite_prediction_rejects_only_its_own_step():
    # Homotopy.eval_batch evaluates every point alone, so a path's bits do
    # not depend on its batch and the batch must equal each path alone
    h = _SingularOnceOnTheRight()
    batch = track_paths(h, [[1.0], [-1.0], [1.0]])
    for res, start in zip(batch, (1.0, -1.0, 1.0)):
        [alone] = track_paths(h, [[start]])
        assert res.status is PathStatus.SUCCESS and res.cycle_number == 2
        assert res.endpoint.tobytes() == alone.endpoint.tobytes()
        assert (res.last_t, res.steps_taken, res.newton_residual, res.function_residual) == \
            (alone.last_t, alone.steps_taken, alone.newton_residual, alone.function_residual)
    # the rejected first step costs the right-hand paths steps
    assert batch[0].steps_taken > batch[1].steps_taken


def test_track_paths_on_a_homotopy_that_defines_only_eval(circles):
    start = total_degree_start(circles)
    base = straight_line_homotopy(circles, start.start_system, random_unit_complex(Rng(7)))

    class EvalOnly(Homotopy):
        num_vars = 2

        def eval(self, z, t):
            return base.eval(z, t)

    for a, b in zip(track_paths(EvalOnly(), start.start_points),
                    track_paths(base, start.start_points)):
        _assert_same_path(a, b)


def test_per_path_eval_equals_one_shared_homotopy_per_row(family, sphere_line):
    rng = Rng(23)
    m = 6
    p_start = rng.unit_complex((m, 3)) * 1.3
    p_target = rng.unit_complex((m, 3))
    per_path = ParameterPathHomotopy(family, p_start, p_target)
    assert per_path.num_paths == m
    fixed = PolySystem(sphere_line.variables, sphere_line.polys[:1])
    source = random_slice(3, 2, rng)
    targets = [random_slice(3, 2, rng) for _ in range(m)]
    moves = slice_move_homotopy(fixed, source, targets, GAMMA)
    sources = [random_slice(3, 2, rng) for _ in range(m)]
    cases = [
        (per_path, [ParameterPathHomotopy(family, a, b) for a, b in zip(p_start, p_target)]),
        (moves, [slice_move_homotopy(fixed, source, tgt, GAMMA) for tgt in targets]),
        # per-path sources, with per-path targets and with one shared target
        (slice_move_homotopy(fixed, sources, targets, GAMMA),
         [slice_move_homotopy(fixed, src, tgt, GAMMA) for src, tgt in zip(sources, targets)]),
        (slice_move_homotopy(fixed, sources, source, GAMMA),
         [slice_move_homotopy(fixed, src, source, GAMMA) for src in sources]),
    ]
    for h, shared in cases:
        z = rng.unit_complex((m, h.num_vars)) * 0.9
        t = rng.uniform(0.0, 1.0, size=m)
        idx = np.array([4, 0, 5, 5, 2, 1])     # rows in any order, one path twice
        batch = h.eval_batch(z, t, idx)
        for i, path in enumerate(idx):
            # the same stack: the kernel's last bits may depend on where a
            # row sits in it, and this compares the parameters alone
            alone = shared[path].eval_batch(z, t)
            assert shared[path].num_paths is None
            for got, want in zip(batch, alone):
                assert np.array_equal(got[i], want[i])


def test_per_path_slice_ends_must_agree(sphere_line):
    rng = Rng(24)
    fixed = PolySystem(sphere_line.variables, sphere_line.polys[:1])
    slices = [random_slice(3, 2, rng) for _ in range(3)]
    with pytest.raises(DimensionMismatch):      # a codimension-1 source among codim-2 ones
        slice_move_homotopy(fixed, slices[:2] + [random_slice(3, 1, rng)], slices[0], GAMMA)
    with pytest.raises(DimensionMismatch):      # three sources, two targets
        slice_move_homotopy(fixed, slices, slices[:2], GAMMA)


def test_per_path_parameter_rows_must_match_the_starts(family):
    h = ParameterPathHomotopy(family, [1.0, 1.0, 1.0], np.ones((3, 3)))
    assert h.num_paths == 3 and h.p_start.shape == (3, 3)
    start = np.array([1.0, 0.0], dtype=complex)
    for starts in ([start, -start], [start] * 4, []):
        with pytest.raises(DimensionMismatch):
            track_paths(h, starts)
    with pytest.raises(DimensionMismatch):
        ParameterPathHomotopy(family, np.ones((2, 3)), np.ones((3, 3)))
    with pytest.raises(DimensionMismatch):
        ParameterPathHomotopy(family, np.ones((2, 2)), np.ones(3))


# -- the tracker's solves ------------------------------------------------------------

def test_a_singular_row_fails_alone_and_the_others_match_numpy_bitwise():
    rng = Rng(29)
    a = rng.unit_complex((6, 4, 4)) + 2.0 * np.eye(4)
    a[3, :, 2] = 0.0                  # a zero column: exactly singular
    b = rng.unit_complex((6, 4))
    b[5, 0] = math.inf
    with np.errstate(all="ignore"):     # track_paths holds it around every solve
        x, ok = _solve_rows(a, b)
    assert ok.tolist() == [True, True, True, False, True, False]
    assert np.isnan(x[[3, 5]]).all()
    for i in (0, 1, 2, 4):
        assert np.array_equal(x[i], np.linalg.solve(a[i], b[i]))


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args[0].shape[0])
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_only_the_limit_polish_computes_a_condition_number(katsura4, monkeypatch):
    import polypath.algebra

    start = total_degree_start(katsura4)
    h = straight_line_homotopy(katsura4, start.start_system, random_unit_complex(Rng(3)))
    plain = _counting(monkeypatch, polypath.tracker, "gesv_stack")
    kappa = _counting(monkeypatch, polypath.tracker, "conditioned_solve_stack")
    kappa_elsewhere = _counting(monkeypatch, polypath.algebra, "conditioned_solve_stack")
    results = track_paths(h, start.start_points)
    assert sum(r.status is PathStatus.SUCCESS for r in results) == 16
    assert len(plain) > 100
    # the guarded Newton at t = 0 on the finished paths: at most 3 iterations
    assert 1 <= len(kappa) <= 3 and kappa[0] == 16
    assert kappa_elsewhere == []


class _NearSingularLines(Homotopy):
    """H = A z - c + t (1, 1) with A = [[1, 1], [1, 1 + 2^-50]] and c = (2, 2 + 2^-50):
    at t = 0 the root (1, 1) of a Jacobian with kappa_inf ~ 4.5e15."""

    num_vars = 2
    eps = 2.0 ** -50
    a = np.array([[1.0, 1.0], [1.0, 1.0 + eps]], dtype=complex)

    def eval(self, z, t):
        c = np.array([2.0, 2.0 + self.eps])
        return self.a @ z - c + t, self.a.copy(), np.ones(2, dtype=complex)


def test_limit_polish_keeps_the_extrapolant_past_the_condition_bound(monkeypatch):
    # one exact Newton step from here reaches the root (1, 1)
    extrapolant = np.array([1.0 + 2.0 ** -20, 1.0], dtype=complex)
    h = _NearSingularLines()

    def polished():
        paths = _Paths(h, extrapolant[None].copy(), 0.0)
        paths._polish_limits()
        return paths.out_z[0], paths.out_fres[0]

    z, res = polished()
    assert np.array_equal(z, extrapolant)
    assert res == vec_inf_norm(h.eval(extrapolant, 0.0)[0])
    # with the tracker's plain solve in its place the polish would take the root
    plain = polypath.algebra.solve_stack
    monkeypatch.setattr(polypath.tracker, "conditioned_solve_stack",
                        lambda a, b: (plain(a, b)[0], None, plain(a, b)[1]))
    z, res = polished()
    assert np.array_equal(z, [1.0, 1.0]) and res == 0.0
