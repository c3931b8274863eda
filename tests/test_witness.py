import numpy as np
import pytest

from polypath import witness
from polypath.algebra import Rng, vec_inf_norm
from polypath.errors import DimensionMismatch, DimensionOutOfRange, PathFailure
from polypath.parser import parse_polynomial
from polypath.polysys import LinearSlice, PolySystem, empty_slice, random_slice
from polypath.tracker import PathResult, PathStatus
from polypath.witness import (
    WitnessSet,
    _certified_blocks,
    _superset,
    _superset_once,
    junk_removal,
    membership_test,
    monodromy_partition,
    move_slice,
    numerical_irreducible_decomposition,
    sample,
    trace_test,
    witness_superset,
)
from polypath.zerodim import DEDUPE_TOL, _clusters


def _sys(texts, variables):
    return PolySystem(variables, [parse_polynomial(t, variables) for t in texts])


def _on_sphere(p):
    return abs(p[0] ** 2 + p[1] ** 2 + p[2] ** 2 - 1.0) <= 1e-6


def _on_axis(p):
    return max(abs(p[0]), abs(p[1])) <= 1e-6


@pytest.fixture(scope="module")
def sphere_nv(sphere_line):
    return numerical_irreducible_decomposition(sphere_line, seed=0)


def _record_calls(monkeypatch, name):
    """Wrap polypath.witness.<name>; the returned list gets (args, result,
    kwargs) of every call."""
    calls = []
    original = getattr(witness, name)

    def recorded(*args, **kwargs):
        calls.append((args, original(*args, **kwargs), kwargs))
        return calls[-1][1]

    monkeypatch.setattr(witness, name, recorded)
    return calls


# -- witness supersets --------------------------------------------------------

def test_superset_top_dimension_of_sphere_line(sphere_line):
    res = witness_superset(sphere_line, 2, Rng(1))
    assert len(res.points) == 2
    assert all(_on_sphere(p) for p in res.points)


def test_superset_dim_one_contains_axis_point(sphere_line):
    res = witness_superset(sphere_line, 1, Rng(1))
    axis = [p for p in res.points if _on_axis(p)]
    assert len(axis) >= 1


def test_superset_drops_an_extraneous_root_without_a_redraw(sphere_line, monkeypatch):
    # at dimension 2 the randomized row (x^2+y^2+z^2-1)(r1 x + r2 y) has one
    # regular root off the variety: it is dropped, and the first draw kept
    first, failures = _superset_once(sphere_line, 2, Rng(1), None)
    assert failures == 0
    calls = _record_calls(monkeypatch, "track_paths")
    res = witness_superset(sphere_line, 2, Rng(1))
    assert len(calls) == 1
    ends = [r.endpoint for r in calls[0][1] if r.status is PathStatus.SUCCESS]
    assert any(not _on_sphere(q) and not _on_axis(q) for q in ends)
    assert len(res.points) == 2 and all(_on_sphere(p) for p in res.points)
    assert all(np.array_equal(p, q) for p, q in zip(res.points, first.points, strict=True))


def _superset_draws(monkeypatch, system, endpoints, cycles=None):
    """How many superset draws _superset makes when every draw's paths all
    succeed at endpoints, with the given cycle numbers (all 1 by default)."""
    calls = []
    cycles = cycles or [1] * len(endpoints)

    def track(homotopy, starts):
        calls.append(homotopy)
        return [PathResult(PathStatus.SUCCESS, np.array(q, dtype=complex), 0.0, c,
                           0.0, 0.0, 1) for q, c in zip(endpoints, cycles)]

    monkeypatch.setattr(witness, "track_paths", track)
    _superset(system, 2, Rng(1), None)
    return len(calls)


def test_superset_redraws_when_two_paths_meet_off_the_variety(sphere_line, monkeypatch):
    def draws(endpoints):
        return _superset_draws(monkeypatch, sphere_line, endpoints)

    # two paths at one regular root: a path jumped, so every draw fails
    assert draws([[3.0, 3.0, 3.0], [3.0, 3.0, 3.0 + 1e-9]]) == witness._RETRIES + 1
    # two distinct roots off the variety are only dropped
    assert draws([[3.0, 3.0, 3.0], [3.0, 3.0, 4.0]]) == 1


def test_superset_redraws_when_two_regular_paths_meet_on_the_variety(sphere_line,
                                                                     monkeypatch):
    def draws(cycles, second=(0.6, 0.0, 0.8 + 1e-9)):
        return _superset_draws(monkeypatch, sphere_line, [(0.6, 0.0, 0.8), second], cycles)

    # two cycle-1 paths at one point of the sphere: a path jumped
    assert draws([1, 1]) == witness._RETRIES + 1
    # a singular endpoint may end several paths, and distinct points are fine
    assert draws([2, 2]) == draws([1, 2]) == 1
    assert draws([1, 1], second=(0.0, 0.6, 0.8)) == 1


def test_superset_picks_by_raw_points_then_keeps_one_per_cluster(sphere_line, monkeypatch):
    p, q = (0.6, 0.0, 0.8), (0.0, 0.6, 0.8)

    def ends(points, lost=0):
        return ([PathResult(PathStatus.SUCCESS, np.array(z, dtype=complex), 0.0, 1, 0.0, 0.0, 1)
                 for z in points]
                + [PathResult(PathStatus.STEP_FAILURE, np.zeros(3, dtype=complex), 0.5, 1,
                              0.0, 0.0, 1)] * lost)

    # three failed paths in every draw: three cycle-1 paths at p, or two
    # distinct points and three lost paths; the first has more raw points
    draws = iter([ends([p, p, p]), ends([p, q], lost=3), ends([p, q], lost=3),
                  ends([p, q], lost=3)])
    monkeypatch.setattr(witness, "track_paths", lambda homotopy, starts: next(draws))
    res = _superset(sphere_line, 2, Rng(1), None)
    assert [list(z) for z in res.points] == [list(p)]


@pytest.mark.parametrize("norm", [1.0, 1e3])
@pytest.mark.parametrize("factor", [0.99, 1.01], ids=["inside", "outside"])
def test_one_same_point_rule(sphere_line, monkeypatch, norm, factor):
    # two points within DEDUPE_TOL in the infinity norm are the same point,
    # at any norm: a monodromy match, a membership hit and a superset jump
    p = np.full(3, norm, dtype=complex)           # off sphere-line
    q = p + np.array([factor * DEDUPE_TOL, 0.0, 0.0])
    same = factor < 1.0
    assert witness._match_points([p, -p], [-p, q]) == ([1, 0] if same else None)
    point = WitnessSet(system=sphere_line, slice=empty_slice(3), points=[p], dimension=0)
    assert witness._members(point, [q, -p], Rng(0)) == [same, False]
    monkeypatch.setattr(witness, "track_paths", lambda homotopy, starts: [
        PathResult(PathStatus.SUCCESS, z, 0.0, 1, 0.0, 0.0, 1) for z in (p, q)])
    # both paths count as jumped when their off-variety endpoints are one point
    assert _superset_once(sphere_line, 2, Rng(1), None)[1] == (2 if same else 0)


def test_a_superset_is_a_witness_set(sphere_line):
    ws = witness_superset(sphere_line, 2, Rng(1))
    assert isinstance(ws, WitnessSet)
    assert (ws.system, ws.dimension, ws.component_index, ws.degree) == (sphere_line, 2, -1, 2)
    assert monodromy_partition(ws, Rng(21)) == [{0, 1}]
    assert trace_test(ws, {0, 1}, Rng(31))


@pytest.mark.parametrize("seed", [174, 649688356])
def test_decomposition_where_a_superset_path_jumped_on_the_sphere(sphere_line, seed):
    # the dimension-2 superset's first draw ends two cycle-1 paths at one
    # sphere point; kept, it left the sphere one witness point
    nv = numerical_irreducible_decomposition(sphere_line, seed=seed)
    assert {d: [ws.degree for ws in nv.components[d]] for d in nv.dims()} == {1: [1], 2: [2]}


def test_superset_of_two_lines(xy_lines):
    res = witness_superset(xy_lines, 1, Rng(2))
    assert len(res.points) == 2
    kinds = {("x" if abs(p[0]) <= 1e-8 else "y") for p in res.points}
    assert kinds == {"x", "y"}


def test_sphere_meets_codim_two_slice_in_two_points():
    sphere = _sys(["x^2 + y^2 + z^2 - 1"], ["x", "y", "z"])
    res = witness_superset(sphere, 2, Rng(3))
    assert len(res.points) == 2
    assert all(_on_sphere(p) for p in res.points)


def test_superset_dimension_range(sphere_line):
    with pytest.raises(DimensionOutOfRange):
        witness_superset(sphere_line, 3, Rng(0))
    with pytest.raises(DimensionOutOfRange):
        witness_superset(sphere_line, -1, Rng(0))


@pytest.mark.parametrize("texts, variables, projective, dims", [
    (None, "sphere_line", False, [2, 1]),
    (["x^2 + y^2 + z^2 - 1"], ["x", "y", "z"], False, [2]),
    # a zero equation lowers the bound, and the scan stays correct
    (["x^2 + y^2 + z^2 - 1", "0"], ["x", "y", "z"], False, [2, 1]),
    (None, "circles", False, [1, 0]),
    (None, "conic_point", True, [1, 0]),
])
def test_decomposition_scans_down_to_the_krull_bound(texts, variables, projective, dims,
                                                     request, monkeypatch):
    # n equations in N unknowns leave no component below dimension N - n
    # (N - 1 - n projective)
    system = (request.getfixturevalue(variables) if texts is None
              else _sys(texts, variables))
    calls = _record_calls(monkeypatch, "_superset")
    nv = numerical_irreducible_decomposition(system, projective=projective, seed=0)
    assert [args[1] for args, *_ in calls] == dims
    if texts is not None:
        assert {d: [ws.degree for ws in nv.components[d]] for d in nv.dims()} == {2: [2]}


# -- slice moving ---------------------------------------------------------------

def _sphere_witness(seed=3):
    sphere = _sys(["x^2 + y^2 + z^2 - 1"], ["x", "y", "z"])
    rng = Rng(seed)
    res = witness_superset(sphere, 2, rng)
    return WitnessSet(system=sphere, slice=res.slice,
                      points=res.points, dimension=2)


def test_move_to_same_slice_is_stationary():
    ws = _sphere_witness()
    moved = move_slice(ws, ws.slice, Rng(4))
    for p, q in zip(ws.points, moved.points):
        assert vec_inf_norm(p - q) <= 1e-8


def test_move_to_fresh_slice_stays_on_sphere():
    ws = _sphere_witness()
    rng = Rng(5)
    target = random_slice(3, 2, rng)
    moved = move_slice(ws, target, rng)
    assert len(moved.points) == len(ws.points)
    for q in moved.points:
        assert _on_sphere(q)
        assert vec_inf_norm(target.evaluate(q)) <= 1e-8 * (1 + vec_inf_norm(q))


def test_circle_always_meets_a_generic_line_twice():
    # a line meets the unit circle in exactly 2 points, 20 slices in a row
    circle = _sys(["x^2 + y^2 - 1"], ["x", "y"])
    rng = Rng(6)
    res = witness_superset(circle, 1, rng)
    ws = WitnessSet(system=circle, slice=res.slice,
                    points=res.points, dimension=1)
    assert len(ws.points) == 2
    for _ in range(20):
        ws = move_slice(ws, random_slice(2, 1, rng), rng)
        assert len(ws.points) == 2
        assert len(_clusters(ws.points)[0]) == 2


def test_endgame_free_moves_land_on_the_endgame_points(monkeypatch):
    ws = _sphere_witness()
    rng = Rng(81)
    targets = [random_slice(3, 2, rng) for _ in range(8)]
    calls = _record_calls(monkeypatch, "track_paths")
    with_endgame = witness._move(ws, targets, Rng(82))
    without = witness._move(ws, targets, Rng(82), endgame=False)
    assert [kwargs for *_, kwargs in calls] == [{"endgame": True}, {"endgame": False}]
    assert all(res.last_t == 0.0 for res in calls[1][1])
    for a, b in zip(with_endgame, without, strict=True):
        assert len(a) == len(b) == 2
        for p, q in zip(a, b):
            assert vec_inf_norm(p - q) <= 1e-12 * (1.0 + vec_inf_norm(p))


def test_only_moves_to_random_slices_skip_the_endgame(sphere_line, sphere_nv, monkeypatch):
    sphere = sphere_nv.components[2][0]
    rng = Rng(11)
    supersets = {}
    for dim in (2, 1):
        res = witness_superset(sphere_line, dim, rng.fork())
        supersets[dim] = res
    calls = _record_calls(monkeypatch, "track_paths")

    def endgame_flags(run):
        calls.clear()
        run()
        return {kwargs["endgame"] for *_, kwargs in calls}

    # randomly drawn targets: their endpoints are nonsingular
    assert endgame_flags(lambda: sample(sphere, 3, Rng(1))) == {False}
    assert endgame_flags(lambda: monodromy_partition(sphere, Rng(21))) == {False}
    assert endgame_flags(lambda: trace_test(sphere, {0, 1}, Rng(31))) == {False}
    # slices through given points, which may be singular
    assert endgame_flags(lambda: membership_test(sphere_nv, [[0.0, 0.0, 1.0]])) == {True}
    assert endgame_flags(lambda: junk_removal(supersets, Rng(12))) == {True}
    assert endgame_flags(lambda: move_slice(sphere, random_slice(3, 2, Rng(2)), Rng(3))) == {True}


def _path(status, endpoint):
    return PathResult(status, np.array(endpoint, dtype=complex), 0.0, 1, 0.0, 0.0, 1)


@pytest.mark.parametrize("results, on, message", [
    ([_path(PathStatus.SUCCESS, [0.0, 1.0]), _path(PathStatus.STEP_FAILURE, [0.0, -1.0])],
     [True, False], "witness point failed to move (StepFailure)"),
    ([_path(PathStatus.SUCCESS, [0.0, 1.0]), _path(PathStatus.SUCCESS, [0.0, -1.0])],
     [True, False], "moved point left the variety"),
    ([_path(PathStatus.SUCCESS, [0.0, 1.0]), _path(PathStatus.SUCCESS, [1e-6, -1.0])],
     [True, True], "moved point missed the target slice"),
    ([_path(PathStatus.SUCCESS, [0.0, 1.0]), _path(PathStatus.SUCCESS, [0.0, 1.0 + 1e-12])],
     [True, True], "witness points collided during the move"),
], ids=["failed", "off the variety", "off the slice", "collision"])
def test_landed_rejects_a_bad_move(results, on, message):
    circle = _sys(["x^2 + y^2 - 1"], ["x", "y"])
    target = LinearSlice(np.array([[1.0 + 0.0j, 0.0]]), np.array([0.0j]))      # x = 0
    ws = WitnessSet(system=circle, slice=target, points=[], dimension=1)
    good = [_path(PathStatus.SUCCESS, [0.0, 1.0]), _path(PathStatus.SUCCESS, [0.0, -1.0])]
    assert [list(q) for q in witness._landed(ws, target, good, [True, True])] == [
        [0.0, 1.0], [0.0, -1.0]]
    failure = witness._landed(ws, target, results, on)
    assert isinstance(failure, PathFailure) and str(failure) == message


def test_move_slice_codim_mismatch():
    ws = _sphere_witness()
    with pytest.raises(DimensionMismatch):
        move_slice(ws, random_slice(3, 1, Rng(0)), Rng(0))


# -- junk removal -----------------------------------------------------------------

def test_junk_removal_sphere_line(sphere_line):
    rng = Rng(11)
    supersets = {}
    for dim in (2, 1):
        res = witness_superset(sphere_line, dim, rng.fork())
        supersets[dim] = res
    cleaned = junk_removal(supersets, rng.fork())
    assert len(cleaned[2].points) == 2
    assert len(cleaned[1].points) == 1
    assert _on_axis(cleaned[1].points[0])


def test_junk_removal_makes_one_membership_batch_per_confirmed_set(sphere_line, monkeypatch):
    rng = Rng(11)
    supersets = {}
    for dim in (2, 1, 0):
        res = witness_superset(sphere_line, dim, rng.fork())
        supersets[dim] = res
    calls = _record_calls(monkeypatch, "_members")
    cleaned = junk_removal(supersets, rng.fork())
    # the sphere tests every point of dimensions 1 and 0 at once, then the
    # line tests what is left of dimension 0
    assert [args[0].dimension for args, *_ in calls] == [2, 1]
    assert len(calls[0][0][1]) == len(supersets[1].points) + len(supersets[0].points)
    assert len(cleaned[2].points) == 2 and cleaned[0].points == []
    assert len(cleaned[1].points) == 1 and _on_axis(cleaned[1].points[0])


def test_junk_removal_single_component_leaves_lower_dims_empty():
    sphere = _sys(["x^2 + y^2 + z^2 - 1"], ["x", "y", "z"])
    rng = Rng(13)
    supersets = {}
    for dim in (2, 1):
        res = witness_superset(sphere, dim, rng.fork())
        if res.points:
            supersets[dim] = res
    cleaned = junk_removal(supersets, rng.fork())
    assert len(cleaned[2].points) == 2
    assert 1 not in cleaned or cleaned[1].points == []


def test_junk_removal_two_lines_no_isolated_points(xy_lines):
    nv = numerical_irreducible_decomposition(xy_lines, seed=1)
    assert 0 not in nv.components


# -- monodromy and trace -----------------------------------------------------------

def test_monodromy_merges_the_sphere(sphere_nv):
    ws = sphere_nv.components[2][0]
    blocks = monodromy_partition(ws, Rng(21))
    assert blocks == [{0, 1}]


def test_monodromy_keeps_distinct_lines_apart(xy_lines):
    res = witness_superset(xy_lines, 1, Rng(2))
    ws = WitnessSet(system=xy_lines, slice=res.slice,
                    points=res.points, dimension=1)
    blocks = monodromy_partition(ws, Rng(22))
    assert sorted(len(b) for b in blocks) == [1, 1]


def test_monodromy_tracks_loops_in_batches(xy_lines, sphere_nv, monkeypatch):
    res = witness_superset(xy_lines, 1, Rng(2))
    ws = WitnessSet(system=xy_lines, slice=res.slice,
                    points=res.points, dimension=1)
    calls = _record_calls(monkeypatch, "track_paths")
    blocks = monodromy_partition(ws, Rng(22))
    assert sorted(len(b) for b in blocks) == [1, 1]
    # _QUIET_LOOPS loops without a merge: three batches of loops, three legs each
    assert len(calls) <= 9
    calls.clear()
    sphere = sphere_nv.components[2][0]
    assert monodromy_partition(sphere, Rng(21)) == [{0, 1}]
    assert len(calls[0][0][1]) == witness._LOOP_BATCH * sphere.degree


def test_monodromy_counts_loops_in_draw_order(xy_lines, monkeypatch):
    ws = WitnessSet(system=xy_lines, slice=random_slice(2, 1, Rng(0)),
                    points=[np.zeros(2, dtype=complex), np.ones(2, dtype=complex)],
                    dimension=1)
    same, swap = [0, 1], [1, 0]

    def partition(draws):
        # each batch of loops yields the next four scripted permutations,
        # None for a loop whose moves failed
        batches = iter([draws[i:i + 4] for i in range(0, len(draws), 4)])
        monkeypatch.setattr(witness, "_loop_batch", lambda ws, rng: next(batches))
        return monodromy_partition(ws, Rng(0))

    # ten loops without a merge stop; the swaps drawn after them are ignored
    assert partition([same] * 10 + [swap] * 2) == [{0}, {1}]
    # _RETRIES + 1 failed draws count as one loop without a merge ...
    assert partition([None] * 4 + [same] * 9 + [swap] * 3) == [{0}, {1}]
    # ... and fewer failed draws before a loop that matches back do not count
    assert partition([None] * 3 + [same] + [None] + [same] * 8 + [swap] * 3) == [{0, 1}]


def _closure(k, perms):
    """The orbits of the pairs (j, perm[j]) of perms, by brute force: point
    i's block is every point reachable from i; blocks ordered by their
    smallest point."""
    edges = [(j, i) for perm in perms if perm is not None for j, i in enumerate(perm)]
    reach = []
    for i in range(k):
        block = {i}
        while True:
            grown = block | {b for a, b in edges if a in block} | {a for a, b in edges
                                                                    if b in block}
            if grown == block:
                break
            block = grown
        reach.append(block)
    return sorted({frozenset(b) for b in reach}, key=min)


def test_monodromy_merges_orbits_of_six_points(xy_lines, monkeypatch):
    ws = WitnessSet(system=xy_lines, slice=random_slice(2, 1, Rng(0)),
                    points=[np.full(2, j, dtype=complex) for j in range(6)], dimension=1)
    same = list(range(6))
    swap = [3, 1, 2, 0, 4, 5]                 # (0 3)
    two_merges = [0, 4, 5, 3, 1, 2]           # (1 4)(2 5)
    cycle = [0, 4, 2, 3, 5, 1]                # (1 4 5): {1, 4} meets {2, 5}
    joins_all = [1, 0, 3, 2, 4, 5]            # (0 1)(2 3)
    batches_drawn = []

    def partition(draws):
        batches = iter([draws[i:i + 4] for i in range(0, len(draws), 4)])
        batches_drawn.clear()
        monkeypatch.setattr(witness, "_loop_batch",
                            lambda ws, rng: batches_drawn.append(1) or next(batches))
        return monodromy_partition(ws, Rng(0))

    # ten quiet loops stop the run; the loop after them would join everything
    draws = [swap, None, two_merges, cycle] + [same] * 10 + [joins_all, same]
    blocks = partition(draws)
    assert blocks == [{0, 3}, {1, 2, 4, 5}]
    assert blocks == [set(b) for b in _closure(6, draws[:14])]
    assert len(batches_drawn) == 4
    # the last merge leaves one block: the draw after it and any later batch
    # are ignored
    draws = [two_merges, cycle, joins_all, None]
    blocks = partition(draws)
    assert blocks == [set(range(6))]
    assert blocks == [set(b) for b in _closure(6, draws[:3])]
    assert len(batches_drawn) == 1


def test_monodromy_singleton_is_trivial(sphere_nv):
    line = sphere_nv.components[1][0]
    assert monodromy_partition(line, Rng(23)) == [{0}]


def test_trace_test_full_block_passes(sphere_nv):
    ws = sphere_nv.components[2][0]
    assert trace_test(ws, {0, 1}, Rng(31))


def test_trace_test_detects_incomplete_block(sphere_nv):
    ws = sphere_nv.components[2][0]
    assert not trace_test(ws, {0}, Rng(32))
    assert not trace_test(ws, {1}, Rng(33))


def test_trace_test_line_passes(sphere_nv):
    line = sphere_nv.components[1][0]
    assert trace_test(line, {0}, Rng(34))


def _is_translation_pair(targets, base):
    """targets is [L + w, L - w] for base = L and some w."""
    plus, minus = targets
    return (np.array_equal(plus.coefficients, base.coefficients)
            and np.array_equal(minus.coefficients, base.coefficients)
            and vec_inf_norm(plus.constants + minus.constants - 2.0 * base.constants) <= 1e-12)


def test_trace_test_redraws_both_translations(sphere_nv, monkeypatch):
    ws = sphere_nv.components[2][0]
    calls = []
    original = witness._move

    def move(ws, targets, rng, sources=None, **kwargs):
        calls.append(targets)
        out = original(ws, targets, rng, sources, **kwargs)
        # the first draw's L - w move fails; L + w succeeded
        return [out[0], PathFailure("scripted")] if len(calls) == 1 else out

    monkeypatch.setattr(witness, "_move", move)
    assert trace_test(ws, {0, 1}, Rng(31))
    assert len(calls) == 2
    assert all(_is_translation_pair(targets, ws.slice) for targets in calls)
    # both translations of the redraw are new
    for old, new in zip(calls[0], calls[1]):
        assert vec_inf_norm(old.constants - new.constants) > 1e-3


def test_trace_test_raises_when_every_translation_draw_fails(sphere_nv, monkeypatch):
    ws = sphere_nv.components[2][0]
    draws = []

    def move(ws, targets, rng, sources=None, **kwargs):
        draws.append([PathFailure(f"draw {len(draws)} move {j}") for j in range(len(targets))])
        return draws[-1]

    monkeypatch.setattr(witness, "_move", move)
    with pytest.raises(PathFailure, match="trace translations kept failing") as info:
        trace_test(ws, {0, 1}, Rng(31))
    assert len(draws) == witness._RETRIES + 1
    assert info.value.__cause__ is draws[-1][0]


@pytest.mark.parametrize("seed", range(5))
def test_certification_merges_failing_blocks(sphere_nv, seed):
    # the sphere's two witness points split into two blocks: each fails the
    # trace test alone, and the merge restores the whole component
    ws = sphere_nv.components[2][0]
    assert _certified_blocks(ws, [{0}, {1}], Rng(seed)) == [{0, 1}]


def test_trace_test_validates_block(sphere_nv):
    with pytest.raises(DimensionMismatch):
        trace_test(sphere_nv.components[2][0], set(), Rng(0))


# -- full decomposition --------------------------------------------------------------

def test_sphere_line_decomposition(sphere_nv):
    shape = {d: sorted(ws.degree for ws in sphere_nv.components[d])
             for d in sphere_nv.dims()}
    assert shape == {1: [1], 2: [2]}
    for dim in sphere_nv.dims():
        for ws in sphere_nv.components[dim]:
            for p in ws.points:
                scale = 1e-8 * (1 + vec_inf_norm(p))
                assert vec_inf_norm(ws.system.evaluate(p)) <= scale
                assert vec_inf_norm(ws.slice.evaluate(p)) <= scale


def test_two_lines_decomposition(xy_lines):
    nv = numerical_irreducible_decomposition(xy_lines, seed=1)
    assert [ws.degree for ws in nv.components[1]] == [1, 1]
    assert [ws.component_index for ws in nv.components[1]] == [0, 1]


def test_projective_conic_and_point(conic_point):
    nv = numerical_irreducible_decomposition(conic_point, projective=True, seed=0)
    shape = {d: [ws.degree for ws in nv.components[d]] for d in nv.dims()}
    assert shape == {0: [1], 1: [2]}
    p = nv.components[0][0].points[0]
    normalized = p / p[0]
    assert vec_inf_norm(normalized - np.array([1.0, -1.0, 1.0])) <= 1e-5


def test_monodromy_blocks_stable_under_extra_loops(sphere_nv):
    # five more random loops must map the certified component to itself;
    # a loop whose tracking fails is retried with fresh slices, as in the
    # monodromy driver itself
    ws = sphere_nv.components[2][0]
    rng = Rng(41)
    done = 0
    attempts = 0
    while done < 5:
        attempts += 1
        assert attempts <= 20
        try:
            w1 = move_slice(ws, random_slice(3, 2, rng), rng)
            w2 = move_slice(w1, random_slice(3, 2, rng), rng)
            w0 = move_slice(w2, ws.slice, rng)
        except PathFailure:
            continue
        for q in w0.points:
            assert min(vec_inf_norm(q - p) for p in ws.points) <= 1e-6
        done += 1


# -- membership ------------------------------------------------------------------------

def test_membership_origin_on_line_only(sphere_nv):
    hits = membership_test(sphere_nv, [[0.0, 0.0, 0.0]])
    assert hits == [[(1, 0)]]


@pytest.mark.parametrize("seed", range(10))
def test_membership_of_the_poles_on_both_components(sphere_line, seed):
    # (0, 0, +-1) are singular points of the variety, where the line meets
    # the sphere; the moves through them need the endgame
    nv = numerical_irreducible_decomposition(sphere_line, seed=seed)
    hits = membership_test(nv, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert [sorted(h) for h in hits] == [[(1, 0), (2, 0)]] * 2


def test_membership_off_variety(sphere_nv):
    assert membership_test(sphere_nv, [[5.0, 5.0, 5.0]]) == [[]]


def test_membership_of_sampled_points(sphere_nv):
    sphere_pt = sample(sphere_nv.components[2][0], 1, Rng(51))[0]
    line_pt = sample(sphere_nv.components[1][0], 1, Rng(52))[0]
    assert membership_test(sphere_nv, [sphere_pt]) == [[(2, 0)]]
    assert membership_test(sphere_nv, [line_pt]) == [[(1, 0)]]


def test_projective_membership_scale_invariant(conic_point):
    nv = numerical_irreducible_decomposition(conic_point, projective=True, seed=0)
    p = np.array(nv.components[0][0].points[0])
    base = membership_test(nv, [p])
    for lam in (2.0, -1.3 + 0.9j, 1e-3j):
        assert membership_test(nv, [lam * p]) == base


def test_membership_validates_point_length(sphere_nv):
    with pytest.raises(DimensionMismatch):
        membership_test(sphere_nv, [[1.0, 2.0]])


# -- sampling ---------------------------------------------------------------------------

def test_sample_line_component_shape(sphere_nv):
    pts = sample(sphere_nv.components[1][0], 5, Rng(61))
    for p in pts:
        assert abs(p[0]) <= 1e-8 and abs(p[1]) <= 1e-8


def test_sample_sphere_residuals(sphere_nv):
    pts = sample(sphere_nv.components[2][0], 5, Rng(62))
    for p in pts:
        assert abs(p[0] ** 2 + p[1] ** 2 + p[2] ** 2 - 1.0) <= 1e-8


def test_sample_count_validation(sphere_nv):
    with pytest.raises(DimensionMismatch):
        sample(sphere_nv.components[2][0], 0, Rng(0))


def test_sample_of_a_point_component_repeats_its_witness_point(conic_point):
    nv = numerical_irreducible_decomposition(conic_point, projective=True, seed=0)
    ws = nv.components[0][0]
    assert ws.degree == 1
    pts = sample(ws, 3, Rng(1))
    assert len(pts) == 3
    assert all(np.array_equal(p, ws.points[0]) for p in pts)


def test_affine_mixed_dimensions_circle_and_point():
    # circle union the isolated point (2, 3)
    f = _sys(["(x^2 + y^2 - 1)*(x - 2)", "(x^2 + y^2 - 1)*(y - 3)"], ["x", "y"])
    nv = numerical_irreducible_decomposition(f, seed=0)
    shape = {d: sorted(ws.degree for ws in nv.components[d]) for d in nv.dims()}
    assert shape == {0: [1], 1: [2]}
    pt = nv.components[0][0].points[0]
    assert vec_inf_norm(pt - np.array([2.0, 3.0])) <= 1e-6
    assert membership_test(nv, [[2.0, 3.0]]) == [[(0, 0)]]
    assert membership_test(nv, [[1.0, 0.0]]) == [[(1, 0)]]


def test_decomposition_of_isolated_points(circles):
    # a zero-dimensional variety decomposes into deg-1 point components
    nv = numerical_irreducible_decomposition(circles, seed=2)
    shape = {d: sorted(ws.degree for ws in nv.components[d]) for d in nv.dims()}
    assert shape == {0: [1, 1]}
    import math
    hits = membership_test(nv, [[0.5, math.sqrt(3) / 2]])
    assert len(hits[0]) == 1 and hits[0][0][0] == 0


def test_decomposition_degree_totals_stable_across_seeds(sphere_line):
    for seed in (2, 3):
        nv = numerical_irreducible_decomposition(sphere_line, seed=seed)
        shape = {d: sorted(ws.degree for ws in nv.components[d]) for d in nv.dims()}
        assert shape == {1: [1], 2: [2]}


def test_a_missed_target_fails_only_its_own_move(sphere_nv):
    from polypath.witness import _move

    line = sphere_nv.components[1][0]
    rng = Rng(71)
    targets = [random_slice(3, 1, rng) for _ in range(4)]
    # zero z-coefficient and a nonzero constant: the slice misses the z-axis
    targets[2] = LinearSlice(np.array([[0.6 + 0.8j, -0.8 + 0.6j, 0.0]]), np.array([0.9 + 0.0j]))
    batch = _move(line, targets, Rng(72))
    assert isinstance(batch[2], PathFailure)
    for j in (0, 1, 3):
        alone = move_slice(line, targets[j], Rng(72))
        assert len(batch[j]) == len(alone.points) == 1
        for q, r in zip(batch[j], alone.points):
            assert _on_axis(q)
            assert q.tobytes() == r.tobytes()
    with pytest.raises(PathFailure):
        move_slice(line, targets[2], Rng(72))


@pytest.mark.parametrize("seed", range(5))
def test_sample_returns_count_points_on_the_component(sphere_nv, seed):
    for dim, on_component in ((2, _on_sphere), (1, _on_axis)):
        pts = sample(sphere_nv.components[dim][0], 7, Rng(seed))
        assert len(pts) == 7
        assert all(on_component(p) for p in pts)
