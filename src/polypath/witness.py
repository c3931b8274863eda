"""Witness sets, numerical irreducible decomposition, membership, sampling.

Witness supersets come from dimension-by-dimension randomized sliced solves:
at dimension i the square system [R.f ; L_i] (plus the chart equation in
projective mode) is solved by a total-degree homotopy, where R is a random
unit-modulus combination matrix and L_i a generic codimension-i slice.
Junk from higher-dimensional components is removed by the membership test,
components are grouped by monodromy loops, and every block is certified by
the linear trace test (failing blocks are merged until their union passes).
The scan runs from the top dimension (N - 1 affine, N - 2 projective, for
N variables) down to the Krull bound max(0, top + 1 - n) for n equations:
no component of n equations has a lower dimension.

Moves of witness points to many target slices (membership, sampling, the
two translations of a trace test, each leg of a batch of monodromy loops)
are one batch of paths with one draw of the fixed rows and gamma: a move
that fails fails only its own target.  Every stage that redraws has one
budget: at most _RETRIES (3) redraws, _RETRIES + 1 draws in all.
_retried_moves redraws the failed membership and sample targets, and both
trace-test translations when one fails; then membership_test, sample and
the trace test raise PathFailure, and junk removal keeps the point.  A
superset keeps its cleanest draw, one point per cluster; monodromy counts
a loop whose every draw failed as a loop without a merge.  Junk removal
tests every remaining point of every lower dimension against a newly
confirmed witness set as one membership batch.

Two points are the same point when they are within DEDUPE_TOL of each
other in the infinity norm (zerodim._close): superset clusters and path
jumps, collisions of moved points, monodromy matches and membership hits
all use that one test.

A move to a randomly drawn slice (a sample draw, a monodromy loop leg, a
trace-test translation) ends at nonsingular points with probability one,
so its paths skip the endgame and are tracked straight to t = 0.  A move
through a given point (membership, junk removal, move_slice) may end at a
singular point and keeps the endgame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import Rng, random_unit_complex, vec_inf_norm
from .errors import (
    DecompositionIncomplete,
    DimensionMismatch,
    DimensionOutOfRange,
    NotHomogeneous,
    PathFailure,
)
from .polysys import LinearSlice, Polynomial, PolySystem, empty_slice, random_slice
from .tracker import (
    PathStatus,
    slice_move_homotopy,
    straight_line_homotopy,
    track_paths,
)
from .zerodim import _close, _clusters, total_degree_start

_MATCH_TOL = 1e-6
_RESIDUAL_GATE = 1e-8
_RETRIES = 3
_QUIET_LOOPS = 10      # monodromy stops after this many loops without a merge
_LOOP_BATCH = 4        # monodromy loops drawn and tracked together


@dataclass(frozen=True)
class WitnessSet:
    """Witness data (system, slice, points) for one component slice.

    The patch field is the chart row for projective sets; points are chart
    representatives in that case.  degree == number of points.
    """

    system: PolySystem
    slice: LinearSlice
    points: list
    dimension: int
    component_index: int = -1
    patch: np.ndarray | None = None

    @property
    def degree(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class NumericalVariety:
    """Witness sets for every irreducible component, keyed by dimension.
    patch is the chart row of a projective decomposition, None for an
    affine one."""

    components: dict
    system: PolySystem
    seed: int
    patch: np.ndarray | None = None

    @property
    def is_projective(self) -> bool:
        return self.patch is not None

    def dims(self):
        return sorted(self.components)

    def witness_sets(self):
        for dim in self.dims():
            for ws in self.components[dim]:
                yield ws


def _fixed_rows(system: PolySystem, dim: int, rng: Rng, patch) -> PolySystem:
    """The non-slice rows of the square sliced system at dimension dim: generic
    unit-modulus combinations of the system's polynomials, and the chart row."""
    count = system.num_vars - dim - (1 if patch is not None else 0)
    weights = rng.unit_complex((count, system.n))
    rows = [Polynomial.linear_combination(system.polys, w, system.width) for w in weights]
    if patch is not None:
        rows.append(Polynomial.linear(patch, -1.0, system.width))
    return PolySystem(system.variables, rows)


def _on_variety(system, points, patch=None):
    """The mask of the rows of a (points, N) stack that satisfy system and
    the chart equation within the residual gate, from one kernel call.  A
    NaN residual is not above the gate, so it counts as on."""
    scale = _RESIDUAL_GATE * (1.0 + np.abs(points).max(axis=1))
    off = np.abs(system.kernel(points)[:, :, 0]).max(axis=1) > scale
    if patch is not None:
        # a stack of one-row products, each with the bits of patch @ point
        chart = (points[:, None, :] @ np.asarray(patch)[:, None])[:, 0, 0]
        off |= np.abs(chart - 1.0) > scale
    return ~off


def _superset_once(system, dim, rng, patch):
    """One draw of the dimension-dim superset: the WitnessSet of the
    endpoints on the variety, every one, and the count of failed paths."""
    nv = system.num_vars
    slice_ = random_slice(nv, dim, rng) if dim > 0 else empty_slice(nv)
    fixed = _fixed_rows(system, dim, rng, patch)
    square_polys = fixed.polys + slice_.as_polynomials(system.width)
    square = PolySystem(system.variables, square_polys)
    gamma = random_unit_complex(rng)
    start = total_degree_start(square)
    homotopy = straight_line_homotopy(square, start.start_system, gamma)
    results = track_paths(homotopy, start.start_points)
    failures = sum(res.status not in (PathStatus.SUCCESS, PathStatus.AT_INFINITY)
                   for res in results)
    landed = [res for res in results if res.status is PathStatus.SUCCESS]
    points = []
    if landed:
        ends = np.array([res.endpoint for res in landed])
        on = _on_variety(system, ends, patch)
        close = _close(ends, ends)
        regular = np.array([res.cycle_number == 1 for res in landed])
        # two paths at one regular root means a path jumped, and the point
        # it should have reached may be lost; a root off the variety is
        # dropped, and a singular one (cycle >= 2) may end several paths
        jumped = np.where(on, regular & ((close & regular).sum(axis=1) > 1),
                          close.sum(axis=1) > 1)
        failures += int(jumped.sum())
        points = [res.endpoint for res, ok in zip(landed, on) if ok]
    return WitnessSet(system, slice_, points, dim, patch=patch), failures


def _dimension_range(system, patch):
    """(top, bottom): the dimensions a component of system can have.  top is
    N - 1 for N variables (N - 2 projective); by Krull's principal ideal
    theorem no component of n equations has dimension below top + 1 - n."""
    top = system.num_vars - 1 - (1 if patch is not None else 0)
    return top, max(0, top + 1 - system.n)


def _superset(system, dim, rng, patch):
    top, _ = _dimension_range(system, patch)
    if not 0 <= dim <= top:
        raise DimensionOutOfRange(f"dimension {dim} out of range 0..{top}")
    # a failed path may mean a lost witness point (an unlucky gamma or slice
    # sent it on a wild excursion), so redraw everything a few times and keep
    # the cleanest attempt
    attempts = []
    for _ in range(_RETRIES + 1):
        result, failures = _superset_once(system, dim, rng, patch)
        attempts.append((failures, -len(result.points), result))
        if failures == 0:
            break
    # a clean attempt, else fewest failures, then most raw points; the first
    # of equals.  Deduplicate only after choosing, so that ties still go to
    # the attempt with most raw points.
    best = min(attempts, key=lambda a: a[:2])[2]
    return replace(best, points=[best.points[k] for k in _clusters(best.points)[0]])


def witness_superset(system: PolySystem, dim: int, rng: Rng) -> WitnessSet:
    """The witness superset of dimension dim of the affine system: a
    WitnessSet of the finite solutions of the randomized dimension-dim
    sliced system, on its random slice, drawn from rng.

    Its points are the true dimension-dim witness points, possibly plus junk
    points sitting on higher-dimensional components (singular path
    endpoints included), one point per cluster of path endpoints
    (zerodim._clusters).  Points failing the original system's residual are
    already discarded.  Its component_index is -1: it is not a component.
    """
    if system.parameters:
        raise DimensionMismatch("witness computations need a parameter-free system")
    return _superset(system, dim, rng, None)


def _landed(ws: WitnessSet, target: LinearSlice, results, on):
    """The endpoints of the paths to one target as moved witness points, or
    the PathFailure of the first endpoint that rejects them.  on[i] tells
    whether endpoint i, if it succeeded, lies on the variety."""
    moved = []
    for res, ok in zip(results, on):
        if res.status is not PathStatus.SUCCESS:
            return PathFailure(f"witness point failed to move ({res.status.value})")
        q = res.endpoint
        if not ok:
            return PathFailure("moved point left the variety")
        if vec_inf_norm(target.evaluate(q)) > _RESIDUAL_GATE * (1.0 + vec_inf_norm(q)):
            return PathFailure("moved point missed the target slice")
        moved.append(q)
    # two paths landing on one endpoint means a crossing near the target
    # slice; the image is no longer a witness point set
    if len(_clusters(moved)[0]) < len(moved):
        return PathFailure("witness points collided during the move")
    return moved


def _move(ws: WitnessSet, targets, rng: Rng, sources=None, *, endgame=True) -> list:
    """Move witness points of ws's component to every target slice, all
    paths as one batch.

    Each move starts from ws's slice and points, or, with sources, from the
    (slice, points) pair of its target's position in sources.  One draw of
    the fixed rows and of gamma serves the whole batch.  Returns per target
    its moved points, or the PathFailure of its move: a failed move fails
    only its own target.  endgame=False tracks the paths straight to t = 0,
    for targets drawn at random, whose endpoints are nonsingular.
    """
    if sources is None:
        sources = [(ws.slice, ws.points)] * len(targets)
    fixed = _fixed_rows(ws.system, ws.dimension, rng, ws.patch)
    gamma = random_unit_complex(rng)
    homotopy = slice_move_homotopy(
        fixed, [s for s, points in sources for _ in points],
        [t for t, (_, points) in zip(targets, sources) for _ in points], gamma)
    results = track_paths(homotopy, [p for _, points in sources for p in points],
                          endgame=endgame)
    # only the endpoints of successful paths are checked, all in one call
    landed = [i for i, res in enumerate(results) if res.status is PathStatus.SUCCESS]
    on = np.zeros(len(results), dtype=bool)
    if landed:
        on[landed] = _on_variety(ws.system, np.array([results[i].endpoint for i in landed]),
                                 ws.patch)
    out = []
    for t, (_, points) in zip(targets, sources):
        out.append(_landed(ws, t, results[:len(points)], on[:len(points)]))
        results, on = results[len(points):], on[len(points):]
    return out


def _retried_moves(ws: WitnessSet, draw, count: int, rng: Rng, *, endgame=True) -> list:
    """Move the witness set to count groups of targets, group i the list of
    slices draw(i) returns.

    All groups are drawn, then moved as one batch; a group with a failed
    move is redrawn whole and moved again with the other failed groups, at
    most _RETRIES times.  Returns per group its moved points per slice, or
    the PathFailure of the first failed move of its last draw.  endgame
    goes to _move.
    """
    out = [None] * count
    todo = list(range(count))
    for _ in range(_RETRIES + 1):
        if not todo:
            break
        groups = [draw(i) for i in todo]
        moved = _move(ws, [t for group in groups for t in group], rng, endgame=endgame)
        for i, group in zip(todo, groups):
            mine, moved = moved[:len(group)], moved[len(group):]
            out[i] = next((m for m in mine if isinstance(m, PathFailure)), mine)
        todo = [i for i in todo if isinstance(out[i], PathFailure)]
    return out


def move_slice(ws: WitnessSet, target_slice: LinearSlice, rng: Rng | None = None) -> WitnessSet:
    """Track every witness point from the current slice to target_slice.

    The homotopy keeps the randomized system rows fixed and interpolates
    (1-t) L_target + gamma t L_source, with the endgame, since the target
    may pass through a singular point.  Raises PathFailure when any path
    fails or lands off the variety; callers retry with fresh randomness.
    """
    if target_slice.codim != ws.slice.codim:
        raise DimensionMismatch("target slice has a different codimension")
    rng = rng or Rng(0)
    if ws.slice.codim == 0:
        return replace(ws, slice=target_slice, points=list(ws.points))
    moved = _move(ws, [target_slice], rng)[0]
    if isinstance(moved, PathFailure):
        raise moved
    return replace(ws, slice=target_slice, points=moved)


def _members(ws: WitnessSet, points, rng: Rng) -> list:
    """For each point, whether it lies on the component of ws: the slice is
    moved through every point at once and the moved witness points are
    searched for a hit.  None marks a point whose move kept failing."""
    points = np.array(points, dtype=complex)
    if ws.dimension == 0:
        return _close(points, np.array(ws.points)).any(axis=1).tolist()
    shape = (ws.slice.codim, ws.system.num_vars)

    def through(i):
        coeffs = np.atleast_2d(rng.unit_complex(shape))
        return [LinearSlice(coeffs, -(coeffs @ points[i]))]

    moved = _retried_moves(ws, through, len(points), rng)
    return [None if isinstance(m, PathFailure) else bool(_close(p[None], np.array(m[0])).any())
            for p, m in zip(points, moved)]


def junk_removal(supersets: dict, rng: Rng) -> dict:
    """Discard superset points lying on higher-dimensional components.

    supersets maps dimension -> its witness superset (witness_superset),
    computed top dimension downward.  Returns dimension -> that superset
    with only its surviving points, in their order.  The survivors of a
    dimension form a confirmed witness set, which tests the remaining points
    of every lower dimension at once; a point whose test keeps failing is
    kept.
    """
    dims = sorted(supersets, reverse=True)
    cleaned = {dim: supersets[dim] for dim in dims}
    for n, dim in enumerate(dims):
        lower = [(d, p) for d in dims[n + 1:] for p in cleaned[d].points]
        if not cleaned[dim].points or not lower:
            continue
        hits = _members(cleaned[dim], [p for _, p in lower], rng)
        for d in dims[n + 1:]:
            cleaned[d] = replace(cleaned[d], points=[
                p for (owner, p), hit in zip(lower, hits) if owner == d and not hit])
    return cleaned


def _match_points(originals, moved):
    """perm[j], the index of the original that moved point j is close to
    (_close), when every moved point is close to an original and no two are
    close to the same one; else None."""
    close = _close(np.array(moved), np.array(originals))
    if not close.any(axis=1).all() or (close.sum(axis=0) > 1).any():
        return None
    return close.argmax(axis=1).tolist()


def _loop_batch(ws: WitnessSet, rng: Rng) -> list:
    """Track _LOOP_BATCH random slice loops L0 -> L1 -> L2 -> L0, each leg
    of all loops as one batch.  Returns per loop, in draw order, the
    permutation it induces on the witness points, or None when one of its
    moves failed or its points do not match back one to one."""
    nv, codim = ws.system.num_vars, ws.slice.codim
    legs = [[random_slice(nv, codim, rng) for _ in range(_LOOP_BATCH)] for _ in range(2)]
    legs.append([ws.slice] * _LOOP_BATCH)
    ends = [(ws.slice, ws.points)] * _LOOP_BATCH     # None once a loop failed
    for targets in legs:
        live = [j for j, end in enumerate(ends) if end is not None]
        if not live:
            break
        moved = _move(ws, [targets[j] for j in live], rng, [ends[j] for j in live],
                      endgame=False)
        for j, m in zip(live, moved):
            ends[j] = None if isinstance(m, PathFailure) else (targets[j], m)
    return [None if end is None else _match_points(ws.points, end[1]) for end in ends]


def monodromy_partition(ws: WitnessSet, rng: Rng) -> list[set]:
    """Partition witness point indices into monodromy orbits.

    Random slice loops L0 -> L1 -> L2 -> L0 are tracked _LOOP_BATCH at a
    time and each induced permutation joins the blocks of j and perm[j], in
    draw order; stops after _QUIET_LOOPS consecutive loops produce no merge,
    or when a single block remains, and loops drawn past that point are
    ignored.  A loop is redrawn when a move fails or its points do not match
    back one to one; after _RETRIES + 1 such draws it counts as a loop with
    no merge.  Blocks come in order of their smallest point.
    """
    k = len(ws.points)
    if k <= 1 or ws.slice.codim == 0:
        # isolated points never exchange; every one is its own component
        return [{i} for i in range(k)]
    block = list(range(k))      # block[i]: the block of point i, named by its smallest point
    blocks, quiet, failed = k, 0, 0
    while blocks > 1 and quiet < _QUIET_LOOPS:
        for perm in _loop_batch(ws, rng):
            if perm is None:
                failed += 1
                if failed > _RETRIES:
                    quiet, failed = quiet + 1, 0
            else:
                merges = 0
                for j, i in enumerate(perm):
                    low, high = sorted((block[j], block[i]))
                    if low != high:
                        block = [low if b == high else b for b in block]
                        merges += 1
                blocks -= merges
                quiet, failed = 0 if merges else quiet + 1, 0
            if blocks == 1 or quiet >= _QUIET_LOOPS:
                break
    return [{i for i in range(k) if block[i] == name} for name in sorted(set(block))]


def _block_trace_defects(ws: WitnessSet, blocks, rng: Rng):
    """Per-block trace defect vectors from one shared parallel translation.

    Tracks the whole witness set to the slices L +/- w as one batch and
    returns, for each block, sum(+1) + sum(-1) - 2 sum(0) along with the
    scale of sum(0).
    """
    if ws.slice.codim == 0:
        zero = np.zeros(ws.system.num_vars, dtype=complex)
        return [zero for _ in blocks], 1.0

    def translations(_):
        w = np.atleast_1d(rng.unit_complex(ws.slice.codim))
        w /= np.linalg.norm(w)
        return [ws.slice.translated(w), ws.slice.translated(-w)]

    moved = _retried_moves(ws, translations, 1, rng, endgame=False)[0]
    if isinstance(moved, PathFailure):
        raise PathFailure("trace translations kept failing") from moved
    plus, minus = moved
    defects = []
    for block in blocks:
        idx = sorted(block)
        s0 = sum(ws.points[i] for i in idx)
        sp = sum(plus[i] for i in idx)
        sm = sum(minus[i] for i in idx)
        defects.append(sp + sm - 2.0 * s0)
    scale = 1.0 + max(vec_inf_norm(sum(ws.points[i] for i in sorted(b)))
                      for b in blocks)
    return defects, scale


def trace_test(ws: WitnessSet, block, rng: Rng) -> bool:
    """Linear trace test: is the block a complete union of components?

    Translates the slice parallel to itself to s = -1, 0, +1 and checks that
    the coordinate-wise sum of the block's points is affine-linear in s.
    """
    block = set(block)
    if not block or not block <= set(range(len(ws.points))):
        raise DimensionMismatch("block must be a nonempty subset of point indices")
    defects, scale = _block_trace_defects(ws, [block], rng)
    return vec_inf_norm(defects[0]) <= _MATCH_TOL * scale


def _certified_blocks(ws: WitnessSet, blocks, rng: Rng):
    """Merge blocks with the smallest combined defect until all traces pass."""
    blocks = [set(b) for b in blocks]
    # each pass returns, raises at one block or merges two blocks, so the
    # loop ends within len(blocks) passes
    while True:
        defects, scale = _block_trace_defects(ws, blocks, rng)
        norms = [vec_inf_norm(d) for d in defects]
        failing = [i for i, d in enumerate(norms) if d > _MATCH_TOL * scale]
        if not failing:
            return blocks
        if len(blocks) == 1:
            raise DecompositionIncomplete(
                "full witness set fails the trace test; tracking is unreliable here")
        # defect vectors add block-wise, so the best pair is found directly
        best = None
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if i not in failing and j not in failing:
                    continue
                combined = vec_inf_norm(defects[i] + defects[j])
                if best is None or combined < best[0]:
                    best = (combined, i, j)
        _, i, j = best
        blocks[i] = blocks[i] | blocks[j]
        del blocks[j]


def _point_sort_key(p):
    return tuple(x for c in p for x in (c.real, c.imag))


def numerical_irreducible_decomposition(
        system: PolySystem, *, projective: bool = False, seed: int = 0) -> NumericalVariety:
    """Witness sets for every irreducible component, organized by dimension.

    Scans dimensions from the top (N - 1 for N variables, N - 2 projective)
    down to the Krull bound max(0, top + 1 - n) for n equations, below which
    no component lies: deduplicated witness superset, junk removal by
    membership, then monodromy grouping certified by the trace test.  Component
    indices within a dimension are assigned by (degree, first-point order).
    Moves to random slices (monodromy loops, trace translations) skip the
    tracker's endgame; junk removal's moves through given points keep it.
    """
    if system.parameters:
        raise DimensionMismatch("decomposition needs a parameter-free system")
    if all(p.is_zero for p in system.polys):
        raise DimensionMismatch("the zero system defines the whole space")
    rng = Rng(seed)
    patch = None
    if projective:
        if not system.is_homogeneous():
            raise NotHomogeneous("projective decomposition requires a homogeneous system")
        patch = np.atleast_1d(rng.unit_complex(system.num_vars))
    top, bottom = _dimension_range(system, patch)

    supersets = {}
    for dim in range(top, bottom - 1, -1):
        superset = _superset(system, dim, rng.fork(), patch)
        if superset.points:
            supersets[dim] = superset

    components: dict[int, list[WitnessSet]] = {}
    for dim, ws in junk_removal(supersets, rng.fork()).items():
        if not ws.points:
            continue
        blocks = monodromy_partition(ws, rng.fork())
        blocks = _certified_blocks(ws, blocks, rng.fork())
        blocks.sort(key=lambda b: (len(b), min(_point_sort_key(ws.points[i]) for i in b)))
        components[dim] = [replace(ws, points=[ws.points[i] for i in sorted(block)],
                                   component_index=j)
                           for j, block in enumerate(blocks)]
    return NumericalVariety(components=components, system=system, seed=seed, patch=patch)


def membership_test(nv: NumericalVariety, test_points, rng: Rng | None = None) -> list:
    """For each point, the (dimension, componentIndex) pairs containing it.

    Projective inputs are representatives; they are normalized onto the
    decomposition's chart first, which makes the test scale-invariant.
    Points failing the system residual are rejected without tracking.  Each
    component tests all remaining points at once; PathFailure is raised when
    a point's test keeps failing.
    """
    rng = rng or Rng(nv.seed + 101)
    queries = []        # the normalized point, or None for one outside the chart
    for point in test_points:
        p = np.array([complex(c) for c in point], dtype=complex)
        if p.shape[0] != nv.system.num_vars:
            raise DimensionMismatch(
                f"point has length {p.shape[0]}, expected {nv.system.num_vars}")
        if nv.is_projective:
            s = np.asarray(nv.patch) @ p
            if abs(s) < 1e-12 * (1.0 + vec_inf_norm(p)):
                queries.append(None)   # representative sits outside the chart
                continue
            p = p / s
        queries.append(p)
    live = [i for i, p in enumerate(queries) if p is not None]
    if live:
        # the system residual of every normalized query in one kernel call; a
        # NaN residual is not within the tolerance
        stack = np.array([queries[i] for i in live])
        on = (np.abs(nv.system.kernel(stack)[:, :, 0]).max(axis=1)
              <= _MATCH_TOL * (1.0 + np.abs(stack).max(axis=1)))
        live = [i for i, ok in zip(live, on) if ok]
    out = [[] for _ in queries]
    for ws in nv.witness_sets():
        if not live:
            break
        for i, hit in zip(live, _members(ws, [queries[i] for i in live], rng)):
            if hit is None:
                raise PathFailure("membership test kept failing to move the slice")
            if hit:
                out[i].append((ws.dimension, ws.component_index))
    return out


def sample(ws: WitnessSet, count: int, rng: Rng) -> list:
    """Draw count points of the component by moving its slice around.

    Every draw moves the witness set to a fresh generic slice and keeps the
    image of one witness point, so samples satisfy the system to tracking
    accuracy.  All draws move as one batch, with no endgame (the slices
    are random).
    """
    if count < 1:
        raise DimensionMismatch("sample count must be at least 1")
    if ws.slice.codim == 0:
        return [ws.points[rng.integers(len(ws.points))] for _ in range(count)]
    nv, codim = ws.system.num_vars, ws.slice.codim
    moved = _retried_moves(ws, lambda _: [random_slice(nv, codim, rng)], count, rng,
                           endgame=False)
    for m in moved:
        if isinstance(m, PathFailure):
            raise m
    return [m[0][rng.integers(len(m[0]))] for m in moved]
