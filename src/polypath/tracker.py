"""Predictor-corrector path tracking with a geometric-sequence endgame.

Every homotopy is a ParameterPathHomotopy: one polynomial H(z, s, t) in the
variables and in s = 1 - t and t, evaluated by one kernel call on the
columns [z, 1 - t, t], which gives H, dH/dz and dH/dt = dH/dt - dH/ds.  A
parameterized family F(z; p) followed from p_start to p_target is
H = F(z; s p_target + t p_start), expanded term by term.  The gamma-trick
straight line is H = s f + gamma t g, and a slice move
H = [fixed(z); s L_target(z) + gamma t L_source(z)], both written term by
term on N + 2 columns.  At t = 1, s is exactly 0, so H is exactly the
start system.  A per-path homotopy holds one coefficient matrix per path,
so the paths of many parameter tuples, or of moves to many target slices,
are one batch.

track_paths advances all paths of one homotopy in lock-step.  Each path
keeps its own t, step size, success count, step count and status; the
paths share the work, so an RK4 stage or a Newton iteration is one
evaluation of H on the stack of their points and one stacked LAPACK
solve.  Every evaluation passes the path index of each row, so each row
is evaluated at its own path's parameters.  A path that finishes or fails
leaves the stack, and track_path is the one-path case.
Predictor and corrector solves form no condition number: a row fails only
on an exactly singular Jacobian or a non-finite solution.  lin_solve's bound
kappa_inf < 1e14 applies to the reported limits (the Newton polish at t = 0).

H is evaluated once per (point, t).  Each path keeps the evaluation at its
present point and t: the next RK4 step's first tangent, the correction at
the endgame boundary, the polish after it and after each halving, and the
limit polish of a path tracked straight to t = 0 start from it, wherever
the path is at that t already.  A point recurs at one t only where the
arithmetic repeats it: within a step too short to move it, in a rejected
step retried at the same size, or after a Newton update that rounds to
nothing.

Paths are tracked from t = 1 to the endgame boundary with RK4 steps
on the Davidenko ODE dz/dt = -(dH/dz)^-1 dH/dt and a short Newton corrector
at fixed t.  From the boundary, the endgame samples every path at the same
t_k = ENDGAME_START * 2^-k, estimates the winding (cycle) number from the
geometric convergence rate of the samples, and Richardson-extrapolates in
t^(1/c) to the limit point.  Tracking runs entirely at hardware precision.

A caller that knows its paths end at nonsingular points (a move to a
randomly drawn target, say) may skip the endgame: track_paths(...,
endgame=False) advances every path straight to t = 0, and its endpoint
goes through the same guarded Newton polish and success gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import conditioned_solve_stack, gesv_stack
from .errors import DimensionMismatch, StartPointInvalid
from .polysys import LinearSlice, MonomialKernel, PolySystem, _terms


class PathStatus(Enum):
    SUCCESS = "Success"
    AT_INFINITY = "AtInfinity"
    STEP_FAILURE = "StepFailure"
    MAX_STEPS = "MaxSteps"


# PathResult.reason of a path that did not succeed
MAIN_COLLAPSE = "main-phase step collapse"
ENDGAME_COLLAPSE = "endgame step collapse"
BOUNDARY_FAILED = "boundary correction failed"
NOT_CAUCHY = "endgame samples not Cauchy"
ENDGAME_SINGULAR = "singular Jacobian in the endgame"
BEYOND_INFINITY = "beyond the infinity threshold"
STEP_BUDGET = "step budget"
ABOVE_GATE = "residual above the success gate"


# Tracker settings.  Every call reads them afresh from the module.
INITIAL_STEP = 0.1
MIN_STEP = 1e-7
MAX_STEP = 0.1
CORRECTOR_TOL = 1e-7
NEWTON_ITERATIONS = 3
GROWTH_SUCCESSES = 5             # consecutive successes before growing
STEP_GROWTH = 2.0
STEP_SHRINK = 0.5
ENDGAME_START = 0.1
FINAL_TOL = 1e-11
INFINITY_THRESHOLD = 1e8
MAX_STEPS = 100_000
ENDGAME_MAX_HALVINGS = 12
ENDGAME_LAST_T_MAX = 1e-3        # every Success must report lastT below this


@dataclass(frozen=True)
class PathResult:
    """One tracked path.  A path that did not succeed names why in reason:
    one of the module's reason strings, from MAIN_COLLAPSE to ABOVE_GATE.
    Its endpoint and last_t are then the last point the path reached."""

    status: PathStatus
    endpoint: np.ndarray
    last_t: float
    cycle_number: int
    newton_residual: float
    function_residual: float
    steps_taken: int
    max_precision_bits: int = 53
    reason: str | None = None


class Homotopy:
    """One-parameter family H(z, t); subclasses supply eval()."""

    num_vars: int
    # a per-path homotopy gives each path its own H; num_paths is then the
    # number of paths it has, and None means every path shares one H
    num_paths: int | None = None

    def eval(self, z, t):
        """Return (H(z,t), dH/dz, dH/dt)."""
        raise NotImplementedError

    def eval_batch(self, z, t, idx=None):
        """eval at each point z[i] and time t[i], stacked along a first axis.

        idx[i] is the index of the path (its start point) that row i belongs
        to; None means row i is path i.  A per-path homotopy evaluates each
        row with its own path's H.  This default ignores idx and calls eval
        once per point; subclasses that can evaluate a stack at once
        override it.
        """
        out = [self.eval(zi, float(ti)) for zi, ti in zip(z, t)]
        return tuple(np.array(part, dtype=complex) for part in zip(*out))


class ParameterPathHomotopy(Homotopy):
    """H(z, t) = F(z; s p_target + t p_start) with s = 1 - t, for a
    parameterized family F, written as one polynomial in (z, s, t).

    Each term c z^a p^b of F, of degree d = |b| in the parameters, becomes
    the d + 1 terms c e_k z^a s^(d-k) t^k, where e_k is the coefficient of
    s^(d-k) t^k in prod_j (s p_target_j + t p_start_j)^(b_j): the expansion
    is exact, whatever the degree of F in its parameters.  One kernel call
    on the columns [z, 1 - t, t] gives H, dH/dz and dH/dt = dH/dt - dH/ds.
    At t = 1, s is exactly 0, so H is F(z; p_start) to the last bit, however
    large p_target is.

    p_start and p_target are parameter vectors shared by every path, or
    (paths, parameters) arrays with one row per path (a 1-D vector beside
    such an array is shared by every row): a per-path homotopy, whose path i
    runs from p_start[i] to p_target[i] and whose kernel holds one
    coefficient matrix per path.

    straight_line_homotopy and slice_move_homotopy write their H term by
    term, without a family; their family, p_start and p_target are None.
    """

    family = p_start = p_target = None

    def __init__(self, family: PolySystem, p_start, p_target):
        if not family.parameters:
            raise DimensionMismatch("family has no parameters")
        p_start = np.asarray(p_start, dtype=complex)
        p_target = np.asarray(p_target, dtype=complex)
        count = len(family.parameters)
        if any(p.ndim not in (1, 2) or p.shape[-1] != count for p in (p_start, p_target)):
            raise DimensionMismatch("parameter vectors must match the family's parameter count")
        if p_start.ndim == 2 or p_target.ndim == 2:
            if p_start.ndim == p_target.ndim and p_start.shape != p_target.shape:
                raise DimensionMismatch("per-path parameters need one row per path at both ends")
            p_start, p_target = np.broadcast_arrays(p_start, p_target)
        self.family = family
        self.p_start = p_start
        self.p_target = p_target
        self._build(family.num_vars, *_expanded(family, p_start, p_target), family.n)

    @classmethod
    def _of_terms(cls, num_vars, exps, coeffs, rows, count):
        """The homotopy of count polynomials over [z, s, t] given term by
        term, as MonomialKernel takes them."""
        h = cls.__new__(cls)
        h._build(num_vars, exps, coeffs, rows, count)
        return h

    def _build(self, num_vars, exps, coeffs, rows, count):
        self.num_vars = num_vars
        if coeffs.ndim == 2:
            self.num_paths = coeffs.shape[0]
        # partials along each z_j, and along (-1, 1) in (s, t): dH/dt
        directions = np.eye(num_vars + 1, num_vars + 2, dtype=np.int64)
        directions[num_vars, num_vars:] = (-1, 1)
        self._kernel = MonomialKernel(exps, coeffs, rows, count, directions)

    def eval(self, z, t):
        value, dz, dt = self.eval_batch(np.asarray(z, dtype=complex)[None],
                                        np.array([t], dtype=float))
        return value[0], dz[0], dt[0]

    def eval_batch(self, z, t, idx=None):
        nv = self.num_vars
        point = np.empty((z.shape[0], nv + 2), dtype=complex)
        point[:, :nv] = z
        point[:, nv] = 1.0 - t
        point[:, nv + 1] = t
        # rows [H | dH/dz | dH/dt] of the kernel, one block per point
        out = self._kernel(point, idx)
        return out[..., 0], out[..., 1:nv + 1], out[..., nv + 1]


def _expanded(family: PolySystem, p_start, p_target):
    """The terms of F(z; s p_target + t p_start) over the columns [z, s, t],
    with one coefficient row per path when the ends have one."""
    nv = family.num_vars
    exps, c, rows = _terms(family.polys)
    powers = exps[:, nv:]
    degree = powers.sum(axis=1)
    # e[..., i, k]: the coefficient of s^(d-k) t^k in term i, found by
    # multiplying c by (s p_target_j + t p_start_j) once per power of p_j
    e = np.zeros(p_start.shape[:-1] + (c.size, int(degree.max(initial=0)) + 1), dtype=complex)
    e[..., 0] = c
    for j in range(powers.shape[1]):
        a, b = p_target[..., j, None, None], p_start[..., j, None, None]
        for r in range(1, int(powers[:, j].max(initial=0)) + 1):
            m = powers[:, j] >= r
            old = e[..., m, :]
            new = old * a
            new[..., 1:] += old[..., :-1] * b
            e[..., m, :] = new
    width = degree + 1
    term = np.repeat(np.arange(c.size), width)
    k = np.arange(term.size) - np.repeat(np.cumsum(width) - width, width)
    out = np.zeros((term.size, nv + 2), dtype=np.int64)
    out[:, :nv] = exps[term, :nv]
    out[:, nv] = degree[term] - k
    out[:, nv + 1] = k
    return out, e[..., term, k], rows[term]


def straight_line_homotopy(target: PolySystem, start: PolySystem,
                           gamma: complex) -> ParameterPathHomotopy:
    """H(z, t) = s f(z) + gamma t g(z) with s = 1 - t: the gamma trick,
    whose dH/dt is gamma g - f.  f and g share the kernel's monomials."""
    if target.variables != start.variables or target.n != start.n:
        raise DimensionMismatch("target and start systems must share variables and size")
    if target.parameters or start.parameters:
        raise DimensionMismatch("straight-line homotopy needs parameter-free systems")
    nv = target.num_vars
    (fe, fc, fr), (ge, gc, gr) = _terms(target.polys), _terms(start.polys)
    exps = np.zeros((fc.size + gc.size, nv + 2), dtype=np.int64)
    exps[:fc.size, :nv], exps[fc.size:, :nv] = fe, ge
    exps[:fc.size, nv] = exps[fc.size:, nv + 1] = 1
    return ParameterPathHomotopy._of_terms(nv, exps, np.concatenate([fc, gamma * gc]),
                                           np.concatenate([fr, gr]), target.n)


def _slice_rows(slices) -> np.ndarray:
    """[A | b] of every slice as a (slices, codim, N + 1) array."""
    return np.concatenate([np.array([s.coefficients for s in slices], dtype=complex),
                           np.array([s.constants for s in slices], dtype=complex)[..., None]],
                          axis=2)


def slice_move_homotopy(fixed: PolySystem, source, target,
                        gamma: complex) -> ParameterPathHomotopy:
    """Fixed polynomial rows plus a moving linear slice:
    H(z, t) = [ fixed(z) ; s L_target(z) + gamma t L_source(z) ], s = 1 - t,
    one polynomial on the N + 2 columns [z, s, t].

    source and target are each one LinearSlice for every path, or a sequence
    of them with one per path (a per-path homotopy, path i moving from
    source[i] to target[i]).
    """
    sources = [source] if isinstance(source, LinearSlice) else list(source)
    targets = [target] if isinstance(target, LinearSlice) else list(target)
    if len({s.codim for s in sources + targets}) != 1:
        raise DimensionMismatch("source and target slices must share codimension")
    if not isinstance(source, LinearSlice) and not isinstance(target, LinearSlice) \
            and len(sources) != len(targets):
        raise DimensionMismatch("per-path slices need one per path at both ends")
    codim = sources[0].codim
    nv = fixed.num_vars
    if fixed.n + codim != nv:
        raise DimensionMismatch("fixed rows plus slice rows must be square")
    # per slice row: A_target z_j s and b_target s, then gamma A_source z_j t
    # and gamma b_source t
    ends = [_slice_rows(targets), gamma * _slice_rows(sources)]
    if isinstance(source, LinearSlice) and isinstance(target, LinearSlice):
        ends = [end[0] for end in ends]
    lead = np.broadcast_shapes(*(end.shape for end in ends))[:-2]
    fe, fc, fr = _terms(fixed.polys)
    coeffs = np.empty(lead + (fc.size + 2 * codim * (nv + 1),), dtype=complex)
    coeffs[..., :fc.size] = fc
    moving = coeffs[..., fc.size:].reshape(lead + (codim, 2, nv + 1))
    moving[..., 0, :], moving[..., 1, :] = ends
    exps = np.zeros((coeffs.shape[-1], nv + 2), dtype=np.int64)
    exps[:fc.size, :nv] = fe
    row = exps[fc.size:].reshape(codim, 2, nv + 1, nv + 2)
    row[:, :, :nv, :nv] = np.eye(nv, dtype=np.int64)
    row[:, 0, :, nv] = row[:, 1, :, nv + 1] = 1
    rows = np.concatenate([fr, fixed.n + np.repeat(np.arange(codim), 2 * (nv + 1))])
    return ParameterPathHomotopy._of_terms(nv, exps, coeffs, rows, nv)


def _as_point(h: Homotopy, z):
    """z as a complex vector of h's length; eval itself does not check it."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (h.num_vars,):
        raise DimensionMismatch(f"point has shape {z.shape}, homotopy has {h.num_vars} variables")
    return z


def _check_path_count(h: Homotopy, count: int):
    """A per-path homotopy tracks exactly its own paths, start i on path i."""
    if h.num_paths is not None and count != h.num_paths:
        raise DimensionMismatch(
            f"{count} start points for a homotopy with parameters for {h.num_paths} paths")


def homotopy_eval(homotopy: Homotopy, z, t):
    """(value, dH/dz, dH/dt) at a point; t in [0, 1].  A per-path homotopy
    of several paths has no one H: a point alone names no path."""
    if (homotopy.num_paths or 1) > 1:
        raise DimensionMismatch(
            f"one point names no path of a homotopy with {homotopy.num_paths} paths")
    return homotopy.eval(_as_point(homotopy, z), float(t))


# -- stacked primitives --------------------------------------------------------

def _norms(v):
    """Infinity norm of every row of a (rows, n) array."""
    return np.maximum.reduce(np.abs(v), axis=1)


# A mask's any() and all() by count_nonzero, the cheapest reduction on the
# few rows of a lock-step stack.

def _any(mask) -> bool:
    return np.count_nonzero(mask) > 0


def _all(mask) -> bool:
    return np.count_nonzero(mask) == mask.size


def _solve_rows(a, b):
    """x[i] = a[i]^-1 b[i] for every row (a stack of vectors) by gesv_stack,
    and the mask of rows that solved.  Called only inside track_paths's
    error state."""
    x, ok = gesv_stack(a, b[:, :, None])
    return x[:, :, 0], ok


def _tangent(h: Homotopy, z, t, idx=None):
    """-dz/dt at every row: dH/dz solved against +dH/dt.  An LU solve is
    exactly odd in its right-hand side, so the predictor subtracts it and
    gets the bits of adding the solve against -dH/dt."""
    _, dz, dt = h.eval_batch(z, t, idx)
    return _solve_rows(dz, dt)[0]


def _paths_of(idx, rows):
    """The paths of the rows picked by rows (a slice of all rows or an index
    array) from a stack whose row i is path idx[i]; idx None: path i."""
    if isinstance(rows, slice):
        return idx
    return rows if idx is None else idx[rows]


_STALLED, _CONVERGED, _SINGULAR = 0, 1, 2
_LOG_2 = np.log(2.0)


def _newton(h: Homotopy, z, t, idx, tol, iters, first=None):
    """Newton at fixed t on every row of z (updated in place), stopping each
    row as soon as its residual is at most tol (a scalar or one per row).
    Row i belongs to path idx[i] (idx None: path i).  first is the
    evaluation (H, dH/dz, dH/dt) at (z, t) when the caller holds one, its
    arrays then updated in place; otherwise Newton makes it.  Each update
    is the solve against +H subtracted, the bits of adding the solve
    against -H.

    Returns
    - the points;
    - the size of each row's last update;
    - a code per row: _CONVERGED; _STALLED, a residual above tol after
      iters updates, or not finite; _SINGULAR, an exactly singular Jacobian
      or a non-finite update, and the row keeps its last point;
    - H, dH/dz and dH/dt of the last evaluation at each returned point.
    """
    m, n = z.shape
    update = np.zeros(m)
    code = np.zeros(m, dtype=int)      # _STALLED
    if not m:
        return (z, update, code, np.empty((0, n), complex), np.empty((0, n, n), complex),
                np.empty((0, n), complex))
    value, jac, dt = h.eval_batch(z, t, idx) if first is None else first
    rows = slice(None)      # the rows still iterating: all, until one stops
    for it in range(iters + 1):
        res = _norms(value[rows])
        done = res <= (tol[rows] if isinstance(tol, np.ndarray) else tol)
        count = np.count_nonzero(done)
        if count == done.size:      # after an RK4 step, usually at once
            code[rows] = _CONVERGED
            break
        if count:
            code[_pick(rows, done)] = _CONVERGED
        go = ~done & np.isfinite(res)
        count = np.count_nonzero(go)
        if it == iters or not count:
            break
        if count < go.size:
            rows = _pick(rows, go)
        delta, ok = _solve_rows(jac[rows], value[rows])
        if not _all(ok):
            code[_pick(rows, ~ok)] = _SINGULAR
            rows, delta = _pick(rows, ok), delta[ok]
            if not rows.size:
                break
        z[rows] -= delta
        update[rows] = _norms(delta)
        value[rows], jac[rows], dt[rows] = h.eval_batch(z[rows], t[rows], _paths_of(idx, rows))
    return z, update, code, value, jac, dt


def _pick(rows, mask):
    """The rows (a slice of all rows or an index array) where mask holds."""
    return mask.nonzero()[0] if isinstance(rows, slice) else rows[mask]


def _cycle_numbers(samples):
    """Winding number of every row from the geometric decay of its samples.

    Consecutive samples halve t, so differences of a cycle-c path shrink by
    2^(-1/c); the inverse map of the median of the last three usable decay
    ratios (the larger of two) recovers c.  Converged (tiny) differences
    mean a regular endpoint, cycle 1: with no usable ratio the median is
    inf, which maps to 1.
    """
    m = samples.shape[0]
    if samples.shape[1] < 3:
        return np.ones(m, dtype=int)
    diffs = np.maximum.reduce(np.abs(samples[:, 1:] - samples[:, :-1]), axis=2)
    a, b = diffs[:, :-1], diffs[:, 1:]
    r = b / a           # positive where both differences are above FINAL_TOL
    usable = (a > FINAL_TOL) & (b > FINAL_TOL) & (r < 0.95)
    usable &= usable[:, ::-1].cumsum(axis=1)[:, ::-1] <= 3
    tail = np.where(usable, r, np.inf)
    tail.sort(axis=1)
    mid = tail[np.arange(m), np.add.reduce(usable, axis=1) // 2]
    return np.minimum(np.maximum(np.rint(_LOG_2 / -np.log(mid)), 1), 8).astype(int)


def _extrapolate(samples, cycles):
    """Richardson extrapolation in s = t^(1/cycle) over each row's last five geometric samples."""
    r = (0.5 ** (1.0 / cycles))[:, None, None]
    tab = samples[:, -5:]
    level = 1
    while tab.shape[1] > 1:
        rm = r ** level
        tab = (tab[:, 1:] - rm * tab[:, :-1]) / (1.0 - rm)
        level += 1
    return tab[:, 0]


# -- the lock-step tracker -------------------------------------------------------

class _Paths:
    """The live paths of one homotopy, one row each, advanced in lock-step.

    Per row: point z, time t, step size, consecutive successes, steps taken
    (limit: where the phase's step budget runs out, each phase has its own),
    the kept evaluation, H, dH/dz and dH/dt at the row's (z, t), and in the
    endgame the samples, the growth count of their differences, the last
    extrapolant, cycle number and Newton update.  A path that finishes or
    fails leaves the stack; its outcome goes to the per-path arrays at its
    index idx.  Every step and correction moves z and t with an
    evaluation there, so the kept one always belongs to the row's present
    (z, t): the next RK4 step, a correction at the row's own t and the
    limit polish of a row that reached t = 0 start from it.
    """

    _ROWS = ("idx", "z", "t", "step", "succ", "steps", "limit", "value", "jac", "dt",
             "samples", "grew", "extrap", "cycle", "newton")

    def __init__(self, h: Homotopy, z, t, first=None):
        """Paths at the points z, all at time t; first is the evaluation
        (H, dH/dz, dH/dt) at (z, t), made here when not given."""
        m, n = z.shape
        self.h = h
        self.idx = np.arange(m)
        self.paths = None       # idx as evaluations take it: None while row i is path i
        self.z = z
        self.t = np.full(m, float(t))
        self.step = np.full(m, INITIAL_STEP)
        self.succ = np.zeros(m, dtype=int)
        self.steps = np.zeros(m, dtype=int)
        self.limit = np.full(m, MAX_STEPS)
        self.budget = MAX_STEPS     # at most min(limit - steps): steps that are safe to take
        self.value, self.jac, self.dt = h.eval_batch(z, self.t) if first is None else first
        self.samples = np.empty((m, 0, n), dtype=complex)
        self.grew = np.zeros(m, dtype=int)
        self.extrap = z
        self.cycle = np.ones(m, dtype=int)
        self.newton = np.zeros(m)
        # outcomes by path index; status None marks a path that finished
        # the endgame and awaits the success gate
        self.out_z = z.copy()
        self.out_t = self.t.copy()
        self.out_cycle = np.ones(m, dtype=int)
        self.out_newton = np.zeros(m)
        self.out_fres = np.full(m, math.inf)
        self.out_steps = np.zeros(m, dtype=int)
        self.status = [None] * m
        self.reason = [None] * m

    def _split(self, mask):
        """Drop the rows in mask from the stack and return them."""
        rows = mask.nonzero()[0]
        out = {name: getattr(self, name).take(rows, axis=0) for name in self._ROWS}
        self._drop(mask)
        return out

    def _drop(self, mask):
        """Drop the rows in mask from the stack."""
        keep = (~mask).nonzero()[0]
        for name in self._ROWS:
            setattr(self, name, getattr(self, name).take(keep, axis=0))
        self.paths = self.idx

    def _join(self, parts):
        """Put rows returned by _split back on the stack."""
        for name in self._ROWS:
            setattr(self, name, np.concatenate([getattr(self, name)]
                                               + [p[name] for p in parts]))
        self.paths = self.idx

    def _leave(self, mask, status=None, reason=None):
        """Record the rows in mask as finished (status None) or failed, and drop them."""
        where = mask.nonzero()[0]
        if not where.size:
            return
        rows = self.idx[where]
        self.out_z[rows] = (self.extrap if status is None else self.z)[where]
        self.out_t[rows] = self.t[where]
        self.out_steps[rows] = self.steps[where]
        if status is None:
            self.out_cycle[rows] = self.cycle[where]
            self.out_newton[rows] = self.newton[where]
        for i in rows.tolist():
            self.status[i], self.reason[i] = status, reason
        self._drop(mask)

    def _first_tangent(self):
        """The first RK4 tangent, as _tangent gives it, from the kept evaluation."""
        return _solve_rows(self.jac, self.dt)[0]

    def _predict(self, s):
        """One RK4 step of signed size s[i] in t for every row; each tangent
        is -dz/dt (_tangent), so the step subtracts it."""
        z, t, h = self.z, self.t, self.h
        k1 = self._first_tangent()
        sc, hs = s[:, None], 0.5 * s
        half, t_half = hs[:, None], t + hs
        paths = self.paths
        k2 = _tangent(h, z - half * k1, t_half, paths)
        k3 = _tangent(h, z - half * k2, t_half, paths)
        k4 = _tangent(h, z - sc * k3, t + s, paths)
        return z - (sc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def advance(self, t_to, collapse):
        """Adaptive steps of every row from its t down to t_to.

        A step is accepted when the corrector converges; every
        GROWTH_SUCCESSES accepted steps in a row grow the step size, and a
        rejected step shrinks it.  A row leaves on collapse (its step size
        below MIN_STEP), past INFINITY_THRESHOLD, or at the step budget.
        Rows that reach t_to wait aside until every row has.
        """
        arrived = []
        while self.idx.size:
            if not self.budget:     # a row may be at its limit: rows leaving only raise it
                left = self.limit - self.steps
                spent = left <= 0
                if _any(spent):
                    self._leave(spent, PathStatus.MAX_STEPS, STEP_BUDGET)
                    continue
                self.budget = int(left.min())
            self.budget -= 1
            self.steps += 1
            s = np.minimum(self.step, self.t - t_to)
            t1 = self.t - s
            # a non-finite prediction stalls its row's corrector at once
            zc, _, code, value, jac, dt = _newton(self.h, self._predict(-s), t1, self.paths,
                                                  CORRECTOR_TOL, NEWTON_ITERATIONS)
            ok = code == _CONVERGED
            if _all(ok):
                self.z, self.t, self.value, self.jac, self.dt = zc, t1, value, jac, dt
                self.succ += 1
                gone = _norms(self.z) > INFINITY_THRESHOLD
            else:
                self.z[ok], self.t[ok] = zc[ok], t1[ok]
                self.value[ok], self.jac[ok], self.dt[ok] = value[ok], jac[ok], dt[ok]
                self.succ[ok] += 1
                self.succ[~ok] = 0
                self.step[~ok] *= STEP_SHRINK
                gone = ok & (_norms(self.z) > INFINITY_THRESHOLD)
                gone |= ~ok & (self.step < MIN_STEP)
            grow = self.succ >= GROWTH_SUCCESSES
            if _any(grow):      # a rejected row has succ 0: every growing row succeeded
                self.step[grow] = np.minimum(self.step[grow] * STEP_GROWTH, MAX_STEP)
                self.succ[grow] = 0
            if _any(gone):
                far = ok & gone
                self._leave(far, PathStatus.AT_INFINITY, BEYOND_INFINITY)
                self._leave(gone[~far], PathStatus.STEP_FAILURE, collapse)
            done = self.t <= t_to + 1e-16
            count = np.count_nonzero(done)
            if count == done.size:
                break
            if count:
                arrived.append(self._split(done))
        if arrived:
            self._join(arrived)

    def _evaluated(self, t):
        """The kept evaluation, made afresh at time t for the rows whose own
        t differs from it; those rows must then take t or leave."""
        rows = (self.t != t).nonzero()[0]
        if rows.size:
            self.value[rows], self.jac[rows], self.dt[rows] = self.h.eval_batch(
                self.z[rows], np.full(rows.size, t), _paths_of(self.paths, rows))
        return self.value, self.jac, self.dt

    def _correct(self, t, tol, iters):
        """Newton on every row at time t, from the kept evaluation; rows take
        t and the result, and the code of a singular Jacobian fails the
        path in the endgame."""
        first = self._evaluated(t)
        self.t[:] = t
        self.z, self.newton, code, self.value, self.jac, self.dt = _newton(
            self.h, self.z, self.t, self.paths, tol, iters, first)
        return code

    def _polish(self, t):
        """Newton at time t beyond the tracking tolerance, so extrapolation
        sees tracking noise well below FINAL_TOL.  A singular Jacobian fails
        the path."""
        code = self._correct(t, 1e-13 * (1.0 + _norms(self.z)), 6)
        self._leave(code == _SINGULAR, PathStatus.STEP_FAILURE, ENDGAME_SINGULAR)

    def endgame(self):
        """Drive every row from the endgame boundary to its limit at t = 0.

        Samples the rows at t_k = ENDGAME_START * 2^-k together; a row stops
        once two consecutive extrapolants agree within FINAL_TOL (never
        before t_k is at or below ENDGAME_LAST_T_MAX) or at the halving cap.
        Cycle numbers and extrapolants are formed only where something reads
        them: from the halving before the first with t_k at or below
        ENDGAME_LAST_T_MAX (the stop rule compares each extrapolant with the
        one before) and at the cap (finish() records them).  A row that
        leaves for any other reason records its last sample, not an
        extrapolant.  Then each limit is polished against H(. , 0) when
        Newton stays consistent with the extrapolation.
        """
        self.step[:] = min(INITIAL_STEP, ENDGAME_START / 2.0)
        self.succ[:] = 0
        self.limit, self.budget = self.steps + MAX_STEPS, MAX_STEPS
        code = self._correct(ENDGAME_START, CORRECTOR_TOL, NEWTON_ITERATIONS + 3)
        self._leave(code == _SINGULAR, PathStatus.STEP_FAILURE, ENDGAME_SINGULAR)
        self._leave((code == _STALLED)[code != _SINGULAR], PathStatus.STEP_FAILURE,
                    BOUNDARY_FAILED)
        self._polish(ENDGAME_START)
        self.samples = self.z[:, None, :].copy()
        self.extrap = self.samples[:, 0]
        for k in range(1, ENDGAME_MAX_HALVINGS + 1):
            if not self.idx.size:
                break
            t_next = ENDGAME_START * 0.5 ** k
            self.advance(t_next, ENDGAME_COLLAPSE)
            self._polish(t_next)
            self._leave(_norms(self.z) > INFINITY_THRESHOLD,
                        PathStatus.AT_INFINITY, BEYOND_INFINITY)
            self.samples = np.concatenate([self.samples, self.z[:, None, :]], axis=1)
            if k >= 2:
                d = np.abs(self.samples[:, -2:] - self.samples[:, -3:-1]).max(axis=2)
                grew = (d[:, 1] > d[:, 0]) & (d[:, 0] > FINAL_TOL)
                self.grew = np.where(grew, self.grew + 1, 0)
                self._leave(self.grew >= 3, PathStatus.STEP_FAILURE, NOT_CAUCHY)
            # The stop rule below compares each extrapolant with the one a
            # halving before, so form it when the next halving (at t_next / 2)
            # may stop, and at the cap, where finish() reads it.
            if k < ENDGAME_MAX_HALVINGS and t_next / 2.0 > ENDGAME_LAST_T_MAX:
                continue
            self.cycle = _cycle_numbers(self.samples)
            previous, self.extrap = self.extrap, _extrapolate(self.samples, self.cycle)
            if k >= 2 and t_next <= ENDGAME_LAST_T_MAX:
                self._leave(_norms(self.extrap - previous)
                            <= FINAL_TOL * (1.0 + _norms(self.extrap)))
        self.finish()

    def straight_to_zero(self):
        """Advance every row to t = 0 with no endgame; each row's point
        there is its limit, and the kept evaluation there starts its polish."""
        self.advance(0.0, MAIN_COLLAPSE)
        self.extrap = self.z
        value, jac, _ = self._evaluated(0.0)
        # the finished paths in index order, as _polish_limits takes them
        order = slice(None) if self.paths is None else self.idx.argsort()
        self.finish((value[order], jac[order]))

    def finish(self, first=None):
        """Record every row still on the stack as finished at its extrapolant
        and polish the limits (from first, as _polish_limits takes it)."""
        self._leave(np.ones(self.idx.size, dtype=bool))
        self._polish_limits(first)

    def _polish_limits(self, first=None):
        """Guarded Newton at t = 0 on every finished path's limit: keep the
        polished point only if it stays near the extrapolant and lowers the
        residual; a Jacobian lin_solve calls singular (kappa_inf >= 1e14 too)
        keeps the extrapolant.  Sets every finished path's function residual.
        first is H and dH/dz at every finished path's limit at t = 0, in
        path order, when the caller holds them."""
        done = np.array([i for i, s in enumerate(self.status) if s is None], dtype=int)
        if not done.size:
            return
        paths = None if done.size == len(self.status) else done
        ends = self.out_z[done]
        zero = np.zeros(done.size)
        value, jac = self.h.eval_batch(ends, zero, paths)[:2] if first is None else first
        res0 = _norms(value)
        zp = ends.copy()
        rows = np.arange(done.size)
        for it in range(3):
            if it:
                value, jac, _ = self.h.eval_batch(zp[rows], zero[rows], _paths_of(paths, rows))
            delta, _, ok = conditioned_solve_stack(jac, value[:, :, None])
            rows, delta = rows[ok], delta[ok, :, 0]
            if not rows.size:
                break
            zp[rows] -= delta
        if rows.size:
            res_p = _norms(self.h.eval_batch(zp[rows], zero[rows], _paths_of(paths, rows))[0])
            moved = _norms(zp[rows] - ends[rows])
            keep = (res_p < res0[rows]) & (moved <= 1e-4 * (1.0 + _norms(ends[rows])))
            rows = rows[keep]
            ends[rows], res0[rows] = zp[rows], res_p[keep]
            self.out_newton[done[rows]] = _norms(delta[keep])
        self.out_z[done] = ends
        self.out_fres[done] = res0

    def results(self) -> list[PathResult]:
        """PathResults, with the success gate applied to every finished path."""
        out_z = self.out_z
        gate = 1e-8 * np.maximum(1.0, _norms(out_z))
        for i, status in enumerate(self.status):
            if status is None:
                ok = self.out_fres[i] <= gate[i]
                self.status[i] = PathStatus.SUCCESS if ok else PathStatus.STEP_FAILURE
                self.reason[i] = None if ok else ABOVE_GATE
        return [PathResult(status=self.status[i], endpoint=out_z[i].copy(),
                           last_t=float(self.out_t[i]), cycle_number=int(self.out_cycle[i]),
                           newton_residual=float(self.out_newton[i]),
                           function_residual=float(self.out_fres[i]),
                           steps_taken=int(self.out_steps[i]), reason=self.reason[i])
                for i in range(out_z.shape[0])]


# -- entry points ------------------------------------------------------------------

def track_paths(h: Homotopy, starts, *, endgame: bool = True) -> list[PathResult]:
    """Track every start point's path of H from t = 1 to t = 0, in lock-step.

    Each start point must be finite and satisfy the start system (H at
    t = 1); otherwise StartPointInvalid is raised before any tracking.  A
    per-path homotopy (h.num_paths set) needs exactly one start per path,
    start i on path i; otherwise DimensionMismatch is raised.
    Results come in the order of the starts; a path's status classifies
    it: Success (finite endpoint with small target residual), AtInfinity,
    StepFailure, or MaxSteps, with the reason of a non-success.

    The step sizes and tolerances are the module's constants.  The paths
    are tracked to t = ENDGAME_START, and the endgame (entered only from
    here) drives them from there to their limits.  With endgame=False the
    paths advance straight to t = 0 and their endpoints are polished and
    gated as endgame limits are (cycle number 1, last_t 0).  Only paths
    known to end at nonsingular points should skip the endgame: a path to
    a singular endpoint then stalls or fails the gate.
    """
    try:
        z = np.array(starts, dtype=complex)
    except ValueError as exc:
        raise DimensionMismatch(f"start points of different lengths: {exc}") from None
    _check_path_count(h, len(z) if z.ndim else 1)
    if not z.size:
        return []
    if z.ndim != 2 or z.shape[1] != h.num_vars:
        raise DimensionMismatch(f"starts have shape {z.shape}, homotopy has {h.num_vars} variables")
    # one error state for the whole track: every solve in it is gesv_stack's
    with np.errstate(all="ignore"):
        value, jac, dt = h.eval_batch(z, np.ones(z.shape[0]))
        start_res = _norms(value)
        valid = np.isfinite(z).all(axis=1) & (start_res <= 1e-8 * (1.0 + _norms(z)))
        if not valid.all():
            i = int(np.flatnonzero(~valid)[0])
            raise StartPointInvalid(
                f"start point {i}: residual {start_res[i]:.3e} too large for a "
                "start-system solution")
        paths = _Paths(h, z, 1.0, (value, jac, dt))
        if endgame:
            paths.advance(ENDGAME_START, MAIN_COLLAPSE)
            paths.endgame()
        else:
            paths.straight_to_zero()
        return paths.results()


def track_path(h: Homotopy, z_start) -> PathResult:
    """Track one solution path of H from t = 1 to t = 0: track_paths of one start.

    The start point must satisfy the start system (H at t = 1); otherwise
    StartPointInvalid is raised.  The result status classifies the path:
    Success (finite endpoint with small target residual), AtInfinity,
    StepFailure, or MaxSteps.
    """
    return track_paths(h, _as_point(h, z_start)[None])[0]
