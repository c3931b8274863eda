"""Predictor-corrector path tracking with a geometric-sequence endgame.

Every homotopy is a ParameterPathHomotopy: a parameterized family F(z; p)
followed along the segment p(t) = t p_start + (1-t) p_target, so
H(z,t) = F(z; p(t)), and dH/dt = dF/dp (p_start - p_target) comes from the
family's parameter partials.  The gamma-trick straight line
(1-t) f + gamma t g is the family u f + v g from (u, v) = (0, gamma) to
(1, 0); a slice move does the same for the slice rows of a witness system.

Paths are tracked from t = 1 to the endgame boundary with an RK4 predictor
on the Davidenko ODE dz/dt = -(dH/dz)^-1 dH/dt and a short Newton corrector
at fixed t.  From the boundary, the endgame samples the path at
t_k = t_EG * 2^-k, estimates the winding (cycle) number from the geometric
convergence rate of the samples, and Richardson-extrapolates in t^(1/c) to
the limit point.  Tracking runs entirely at hardware precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import lin_solve, condition_estimate, vec_inf_norm
from .errors import (
    DimensionMismatch,
    EndgameDivergence,
    SingularMatrix,
    StartPointInvalid,
)
from .polysys import LinearSlice, Polynomial, PolySystem


class PathStatus(Enum):
    SUCCESS = "Success"
    AT_INFINITY = "AtInfinity"
    STEP_FAILURE = "StepFailure"
    MAX_STEPS = "MaxSteps"


@dataclass(frozen=True)
class TrackerConfig:
    initial_step: float = 0.1
    min_step: float = 1e-7
    max_step: float = 0.1
    corrector_tol: float = 1e-7
    newton_iterations: int = 3
    growth_successes: int = 5        # consecutive successes before growing
    step_growth: float = 2.0
    step_shrink: float = 0.5
    endgame_start: float = 0.1
    final_tol: float = 1e-11
    infinity_threshold: float = 1e8
    max_steps: int = 100_000
    predictor: str = "rk4"           # "rk4" or "euler"
    endgame_max_halvings: int = 12
    endgame_last_t_max: float = 1e-3  # every Success must report lastT below this

    def __post_init__(self):
        if not 0.0 < self.min_step < self.max_step <= self.endgame_start <= 1.0:
            raise ValueError(
                "need 0 < min_step < max_step <= endgame_start <= 1")
        if self.predictor not in ("rk4", "euler"):
            raise ValueError(f"unknown predictor {self.predictor!r}")


@dataclass(frozen=True)
class PathResult:
    status: PathStatus
    endpoint: np.ndarray
    last_t: float
    cycle_number: int
    newton_residual: float
    function_residual: float
    condition_number: float
    steps_taken: int
    max_precision_bits: int = 53


class Homotopy:
    """One-parameter family H(z, t); subclasses supply eval()."""

    num_vars: int

    def eval(self, z, t):
        """Return (H(z,t), dH/dz, dH/dt)."""
        raise NotImplementedError


class ParameterPathHomotopy(Homotopy):
    """H(z,t) = F(z; t p_start + (1-t) p_target) for a parameterized family."""

    def __init__(self, family: PolySystem, p_start, p_target):
        if not family.parameters:
            raise DimensionMismatch("family has no parameters")
        p_start = np.asarray(p_start, dtype=complex)
        p_target = np.asarray(p_target, dtype=complex)
        if p_start.shape[0] != len(family.parameters) or p_target.shape[0] != len(family.parameters):
            raise DimensionMismatch("parameter vectors must match the family's parameter count")
        self.family = family
        self.p_start = p_start
        self.p_target = p_target
        self.num_vars = family.num_vars
        self._kernel = family.kernel
        self._dp = p_start - p_target

    def eval(self, z, t):
        p = t * self.p_start + (1.0 - t) * self.p_target
        # rows [F | dF/dz | dF/dp] of the family's kernel
        out = self._kernel(np.concatenate([z, p]))
        nv = 1 + self.num_vars
        return out[:, 0], out[:, 1:nv], out[:, nv:] @ self._dp


def _lift(p: Polynomial, a: int, b: int):
    """Terms of p times u^a v^b, over two appended exponent columns (u, v)."""
    uv = np.broadcast_to(np.array([a, b], dtype=np.int64), (p.exps.shape[0], 2))
    return np.hstack([p.exps, uv]), p.coeffs


def _gamma_path(variables, fixed, target, start, gamma) -> ParameterPathHomotopy:
    """The path of [fixed; u target + v start] from (u, v) = (0, gamma) to (1, 0).

    At path time t the parameters are (1 - t, gamma t), so
    H = [fixed; (1-t) target + gamma t start] and dH/dt = [0; gamma start - target].
    """
    width = len(variables) + 2
    rows = [Polynomial(*_lift(p, 0, 0), width=width) for p in fixed]
    for f, g in zip(target, start):
        (ef, cf), (eg, cg) = _lift(f, 1, 0), _lift(g, 0, 1)
        rows.append(Polynomial(np.vstack([ef, eg]), np.concatenate([cf, cg]), width=width))
    family = PolySystem(variables, rows, ("u", "v"))
    return ParameterPathHomotopy(family, [0.0, gamma], [1.0, 0.0])


def straight_line_homotopy(target: PolySystem, start: PolySystem,
                           gamma: complex) -> ParameterPathHomotopy:
    """H(z,t) = (1-t) f(z) + gamma t g(z): the gamma trick as a parameter path."""
    if target.variables != start.variables or target.n != start.n:
        raise DimensionMismatch("target and start systems must share variables and size")
    if target.parameters or start.parameters:
        raise DimensionMismatch("straight-line homotopy needs parameter-free systems")
    return _gamma_path(target.variables, [], target.polys, start.polys, gamma)


def slice_move_homotopy(fixed: PolySystem, source: LinearSlice,
                        target: LinearSlice, gamma: complex) -> ParameterPathHomotopy:
    """Fixed polynomial rows plus an interpolating linear slice.

    H(z,t) = [ fixed(z) ; (1-t) L_target(z) + gamma t L_source(z) ].
    """
    if source.codim != target.codim:
        raise DimensionMismatch("source and target slices must share codimension")
    if fixed.n + target.codim != fixed.num_vars:
        raise DimensionMismatch("fixed rows plus slice rows must be square")
    width = fixed.num_vars
    return _gamma_path(fixed.variables, fixed.polys, target.as_polynomials(width),
                       source.as_polynomials(width), gamma)


def _as_point(h: Homotopy, z):
    """z as a complex vector of h's length; eval itself does not check it."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (h.num_vars,):
        raise DimensionMismatch(f"point has shape {z.shape}, homotopy has {h.num_vars} variables")
    return z


def homotopy_eval(homotopy: Homotopy, z, t):
    """(value, dH/dz, dH/dt) at a point; t in [0, 1]."""
    return homotopy.eval(_as_point(homotopy, z), float(t))


# -- stepping primitives -----------------------------------------------------

def _tangent(h: Homotopy, z, t):
    _, dz, dt = h.eval(z, t)
    return lin_solve(dz, -dt)


def _predict(h: Homotopy, z, t, step, scheme):
    """One explicit predictor step of signed size `step` in t."""
    if scheme == "euler":
        return z + step * _tangent(h, z, t)
    k1 = _tangent(h, z, t)
    k2 = _tangent(h, z + 0.5 * step * k1, t + 0.5 * step)
    k3 = _tangent(h, z + 0.5 * step * k2, t + 0.5 * step)
    k4 = _tangent(h, z + step * k3, t + step)
    return z + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _correct(h: Homotopy, z, t, tol, max_iters):
    """Newton at fixed t.  Returns (point, residual, last_update, converged)."""
    z = np.array(z, dtype=complex)
    update = 0.0
    for _ in range(max_iters):
        value, dz, _ = h.eval(z, t)
        res = vec_inf_norm(value)
        if not math.isfinite(res):
            return z, res, update, False
        if res <= tol:
            return z, res, update, True
        delta = lin_solve(dz, -value)
        z = z + delta
        update = vec_inf_norm(delta)
    value, _, _ = h.eval(z, t)
    res = vec_inf_norm(value)
    return z, res, update, res <= tol


def _endgame_correct(h, z, t, tol, max_iters):
    """_correct inside the endgame, where a singular Jacobian ends the path."""
    try:
        return _correct(h, z, t, tol, max_iters)
    except SingularMatrix as exc:
        raise EndgameDivergence(f"singular Jacobian at t = {t:.3g}") from exc


class _AtInfinity(EndgameDivergence):
    """The tracked point escaped past the infinity threshold."""


class _StepBudgetExhausted(Exception):
    pass


class _Advancer:
    """Adaptive stepping shared by the main phase and the endgame legs.

    Stands in for the homotopy in the stepping primitives: its eval
    remembers the last evaluation, so the predictor's first tangent after
    an accepted step reuses the corrector's final evaluation at the same
    (z, t) instead of evaluating H again.
    """

    def __init__(self, h: Homotopy, cfg: TrackerConfig):
        self.h = h
        self.cfg = cfg
        self.steps = 0
        self.step_size = cfg.initial_step
        self.successes = 0
        self._last_key = None
        self._last = None

    def eval(self, z, t):
        key = (z.tobytes(), t)
        if key != self._last_key:
            self._last_key, self._last = key, self.h.eval(z, t)
        return self._last

    def advance(self, z, t_from, t_to):
        cfg = self.cfg
        t = t_from
        z = np.asarray(z, dtype=complex)
        while t > t_to + 1e-16:
            if self.steps >= cfg.max_steps:
                raise _StepBudgetExhausted
            self.steps += 1
            h_step = min(self.step_size, t - t_to)
            ok = False
            try:
                zp = _predict(self, z, t, -h_step, cfg.predictor)
                if np.all(np.isfinite(zp)):
                    zc, _, _, ok = _correct(self, zp, t - h_step,
                                            cfg.corrector_tol, cfg.newton_iterations)
            except SingularMatrix:
                ok = False
            if ok:
                z = zc
                t -= h_step
                if vec_inf_norm(z) > cfg.infinity_threshold:
                    raise _AtInfinity
                self.successes += 1
                if self.successes >= cfg.growth_successes:
                    self.step_size = min(self.step_size * cfg.step_growth, cfg.max_step)
                    self.successes = 0
            else:
                self.successes = 0
                self.step_size *= cfg.step_shrink
                if self.step_size < cfg.min_step:
                    raise EndgameDivergence("step size fell below the minimum")
        return z


# -- endgame -----------------------------------------------------------------

@dataclass(frozen=True)
class EndgameResult:
    endpoint: np.ndarray
    cycle_number: int
    last_t: float
    newton_residual: float
    function_residual: float
    steps_taken: int


def _estimate_cycle(samples, final_tol):
    """Winding number from the geometric decay ratio of sample differences.

    Consecutive samples halve t, so differences of a cycle-c path shrink by
    2^(-1/c); the inverse map recovers c.  Converged (tiny) differences mean
    a regular endpoint, cycle 1.
    """
    diffs = [vec_inf_norm(samples[i + 1] - samples[i])
             for i in range(len(samples) - 1)]
    ratios = []
    for a, b in zip(diffs[:-1], diffs[1:]):
        if a <= final_tol or b <= final_tol:
            continue
        r = b / a
        if 0.0 < r < 0.95:
            ratios.append(r)
    if not ratios:
        return 1
    tail = ratios[-3:]
    tail.sort()
    r = tail[len(tail) // 2]
    c = math.log(2.0) / -math.log(r)
    return min(max(1, round(c)), 8)


def _extrapolate(samples, cycle, max_level=4):
    """Richardson extrapolation in s = t^(1/cycle) over geometric samples."""
    r = 0.5 ** (1.0 / cycle)
    tab = [np.array(s) for s in samples[-(max_level + 1):]]
    level = 1
    while len(tab) > 1:
        rm = r ** level
        tab = [(tab[i + 1] - rm * tab[i]) / (1.0 - rm) for i in range(len(tab) - 1)]
        level += 1
    return tab[0]


def endgame(h: Homotopy, z_boundary, cfg: TrackerConfig | None = None) -> EndgameResult:
    """Drive a path from the endgame boundary to its limit at t = 0.

    Samples the path at t_k = t_EG * 2^-k, stops once two consecutive
    extrapolants agree within final_tol (never before lastT is at or below
    endgame_last_t_max) or at the halving cap, then polishes the limit
    against H(. , 0) when Newton stays consistent with the extrapolation.

    Raises EndgameDivergence when the samples are not Cauchy or a Newton
    correction meets a singular Jacobian.
    """
    cfg = cfg or TrackerConfig()
    adv = _Advancer(h, cfg)
    adv.step_size = min(cfg.initial_step, cfg.endgame_start / 2.0)

    t = cfg.endgame_start
    z, _, upd, ok = _endgame_correct(adv, _as_point(h, z_boundary), t,
                                     cfg.corrector_tol, cfg.newton_iterations + 3)
    if not ok:
        raise EndgameDivergence("could not correct the boundary point")
    z, _, upd, _ = _endgame_correct(adv, z, t, 1e-13 * (1.0 + vec_inf_norm(z)), 6)
    samples = [z]
    newton_res = upd
    extrap = z
    extrap_prev = None
    cycle = 1
    grew = 0

    for k in range(1, cfg.endgame_max_halvings + 1):
        t_next = cfg.endgame_start * 0.5 ** k
        z = adv.advance(z, t, t_next)
        # polish the sample beyond the tracking tolerance so extrapolation
        # sees tracking noise well below final_tol
        z, _, upd, _ = _endgame_correct(adv, z, t_next, 1e-13 * (1.0 + vec_inf_norm(z)), 6)
        t = t_next
        if vec_inf_norm(z) > cfg.infinity_threshold:
            raise _AtInfinity
        newton_res = upd
        samples.append(z)

        d_prev = vec_inf_norm(samples[-2] - samples[-3]) if len(samples) > 2 else None
        d_cur = vec_inf_norm(samples[-1] - samples[-2])
        grew = grew + 1 if (d_prev is not None and d_cur > d_prev > cfg.final_tol) else 0
        if grew >= 3:
            raise EndgameDivergence("endgame samples are not Cauchy")

        cycle = _estimate_cycle(samples, cfg.final_tol)
        extrap = _extrapolate(samples, cycle)
        if (extrap_prev is not None and t <= cfg.endgame_last_t_max
                and vec_inf_norm(extrap - extrap_prev)
                <= cfg.final_tol * (1.0 + vec_inf_norm(extrap))):
            break
        extrap_prev = extrap

    endpoint = extrap
    # guarded polish at t = 0: keep it only if Newton stays near the
    # extrapolant and actually reduces the residual
    res0 = vec_inf_norm(h.eval(endpoint, 0.0)[0])
    zp = np.array(endpoint)
    try:
        for _ in range(3):
            value, dz, _ = h.eval(zp, 0.0)
            delta = lin_solve(dz, -value)
            zp = zp + delta
        res_p = vec_inf_norm(h.eval(zp, 0.0)[0])
        moved = vec_inf_norm(zp - endpoint)
        if res_p < res0 and moved <= 1e-4 * (1.0 + vec_inf_norm(endpoint)):
            newton_res = vec_inf_norm(delta)
            endpoint = zp
            res0 = res_p
    except SingularMatrix:
        pass

    return EndgameResult(
        endpoint=endpoint,
        cycle_number=cycle,
        last_t=t,
        newton_residual=newton_res,
        function_residual=res0,
        steps_taken=adv.steps,
    )


# -- full path ---------------------------------------------------------------

def track_path(h: Homotopy, z_start, cfg: TrackerConfig | None = None) -> PathResult:
    """Track one solution path of H from t = 1 to t = 0.

    The start point must satisfy the start system (H at t = 1); otherwise
    StartPointInvalid is raised.  The result status classifies the path:
    Success (finite endpoint with small target residual), AtInfinity,
    StepFailure, or MaxSteps.
    """
    cfg = cfg or TrackerConfig()
    z0 = _as_point(h, z_start)
    start_res = vec_inf_norm(h.eval(z0, 1.0)[0])
    if start_res > 1e-8 * (1.0 + vec_inf_norm(z0)):
        raise StartPointInvalid(
            f"start residual {start_res:.3e} too large for a start-system solution"
        )

    adv = _Advancer(h, cfg)

    def _result(status, z, last_t, cyc=1, newt=0.0, fres=math.inf):
        cond = _endpoint_condition(h, z)
        return PathResult(status=status, endpoint=np.asarray(z, complex),
                          last_t=float(last_t), cycle_number=int(cyc),
                          newton_residual=float(newt), function_residual=float(fres),
                          condition_number=cond, steps_taken=adv.steps)

    z = z0
    try:
        z = adv.advance(z, 1.0, cfg.endgame_start)
    except _AtInfinity:
        return _result(PathStatus.AT_INFINITY, z, cfg.endgame_start)
    except _StepBudgetExhausted:
        return _result(PathStatus.MAX_STEPS, z, cfg.endgame_start)
    except EndgameDivergence:
        return _result(PathStatus.STEP_FAILURE, z, cfg.endgame_start)

    try:
        eg = endgame(h, z, cfg)
    except _AtInfinity:
        return _result(PathStatus.AT_INFINITY, z, cfg.endgame_start)
    except _StepBudgetExhausted:
        return _result(PathStatus.MAX_STEPS, z, cfg.endgame_start)
    except EndgameDivergence:
        return _result(PathStatus.STEP_FAILURE, z, cfg.endgame_start)
    adv.steps += eg.steps_taken

    endpoint = eg.endpoint
    gate = 1e-8 * max(1.0, vec_inf_norm(endpoint))
    status = PathStatus.SUCCESS if eg.function_residual <= gate else PathStatus.STEP_FAILURE
    return _result(status, endpoint, eg.last_t, eg.cycle_number,
                   eg.newton_residual, eg.function_residual)


def _endpoint_condition(h: Homotopy, z) -> float:
    try:
        _, dz, _ = h.eval(np.asarray(z, complex), 0.0)
    except (ValueError, FloatingPointError):
        return math.inf
    if not np.all(np.isfinite(dz)):
        return math.inf
    return condition_estimate(dz)
