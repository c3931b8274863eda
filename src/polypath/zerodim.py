"""Zero-dimensional solving, deduplication, refinement, parameter homotopies.

The solver builds the total-degree start system g_i = z_i^(d_i) - 1, tracks
every product of roots of unity through the gamma-twisted straight-line
homotopy, then clusters finite endpoints into solutions with diagnostics.
Projective systems are solved on a random affine chart appended as an extra
equation.  Refinement is mixed-precision Newton: residuals in 160-bit
arithmetic, corrections from the hardware-precision Jacobian solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import mul

import mpmath
import numpy as np

from .algebra import (
    EXTENDED_PREC_BITS,
    Rng,
    condition_estimate,
    extended_precision,
    lin_solve,
    random_unit_complex,
    to_extended,
    vec_inf_norm,
)
from .errors import (
    DimensionMismatch,
    NotHomogeneous,
    NotSquare,
    RefinementDiverged,
    SingularMatrix,
)
from .polysys import Polynomial, PolySystem, _distinct_rows, affine_patch
from .tracker import (
    ParameterPathHomotopy,
    PathResult,
    PathStatus,
    straight_line_homotopy,
    track_paths,
)

DEDUPE_TOL = 1e-6


@dataclass(frozen=True)
class SolutionPoint:
    """One approximate solution with the standard diagnostic fields."""

    coordinates: tuple
    condition_number: float
    cycle_number: int
    function_residual: float
    last_t: float
    max_precision_bits: int
    newton_residual: float
    solution_number: int
    multiplicity: int = 1
    is_projective: bool = False

    def coordinate_array(self) -> np.ndarray:
        return np.array([complex(c) for c in self.coordinates], dtype=complex)


@dataclass(frozen=True)
class StartData:
    start_system: PolySystem
    start_points: list


def total_degree_start(system: PolySystem) -> StartData:
    """Total-degree start system z_i^(d_i) - 1 and all its roots.

    Start points are every product of d_i-th roots of unity, enumerated in
    lexicographic order of the index tuples.
    """
    if system.parameters:
        raise NotSquare("start systems require a parameter-free system")
    if system.n != system.num_vars:
        raise NotSquare(f"system is {system.n}x{system.num_vars}, not square")
    nv = system.num_vars
    degrees = system.degrees()
    if any(d < 1 for d in degrees):
        raise NotSquare("every polynomial needs positive degree in the variables")
    polys = []
    for i, d in enumerate(degrees):
        e = [0] * nv
        e[i] = d
        polys.append(Polynomial.from_terms(
            {tuple(e): 1.0 + 0.0j, tuple([0] * nv): -1.0 + 0.0j}, nv))
    g = PolySystem(system.variables, polys)
    roots = [np.exp(2j * np.pi * np.arange(d) / d) for d in degrees]
    points = [np.array(combo, dtype=complex)
              for combo in itertools.product(*roots)]
    return StartData(start_system=g, start_points=points)


def _clusters(points, *, projective: bool = False):
    """Greedy clustering: each point joins the first representative within
    DEDUPE_TOL (infinity norm), compared with all of them at once, or becomes
    a representative itself.  Projective ones are compared after dividing
    both by their coordinate at the representative's largest modulus, and a
    point whose coordinate there is at most DEDUPE_TOL times its largest
    never matches.  Returns the representatives' indices and cluster sizes."""
    reps: list[int] = []
    sizes: list[int] = []
    pts = np.array(points, dtype=complex)
    with np.errstate(all="ignore"):
        if projective and len(pts):
            big = np.argmax(np.abs(pts), axis=1)
            unit = pts / pts[np.arange(len(pts)), big][:, None]
            floor = DEDUPE_TOL * np.abs(pts).max(axis=1)
        for k, q in enumerate(pts):
            if projective:
                qi = q[big[reps]]
                near = np.abs(unit[reps] - q / qi[:, None]).max(axis=1) < DEDUPE_TOL
                near &= np.abs(qi) > floor[k]
            else:
                near = np.abs(pts[reps] - q).max(axis=1) < DEDUPE_TOL
            if near.any():
                sizes[int(np.argmax(near))] += 1
            else:
                reps.append(k)
                sizes.append(1)
    return reps, sizes


def dedupe(results: list[PathResult], *, projective: bool = False) -> list[SolutionPoint]:
    """Cluster successful path endpoints into solutions.

    Endpoints within DEDUPE_TOL join the first cluster they match (see
    _clusters), so the operation is idempotent.  Multiplicity records the
    cluster size.  The condition number is left NaN for the caller to fill
    in; zero_dim_solve and parameter_homotopy set it from the root.
    """
    ends = [res for res in results if res.status is PathStatus.SUCCESS]
    reps, sizes = _clusters([res.endpoint for res in ends], projective=projective)
    return [SolutionPoint(
        coordinates=tuple(complex(c) for c in ends[k].endpoint),
        condition_number=math.nan,
        cycle_number=ends[k].cycle_number,
        function_residual=ends[k].function_residual,
        last_t=ends[k].last_t,
        max_precision_bits=ends[k].max_precision_bits,
        newton_residual=ends[k].newton_residual,
        solution_number=i,
        multiplicity=count,
        is_projective=projective,
    ) for i, (k, count) in enumerate(zip(reps, sizes))]


def _solution_condition(system: PolySystem, z, *, projective: bool = False) -> float:
    """Chart-free condition number of a root, a property of the root alone.

    With zeta = (z, 1) for an affine root (zeta = z for a projective one) and
    its unit representative zeta^ = zeta / ||zeta||_2, this is the
    infinity-norm condition of the homogenized system's Jacobian at zeta^
    with the row zeta^H appended.  The homogenizing column follows from
    Euler's identity, d_i f_i(z) - sum_j z_j df_i/dz_j at h = 1, and row i
    of the Jacobian at zeta^ is its value at zeta scaled by
    ||zeta||^-(d_i - 1), so only the affine Jacobian is evaluated.  For a
    projective root, system is the homogeneous system without its chart.
    """
    z = np.asarray(z, dtype=complex)
    jac = system.jacobian(z)
    degrees = np.array(system.degrees())
    if projective:
        zeta = z
    else:
        zeta = np.append(z, 1.0)
        jac = np.column_stack([jac, degrees * system.evaluate(z) - jac @ z])
    norm = float(np.linalg.norm(zeta))
    jac = jac * (norm ** (1.0 - degrees))[:, None]
    return condition_estimate(np.vstack([jac, zeta.conj() / norm]))


def _diagnosed(sols, solved: PolySystem, system: PolySystem, *, projective: bool = False):
    """The solutions with their residual in solved and their chart-free
    condition number as roots of system (see _solution_condition)."""
    out = []
    for sp in sols:
        z = sp.coordinate_array()
        out.append(replace(
            sp, function_residual=float(vec_inf_norm(solved.evaluate(z))),
            condition_number=float(_solution_condition(system, z, projective=projective))))
    return out


def zero_dim_solve(system: PolySystem, *, projective: bool = False,
                   seed: int = 0) -> list[SolutionPoint]:
    """Find all isolated solutions of a square system.

    Tracks the full Bezout count of paths from the total-degree start system.
    With probability one the result contains every isolated root.  In
    projective mode the input must be homogeneous with one equation fewer
    than variables; solutions are then reported as raw representatives on a
    random affine chart.
    """
    if system.parameters:
        raise NotSquare("solve a specialization; the system still has parameters")
    rng = Rng(seed)
    if projective:
        if not system.is_homogeneous():
            raise NotHomogeneous("projective solving requires a homogeneous system")
        if system.n != system.num_vars - 1:
            raise NotSquare(
                f"projective solving needs n = N - 1, got n={system.n}, N={system.num_vars}")
        solved, _ = affine_patch(system, rng)
    else:
        if system.n != system.num_vars:
            raise NotSquare(f"system is {system.n}x{system.num_vars}, not square")
        solved = system
        # skip one draw, so that a seed gives the same gamma, and hence the
        # same paths, as in earlier versions
        rng.integers(2**63)

    gamma = random_unit_complex(rng)
    start = total_degree_start(solved)
    homotopy = straight_line_homotopy(solved, start.start_system, gamma)
    sols = dedupe(track_paths(homotopy, start.start_points), projective=projective)
    return _diagnosed(sols, solved, system, projective=projective)


# -- refinement ---------------------------------------------------------------

class _ExtendedSystem:
    """160-bit values of a parameter-free square system: refinement residuals.

    A call forms each distinct monomial of the system once, from a table of
    coordinate powers, and each polynomial is one dot product of its
    coefficients with its monomials (mpmath.fdot, rounded once).
    """

    def __init__(self, system: PolySystem):
        if system.parameters:
            raise DimensionMismatch("refinement needs a parameter-free system")
        if system.n != system.num_vars:
            raise NotSquare("refinement needs a square system")
        mons, where = _distinct_rows(np.vstack([p.exps for p in system.polys]))
        self.degrees = np.max(mons, axis=0, initial=0).tolist()
        # (variable, power) factors; the constant monomial is z_0^0 = 1
        self.monomials = [[(j, e) for j, e in enumerate(row) if e] or [(0, 0)]
                          for row in mons.tolist()]
        bounds = np.cumsum([0] + [p.coeffs.size for p in system.polys]).tolist()
        self.rows = [([to_extended(c) for c in p.coeffs], where[lo:hi].tolist())
                     for p, lo, hi in zip(system.polys, bounds, bounds[1:])]

    def evaluate(self, z):
        powers = [[1, zj] for zj in z]
        for pw, d in zip(powers, self.degrees):
            while len(pw) <= d:
                pw.append(pw[-1] * pw[1])
        mons = [reduce(mul, [powers[j][e] for j, e in factors])
                for factors in self.monomials]
        return [mpmath.fdot(coeffs, [mons[k] for k in idx])
                for coeffs, idx in self.rows]


def refine_solutions(system: PolySystem, points, digits: int) -> list[SolutionPoint]:
    """Sharpen solutions (SolutionPoints or coordinate lists) to 10^-digits.

    Mixed-precision Newton: each correction solves J(z) delta = -f(z) by
    lin_solve, with f evaluated at 160 bits and rounded to complex128 and J
    the hardware-precision Jacobian, and adds delta to the 160-bit iterate.
    A correction shrinks the error by about kappa_inf * 2^-53.  Stops when
    an update is at most 10^-digits relative in every coordinate (absolute
    below 1).  Raises RefinementDiverged when the Jacobian counts as
    singular (kappa_inf >= 1e14, see lin_solve) or the updates stop
    contracting, which signals a singular or wrong input point.
    """
    if not 1 <= digits <= 30:
        raise ValueError("digits must be between 1 and 30")
    tol = 10.0 ** -digits
    out = []
    with extended_precision():
        ext = _ExtendedSystem(system)
        for sp in points:
            if not isinstance(sp, SolutionPoint):
                sp = SolutionPoint(
                    coordinates=tuple(sp), condition_number=math.nan, cycle_number=1,
                    function_residual=math.nan, last_t=0.0, max_precision_bits=53,
                    newton_residual=math.nan, solution_number=len(out))
            z = [to_extended(c) for c in sp.coordinates]
            updates = []
            for _ in range(30):
                fval = [complex(v) for v in ext.evaluate(z)]
                try:
                    delta = lin_solve(system.jacobian([complex(zi) for zi in z]),
                                      np.negative(fval)).tolist()
                except SingularMatrix as exc:
                    raise RefinementDiverged(
                        "singular Jacobian during sharpening (refinement needs "
                        f"kappa_inf < 1e14 at hardware precision): {exc}") from exc
                z = [zi + di for zi, di in zip(z, delta)]
                updates.append(max(abs(di) for di in delta))
                if max(abs(di) / max(1.0, abs(complex(zi)))
                       for zi, di in zip(z, delta)) <= tol:
                    break
                if len(updates) >= 5 and updates[-1] > updates[-2] >= updates[-3]:
                    raise RefinementDiverged("Newton updates stopped contracting")
            else:
                raise RefinementDiverged(
                    f"no agreement to {digits} digits within 30 iterations")
            out.append(replace(
                sp, coordinates=tuple(z), max_precision_bits=EXTENDED_PREC_BITS,
                function_residual=float(max(abs(v) for v in ext.evaluate(z))),
                newton_residual=updates[-1]))
    return out


# -- parameter homotopy ---------------------------------------------------------

class ParameterHomotopyResult(list):
    """Per-tuple solution lists plus the stage-1 bookkeeping."""

    def __init__(self, solution_sets, start_parameters, paths_per_tuple):
        super().__init__(solution_sets)
        self.start_parameters = start_parameters
        self.paths_per_tuple = paths_per_tuple


def parameter_homotopy(family: PolySystem, param_names, value_tuples,
                       *, seed: int = 0) -> ParameterHomotopyResult:
    """Two-stage parameter homotopy over a parameterized family.

    Stage 1 assigns a random unit-modulus complex value to every parameter
    and solves that specialization from scratch; stage 2 tracks each
    nonsingular stage-1 solution to every requested parameter tuple, so each
    tuple costs exactly the generic root count in paths.  The paths of all
    tuples are tracked as one batch, each at its own tuple's parameters.
    """
    if not family.parameters:
        raise DimensionMismatch("family has no parameters")
    if family.n != family.num_vars:
        raise NotSquare("family must be square in its variables")
    names = list(param_names)
    if sorted(names) != sorted(family.parameters):
        raise DimensionMismatch(
            f"parameter names {names} do not match the family's {list(family.parameters)}")
    perm = [names.index(p) for p in family.parameters]
    tuples = []
    for tup in value_tuples:
        tup = list(tup)
        if len(tup) != len(names):
            raise DimensionMismatch(
                f"tuple {tup} should have {len(names)} entries")
        tuples.append(np.array([complex(tup[j]) for j in perm], dtype=complex))

    rng = Rng(seed)
    p0 = np.atleast_1d(rng.unit_complex(len(names)))
    stage1_system = family.specialize(p0)
    stage1 = zero_dim_solve(stage1_system, seed=rng.integers(2**63))
    stage1 = [sp for sp in stage1
              if sp.cycle_number == 1 and sp.multiplicity == 1
              and math.isfinite(sp.condition_number) and sp.condition_number < 1e12]

    # every tuple's paths as one batch: path (tuple j, root i) runs from p0
    # to tuple j
    starts = [sp.coordinate_array() for sp in stage1]
    k = len(starts)
    targets = np.array(tuples, dtype=complex).reshape(len(tuples), len(names))
    homotopy = ParameterPathHomotopy(family, p0, np.repeat(targets, k, axis=0))
    results = track_paths(homotopy, starts * len(tuples))
    solution_sets = []
    for j, p1 in enumerate(tuples):
        target = family.specialize(p1)
        solution_sets.append(_diagnosed(dedupe(results[j * k:(j + 1) * k]), target, target))
    return ParameterHomotopyResult(solution_sets, p0, len(stage1))
