"""Zero-dimensional solving, deduplication, refinement, parameter homotopies.

The solver builds the total-degree start system g_i = z_i^(d_i) - 1, tracks
every product of roots of unity through the gamma-twisted straight-line
homotopy, then clusters finite endpoints into solutions with diagnostics.
Projective systems are solved on a random affine chart appended as an extra
equation.  Refinement is mixed-precision Newton on all roots in lock-step:
residuals computed exactly in integers at the 160-bit iterates and rounded
once, corrections from one stacked hardware-precision Jacobian solve.
The 160-bit iterates are dyadic rationals m * 2**e in Python integers from
the decimal strings they are read from to the strings the CLI prints, or to
the exact Fractions refine_solutions returns.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebra import (
    Rng,
    conditioned_solve_stack,
    random_unit_complex,
    singular_reason,
)
from .errors import (
    DimensionMismatch,
    NotHomogeneous,
    NotSquare,
    PathFailure,
    RefinementDiverged,
)
from .polysys import MonomialKernel, Polynomial, PolySystem, _distinct_rows, affine_patch
from .tracker import (
    FINAL_TOL,
    ParameterPathHomotopy,
    PathResult,
    PathStatus,
    straight_line_homotopy,
    track_paths,
)

DEDUPE_TOL = 1e-6

# Mantissa bits of refinement iterates.  106 bits (double-double) is the
# floor needed for 30-digit output; 160 leaves headroom.
EXTENDED_PREC_BITS = 160

# A decimal string's exponent, as fractions.Fraction reads it, and the
# largest magnitude read: reading forms 10**|exponent| exactly.
_DECIMAL_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
_MAX_DECIMAL_EXPONENT = 10_000
# A plain decimal literal, what the CLI prints and JSON files carry: blanks,
# a sign, digits with an optional point (a digit on either side), an
# optional exponent, blanks.  Its digits and exponent as groups 2-4.
_PLAIN_DECIMAL = re.compile(r"\s*([-+]?)(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+))?\s*\Z")


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


def _close(a, b):
    """The (len(a), len(b)) mask of the pairs of rows of a and b (points)
    within DEDUPE_TOL of each other in the infinity norm, strictly: the one
    test of "the same point"."""
    return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2) < DEDUPE_TOL


def _clusters(points, *, projective: bool = False):
    """Greedy clustering of a sequence of points (arrays of length N): each
    point joins the first representative it is close to (_close), compared
    with all of them at once, or becomes a representative itself.
    Projective ones are compared after dividing both by their coordinate at
    the representative's largest modulus, and a point whose coordinate there
    is at most DEDUPE_TOL times its largest never matches.  Returns the
    representatives' indices into points and the cluster sizes, in the
    order of the representatives."""
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
                near = _close(pts[reps], pts[k:k + 1])[:, 0]
            if near.any():
                sizes[int(np.argmax(near))] += 1
            else:
                reps.append(k)
                sizes.append(1)
    return reps, sizes


def _clustered(results, *, projective: bool = False):
    """The successful results that represent a cluster (see _clusters), and
    the cluster sizes."""
    ends = [res for res in results if res.status is PathStatus.SUCCESS]
    reps, sizes = _clusters([res.endpoint for res in ends], projective=projective)
    return [ends[k] for k in reps], sizes


def _solution(number: int, res: PathResult, multiplicity: int, residual: float,
              kappa: float, projective: bool) -> SolutionPoint:
    return SolutionPoint(
        coordinates=tuple(complex(c) for c in res.endpoint),
        condition_number=kappa,
        cycle_number=res.cycle_number,
        function_residual=residual,
        last_t=res.last_t,
        max_precision_bits=res.max_precision_bits,
        newton_residual=res.newton_residual,
        solution_number=number,
        multiplicity=multiplicity,
        is_projective=projective,
    )


def dedupe(results: list[PathResult], *, projective: bool = False) -> list[SolutionPoint]:
    """Cluster successful path endpoints into solutions.

    Endpoints within DEDUPE_TOL join the first cluster they match (see
    _clusters), so the operation is idempotent.  Multiplicity records the
    cluster size.  The function residual is the tracker's and the condition
    number is left NaN; zero_dim_solve and parameter_homotopy diagnose their
    roots with _solution_sets instead.
    """
    return [_solution(i, res, count, res.function_residual, math.nan, projective)
            for i, (res, count) in enumerate(zip(*_clustered(results, projective=projective)))]


def _conditions(table, z, degrees, *, projective: bool = False):
    """Chart-free condition numbers of a stack of roots z (m, N), each a
    property of its root alone, from the kernel table of the system at z
    (m, n, 1 + N) and the degrees of its polynomials in the variables, one
    row (n,) for every root or one per root (m, n).

    With zeta = (z, 1) for an affine root (zeta = z for a projective one) and
    its unit representative zeta^ = zeta / ||zeta||_2, this is the
    infinity-norm condition of the homogenized system's Jacobian at zeta^
    with the row zeta^H appended.  The homogenizing column follows from
    Euler's identity, d_i f_i(z) - sum_j z_j df_i/dz_j at h = 1, and row i
    of the Jacobian at zeta^ is its value at zeta scaled by
    ||zeta||^-(d_i - 1), so only the affine Jacobian is needed.  For a
    projective root, the system is the homogeneous system without its
    chart.  Singular means what it means for condition_estimate, and gives
    inf.
    """
    jac = table[:, :, 1:]
    if projective:
        zeta = z
    else:
        zeta = np.column_stack([z, np.ones(len(z))])
        euler = degrees * table[:, :, 0] - (jac @ z[:, :, None])[:, :, 0]
        jac = np.concatenate([jac, euler[:, :, None]], axis=2)
    norm = np.linalg.norm(zeta, axis=1)
    jac = jac * (norm[:, None] ** (1.0 - degrees))[:, :, None]
    a = np.concatenate([jac, (zeta.conj() / norm[:, None])[:, None, :]], axis=1)
    _, kappa, ok = conditioned_solve_stack(a, np.zeros(a.shape[:2] + (0,)))
    return np.where(ok, np.maximum(kappa, 1.0), math.inf)


def _solution_sets(clustered, z, table, degrees, residuals=None, *,
                   projective: bool = False) -> list[list[SolutionPoint]]:
    """The SolutionPoints of every set of clustered results, numbered within
    each set.  clustered holds one (results, sizes) pair of _clustered per
    set, and z (m, N) the stack of all their endpoints, set after set.  A
    root's condition number comes from table, the kernel table of its system
    at z, and degrees (see _conditions); its function_residual is its
    largest |f_i| in table, or in residuals, the table of another system at
    z."""
    values = (table if residuals is None else residuals)[:, :, 0]
    diagnostics = zip(np.abs(values).max(axis=1).tolist(),
                      _conditions(table, z, degrees, projective=projective).tolist())
    return [[_solution(i, res, count, *next(diagnostics), projective)
             for i, (res, count) in enumerate(zip(ends, sizes))]
            for ends, sizes in clustered]


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
    ends, sizes = _clustered(track_paths(homotopy, start.start_points), projective=projective)
    if not ends:
        return []
    # the condition numbers are those of roots of system, without the chart;
    # a projective root's residual is the patched system's
    z = np.array([res.endpoint for res in ends])
    return _solution_sets([(ends, sizes)], z, system.kernel(z), np.array(system.degrees()),
                          solved.kernel(z) if projective else None, projective=projective)[0]


# -- refinement ---------------------------------------------------------------

def _float(m: int, e: int) -> float:
    """m * 2**e rounded to the nearest float (ties to even), +-inf past the
    float range: Python's int-to-float and int / int are correctly rounded,
    and so is ldexp of a float when the result is a normal number."""
    bits = m.bit_length()
    try:
        if bits <= 1000 and bits + e > -1021:
            return math.ldexp(float(m), e)
        return float(m << e) if e >= 0 else m / (1 << -e)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def _round_bits(m: int, e: int):
    """m * 2**e rounded to a mantissa of at most EXTENDED_PREC_BITS bits,
    ties to even."""
    excess = abs(m).bit_length() - EXTENDED_PREC_BITS
    if excess <= 0:
        return m, e
    q, r = divmod(abs(m), 1 << excess)
    half = 1 << (excess - 1)
    if r > half or (r == half and q & 1):
        q += 1
    if q >> EXTENDED_PREC_BITS:  # rounded up to 2**EXTENDED_PREC_BITS
        q, excess = q >> 1, excess + 1
    return (q if m > 0 else -q), e + excess


def _quotient(num: int, den: int, e: int):
    """num / den * 2**e rounded to EXTENDED_PREC_BITS bits, ties to even,
    for den > 0."""
    # a quotient of at least 162 bits whose lowest bit is sticky (set when
    # the division is inexact) rounds as the exact quotient does
    shift = max(EXTENDED_PREC_BITS + 2 - abs(num).bit_length() + den.bit_length(), 0)
    q, r = divmod(abs(num) << shift, den)
    q |= r > 0
    return _round_bits(q if num > 0 else -q, e - shift)


def _check_exponent(x: str, exponent) -> None:
    """ValueError when exponent, the decimal exponent of x as a digit string
    (None if x has none), exceeds _MAX_DECIMAL_EXPONENT in magnitude:
    reading x exactly would form 10**|exponent|, at a cost in time and
    memory that grows with it."""
    if exponent and abs(int(exponent)) > _MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent of {x.strip()!r} exceeds "
                         f"{_MAX_DECIMAL_EXPONENT} in magnitude")


def _dyadic(x):
    """x rounded to EXTENDED_PREC_BITS bits, ties to even, as (m, e) with
    value m * 2**e, or None when x is inf or nan.  x is a float, a Fraction,
    an int or a decimal string, which is read exactly first, as
    fractions.Fraction reads it ("1/3" too); "inf", "+inf", "-inf" and "nan"
    are the non-finite strings.  Only the value is defined: one number can
    come as more than one pair."""
    if isinstance(x, str):
        plain = _PLAIN_DECIMAL.match(x)
        # int() refuses more than 4300 digits, which Fraction reads when
        # they lie on both sides of the point
        if plain and len(x) < 4000:
            sign, whole, frac, power = plain.groups(default="")
            _check_exponent(x, power)
            # the value is m * 10**power
            m, power = int(sign + whole + frac), int(power or 0) - len(frac)
            if not m:
                return 0, 0
            if power >= 0:
                return _round_bits(m * 10 ** power, 0)
            return _quotient(m, 5 ** -power, power)
        if x.strip().lower() in ("inf", "+inf", "-inf", "nan"):
            return None
        exponent = _DECIMAL_EXPONENT.search(x)
        _check_exponent(x, exponent and exponent[1])
        x = Fraction(x)
    elif isinstance(x, float) and not math.isfinite(x):
        return None
    elif not isinstance(x, (float, Fraction)):
        x = Fraction(x)  # an int; a TypeError for what is not a number
    num, den = x.as_integer_ratio()
    if not den & (den - 1):
        return _round_bits(num, 1 - den.bit_length())
    return _quotient(num, den, 0)


def _nearest_float(x) -> float:
    """x, in any form _dyadic reads and under the same exponent bound,
    rounded once to the nearest float, ties to even, +-inf past the float
    range: float() of a decimal string and int / int both round so."""
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        plain = _PLAIN_DECIMAL.match(x)
        if plain or x.strip().lower() in ("inf", "+inf", "-inf", "nan"):
            _check_exponent(x, plain and plain[4])
            return float(x)
        exponent = _DECIMAL_EXPONENT.search(x)
        _check_exponent(x, exponent and exponent[1])
    num, den = Fraction(x).as_integer_ratio()  # a TypeError for what is not a number
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _fraction(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


class ExactComplex(NamedTuple):
    """A complex number with exact rational parts: a refined coordinate."""

    real: Fraction
    imag: Fraction

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))


class _DyadicComplex(tuple):
    """A coordinate read already: its (re, im) parts as _dyadic returns them."""


def _dyadic_point(coordinates):
    """A point as ((re_m, re_e), (im_m, im_e)) per coordinate, or None if a
    coordinate is not finite.  Coordinates are _DyadicComplex values, (re,
    im) pairs, ExactComplex among them, whose parts _dyadic reads at 160
    bits, or anything complex() takes."""
    out = []
    for c in coordinates:
        if not isinstance(c, _DyadicComplex):
            if not isinstance(c, tuple):
                c = complex(c)
                c = (c.real, c.imag)
            c = (_dyadic(c[0]), _dyadic(c[1]))
        if None in c:
            return None
        out.append(c)
    return out


def _complex(point) -> list:
    """A dyadic point rounded to complex128, as a list of Python complex."""
    return [complex(_float(*re), _float(*im)) for re, im in point]


class _ExactSystem:
    """Exact values of a parameter-free square system at dyadic points,
    rounded once to complex128: refinement residuals.

    Coordinates (160-bit binary floats) and coefficients (complex128) are
    dyadic rationals m * 2**e.  A call writes the point's coordinates as
    Gaussian integers over one common exponent e0 <= 0, forms the distinct
    monomials of the system as a chain of products, each a monomial formed
    before times one coordinate, sums each polynomial's terms exactly in
    Python integers, scaled to the polynomial's largest degree, and rounds
    the sum once (+-inf past the float range).
    """

    def __init__(self, system: PolySystem):
        if system.parameters:
            raise DimensionMismatch("refinement needs a parameter-free system")
        if system.n != system.num_vars:
            raise NotSquare("refinement needs a square system")
        mons, where = _distinct_rows(np.vstack([p.exps for p in system.polys]))
        # slot 0 holds 1, slot 1 + j the coordinate z_j; each step
        # (parent slot, j) appends slot[parent] * z_j
        slots = {(0,) * system.num_vars: 0}
        for j in range(system.num_vars):
            slots[tuple(int(j == i) for i in range(system.num_vars))] = 1 + j
        self.steps = []

        def slot(row):
            if row not in slots:
                j = max(i for i, e in enumerate(row) if e)
                parent = slot(row[:j] + (row[j] - 1,) + row[j + 1:])
                slots[row] = len(slots)
                self.steps.append((parent, j))
            return slots[row]

        mon_slot = [slot(tuple(row)) for row in mons.tolist()]
        degrees = mons.sum(axis=1).tolist()
        # each polynomial as (fmin, top, groups): fmin its smallest coefficient
        # exponent, top its largest degree, and each group (d, terms) its
        # terms of degree top - d, each (slot, p, q) with coefficient
        # (p + iq) * 2**fmin
        self.rows, k = [], 0
        for poly in system.polys:
            coeffs = [(_dyadic(c.real), _dyadic(c.imag)) for c in poly.coeffs.tolist()]
            idx = where[k:k + len(coeffs)].tolist()
            k += len(coeffs)
            fmin = min(e for part in coeffs for _, e in part)
            top = max(degrees[i] for i in idx)
            groups = {}
            for i, ((rm, re), (im, ie)) in zip(idx, coeffs):
                groups.setdefault(top - degrees[i], []).append(
                    (mon_slot[i], rm << (re - fmin), im << (ie - fmin)))
            self.rows.append((fmin, top, sorted(groups.items())))

    def __call__(self, point) -> np.ndarray:
        """f(point) for a dyadic point (see _dyadic_point), rounded to complex128."""
        e0 = min([0] + [e for part in point for m, e in part if m])
        vals = [(1, 0)] + [(rm << (re - e0) if rm else 0, im << (ie - e0) if im else 0)
                           for (rm, re), (im, ie) in point]
        for parent, j in self.steps:
            x, y = vals[parent]
            u, v = vals[1 + j]
            vals.append((x * u - y * v, x * v + y * u))
        out = []
        for fmin, top, groups in self.rows:
            # a term's value is (p + iq) * mon * 2**(fmin + e0 * (top - d))
            sr = si = 0
            for d, terms in groups:
                gr = gi = 0
                for sl, p, q in terms:
                    x, y = vals[sl]
                    if q:
                        gr += p * x - q * y
                        gi += p * y + q * x
                    else:
                        gr += p * x
                        gi += p * y
                sr += gr << -e0 * d
                si += gi << -e0 * d
            base = fmin + e0 * top
            out.append(complex(_float(sr, base), _float(si, base)))
        return np.array(out)


def _add(part, d: float):
    """A 160-bit dyadic real plus a finite float, rounded to 160 bits."""
    m, e = part
    dm, den = d.as_integer_ratio()
    de = 1 - den.bit_length()
    if de < e:
        return _round_bits((m << (e - de)) + dm, de)
    return _round_bits(m + (dm << (de - e)), e)


def _singular(kappa) -> RefinementDiverged:
    return RefinementDiverged(
        "singular Jacobian during sharpening (refinement needs kappa_inf < 1e14 "
        f"at hardware precision): {singular_reason(kappa)}")


def refine_solutions(system: PolySystem, points, digits: int) -> list[SolutionPoint]:
    """Sharpen solutions (SolutionPoints or coordinate lists) to 10^-digits.

    Mixed-precision Newton on all roots in lock-step: each iteration
    evaluates f exactly at every live 160-bit iterate and rounds it once to
    complex128 (_ExactSystem), forms the Jacobians at the iterates rounded
    to complex128 in one kernel call, solves J delta = -f for all of them
    in one conditioned_solve_stack, and adds each delta to its iterate,
    rounded to 160 bits.  A correction shrinks the error by about
    kappa_inf * 2^-53.  A root stops when an update is at most 10^-digits
    relative in every coordinate (absolute below 1).  It fails when its
    Jacobian counts as singular (kappa_inf >= 1e14, see lin_solve) or its
    updates stop contracting, which signals a singular or wrong input
    point; once every root has stopped or failed, the lowest-index failure
    is raised as RefinementDiverged.  Coordinates are returned as
    ExactComplex values holding the 160-bit iterates exactly.
    """
    return [replace(sp, coordinates=tuple(ExactComplex(_fraction(*re), _fraction(*im))
                                          for re, im in sp.coordinates))
            for sp in _sharpen(system, points, digits)]


def _sharpen(system: PolySystem, points, digits: int) -> list[SolutionPoint]:
    """refine_solutions with each coordinate left a dyadic point's
    ((re_m, re_e), (im_m, im_e))."""
    if not 1 <= digits <= 30:
        raise ValueError("digits must be between 1 and 30")
    tol = 10.0 ** -digits
    exact = _ExactSystem(system)
    sps, zs = [], []
    for sp in points:
        if not isinstance(sp, SolutionPoint):
            sp = SolutionPoint(
                coordinates=tuple(sp), condition_number=math.nan, cycle_number=1,
                function_residual=math.nan, last_t=0.0, max_precision_bits=53,
                newton_residual=math.nan, solution_number=len(sps))
        if len(sp.coordinates) != system.num_vars:
            raise DimensionMismatch(f"point has length {len(sp.coordinates)}, "
                                    f"system has {system.num_vars} variables")
        sps.append(sp)
        zs.append(_dyadic_point(sp.coordinates))
    failed = {r: _singular(math.inf) for r, z in enumerate(zs) if z is None}
    updates = [[] for _ in zs]
    live = [r for r, z in enumerate(zs) if z is not None]
    # each live iterate rounded to complex128, formed once per update
    rounded = {r: _complex(zs[r]) for r in live}
    for _ in range(30):
        if not live:
            break
        fval = np.array([exact(zs[r]) for r in live])
        jac = system.kernel(np.array([rounded[r] for r in live]))[:, :, 1:]
        delta, kappa, ok = conditioned_solve_stack(jac, -fval[:, :, None])
        still = []
        for r, d, k, good in zip(live, delta[:, :, 0].tolist(), kappa.tolist(), ok):
            if not good:
                failed[r] = _singular(k)
                continue
            zs[r] = [(_add(re, di.real), _add(im, di.imag)) for (re, im), di in zip(zs[r], d)]
            rounded[r] = _complex(zs[r])
            steps = updates[r]
            steps.append(max(abs(di) for di in d))
            if max(abs(di) / max(1.0, abs(zi)) for zi, di in zip(rounded[r], d)) <= tol:
                continue
            if len(steps) >= 5 and steps[-1] > steps[-2] >= steps[-3]:
                failed[r] = RefinementDiverged("Newton updates stopped contracting")
                continue
            still.append(r)
        live = still
    for r in live:
        failed[r] = RefinementDiverged(f"no agreement to {digits} digits within 30 iterations")
    if failed:
        raise failed[min(failed)]
    return [replace(sp, coordinates=tuple(z), max_precision_bits=EXTENDED_PREC_BITS,
                    function_residual=float(np.abs(exact(z)).max()), newton_residual=steps[-1])
            for sp, z, steps in zip(sps, zs, updates)]


# -- parameter homotopy ---------------------------------------------------------

def _in_doubt(results) -> bool:
    """Whether the paths of one tuple, tracked straight to t = 0, may have
    lost or merged a root, so that the endgame must decide: a path did not
    succeed, two paths ended at the same point (_close), or a path's last
    Newton update at t = 0 is above FINAL_TOL relative, the slow polish of
    a singular or badly conditioned root."""
    if any(res.status is not PathStatus.SUCCESS for res in results):
        return True
    z = np.array([res.endpoint for res in results])
    update = np.array([res.newton_residual for res in results])
    return bool(np.count_nonzero(_close(z, z)) > len(z)
                or (update > FINAL_TOL * (1.0 + np.abs(z).max(axis=1))).any())


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
    tuple costs the generic root count in paths.  The paths of all tuples
    are tracked as one batch, each at its own tuple's parameters, straight
    to t = 0 with no endgame (their roots report last_t 0 and cycle number
    1).  A tuple whose straight paths leave a root in doubt (_in_doubt: a
    path failed, two paths met, or a polish converged slowly) is tracked
    again with the endgame, all such tuples as one batch from the same
    starts; the kernel and the tracker give every path the bits it gets
    alone, so its roots are those of an endgame run over all tuples.

    A tuple's solution set holds the finite endpoints of its final paths; a
    path that ends AtInfinity lost no root.  A path that ends StepFailure or
    MaxSteps may have lost one, so it raises PathFailure naming the first
    such tuple rather than return a set that could be short.

    The roots of every tuple are diagnosed together, in one call of a
    kernel with one coefficient row per tuple (PolySystem.specialized_terms).
    function_residual and condition_number keep their definitions: the
    root's largest residual and its chart-free condition number (see
    _conditions) in its tuple's specialized system, whose degrees count only
    the terms that do not vanish there, to the bits that system gives.
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

    # every tuple's paths as one batch, straight to t = 0: path (tuple j,
    # root i) runs from p0 to tuple j; then the tuples whose straight paths
    # leave a root in doubt, tracked again with the endgame, as one batch
    starts = [sp.coordinate_array() for sp in stage1]
    k = len(starts)
    targets = np.array(tuples, dtype=complex).reshape(len(tuples), len(names))
    homotopy = ParameterPathHomotopy(family, p0, np.repeat(targets, k, axis=0))
    results = track_paths(homotopy, starts * len(tuples), endgame=False)
    redo = [j for j in range(len(tuples)) if k and _in_doubt(results[j * k:(j + 1) * k])]
    if redo:
        homotopy = ParameterPathHomotopy(family, p0, np.repeat(targets[redo], k, axis=0))
        again = track_paths(homotopy, starts * len(redo))
        for n, j in enumerate(redo):
            results[j * k:(j + 1) * k] = again[n * k:(n + 1) * k]
    for j, p1 in enumerate(tuples):
        lost = [r for r in results[j * k:(j + 1) * k]
                if r.status in (PathStatus.STEP_FAILURE, PathStatus.MAX_STEPS)]
        if lost:
            values = ", ".join(f"{name}={v.real!r}" if not v.imag else f"{name}={v!r}"
                               for name, v in zip(family.parameters, p1.tolist()))
            raise PathFailure(f"parameter tuple {j} ({values}): {len(lost)} of {k} paths "
                              f"failed ({lost[0].status.value}: {lost[0].reason})")
    clustered = [_clustered(results[j * k:(j + 1) * k]) for j in range(len(tuples))]
    solution_sets = [[] for _ in tuples]
    reps = [res for ends, _ in clustered for res in ends]
    if reps:
        # every tuple's roots in one call of a kernel with one coefficient
        # row per tuple; a term that vanishes at tuple j keeps a zero
        # coefficient there, which adds nothing, so root rows get the bits
        # of their tuple's specialized system, and degrees count only the
        # terms that do not vanish, as that system's do
        exps, coeffs, rows = family.specialized_terms(targets)
        kernel = MonomialKernel(exps, coeffs, rows, family.n,
                                np.eye(family.num_vars, dtype=np.int64))
        owner = np.repeat(np.arange(len(tuples)), [len(ends) for ends, _ in clustered])
        z = np.array([res.endpoint for res in reps])
        present = (np.abs(coeffs) > 0)[:, :, None] & (rows[:, None] == np.arange(family.n))
        degrees = np.where(present, exps.sum(axis=1)[:, None], 0).max(axis=1, initial=0)
        solution_sets = _solution_sets(clustered, z, kernel(z, owner), degrees[owner])
    return ParameterHomotopyResult(solution_sets, p0, len(stage1))
