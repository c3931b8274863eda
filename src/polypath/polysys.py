"""Multivariate complex polynomials, systems, and random linear slices.

Polynomials are sparse term lists: an integer exponent matrix plus a complex
coefficient vector.  Exponent rows span the variables followed by the
parameters, so a system with N variables and P parameters has width N + P.
A Polynomial only holds its terms.  The one evaluator is the MonomialKernel:
a table of the distinct monomials of the polynomials and of their partials,
times a coefficient matrix with one column per output entry (the
straight-line-program form used by Bertini and HomotopyContinuation.jl).
Differentiation lives in that matrix, whose partial columns are the exact
term-wise derivatives.  PolySystem.evaluate, jacobian and param_jacobian are
slices of one call, for one point or a stack, and every homotopy of the
tracker evaluates as one call of a kernel over the columns (z, s, t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Rng, condition_estimate
from .errors import DimensionMismatch, NotHomogeneous

_COEFF_EPS = 0.0  # coefficients are dropped only when they cancel exactly


class Polynomial:
    """One sparse polynomial: terms (coefficient, exponent row)."""

    __slots__ = ("exps", "coeffs")

    def __init__(self, exps, coeffs, width=None):
        exps = np.asarray(exps, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=complex)
        if exps.size == 0:
            if width is None:
                raise DimensionMismatch("empty polynomial needs an explicit width")
            exps = exps.reshape(0, width)
            coeffs = coeffs.reshape(0)
        if exps.ndim != 2 or exps.shape[0] != coeffs.shape[0]:
            raise DimensionMismatch("exponent/coefficient shapes disagree")
        self.exps, self.coeffs = _canonicalize(exps, coeffs)

    @classmethod
    def _of_merged(cls, exps, coeffs) -> "Polynomial":
        """The polynomial of terms already merged and sorted, as _merged
        gives them: only the exact zeros are dropped, as _canonicalize does."""
        p = cls.__new__(cls)
        keep = np.abs(coeffs) > _COEFF_EPS
        p.exps, p.coeffs = np.ascontiguousarray(exps[keep]), np.ascontiguousarray(coeffs[keep])
        return p

    @classmethod
    def from_terms(cls, terms: dict, width: int) -> "Polynomial":
        """Build from a mapping of exponent tuple -> coefficient."""
        if not terms:
            return cls(np.zeros((0, width), dtype=np.int64), [], width=width)
        exps = np.array(list(terms.keys()), dtype=np.int64)
        coeffs = np.array(list(terms.values()), dtype=complex)
        return cls(exps, coeffs, width=width)

    @classmethod
    def linear(cls, coefficients, constant, width: int) -> "Polynomial":
        """The degree-1 polynomial a . z + constant over a width-column space.

        a spans the first len(a) columns; zero coefficients are dropped.
        """
        a = np.asarray(coefficients, dtype=complex)
        exps = np.eye(a.shape[0] + 1, width, dtype=np.int64)
        exps[-1] = 0
        return cls(exps, np.append(a, complex(constant)), width=width)

    @property
    def width(self) -> int:
        return self.exps.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    def terms(self) -> dict:
        return {tuple(int(e) for e in row): complex(c)
                for row, c in zip(self.exps, self.coeffs)}

    def degree(self, ncols: int | None = None) -> int:
        """Total degree over the first ncols exponent columns (default all)."""
        if self.is_zero:
            return 0
        cols = self.exps if ncols is None else self.exps[:, :ncols]
        return int(np.max(np.sum(cols, axis=1)))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.exps.shape == other.exps.shape
                and np.array_equal(self.exps, other.exps)
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.exps.tobytes(), self.coeffs.tobytes()))

    def __repr__(self):
        return f"Polynomial({len(self.coeffs)} terms, width {self.width})"

    @staticmethod
    def linear_combination(polys, weights, width: int) -> "Polynomial":
        blocks_e = [p.exps for p in polys if not p.is_zero]
        blocks_c = [p.coeffs * w for p, w in zip(polys, weights) if not p.is_zero]
        if not blocks_e:
            return Polynomial(np.zeros((0, width), np.int64), [], width=width)
        return Polynomial(np.vstack(blocks_e), np.concatenate(blocks_c), width=width)


def _merged(exps, coeffs):
    """The distinct exponent rows, sorted descending, and their coefficients
    along the last axis of coeffs, (terms,) or (..., terms): the
    coefficients of equal rows add up in reverse term order, since the
    ascending sort is stable."""
    order = np.lexsort(exps.T[::-1])[::-1]
    exps, coeffs = exps[order], coeffs[..., order]
    uniq = np.ones(exps.shape[0], dtype=bool)
    uniq[1:] = np.any(exps[1:] != exps[:-1], axis=1)
    idx = np.flatnonzero(uniq)
    return exps[idx], np.add.reduceat(coeffs, idx, axis=-1)


def _canonicalize(exps, coeffs):
    """Merge duplicate exponent rows, drop zeros, sort rows descending."""
    exps, coeffs = _merged(exps, coeffs)
    keep = np.abs(coeffs) > _COEFF_EPS
    return np.ascontiguousarray(exps[keep]), np.ascontiguousarray(coeffs[keep])


def _distinct_rows(exps):
    """Distinct rows (lexicographic order) and each input row's index in them."""
    order = np.lexsort(exps.T[::-1])
    srt = exps[order]
    first = np.ones(srt.shape[0], dtype=bool)
    first[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    where = np.empty(srt.shape[0], dtype=np.intp)
    where[order] = np.cumsum(first) - 1
    return srt[first], where


def _terms(polys):
    """The terms of a list of polynomials: their exponent rows, coefficients
    and the index of the polynomial each term belongs to."""
    return (np.vstack([p.exps for p in polys]), np.concatenate([p.coeffs for p in polys]),
            np.repeat(np.arange(len(polys)), [p.coeffs.size for p in polys]))


class MonomialKernel:
    """Values and first partials of several polynomials at a point or a stack.

    Built once, with numpy, from the polynomials' terms: each polynomial and
    each of its partials becomes one column of a coefficient matrix over the
    distinct exponent rows (monomials) they use.  A partial is taken along a
    direction, an integer combination of the exponent columns.  A call is
    one power table, one gather of every monomial's factors, their product
    and one product mon @ C.  The result has shape
    (polynomials, 1 + directions), or (points, polynomials, 1 + directions)
    for a stack of points: column 0 holds the values, column 1 + j the
    partials along direction j.

    A per-path kernel (a coefficient row per path) holds one coefficient
    matrix per path, and its call takes the path of every point.
    """

    __slots__ = ("powers", "gather", "coeffs", "shape")

    def __init__(self, exps, coeffs, rows, count: int, directions):
        """The kernel of count polynomials given term by term: term i is
        coeffs[..., i] times the monomial with exponent row exps[i], in
        polynomial rows[i]; terms may share a monomial.  coeffs is a complex
        vector, or a (paths, terms) array with one coefficient row per path.
        directions is an int64 (partials, width) array."""
        k = 1 + directions.shape[0]
        # the terms of every partial: per (direction, column) pair of a
        # nonzero weight, each term of positive power in that column, lowered
        d, j = directions.nonzero()
        pair, term = (exps[:, j] > 0).T.nonzero()
        d, j = d[pair], j[pair]
        lowered = exps[term]
        at = (np.arange(term.size), j)
        weight = directions[d, j] * lowered[at]
        lowered[at] -= 1
        mons, where = _distinct_rows(np.vstack([exps, lowered]))
        cols = np.concatenate([rows * k, rows[term] * k + 1 + d])
        # terms that share a (monomial, column) entry add up, in term order
        table = np.zeros(coeffs.shape[:-1] + (mons.shape[0] * count * k,), dtype=complex)
        np.add.at(table, (..., where * (count * k) + cols),
                  np.concatenate([coeffs, coeffs[..., term] * weight], axis=-1))
        self.coeffs = table.reshape(coeffs.shape[:-1] + (mons.shape[0], count * k))
        self.powers = np.arange(int(mons.max()) + 1 if mons.size else 1)
        # flat indices into the (width, max_deg + 1) power table
        self.gather = mons.T + (np.arange(exps.shape[1]) * self.powers.size)[:, None]
        self.shape = (count, k)

    def __call__(self, point, paths=None):
        """The table at one point, or a stack of tables, one per row of a
        (points, width) array.  One point is computed as a stack of one.  A
        per-path kernel evaluates point i with the coefficients of path
        paths[i]; paths None means point i is path i."""
        stack = point.reshape(-1, point.shape[-1])
        pw = stack[:, :, None] ** self.powers
        # take gives a C-contiguous (points, width, monomials) array, whose
        # product over the width runs in the same order for every row, so a
        # row's bits do not depend on the stack it is evaluated in
        mon = np.multiply.reduce(pw.reshape(stack.shape[0], -1).take(self.gather, axis=1),
                                 axis=1)
        coeffs = self.coeffs
        if paths is not None and coeffs.ndim == 3:
            coeffs = coeffs.take(paths, axis=0)
        # a stack of one-row products, none of which goes to the threaded
        # BLAS matrix product
        return (mon[:, None, :] @ coeffs).reshape(point.shape[:-1] + self.shape)


class PolySystem:
    """A list of polynomials over named variables and optional parameters."""

    def __init__(self, variables, polys, parameters=()):
        self.variables = tuple(variables)
        self.parameters = tuple(parameters)
        self.polys = list(polys)
        if not self.variables:
            raise DimensionMismatch("a system needs at least one variable")
        if not self.polys:
            raise DimensionMismatch("a system needs at least one polynomial")
        width = len(self.variables) + len(self.parameters)
        for p in self.polys:
            if p.width != width:
                raise DimensionMismatch(
                    f"polynomial width {p.width} != variables+parameters {width}"
                )
        self._kernel = None

    @property
    def n(self) -> int:
        return len(self.polys)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def width(self) -> int:
        return len(self.variables) + len(self.parameters)

    def _point(self, z, params):
        z = np.asarray(z, dtype=complex)
        if z.shape[0] != self.num_vars:
            raise DimensionMismatch(
                f"point has length {z.shape[0]}, system has {self.num_vars} variables"
            )
        if self.parameters:
            if params is None:
                raise DimensionMismatch("system has parameters; none supplied")
            params = np.asarray(params, dtype=complex)
            if params.shape[0] != len(self.parameters):
                raise DimensionMismatch(
                    f"expected {len(self.parameters)} parameter values, got {params.shape[0]}"
                )
            return np.concatenate([z, params])
        if params is not None and len(params):
            raise DimensionMismatch("system has no parameters")
        return z

    @property
    def kernel(self) -> MonomialKernel:
        """The evaluator of values and all first partials, built on first use."""
        if self._kernel is None:
            self._kernel = MonomialKernel(*_terms(self.polys), self.n,
                                          np.eye(self.width, dtype=np.int64))
        return self._kernel

    def values_and_partials(self, z, params=None):
        """n x (1 + N + P): values, then partials by variables and parameters."""
        return self.kernel(self._point(z, params))

    def evaluate(self, z, params=None):
        return self.values_and_partials(z, params)[:, 0]

    def jacobian(self, z, params=None):
        """n x N matrix of partials with respect to the variables."""
        return self.values_and_partials(z, params)[:, 1:1 + self.num_vars]

    def param_jacobian(self, z, params):
        """n x P matrix of partials with respect to the parameters."""
        return self.values_and_partials(z, params)[:, 1 + self.num_vars:]

    def degrees(self):
        """Per-polynomial total degrees in the variables only."""
        return [p.degree(self.num_vars) for p in self.polys]

    def bezout_number(self) -> int:
        out = 1
        for d in self.degrees():
            out *= d
        return out

    def is_homogeneous(self) -> bool:
        for p in self.polys:
            if p.is_zero:
                continue
            degs = np.sum(p.exps[:, :self.num_vars], axis=1)
            if np.any(degs != degs[0]):
                return False
        return True

    def specialized_terms(self, values):
        """The terms of the system specialized at every row of values, a
        (tuples, parameters) array: the variable exponent rows, a
        (tuples, terms) array of their coefficients, and the polynomial of
        each term.  Family term c z^a p^b gives c * p_1**b_1 * ... * p_P**b_P,
        multiplied in parameter order, and the terms of one polynomial that
        share z^a add up, as Polynomial merges them (_merged), to the same
        bits.  No term is dropped: at a tuple where one vanishes its
        coefficient is zero."""
        nv = self.num_vars
        exps, coeffs, rows = _terms(self.polys)
        scale = np.ones((values.shape[0], coeffs.size), dtype=complex)
        # one product per parameter, as specialize always formed them:
        # np.multiply.reduce over the parameters rounds differently
        for j in range(len(self.parameters)):
            scale *= values[:, j, None] ** exps[:, nv + j]
        coeffs = coeffs * scale
        # the polynomial as the first column keeps each one's terms apart
        keys, coeffs = _merged(np.column_stack([rows, exps[:, :nv]]), coeffs)
        return keys[:, 1:], coeffs, keys[:, 0]

    def specialize(self, param_values) -> "PolySystem":
        """Substitute parameter values, producing a parameter-free system."""
        values = np.asarray(param_values, dtype=complex)
        if values.shape != (len(self.parameters),):
            raise DimensionMismatch(
                f"expected {len(self.parameters)} parameter values, got {values.size}")
        exps, coeffs, rows = self.specialized_terms(values[None])
        return PolySystem(self.variables, [
            Polynomial._of_merged(exps[rows == i], coeffs[0, rows == i]) for i in range(self.n)])

    def __repr__(self):
        return (f"PolySystem({self.n} polynomials in {self.variables}"
                + (f", parameters {self.parameters}" if self.parameters else "") + ")")


@dataclass(frozen=True)
class LinearSlice:
    """Affine-linear equations A z + b = 0 cutting a codim-many slice."""

    coefficients: np.ndarray  # (codim, N)
    constants: np.ndarray     # (codim,)

    @property
    def codim(self) -> int:
        return self.coefficients.shape[0]

    @property
    def num_vars(self) -> int:
        return self.coefficients.shape[1]

    def evaluate(self, z):
        if self.codim == 0:
            return np.zeros(0, dtype=complex)
        return self.coefficients @ np.asarray(z, dtype=complex) + self.constants

    def as_polynomials(self, width: int):
        """Degree-1 polynomials over a width-column exponent space."""
        return [Polynomial.linear(a, b, width)
                for a, b in zip(self.coefficients, self.constants)]

    def translated(self, shift) -> "LinearSlice":
        return LinearSlice(self.coefficients, self.constants + np.asarray(shift, complex))


def empty_slice(num_vars: int) -> LinearSlice:
    return LinearSlice(np.zeros((0, num_vars), dtype=complex),
                       np.zeros(0, dtype=complex))


def random_slice(num_vars: int, codim: int, rng: Rng) -> LinearSlice:
    """Generic slice with unit-modulus coefficients.

    Constants get an extra random magnitude in [0.5, 1.5]: with exactly
    unit-modulus constants, the intersection of the slice with any
    coordinate axis would sit at modulus exactly 1, which collides with
    unit spheres and circles and spoils genericity on such inputs.
    Rows are redrawn (deterministically, from the same stream) in the
    measure-zero event that they fail the independence check.
    """
    if not 1 <= codim <= num_vars:
        raise DimensionMismatch(f"codim {codim} out of range for {num_vars} variables")
    while True:
        coeffs = np.atleast_2d(rng.unit_complex((codim, num_vars)))
        consts = np.atleast_1d(rng.unit_complex(codim))
        consts = consts * rng.uniform(0.5, 1.5, size=consts.shape)
        gram = coeffs @ coeffs.conj().T
        if condition_estimate(gram) < 1e12:
            return LinearSlice(coeffs, consts)


def affine_patch(system: PolySystem, rng: Rng):
    """Append a random chart equation sum(a_i z_i) = 1 to a homogeneous system.

    Returns the patched system and the patch coefficients a.
    """
    if not system.is_homogeneous():
        raise NotHomogeneous("affine patch requires a homogeneous system")
    a = np.atleast_1d(rng.unit_complex(system.num_vars))
    patch_poly = Polynomial.linear(a, -1.0, system.width)
    patched = PolySystem(system.variables, system.polys + [patch_poly],
                         system.parameters)
    return patched, a
