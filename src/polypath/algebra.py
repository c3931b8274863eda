"""Complex dense linear algebra and seeded randomness.

Hardware scalars are plain ``complex`` / ``numpy.complex128``; vectors and
matrices are dense numpy arrays.  Everything here runs at hardware
precision; refinement's 160-bit iterates and exact residuals live in
zerodim, and only its corrections are solved here.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, SingularMatrix

# lin_solve treats a matrix whose infinity-norm condition reaches
# 1 / _PIVOT_RTOL as singular.
_PIVOT_RTOL = 1e-14


class Rng:
    """Seeded deterministic random stream (PCG64).

    Identical seeds give identical streams.  ``fork`` derives an independent
    child stream whose seed is drawn from the parent, so a fixed master seed
    reproduces every downstream random choice.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def integers(self, high: int) -> int:
        return int(self._gen.integers(0, high))

    def unit_complex(self, size=None):
        """Unit-modulus complex samples with argument uniform on [0, 2*pi)."""
        angles = self._gen.uniform(0.0, 2.0 * np.pi, size=size)
        return np.exp(1j * angles)

    def fork(self) -> "Rng":
        return Rng(int(self._gen.integers(0, 2**63)))


def random_unit_complex(rng: Rng) -> complex:
    """One unit-modulus complex number (the gamma of the gamma trick)."""
    return complex(rng.unit_complex())


def vec_inf_norm(v) -> float:
    v = np.asarray(v)
    return float(np.max(np.abs(v))) if v.size else 0.0


# The mask of a stack whose every row solved: a read-only view of one
# all-True array, replaced by a longer one when a larger stack comes.
_ALL_OK = np.ones(0, dtype=bool)


def _all_ok(m: int):
    global _ALL_OK
    if _ALL_OK.size < m:
        _ALL_OK = np.ones(m, dtype=bool)
        _ALL_OK.flags.writeable = False
    return _ALL_OK[:m]


def gesv_stack(a, b):
    """solve_stack without an error state of its own: the caller holds
    np.errstate(all="ignore"), as track_paths does around all its solves,
    or numpy warns about an exactly singular or non-finite a[i].  The mask
    of a stack whose rows all solve is a read-only view."""
    x = _umath_linalg.solve(a, b, signature="DD->D")
    finite = np.isfinite(x)
    if np.count_nonzero(finite) == finite.size:     # the common case, no mask
        return x, _all_ok(x.shape[0])
    ok = finite.all(axis=(1, 2))
    x[~ok] = np.nan
    return x, ok


def solve_stack(a, b):
    """x[i] = a[i]^-1 b[i] for a stack of square complex systems, a (m, n, n)
    and b (m, n, k), and a mask ok: row i fails, and x[i] is NaN, when a[i]
    is exactly singular or x[i] is not finite.  No condition number is
    formed.

    Calls LAPACK's gesv through numpy's gufunc directly, the one
    np.linalg.solve wraps, so every row gets the bits np.linalg.solve gives
    it.  Without np.linalg.solve's error handler an exactly singular a[i]
    does not reject the stack: the gufunc fills x[i] with NaN and solves the
    other rows as it would alone.  The call holds its own
    np.errstate(all="ignore"), so it emits no warning; the tracker, which
    holds one error state for a whole track, calls gesv_stack instead."""
    with np.errstate(all="ignore"):
        return gesv_stack(a, b)


def conditioned_solve_stack(a, b):
    """solve_stack with kappa_inf(a[i]) = ||a[i]|| ||a[i]^-1||, as lin_solve
    needs: solving against [b | I] yields x and the inverses from one LAPACK
    call.  Returns x, kappa (inf where solve_stack fails row i) and ok,
    which also fails row i when kappa[i] >= 1 / _PIVOT_RTOL.  It holds its
    own np.errstate(all="ignore") around the solve and the norms, since
    lin_solve, refinement and the condition numbers of roots call it
    outside any error state (the tracker's limit polish, inside one)."""
    m, n, k = b.shape
    rhs = np.empty((m, n, k + n), dtype=complex)
    rhs[:, :, :k] = b
    rhs[:, :, k:] = np.eye(n)
    with np.errstate(all="ignore"):
        sol, ok = gesv_stack(a, rhs)
        kappa = np.abs(a).sum(2).max(1) * np.abs(sol[:, :, k:]).sum(2).max(1)
    kappa[~ok] = np.inf
    return sol[:, :, :k], kappa, kappa < 1.0 / _PIVOT_RTOL


def singular_reason(kappa) -> str:
    """Why a matrix with condition kappa (inf when not solved) counts as singular."""
    return (f"condition {kappa:.3e} (singular from {1.0 / _PIVOT_RTOL:.0e}) "
            "or a non-finite solution")


def _solve_and_condition(a, b):
    """x = A^-1 b and the infinity-norm condition of A, for one A.

    Raises SingularMatrix when A counts as singular.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if b.shape[:1] != (n,):
        raise DimensionMismatch(f"A is {a.shape}, b has shape {b.shape}")
    k = b.size // n if n else 0
    x, kappa, ok = conditioned_solve_stack(a[None], b.reshape(1, n, k))
    if not ok[0]:
        raise SingularMatrix(singular_reason(kappa[0]))
    return x[0].reshape(b.shape), float(kappa[0])


def lin_solve(a, b):
    """Solve the square complex system A x = b (b may be 1-D or 2-D).

    LAPACK (through numpy) does the elimination.  Raises SingularMatrix
    when A is exactly singular, when its infinity-norm condition is at
    least 1e14, or when A, b or x is not finite.  Refinement treats that as
    a Jacobian too ill-conditioned to sharpen.
    """
    return _solve_and_condition(a, b)[0]


def condition_estimate(a) -> float:
    """Infinity-norm condition number ||A|| * ||A^-1||, or +inf if singular.

    Matrices here are tiny (n <= ~50), so the inverse is computed outright
    rather than estimated.  Singular means what it means for lin_solve:
    exactly singular, condition at least 1e14, or not finite.
    """
    a = np.asarray(a, dtype=complex)
    try:
        _, kappa = _solve_and_condition(a, np.zeros((a.shape[0], 0)))
    except SingularMatrix:
        return math.inf
    return max(kappa, 1.0)
