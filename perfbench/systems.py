"""Benchmark inputs with known answers, and residuals that do not use polypath.

Every system is written as input-file text for the CLI and comes with a
pure-numpy residual function, so outputs are checked without trusting the
program's own polynomial evaluator.
"""

from __future__ import annotations

import numpy as np

# Verbatim from tests/conftest.py.
FAMILY = """
vars x, y;
params a, b, c;
f1 = a*x^2 + b*y^2 - c;
f2 = y;
"""

SPHERE_LINE = """
vars x, y, z;
f1 = (y^2 + x^2 + z^2 - 1)*x;
f2 = (y^2 + x^2 + z^2 - 1)*y;
"""

# Known decomposition of sphere-line: dimension -> component degrees.
SPHERE_LINE_SHAPE = {2: [2], 1: [1]}
SPHERE = "2/0"
LINE = "1/0"


def katsura_text(n: int) -> str:
    """katsura-n: n+1 unknowns, Bezout number 2^n, all 2^n roots finite."""
    names = [f"x{i}" for i in range(n + 1)]
    eqs = []
    for m in range(n):
        terms = []
        for l in range(-n, n + 1):
            if abs(m - l) <= n:
                terms.append(f"{names[abs(l)]}*{names[abs(m - l)]}")
        eqs.append(" + ".join(terms) + f" - {names[m]}")
    eqs.append(" + ".join([names[0]] + [f"2*{v}" for v in names[1:]]) + " - 1")
    return _system_text(names, eqs)


def katsura_residual(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    n = z.shape[0] - 1
    out = []
    for m in range(n):
        s = sum(z[abs(l)] * z[abs(m - l)] for l in range(-n, n + 1) if abs(m - l) <= n)
        out.append(s - z[m])
    out.append(z[0] + 2.0 * np.sum(z[1:]) - 1.0)
    return np.array(out)


def cyclic_text(n: int) -> str:
    """cyclic-n: n unknowns, Bezout number n!; cyclic-5 has 70 isolated roots."""
    names = [f"z{i}" for i in range(n)]
    eqs = []
    for k in range(1, n):
        eqs.append(" + ".join("*".join(names[(i + j) % n] for j in range(k))
                              for i in range(n)))
    eqs.append("*".join(names) + " - 1")
    return _system_text(names, eqs)


def cyclic_residual(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    n = z.shape[0]
    out = [sum(np.prod([z[(i + j) % n] for j in range(k)]) for i in range(n))
           for k in range(1, n)]
    out.append(np.prod(z) - 1.0)
    return np.array(out)


def family_residual(z, params) -> np.ndarray:
    x, y = np.asarray(z, dtype=complex)
    a, b, c = params
    return np.array([a * x * x + b * y * y - c, y])


def sphere_line_residual(p) -> np.ndarray:
    x, y, z = np.asarray(p, dtype=complex)
    s = x * x + y * y + z * z - 1.0
    return np.array([s * x, s * y])


def _system_text(names, eqs) -> str:
    lines = [f"vars {', '.join(names)};"]
    lines += [f"f{i + 1} = {e};" for i, e in enumerate(eqs)]
    return "\n".join(lines) + "\n"


KNOWN_ROOTS = {"katsura5": 32, "cyclic5": 70}
SYSTEMS = {
    "katsura5": (katsura_text(5), katsura_residual),
    "cyclic5": (cyclic_text(5), cyclic_residual),
}


def unit_complex(rng: np.random.Generator, size=None):
    return np.exp(2j * np.pi * rng.uniform(size=size))


def family_tuple(rng: np.random.Generator) -> np.ndarray:
    """A generic (a, b, c) for the conic family: modulus in [0.5, 2], any phase."""
    return unit_complex(rng, 3) * rng.uniform(0.5, 2.0, 3)


def sphere_line_queries(rng: np.random.Generator, count: int):
    """count query points of sphere-line, each with its known membership set.

    Cycles through: a point on the sphere only, a point on the z-axis line
    only, one of the two points (0, 0, +-1) on both, and a point off the
    variety.
    """
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            x, y = unit_complex(rng, 2) * rng.uniform(0.3, 0.8, 2)
            z = np.sqrt(1.0 - x * x - y * y + 0j)
            out.append((np.array([x, y, z]), {SPHERE}))
        elif kind == 1:
            z = unit_complex(rng) * rng.uniform(0.3, 2.0)
            out.append((np.array([0j, 0j, z]), {LINE}))
        elif kind == 2:
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            out.append((np.array([0j, 0j, sign + 0j]), {SPHERE, LINE}))
        else:
            p = unit_complex(rng, 3) * rng.uniform(0.3, 2.0, 3)
            while _off_margin(p) < 0.1:
                p = unit_complex(rng, 3) * rng.uniform(0.3, 2.0, 3)
            out.append((p, set()))
    return out


def _off_margin(p) -> float:
    """How far a point is from both components (0 on the variety)."""
    x, y, z = p
    return min(abs(x * x + y * y + z * z - 1.0), max(abs(x), abs(y)))


def on_component(p, label: str, tol: float = 1e-7) -> bool:
    """Independent check that p lies on the named sphere-line component."""
    x, y, z = np.asarray(p, dtype=complex)
    scale = 1.0 + float(np.max(np.abs(p)))
    if label == SPHERE:
        return abs(x * x + y * y + z * z - 1.0) <= tol * scale * scale
    return max(abs(x), abs(y)) <= tol * scale


def complex_literal(z: complex) -> str:
    """A coordinate in the CLI's complex-literal grammar, exact to the bit."""
    z = complex(z)
    return f"({z.real!r})+({z.imag!r})*I"
