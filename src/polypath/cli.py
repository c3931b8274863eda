"""Command-line interface and JSON persistence.

Subcommands mirror the run modes: solve, posdim, refine, param, member,
sample.  All numeric output is serialized as decimal strings so
extended-precision coordinates survive transport, and a fixed seed makes
repeat runs byte-identical.  A coordinate string is read exactly and
rounded to 160 bits (solutions) or to complex128 (decompositions); refined
coordinates are printed with 33 significant digits.  Exit codes: 0
success, 1 parse/validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .algebra import Rng
from .errors import (
    CorruptFile,
    DecompositionIncomplete,
    DimensionMismatch,
    NotHomogeneous,
    NotSquare,
    ParseError,
    PathFailure,
    RefinementDiverged,
    SchemaVersionMismatch,
    StartPointInvalid,
)
from .parser import parse_complex_literal, parse_input_file, render_problem
from .polysys import LinearSlice, PolySystem
from .witness import (
    NumericalVariety,
    WitnessSet,
    _dimension_range,
    membership_test,
    numerical_irreducible_decomposition,
    sample as sample_witness,
)
from .zerodim import (
    SolutionPoint,
    _DyadicComplex,
    _dyadic,
    _nearest_float as _read_float,   # the decomposition reader's numbers
    _sharpen,
    parameter_homotopy,
    zero_dim_solve,
)

SCHEMA_VERSION = 1

_USAGE_ERRORS = (ParseError, CorruptFile, SchemaVersionMismatch, DimensionMismatch,
                 NotSquare, NotHomogeneous, ValueError)
_NUMERIC_ERRORS = (RefinementDiverged, DecompositionIncomplete, PathFailure,
                   StartPointInvalid)


# -- number formatting ---------------------------------------------------------

# Bits that mpmath's nstr(x, 33) carries in the binary fixed-point number it
# cuts the decimal digits from: it works with 33 + 3 digits.
_LOG2_10 = math.log(10, 2)
_LOG10_2 = math.log10(2)
_FIX_BITS = int(36 * _LOG2_10) + 10


def _fmt_real(x) -> str:
    """repr of a float; a 160-bit coordinate, a dyadic pair (m, e) with
    value m * 2**e or a Fraction, to 33 significant digits, exactly as
    mpmath's nstr(x, 33) prints it.  The value is cut to a binary
    fixed-point number of about _FIX_BITS bits, whose decimal digits are
    truncated and then rounded half up at the 34th; it is printed in fixed
    point when the leading digit's decimal exponent is between -11 and 33
    (both excluded), trailing zeros stripped."""
    if isinstance(x, Fraction):
        x = _dyadic(x)
    elif not isinstance(x, tuple):
        return repr(float(x))
    m, e = x
    if not m:
        return "0.0"
    sign, m = ("-" if m < 0 else ""), abs(m)
    fix = _FIX_BITS - e - m.bit_length()
    if fix < 0:
        fix = 0
    shift = e + fix
    scaled = m << shift if shift >= 0 else m >> -shift
    k = int(fix / _LOG2_10 + 0.5)
    n = scaled * 10 ** k >> fix
    # n has about 38 digits unless x is huge; then the 40 or more leading
    # ones are enough, and str() of n itself could exceed Python's limit
    cut = int(n.bit_length() * _LOG10_2) - 40
    if cut > 0:
        n //= 10 ** cut
    else:
        cut = 0
    digits = str(n)
    exponent = len(digits) + cut - k - 1
    head = digits[:33]
    if digits[33] in "56789":
        head = str(int(head) + 1)
        if len(head) > 33:  # rounded up to 10**33
            head, exponent = head[:33], exponent + 1
    split = 1
    if -11 < exponent < 0:
        head, exponent = "0" * -exponent + head, 0
    elif 0 <= exponent < 33:
        split, exponent = exponent + 1, 0
    text = (head[:split] + "." + head[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    return sign + text + (f"e{exponent:+d}" if exponent else "")


def _fmt_complex(z) -> dict:
    """A number, or a 160-bit coordinate as an (re, im) tuple of parts
    _fmt_real prints, as {"re", "im"} strings."""
    if not isinstance(z, tuple):
        z = complex(z)
        z = (z.real, z.imag)
    return {"re": _fmt_real(z[0]), "im": _fmt_real(z[1])}


def _read_complex(d) -> _DyadicComplex:
    """A JSON complex number, each part read at 160 bits (None if not finite)."""
    return _DyadicComplex((_dyadic(d["re"]), _dyadic(d["im"])))


def _read_complex128(d) -> complex:
    return complex(_read_float(d["re"]), _read_float(d["im"]))


def _solution_json(sp: SolutionPoint) -> dict:
    return {
        "conditionNumber": _fmt_real(sp.condition_number),
        "coordinates": [_fmt_complex(c) for c in sp.coordinates],
        "cycleNumber": sp.cycle_number,
        "functionResidual": _fmt_real(sp.function_residual),
        "lastT": _fmt_real(sp.last_t),
        "maxPrecisionBits": sp.max_precision_bits,
        "multiplicity": sp.multiplicity,
        "newtonResidual": _fmt_real(sp.newton_residual),
        "solutionNumber": sp.solution_number,
    }


def _read_int(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer (true and false are not)."""
    value = obj[key]
    if type(value) is not int:
        raise CorruptFile(f'"{key}" is not an integer: {json.dumps(value)}')
    return value


def _solution_from_json(d) -> SolutionPoint:
    try:
        return SolutionPoint(
            coordinates=tuple(_read_complex(c) for c in d["coordinates"]),
            condition_number=float(d["conditionNumber"]),
            cycle_number=_read_int(d, "cycleNumber"),
            function_residual=float(d["functionResidual"]),
            last_t=float(d["lastT"]),
            max_precision_bits=_read_int(d, "maxPrecisionBits"),
            newton_residual=float(d["newtonResidual"]),
            solution_number=_read_int(d, "solutionNumber"),
            multiplicity=_read_int(d, "multiplicity") if "multiplicity" in d else 1,
        )
    except (KeyError, TypeError) as exc:
        raise CorruptFile(f"malformed solution object: {exc}") from exc


# -- decomposition persistence ---------------------------------------------------

def decomposition_to_json(nv: NumericalVariety) -> dict:
    components = []
    for dim in nv.dims():
        for ws in nv.components[dim]:
            components.append({
                "dim": dim,
                "index": ws.component_index,
                "degree": ws.degree,
                "slice": {
                    "coefficients": [[_fmt_complex(c) for c in row]
                                     for row in np.atleast_2d(ws.slice.coefficients)]
                    if ws.slice.codim else [],
                    "constants": [_fmt_complex(c) for c in ws.slice.constants],
                },
                "points": [[_fmt_complex(c) for c in p] for p in ws.points],
            })
    return {
        "schemaVersion": SCHEMA_VERSION,
        "seed": nv.seed,
        "projective": nv.is_projective,
        "patch": [_fmt_complex(c) for c in nv.patch] if nv.patch is not None else None,
        "system": render_problem(nv.system, nv.is_projective),
        "components": components,
    }


def _read_vector(values, length: int, what: str) -> np.ndarray:
    """length finite JSON complex numbers as a complex128 vector."""
    out = np.array([_read_complex128(c) for c in values], dtype=complex)
    if out.shape != (length,):
        raise CorruptFile(f"{what} has {out.size} entries, expected {length}")
    if not np.isfinite(out).all():
        raise CorruptFile(f"{what} has a non-finite entry")
    return out


def decomposition_from_json(data: dict) -> NumericalVariety:
    """The decomposition a JSON object describes.  CorruptFile unless each
    component has as many slice rows and constants as its dimension, which
    is at most the top one, every row, point and patch has one finite entry
    per variable, and each dimension's indices are 0, 1, 2, ..."""
    if not isinstance(data, dict) or "schemaVersion" not in data:
        raise CorruptFile("not a decomposition file")
    if data["schemaVersion"] != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"schema version {data['schemaVersion']} not supported (expected {SCHEMA_VERSION})")
    try:
        spec = parse_input_file(data["system"], "<embedded>")
        system = spec.system
        width = system.num_vars
        patch = (_read_vector(data["patch"], width, "the patch")
                 if data.get("patch") is not None else None)
        if bool(data["projective"]) != (patch is not None):
            raise CorruptFile('"projective" and "patch" disagree')
        top, _ = _dimension_range(system, patch)
        components: dict[int, list[WitnessSet]] = {}
        for comp in data["components"]:
            dim = _read_int(comp, "dim")
            if not 0 <= dim <= top:
                raise CorruptFile(f"component dimension {dim} is outside 0..{top}")
            rows = comp["slice"]["coefficients"]
            if len(rows) != dim:
                raise CorruptFile(f"a dimension-{dim} component has {len(rows)} slice rows")
            coeffs = np.array([_read_vector(row, width, "a slice row") for row in rows],
                              dtype=complex).reshape(dim, width)
            consts = _read_vector(comp["slice"]["constants"], dim, "the slice constants")
            points = [_read_vector(p, width, "a witness point") for p in comp["points"]]
            if len(points) != _read_int(comp, "degree"):
                raise CorruptFile("degree does not match the stored point count")
            ws = WitnessSet(system=system, slice=LinearSlice(coeffs, consts), points=points,
                            dimension=dim, component_index=_read_int(comp, "index"), patch=patch)
            components.setdefault(dim, []).append(ws)
        for dim, sets in components.items():
            # sample --index picks a component by its position in sets
            sets.sort(key=lambda w: w.component_index)
            if [w.component_index for w in sets] != list(range(len(sets))):
                raise CorruptFile(f"the dimension-{dim} component indices are not "
                                  f"0..{len(sets) - 1}")
        return NumericalVariety(components=components, system=system,
                                seed=_read_int(data, "seed"), patch=patch)
    except ParseError as exc:
        raise CorruptFile(f"embedded system does not parse: {exc}") from exc
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorruptFile(f"malformed decomposition: {exc}") from exc


def write_decomposition(nv: NumericalVariety, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(decomposition_to_json(nv)))


def read_decomposition(path: str) -> NumericalVariety:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CorruptFile(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CorruptFile(f"{path} is not valid JSON: {exc}") from exc
    return decomposition_from_json(data)


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) and a newline, written
    directly: json's encoder is pure Python when it indents."""
    return _json(obj, "\n") + "\n"


def _json(obj, indent: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it at the
    line break and blanks indent."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict) and obj:
        inner = indent + "  "
        return "{" + ",".join([f"{inner}{encode_basestring_ascii(k)}: {_json(obj[k], inner)}"
                               for k in sorted(obj)]) + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        inner = indent + "  "
        return "[" + ",".join([inner + _json(v, inner) for v in obj]) + indent + "]"
    if type(obj) is int:
        return repr(obj)
    return json.dumps(obj)  # a bool, None, a float or an empty container


# -- request handling ------------------------------------------------------------

def _load_problem(path: str, projective_flag=False, affine_flag=False):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CorruptFile(f"cannot read {path}: {exc}") from exc
    spec = parse_input_file(text, path)
    if affine_flag and spec.declared_projective:
        raise DimensionMismatch(
            "--affine conflicts with the file's 'projective;' statement")
    projective = projective_flag or (spec.declared_projective and not affine_flag)
    return spec, projective


def _systems_match(a: PolySystem, b: PolySystem) -> bool:
    return (a.variables == b.variables and a.parameters == b.parameters
            and len(a.polys) == len(b.polys)
            and all(p == q for p, q in zip(a.polys, b.polys)))


def _parse_point(text: str, expected_len: int):
    parts = [s for s in text.split(",")]
    if len(parts) != expected_len:
        raise DimensionMismatch(
            f"point {text!r} has {len(parts)} coordinates, expected {expected_len}")
    return [parse_complex_literal(s.strip()) for s in parts]


def _matching_decomposition(args) -> NumericalVariety:
    spec, _ = _load_problem(args.file)
    nv = read_decomposition(args.decomposition)
    if not _systems_match(spec.system, nv.system):
        raise DimensionMismatch(
            "decomposition was computed from a different system than FILE")
    return nv


# Each handler takes the parsed command line and returns the JSON payload.

def _solve(args) -> dict:
    spec, projective = _load_problem(args.file, args.projective, args.affine)
    sols = zero_dim_solve(spec.system, projective=projective, seed=args.seed)
    return {
        "schemaVersion": SCHEMA_VERSION,
        "mode": "solve",
        "seed": args.seed,
        "projective": projective,
        "solutions": [_solution_json(sp) for sp in sols],
    }


def _posdim(args) -> dict:
    spec, projective = _load_problem(args.file, args.projective, args.affine)
    nv = numerical_irreducible_decomposition(
        spec.system, projective=projective, seed=args.seed)
    return decomposition_to_json(nv)


def _refine(args) -> dict:
    spec, _ = _load_problem(args.file)
    try:
        with open(args.solutions, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptFile(f"cannot read solutions: {exc}") from exc
    if not isinstance(data, dict) or "solutions" not in data:
        raise CorruptFile("solutions file has no 'solutions' array")
    points = [_solution_from_json(d) for d in data["solutions"]]
    refined = _sharpen(spec.system, points, args.digits)
    return {
        "schemaVersion": SCHEMA_VERSION,
        "mode": "refine",
        "digits": args.digits,
        "solutions": [_solution_json(sp) for sp in refined],
    }


def _param(args) -> dict:
    spec, _ = _load_problem(args.file)
    if not spec.system.parameters:
        raise DimensionMismatch("param mode needs a file with a 'params' statement")
    tuples = []
    for chunk in args.values.split(";"):
        chunk = chunk.strip()
        if chunk:
            tuples.append([parse_complex_literal(s.strip())
                           for s in chunk.split(",")])
    if not tuples:
        raise DimensionMismatch("--values contained no parameter tuples")
    result = parameter_homotopy(spec.system, list(spec.system.parameters),
                                tuples, seed=args.seed)
    return {
        "schemaVersion": SCHEMA_VERSION,
        "mode": "param",
        "seed": args.seed,
        "parameterTuples": [[_fmt_complex(v) for v in t] for t in tuples],
        "startParameters": [_fmt_complex(v) for v in result.start_parameters],
        "pathsPerTuple": result.paths_per_tuple,
        "solutionSets": [[_solution_json(sp) for sp in sols] for sols in result],
    }


def _member(args) -> dict:
    nv = _matching_decomposition(args)
    pts = [_parse_point(p, nv.system.num_vars) for p in args.point]
    memberships = membership_test(nv, pts)
    return {
        "schemaVersion": SCHEMA_VERSION,
        "mode": "member",
        "points": [[_fmt_complex(c) for c in p] for p in pts],
        "memberships": [[f"{dim}/{idx}" for dim, idx in hits]
                        for hits in memberships],
    }


def _sample(args) -> dict:
    nv = _matching_decomposition(args)
    sets = nv.components.get(args.dim, [])
    if not 0 <= args.index < len(sets):
        raise DimensionMismatch(
            f"no component {args.dim}/{args.index} in the decomposition")
    pts = sample_witness(sets[args.index], args.count, Rng(args.seed))
    return {
        "schemaVersion": SCHEMA_VERSION,
        "mode": "sample",
        "seed": args.seed,
        "dim": args.dim,
        "index": args.index,
        "count": args.count,
        "points": [[_fmt_complex(c) for c in p] for p in pts],
    }


_HANDLERS = {"solve": _solve, "posdim": _posdim, "refine": _refine,
             "param": _param, "member": _member, "sample": _sample}


# -- argument parsing --------------------------------------------------------------

class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The command-line parser, built on the first call and then shared by
    every main() call in the process: parse_args keeps no state between
    calls."""
    parser = _ArgumentParser(prog="polypath",
                             description="Polynomial system solving by homotopy continuation")
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p, seed=True, out=True, proj=False):
        p.add_argument("file", help="problem file (see the input grammar in the README)")
        if proj:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--projective", action="store_true",
                               help="solve on a generic affine chart of projective space")
            group.add_argument("--affine", action="store_true",
                               help="force an affine run even if the file says projective")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", help="write JSON here instead of stdout")

    common(sub.add_parser("solve", help="all isolated solutions"), proj=True)
    common(sub.add_parser("posdim", help="numerical irreducible decomposition"), proj=True)

    p = sub.add_parser("refine", help="sharpen solutions to many digits")
    common(p, seed=False)
    p.add_argument("--solutions", required=True, help="JSON produced by 'solve'")
    p.add_argument("--digits", type=int, required=True)

    p = sub.add_parser("param", help="two-stage parameter homotopy")
    common(p)
    p.add_argument("--values", required=True,
                   help="semicolon-separated tuples of comma-separated complex literals")

    p = sub.add_parser("member", help="test points against a decomposition")
    common(p, seed=False, out=True)
    p.add_argument("--decomposition", required=True)
    p.add_argument("--point", action="append", default=[], required=True,
                   help="comma-separated coordinates; repeatable")

    p = sub.add_parser("sample", help="sample points from one component")
    common(p)
    p.add_argument("--decomposition", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    return parser


def _error_payload(exc) -> str:
    info = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, ParseError):
        info["error"]["line"] = exc.line
        info["error"]["column"] = exc.column
    return _dumps(info)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1

    try:
        output = _dumps(_HANDLERS[args.mode](args))
    except _NUMERIC_ERRORS as exc:
        sys.stdout.write(_error_payload(exc))
        return 2
    except _USAGE_ERRORS as exc:
        sys.stdout.write(_error_payload(exc))
        return 1

    if not args.out:
        sys.stdout.write(output)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    except OSError as exc:
        sys.stdout.write(_error_payload(exc))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
