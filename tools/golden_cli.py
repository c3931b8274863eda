#!/usr/bin/env python3
"""Fixed-seed CLI golden set: capture every mode's output, or diff two captures.

Usage, from the root of a source tree:

    python3 tools/golden_cli.py golden.json                   # capture
    python3 tools/golden_cli.py new.json --against golden.json
    python3 tools/golden_cli.py old.json --src OTHER_TREE/src  # another checkout

Runs the CLI in-process on the benchmark's inputs (perfbench/systems.py):

- `solve` and `refine --digits 30` of katsura-5 and cyclic-5 at seeds 0-9,
  and `refine --digits 30` of each refine output, the one call that reads
  33-digit coordinates at full precision;
- `param` of the conic family over 16 tuples at seeds 0-9;
- `param` edge cases at seeds 0-2 (EDGE_PARAMS): conic tuples with a zero
  entry, small conic tuples, a family whose terms merge when specialized
  and one whose degree drops at a = 0;
- sphere-line `posdim` at seeds 0-39;
- `member` of 16 query points and `sample` of the dimension-2 and
  dimension-1 components against the `posdim` result at seeds 0-9;
- `refine --digits 30` of a hand-written katsura-5 solutions file whose
  coordinates use every form the reader takes (LITERAL_POINTS), and of
  the same file with one coordinate "1/3" and with one decimal exponent of
  10 001, whose call prints an error payload;
- malformed inputs, whose calls print error payloads: `solve` of each
  problem-file case of tests/test_parser.py's PARSE_ERRORS, `param --values`
  of each literal case, and `member` and `sample` against each of
  tests/test_cli.py's MALFORMED_DECOMPOSITIONS of the seed-0 `posdim` result.

Each call's exit code, stdout and `--out` file go into one JSON object keyed
by call name.  With `--against FILE` the calls whose record differs from
FILE's are listed and the exit code is 1 if there is any.  For each such
call the tool prints the JSON fields that differ (list indices written as
`[]`), each with its largest relative change where the values are numbers,
and the largest |new - old| / (1 + ||old point||_inf) over the points (lists
of {"re", "im"} strings) of its output, computed in decimal arithmetic at
80 digits.  A differing `posdim` call also gets its old and new component
shape, {dim: degrees}.
"""

from __future__ import annotations

import argparse
import decimal
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)
POSDIM_SEEDS = range(40)
TUPLES = 16
QUERIES = 16
SAMPLE_COUNT = 8

# `param` edge cases, (family, tuples): conic tuples with a zero entry, each
# of which drops a term and two of which ((1, 1, 0), (1, 2, 0)) have a
# double root; conic tuples (a, 1, 1) with small a, whose roots (+-a^-1/2, 0)
# lie far from the start roots; terms that merge when specialized, to a sum
# that vanishes at (1, 1, 1) in f2; and f1 of degree 3 that has degree 2 at
# a = 0
EDGE_PARAMS = {
    "conic": (None, "1,0,1;1,1,0;0.5-1*I,0,2;1,2,0"),
    "small": (None, "0.01,1,1;3e-3,1,1;0.001,1,1"),
    "merging": ("vars x, y;\nparams a, b, c;\nf1 = a*x^2 + b*x^2 + c*x^2 + y^2 - 1;\n"
                "f2 = y - a*x + b*x;\n", "1,2,3;1,1,1;0.3+0.2*I,-1,0.5"),
    "degree-drop": ("vars x, y;\nparams a;\nf1 = a*x*y^2 + x^2 - 1;\nf2 = y;\n",
                    "0;2;-0.5*I"),
}
EDGE_SEEDS = range(3)

# katsura-5's root (1, 0, 0, 0, 0, 0), three times, its coordinates written
# in every form the solutions reader takes: a sign, blanks, "1." and ".5",
# 40-digit mantissas, subnormal and exponent-10000 strings, an integer
# quotient and JSON numbers
LITERAL_POINTS = [
    [("+1", " -0.0 "), ("0.", "1e-320"), (".0", "5e-324"), ("0e10000", "1e-10000"),
     (0, 0.0), ("\t-0E-5 ", ".5e-30")],
    [("0.9999999999999999999999999999999999999999",
      "-1.234567890123456789012345678901234567890e-25"),
     ("1.e-20", "+.5e-17"), ("-2.5E-19", "1/300000000000000000000"),
     ("-1e-10000", "0e-10000"), (1e-300, "-0"),
     ("  4.000000000000000000000000000000000000001e-22 ", "0.0")],
    [("1.000000000000000000000000000000000000001", "5E-324"), (".5e-16", "-1.e-19"),
     (2.5e-17, "+0.0"), ("+1e-18", "-.5e-18"), ("3e-320", "-5e-324"),
     ("1E+0", "-0.0000000000000000000000000000000000000001")],
]


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("output", help="write the captured calls to this JSON file")
    p.add_argument("--against", help="a capture to compare with; exit 1 on any difference")
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="directory holding the polypath package to run (default: this tree's)")
    return p.parse_args(argv)


def _calls(work: Path, systems):
    """(name, argv, --out path) of every call, in run order; every path is new."""
    import numpy as np

    files = {}
    for name, text in (("katsura5", systems.katsura_text(5)), ("cyclic5", systems.cyclic_text(5)),
                       ("family", systems.FAMILY), ("sphereline", systems.SPHERE_LINE)):
        files[name] = work / f"{name}.sys"
        files[name].write_text(text, encoding="utf-8")

    def literal(p):
        return ",".join(systems.complex_literal(c) for c in p)

    for seed in SEEDS:
        for key in ("katsura5", "cyclic5"):
            sols = work / f"{key}-{seed}.json"
            yield f"solve {key} {seed}", ["solve", str(files[key]), "--seed", str(seed),
                                          "--out", str(sols)], sols
            out = work / f"refine-{key}-{seed}.json"
            yield f"refine {key} {seed}", ["refine", str(files[key]), "--solutions", str(sols),
                                           "--digits", "30", "--out", str(out)], out
            again = work / f"rerefine-{key}-{seed}.json"
            yield f"rerefine {key} {seed}", ["refine", str(files[key]), "--solutions", str(out),
                                             "--digits", "30", "--out", str(again)], again
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        values = ";".join(literal(systems.family_tuple(rng)) for _ in range(TUPLES))
        out = work / f"param-{seed}.json"
        yield f"param {seed}", ["param", str(files["family"]), "--values", values,
                                "--seed", str(seed), "--out", str(out)], out
    for case, (text, values) in EDGE_PARAMS.items():
        family = files["family"]
        if text:
            family = work / f"{case}.sys"
            family.write_text(text, encoding="utf-8")
        for seed in EDGE_SEEDS:
            out = work / f"param-{case}-{seed}.json"
            yield f"param {case} {seed}", ["param", str(family), "--values", values,
                                           "--seed", str(seed), "--out", str(out)], out
    for seed in POSDIM_SEEDS:
        nv = work / f"posdim-{seed}.json"
        yield f"posdim {seed}", ["posdim", str(files["sphereline"]), "--seed", str(seed),
                                 "--out", str(nv)], nv
        if seed not in SEEDS:
            continue
        rng = np.random.default_rng(1000 + seed)
        argv = ["member", str(files["sphereline"]), "--decomposition", str(nv)]
        for p, _ in systems.sphere_line_queries(rng, QUERIES):
            argv += ["--point", literal(p)]
        out = work / f"member-{seed}.json"
        yield f"member {seed}", argv + ["--out", str(out)], out
        for dim in (2, 1):
            out = work / f"sample-{dim}-{seed}.json"
            yield f"sample {dim} {seed}", ["sample", str(files["sphereline"]),
                                           "--decomposition", str(nv), "--dim", str(dim),
                                           "--index", "0", "--count", str(SAMPLE_COUNT),
                                           "--seed", str(seed), "--out", str(out)], out
    yield from _literal_calls(work, files)
    yield from _error_calls(work, files)


def _literal_calls(work: Path, files):
    """refine of LITERAL_POINTS, and of two edits of it."""
    edits = {"": None, " one-third": (1, 0, "re", "1/3"),
             " exponent-10001": (0, 3, "im", "1e-10001")}
    for suffix, edit in edits.items():
        points = [[{"re": re, "im": im} for re, im in p] for p in LITERAL_POINTS]
        if edit:
            k, j, part, text = edit
            points[k][j][part] = text
        sols = work / f"literals{suffix.replace(' ', '-')}.json"
        sols.write_text(json.dumps({"solutions": [{
            "conditionNumber": "1.0", "coordinates": p, "cycleNumber": 1,
            "functionResidual": "0.0", "lastT": "0.0", "maxPrecisionBits": 53,
            "newtonResidual": "0.0", "solutionNumber": k,
        } for k, p in enumerate(points)]}), encoding="utf-8")
        out = work / f"refine-{sols.name}"
        yield f"refine literals{suffix}", ["refine", str(files["katsura5"]), "--solutions",
                                           str(sols), "--digits", "30", "--out", str(out)], out


def _error_calls(work: Path, files):
    """The malformed-input calls; each prints an error payload to stdout."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_cli
    import test_parser

    none = work / "no-out"
    for k, (entry, text, *_) in enumerate(test_parser.PARSE_ERRORS):
        if entry == "file":
            path = work / f"error-{k}.sys"
            path.write_text(text, encoding="utf-8")
            yield f"error solve {k}", ["solve", str(path)], none
        elif entry == "literal":
            yield f"error param {k}", ["param", str(files["family"]), "--values",
                                       f"{text},1,1"], none
    base = json.loads((work / "posdim-0.json").read_text(encoding="utf-8"))
    for case, edit in sorted(test_cli.MALFORMED_DECOMPOSITIONS.items()):
        data = json.loads(json.dumps(base))
        edit(data)
        nv = work / f"malformed-{case.replace(' ', '-')}.json"
        nv.write_text(json.dumps(data), encoding="utf-8")
        points = [a for q in test_cli.MALFORMED_QUERIES for a in ("--point", q)]
        yield f"error member {case}", ["member", str(files["sphereline"]),
                                       "--decomposition", str(nv), *points], none
        yield f"error sample {case}", ["sample", str(files["sphereline"]),
                                       "--decomposition", str(nv), "--dim", "1", "--index",
                                       "1", "--count", "2"], none


def capture(src: str) -> dict:
    # one BLAS thread: the problems are tiny, and threads could change bits
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import systems
    from polypath import cli

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, argv, out in _calls(work, systems):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            records[name] = {"exit": code, "stdout": buf.getvalue().replace(tmp, "<work>"),
                             "out": out.read_text(encoding="utf-8") if out.exists() else None}
    return records


def differing(new: dict, old: dict) -> list:
    """Names of the calls whose records differ, or that only one side has."""
    return [name for name in sorted(set(new) | set(old)) if new.get(name) != old.get(name)]


def _is_point(value) -> bool:
    return bool(value) and all(isinstance(c, dict) and set(c) == {"re", "im"} for c in value)


def _decimal(value):
    """A JSON number or numeric string as a finite Decimal, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        out = decimal.Decimal(value)
    except decimal.InvalidOperation:
        return None
    return out if out.is_finite() else None


def _deviation(new, old) -> float:
    """|new - old|_inf / (1 + |old|_inf) for two points of decimal strings."""
    parse = [[(decimal.Decimal(c["re"]), decimal.Decimal(c["im"])) for c in p]
             for p in (new, old)]
    gap = max(((a - c) ** 2 + (b - d) ** 2).sqrt() for (a, b), (c, d) in zip(*parse))
    size = max((c * c + d * d).sqrt() for c, d in parse[1])
    return float(gap / (1 + size))


def _compare(new, old, path, fields, deviations):
    """Walk two JSON values side by side.  fields maps the path of every leaf
    that differs to the largest relative change |new - old| / |old| over its
    numeric leaves (None if some leaf there is not a nonzero number);
    deviations gets the deviation of every pair of points of equal length."""
    if isinstance(new, dict) and isinstance(old, dict):
        for key in sorted(set(new) | set(old)):
            _compare(new.get(key), old.get(key), f"{path}.{key}" if path else key,
                     fields, deviations)
    elif isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        if _is_point(new) and _is_point(old):
            deviations.append(_deviation(new, old))
        for a, b in zip(new, old):
            _compare(a, b, path + "[]", fields, deviations)
    elif new != old:
        a, b = _decimal(new), _decimal(old)
        rel = float(abs(a - b) / abs(b)) if a is not None and b else None
        if path not in fields:
            fields[path] = rel
        elif fields[path] is not None:
            fields[path] = None if rel is None else max(fields[path], rel)


def _parsed(record) -> dict:
    """A call record with its stdout and --out file parsed where they are JSON."""
    out = dict(record)
    for key in ("stdout", "out"):
        try:
            out[key] = json.loads(record[key])
        except (KeyError, TypeError, ValueError):
            pass
    return out


def explain(new, old):
    """The differing fields of one call's records, each with its largest
    relative change (see _compare), and the largest point deviation (None
    when no points pair up)."""
    fields, deviations = {}, []
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        _compare(_parsed(new or {}), _parsed(old or {}), "", fields, deviations)
    return fields, max(deviations, default=None)


def shape(record):
    """The {dim: sorted degrees} of a posdim record's decomposition, or None
    when the record has none."""
    try:
        components = json.loads(record["out"])["components"]
    except (TypeError, KeyError, ValueError):
        return None
    out = {}
    for c in components:
        out.setdefault(c["dim"], []).append(c["degree"])
    return {dim: sorted(out[dim]) for dim in sorted(out)}


def main(argv=None) -> int:
    args = _parse_args(argv)
    records = capture(args.src)
    Path(args.output).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    print(f"{len(records)} calls written to {args.output}")
    if not args.against:
        return 0
    old = json.loads(Path(args.against).read_text(encoding="utf-8"))
    diff = differing(records, old)
    worst = None
    for name in diff:
        fields, deviation = explain(records.get(name), old.get(name))
        print(f"differs: {name}")
        if name.startswith("posdim "):
            print(f"  shape {shape(old.get(name))} -> {shape(records.get(name))}")
        for field, rel in sorted(fields.items()):
            print(f"  {field}" + ("" if rel is None else f" (relative change up to {rel:.2e})"))
        if deviation is not None:
            print(f"  largest point deviation {deviation:.2e}")
            worst = deviation if worst is None else max(worst, deviation)
    print(f"{len(records) - len(diff)} of {len(set(records) | set(old))} calls identical")
    if worst is not None:
        print(f"largest point deviation over all calls {worst:.2e}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
