#!/usr/bin/env python3
"""Fixed-seed CLI golden set: capture every mode's output, or diff two captures.

Usage, from the root of a source tree:

    python3 tools/golden_cli.py golden.json                   # capture
    python3 tools/golden_cli.py new.json --against golden.json
    python3 tools/golden_cli.py old.json --src OTHER_TREE/src  # another checkout

Runs the CLI in-process on the benchmark's inputs (perfbench/systems.py):

- `solve` and `refine --digits 30` of katsura-5 and cyclic-5 at seeds 0-9;
- `param` of the conic family over 16 tuples at seeds 0-9;
- sphere-line `posdim` at seeds 0-39;
- `member` of 16 query points and `sample` of the dimension-2 and
  dimension-1 components against the `posdim` result at seeds 0-9.

Each call's exit code, stdout and `--out` file go into one JSON object keyed
by call name.  With `--against FILE` the calls whose record differs from
FILE's are listed and the exit code is 1 if there is any.
"""

from __future__ import annotations

import argparse
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
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        values = ";".join(literal(systems.family_tuple(rng)) for _ in range(TUPLES))
        out = work / f"param-{seed}.json"
        yield f"param {seed}", ["param", str(files["family"]), "--values", values,
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
    for name in diff:
        print(f"differs: {name}")
    print(f"{len(records) - len(diff)} of {len(set(records) | set(old))} calls identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
