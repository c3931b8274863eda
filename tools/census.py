#!/usr/bin/env python3
"""Census of root counts, path statuses and decomposition shapes over many
seeds, with in-process medians per CLI mode: a BENCH file.

Usage, from the root of a source tree:

    python3 tools/census.py BENCH.json                        # this tree
    python3 tools/census.py old.json --src OTHER_TREE/src      # another checkout
    python3 tools/census.py new.json --against old.json        # diff the counts
    python3 tools/census.py quick.json --quick                 # posdim seeds 0-39

Runs one polypath package in-process on the inputs of perfbench/systems.py
and writes one JSON file: machine and git info, src_lines (the line count of
every polypath/*.py), the census rows and the medians.  Rows:

- zero-dimensional: `zero_dim_solve` of katsura-3..6 (8, 16, 32, 64 roots)
  and cyclic-5 (70) at seeds 0-9 and cyclic-6 (156) at seeds 0-2.  A row
  gives the roots found against the known count, the multiplicities of
  clusters of 2 or more paths, the statuses of the tracked paths and the
  reasons of those that failed (from `track_paths`, wrapped where zerodim
  binds it), the batch iterations (calls of `tracker._Paths._predict`) and
  the most steps any one path took: a tracker without phase barriers would
  need only as many iterations as that;
- sphere-line `posdim` at seeds 0-399 (0-39 with --quick): the shape
  {dim: degrees}, whether it is the known one, the error type if the
  decomposition raised, and the `track_paths` calls made from witness;
- conic: `solve` of {a*x^2 + y^2 - 1, y}, whose roots are (+-a^-1/2, 0), at
  a = 0.1, 0.01, 0.001 and 0.0001, and `param` of the conic family at
  (a, 1, 1) for a = 1e3, 1e6, 0.1, 0.01, 3e-3, 0.001, 1e8, 1e10, 1e12, at
  (1, 1e10, 1e10) and at (1, 1, 0), seeds 0-4, through `cli.main`: the
  roots reported against 2 (against 1 at (1, 1, 0), whose one root is
  double), the exit code and the error type.

Every row also has its wall time, wall_s.  The medians are the median wall
times of REPEATS in-process `cli.main` calls of each of solve (katsura-5),
refine (its output, 30 digits), param (16 conic tuples), posdim
(sphere-line), member (16 points) and sample (8 points of the sphere), all
at seed 0.

With --against OLD.json the rows whose counts differ from OLD's, or that
only one file has, are listed with their differing fields, and the exit code
is 1 if there is any.  Times are never compared.
"""

from __future__ import annotations

import os

# one BLAS thread: the problems are tiny, and threads could change bits
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import collections
import contextlib
import io
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "polypath-bench/1"
ZERO_DIM = {            # name: (generator, n, known roots, seeds)
    "katsura-3": ("katsura_text", 3, 8, range(10)),
    "katsura-4": ("katsura_text", 4, 16, range(10)),
    "katsura-5": ("katsura_text", 5, 32, range(10)),
    "katsura-6": ("katsura_text", 6, 64, range(10)),
    "cyclic-5": ("cyclic_text", 5, 70, range(10)),
    "cyclic-6": ("cyclic_text", 6, 156, range(3)),
}
POSDIM_SEEDS = range(400)
QUICK_POSDIM_SEEDS = range(40)
CONIC_SEEDS = range(5)
SOLVE_CONICS = ["0.1", "0.01", "0.001", "0.0001"]
PARAM_TUPLES = {"1e3,1,1": 2, "1e6,1,1": 2, "0.1,1,1": 2, "0.01,1,1": 2, "3e-3,1,1": 2,
                "0.001,1,1": 2, "1e8,1,1": 2, "1e10,1,1": 2, "1e12,1,1": 2, "1,1e10,1e10": 2,
                "1,1,0": 1}     # tuple: distinct roots
REPEATS = 5
TIME_KEY = "wall_s"     # the one field of a row that --against ignores


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("output", help="write the BENCH file to this path")
    p.add_argument("--against", help="a BENCH file to compare counts with; exit 1 on any "
                                     "difference")
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="directory holding the polypath package to run (default: this tree's)")
    p.add_argument("--quick", action="store_true", help="posdim at seeds 0-39 only")
    return p.parse_args(argv)


@contextlib.contextmanager
def _wrapped(owner, name, wrap):
    """owner.name replaced by wrap(owner.name) while the block runs."""
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _recording(calls):
    """A wrapper that appends the result of every call to calls."""
    def wrap(original):
        def recorded(*args, **kwargs):
            calls.append(original(*args, **kwargs))
            return calls[-1]
        return recorded
    return wrap


def zero_dim_rows(systems, name: str, seeds=None) -> dict:
    """The census rows of one ZERO_DIM system, at its seeds or the given ones."""
    from polypath import tracker, zerodim
    from polypath.parser import parse_input_file

    generator, n, known, default_seeds = ZERO_DIM[name]
    system = parse_input_file(getattr(systems, generator)(n)).system
    rows = {}
    for seed in default_seeds if seeds is None else seeds:
        tracked, predicts = [], []
        with _wrapped(zerodim, "track_paths", _recording(tracked)), \
                _wrapped(tracker._Paths, "_predict", _recording(predicts)):
            start = time.perf_counter()
            sols = zerodim.zero_dim_solve(system, seed=seed)
            wall = time.perf_counter() - start
        results = [res for call in tracked for res in call]
        failed = [res for res in results if res.status is not tracker.PathStatus.SUCCESS]
        rows[f"{name} seed {seed}"] = {
            "known": known,
            "roots": len(sols),
            "clusters": sorted(sp.multiplicity for sp in sols if sp.multiplicity >= 2),
            "paths": len(results),
            "statuses": dict(sorted(collections.Counter(
                res.status.value for res in results).items())),
            "reasons": dict(sorted(collections.Counter(res.reason for res in failed).items())),
            "iterations": len(predicts),
            "longest_path": max(res.steps_taken for res in results),
            TIME_KEY: wall,
        }
    return rows


def posdim_rows(systems, seeds) -> dict:
    """The sphere-line decomposition rows at seeds."""
    from polypath import witness
    from polypath.errors import PolyPathError
    from polypath.parser import parse_input_file

    system = parse_input_file(systems.SPHERE_LINE).system
    known = {str(dim): degrees for dim, degrees in systems.SPHERE_LINE_SHAPE.items()}
    rows = {}
    for seed in seeds:
        tracked = []
        shape = error = None
        start = time.perf_counter()
        with _wrapped(witness, "track_paths", _recording(tracked)):
            try:
                nv = witness.numerical_irreducible_decomposition(system, seed=seed)
                shape = {str(d): sorted(ws.degree for ws in nv.components[d])
                         for d in sorted(nv.components, reverse=True)}
            except PolyPathError as exc:
                error = type(exc).__name__
        rows[f"posdim seed {seed}"] = {
            "shape": shape,
            "correct": shape == known,
            "error": error,
            "track_paths_calls": len(tracked),
            TIME_KEY: time.perf_counter() - start,
        }
    return rows


def _cli(argv):
    """cli.main(argv) with stdout captured: (exit code, stdout, seconds)."""
    from polypath import cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - start


def _cli_row(argv, out: Path, count, known: int = 2) -> dict:
    """A conic row: the roots count(payload) of the --out payload against
    the known count, the exit code and the error type of a failed call."""
    code, stdout, wall = _cli(argv + ["--out", str(out)])
    roots, error = 0, None
    if code == 0:
        roots = count(json.loads(out.read_text(encoding="utf-8")))
    else:
        error = json.loads(stdout)["error"]["type"]
    return {"known": known, "roots": roots, "exit": code, "error": error, TIME_KEY: wall}


def conic_rows(systems, work: Path) -> dict:
    """The conic solve and param rows at CONIC_SEEDS."""
    family = work / "family.sys"
    family.write_text(systems.FAMILY, encoding="utf-8")
    out = work / "conic.json"
    rows = {}
    for a in SOLVE_CONICS:
        conic = work / f"conic-{a}.sys"
        conic.write_text(f"vars x, y;\nf1 = {a}*x^2 + y^2 - 1;\nf2 = y;\n", encoding="utf-8")
        for seed in CONIC_SEEDS:
            rows[f"solve conic a={a} seed {seed}"] = _cli_row(
                ["solve", str(conic), "--seed", str(seed)], out,
                lambda payload: len(payload["solutions"]))
    for values, known in PARAM_TUPLES.items():
        for seed in CONIC_SEEDS:
            rows[f"param conic ({values}) seed {seed}"] = _cli_row(
                ["param", str(family), "--values", values, "--seed", str(seed)], out,
                lambda payload: len(payload["solutionSets"][0]), known)
    return rows


def medians(systems, work: Path) -> dict:
    """Median seconds of REPEATS cli.main calls per mode."""
    import numpy as np

    files = {}
    for name, text in (("katsura5", systems.katsura_text(5)), ("family", systems.FAMILY),
                       ("sphereline", systems.SPHERE_LINE)):
        files[name] = work / f"{name}.sys"
        files[name].write_text(text, encoding="utf-8")

    def literal(p):
        return ",".join(systems.complex_literal(c) for c in p)

    rng = np.random.default_rng(0)
    values = ";".join(literal(systems.family_tuple(rng)) for _ in range(16))
    points = [a for p, _ in systems.sphere_line_queries(np.random.default_rng(1000), 16)
              for a in ("--point", literal(p))]
    sols, nv, scratch = work / "solve.json", work / "posdim.json", work / "out.json"
    modes = {
        "solve": ["solve", str(files["katsura5"]), "--seed", "0", "--out", str(sols)],
        "refine": ["refine", str(files["katsura5"]), "--solutions", str(sols), "--digits",
                   "30", "--out", str(scratch)],
        "param": ["param", str(files["family"]), "--values", values, "--seed", "0",
                  "--out", str(scratch)],
        "posdim": ["posdim", str(files["sphereline"]), "--seed", "0", "--out", str(nv)],
        "member": ["member", str(files["sphereline"]), "--decomposition", str(nv), *points,
                   "--out", str(scratch)],
        "sample": ["sample", str(files["sphereline"]), "--decomposition", str(nv), "--dim",
                   "2", "--index", "0", "--count", "8", "--seed", "0", "--out", str(scratch)],
    }
    out = {}
    for mode, argv in modes.items():
        times = []
        for _ in range(REPEATS):
            code, _, wall = _cli(argv)
            if code:
                raise RuntimeError(f"{mode} exited {code}")
            times.append(wall)
        out[mode] = {"median_s": statistics.median(times), "calls": REPEATS}
    return out


def _git(src: Path):
    """The commit and dirty flag of the git checkout holding src, or None."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return None


def document(src, census: dict, times: dict) -> dict:
    """The BENCH file of the package under src: machine, git, src_lines,
    the census rows and the medians."""
    import numpy as np

    src = Path(src).resolve()
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((src / "polypath").glob("*.py"))}
    return {
        "schema": SCHEMA,
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "git": _git(src),
        "src_lines": {"total": sum(lines.values()), "files": lines},
        "census": census,
        "medians": times,
    }


def differing(new: dict, old: dict) -> dict:
    """name: (old counts, new counts) of every census row whose counts (all
    fields but TIME_KEY) differ, or that only one document has (None)."""
    def counts(doc, name):
        row = doc["census"].get(name)
        return None if row is None else {k: v for k, v in row.items() if k != TIME_KEY}

    names = sorted(set(new["census"]) | set(old["census"]))
    pairs = {name: (counts(old, name), counts(new, name)) for name in names}
    return {name: pair for name, pair in pairs.items() if pair[0] != pair[1]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    import systems

    census = {}
    start = time.perf_counter()
    for name in ZERO_DIM:
        census.update(zero_dim_rows(systems, name))
    census.update(posdim_rows(systems, QUICK_POSDIM_SEEDS if args.quick else POSDIM_SEEDS))
    with tempfile.TemporaryDirectory() as tmp:
        census.update(conic_rows(systems, Path(tmp)))
        times = medians(systems, Path(tmp))
    doc = document(args.src, census, times)
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{len(census)} rows written to {args.output} in {time.perf_counter() - start:.1f} s")
    if not args.against:
        return 0
    old = json.loads(Path(args.against).read_text(encoding="utf-8"))
    diff = differing(doc, old)
    for name, (before, after) in diff.items():
        print(f"differs: {name}")
        if before is None or after is None:
            print(f"  only in {'new' if before is None else 'old'}")
            continue
        for key in sorted(set(before) | set(after)):
            if before.get(key) != after.get(key):
                print(f"  {key}: {before.get(key)} -> {after.get(key)}")
    names = set(census) | set(old["census"])
    print(f"{len(names) - len(diff)} of {len(names)} rows identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
