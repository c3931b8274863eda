#!/usr/bin/env python3
"""In-process A/B timing of the tracker between two source trees.

Usage, from the root of a source tree:

    python3 tools/tracker_ab.py OLD_TREE/src NEW_TREE/src

Both trees' polypath packages are loaded into one process under different
names (polypath_old, polypath_new).  Each runs the same fixed inputs, built
from perfbench/systems.py:

- track-2: 2-path conic-family `track_paths`, one target tuple per call
  (param's single-tuple case);
- track-32: one `track_paths` of 16 tuples x 2 paths, a per-path homotopy
  (param's batched case);
- katsura-5 and cyclic-5: `zero_dim_solve` at a fixed seed;
- posdim: sphere-line `numerical_irreducible_decomposition` at a fixed seed;
- cli-param-1: single-tuple `param` calls through `cli.main`, one seed and
  tuple per call (the benchmark's follow-up calls);
- cli-param-16: one `param` call over 16 tuples (the benchmark's main call);
- cli-param-redo: one `param` call over 15 generic tuples and (1, 1, 0),
  whose double root is tracked a second time, with the endgame;
- cli-member: one `member` call of 16 query points against the tree's own
  sphere-line `posdim` output at a fixed seed;
- cli-sample: one `sample` call of 8 points of the sphere (the dimension-2
  component) against the same `posdim` output.

The sides alternate for PAIRS timed pairs per input, the order flipping
every pair.  For each input the
tool prints the median time per call of each side, the median of the
per-pair ratios new/old, the kernel evaluations (MonomialKernel calls),
LAPACK solves (calls of numpy's gesv gufunc, whichever function makes them)
and function calls per call on each side, counted in one extra untimed run,
and whether both sides returned the same result bit for bit: the tracker's
results, or the exit code, stdout and --out file of a CLI call.  A change
that keeps every floating-point operation must show equal solves and the
same results.  The function calls are cProfile's total_calls: calls of
Python functions and of C builtins such as ndarray methods and ufunc
methods (reduce, at).  Ufunc calls (np.abs) and array operators (a + b,
a[i]) are not counted.  Unlike the times, the count does not drift with the
host's speed, so it shows the bookkeeping a change removes.
BLAS runs on one thread, as in golden_cli.py.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import cProfile
import dataclasses
import importlib
import importlib.util
import io
import pstats
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import systems  # noqa: E402

TRACK_TARGETS = 10      # track-2 and cli-param-1 calls per timed sample
SEED = 3
PAIRS = 21              # timed old/new pairs per input


def _load(src: str, name: str):
    """The polypath package under src, with its cli, imported as the package name."""
    init = Path(src) / "polypath" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def _cli_inputs(pp, work: Path):
    """The whole-call inputs for one tree, its files in work."""
    family, sphere_line = work / "family.sys", work / "sphereline.sys"
    family.write_text(systems.FAMILY, encoding="utf-8")
    sphere_line.write_text(systems.SPHERE_LINE, encoding="utf-8")
    out, nv = work / "out.json", work / "nv.json"

    def literal(p):
        return ",".join(systems.complex_literal(c) for c in p)

    def call(argv):
        out.unlink(missing_ok=True)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = pp.cli.main(argv + ["--out", str(out)])
        return code, buf.getvalue(), out.read_bytes() if out.exists() else None

    def param(seed, tuples):
        return call(["param", str(family), "--values", ";".join(map(literal, tuples)),
                     "--seed", str(seed)])

    rng = np.random.default_rng(SEED)
    singles = [(int(rng.integers(0, 2**31)), systems.family_tuple(rng))
               for _ in range(TRACK_TARGETS)]
    sweep = [systems.family_tuple(rng) for _ in range(16)]
    pp.cli.main(["posdim", str(sphere_line), "--seed", str(SEED), "--out", str(nv)])
    member = ["member", str(sphere_line), "--decomposition", str(nv)]
    for p, _ in systems.sphere_line_queries(rng, 16):
        member += ["--point", literal(p)]
    redo = [systems.family_tuple(rng) for _ in range(15)] + [np.array([1, 1, 0], dtype=complex)]
    sample = ["sample", str(sphere_line), "--decomposition", str(nv), "--dim", "2",
              "--index", "0", "--count", "8", "--seed", str(SEED)]
    return [
        ("cli-param-1", TRACK_TARGETS, lambda: [param(seed, [t]) for seed, t in singles], repr),
        ("cli-param-16", 1, lambda: [param(SEED, sweep)], repr),
        ("cli-param-redo", 1, lambda: [param(SEED, redo)], repr),
        ("cli-member", 1, lambda: [call(member)], repr),
        ("cli-sample", 1, lambda: [call(sample)], repr),
    ]


def _inputs(pp, work: Path):
    """(name, calls per sample, run, digest) of each input for one tree;
    run() makes the calls and returns what digest() turns into a comparable value."""
    tracker, zerodim, witness = pp.tracker, pp.zerodim, pp.witness

    def system(text):
        return pp.parse_input_file(text).system

    family = system(systems.FAMILY)
    rng = np.random.default_rng(SEED)
    p0 = systems.family_tuple(rng)
    starts = [s.coordinate_array() for s in zerodim.zero_dim_solve(family.specialize(p0),
                                                                   seed=SEED)]
    targets = [systems.family_tuple(rng) for _ in range(16)]

    def track2():
        return [tracker.track_paths(tracker.ParameterPathHomotopy(family, p0, p1), starts)
                for p1 in targets[:TRACK_TARGETS]]

    def track32():
        h = tracker.ParameterPathHomotopy(family, p0, np.repeat(targets, len(starts), axis=0))
        return [tracker.track_paths(h, starts * len(targets))]

    def paths(batches):
        return repr([(r.status.value, r.endpoint.tobytes(), r.last_t, r.cycle_number,
                      r.newton_residual, r.function_residual, r.steps_taken, r.reason)
                     for batch in batches for r in batch])

    katsura, cyclic = system(systems.katsura_text(5)), system(systems.cyclic_text(5))
    sphere_line = system(systems.SPHERE_LINE)

    def roots(sols):
        return repr([dataclasses.astuple(s) for s in sols])

    def components(nv):
        return repr({dim: [[p.tobytes() for p in ws.points] for ws in sets]
                     for dim, sets in sorted(nv.components.items())})

    return [
        ("track-2", TRACK_TARGETS, track2, paths),
        ("track-32", 1, track32, paths),
        ("katsura-5", 1, lambda: zerodim.zero_dim_solve(katsura, seed=SEED), roots),
        ("cyclic-5", 1, lambda: zerodim.zero_dim_solve(cyclic, seed=SEED), roots),
        ("posdim", 1, lambda: witness.numerical_irreducible_decomposition(sphere_line,
                                                                          seed=SEED),
         components),
    ] + _cli_inputs(pp, work)


def _counts(pp, run):
    """(kernel evaluations, LAPACK solves, function calls) made by one run()."""
    kernel = pp.polysys.MonomialKernel
    count = {"kernel": 0, "solve": 0}
    saved = kernel.__call__, _umath_linalg.solve

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    kernel.__call__ = counted("kernel", saved[0])
    _umath_linalg.solve = counted("solve", saved[1])
    profile = cProfile.Profile()
    try:
        profile.enable()
        run()
    finally:
        profile.disable()
        kernel.__call__, _umath_linalg.solve = saved
    # without the counting wrappers and the profiler's own disable()
    calls = pstats.Stats(profile).total_calls - count["kernel"] - count["solve"] - 1
    return count["kernel"], count["solve"], calls


def _timed(run) -> float:
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src", help="directory holding the old polypath package")
    p.add_argument("new_src", help="directory holding the new polypath package")
    args = p.parse_args(argv)
    packages = [_load(args.old_src, "polypath_old"), _load(args.new_src, "polypath_new")]
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / side for side in ("old", "new")]
        for work in works:
            work.mkdir()
        _compare(packages, works)
    return 0


def _compare(packages, works):
    print(f"{'input':14s} {'old ms':>9s} {'new ms':>9s} {'ratio':>7s} "
          f"{'kernel old/new':>15s} {'solves old/new':>15s} {'calls old/new':>17s}  same")
    for (name, calls, run_old, digest), (_, _, run_new, _) in zip(*map(_inputs, packages,
                                                                        works)):
        same = digest(run_old()) == digest(run_new())      # also a warm-up
        counts = [_counts(pp, run) for pp, run in zip(packages, (run_old, run_new))]
        old, new = [], []
        sides = ((run_old, old), (run_new, new))
        for i in range(PAIRS):
            for run, times in (sides[::-1] if i % 2 else sides):
                times.append(_timed(run))
        ratio = statistics.median(b / a for a, b in zip(old, new))
        (ko, so, fo), (kn, sn, fn) = counts
        print(f"{name:14s} {statistics.median(old) / calls * 1e3:9.3f} "
              f"{statistics.median(new) / calls * 1e3:9.3f} {ratio:7.3f} "
              f"{f'{ko / calls:g}/{kn / calls:g}':>15s} {f'{so / calls:g}/{sn / calls:g}':>15s}"
              f" {f'{fo / calls:g}/{fn / calls:g}':>17s}  {'yes' if same else 'NO'}")


if __name__ == "__main__":
    sys.exit(main())
