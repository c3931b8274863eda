#!/usr/bin/env python3
"""polypath benchmark: closed-loop workloads through ``polypath.cli.main``.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload solve-td --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

One client thread calls the CLI entry point in-process, back to back, until
``--seconds`` have passed, and checks every output against known answers.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each round runs once untraced and
once with span tracing (same inputs, alternating order) and the JSON holds
the per-layer metrics plus the tracing overhead.  Metric definitions and
the layer-to-end-to-end predictions are in perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 9
REF_EVERY_S = 0.5       # time the reference loop at most this often
REF_SHARE = 0.05        # ... for about this share of the time since it last ran
REF_ITERS = 800         # one timed chunk: about 10 ms on a 2.x GHz Xeon
REF_CHUNK_S = 0.01
# setup_s is scaled to the host speed at which one reference chunk takes this
# long (about its fast state on the machine this was built on), using chunks
# timed just before and after each set-up probe.
NOMINAL_REF_CHUNK_S = 0.008
SETUP_REF_CHUNKS = 5
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("solve-td", "param-sweep", "witness-sphere-line")
# The problems have 2-6 variables, so a BLAS pool only adds overhead; one
# thread also keeps the benchmark within a 2-core machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    sys.path[:0] = [str(SRC), str(HERE)]
    from polypath import cli
    import tracing
    import workloads
    return cli, tracing, workloads


def _setup(args, workloads):
    """Work directory, workload object (writes the input files), first inputs."""
    import numpy as np
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](work)
    rng = np.random.default_rng(args.seed)
    return work, wl, rng, wl.inputs(rng)


def _probe(args) -> int:
    """One cold set-up in this fresh process; prints 'ready' when done."""
    _, _, workloads = _import_program()
    work, _, _, _ = _setup(args, workloads)
    print("ready", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 0


def _measure_setup(args, ref):
    """Wall time from spawning a fresh interpreter to the end of its set-up.

    Returns the raw seconds and the same time scaled to the nominal host
    speed by reference chunks timed just before and after the probe.
    """
    around = [ref.chunk() for _ in range(SETUP_REF_CHUNKS)]
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    around += [ref.chunk() for _ in range(SETUP_REF_CHUNKS)]
    wall = t1 - t0
    return wall, wall * NOMINAL_REF_CHUNK_S / statistics.fmean(around)


class RefLoop:
    """Wall times of a fixed loop that does not use polypath, taken between CLI calls.

    The host runs the same code at speeds up to 1.7x apart, in spells that
    last seconds to minutes (see DESIGN.md).  Timed in the same process on
    the same core, between calls, the loop slows with the host, so a round
    time divided by the loop's mean time stays put where the round time
    itself drifts.  The loop mixes what polypath spends its time on: small
    complex numpy solves and Python scalar arithmetic.  It runs only
    between calls, in chunks whose number grows with the time since it
    last ran, so a run's mean weights the host's state evenly over time.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._solve = np.linalg.solve
        self._a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self.samples = []
        self._last = float("-inf")

    def chunk(self) -> float:
        """Wall time of one chunk of the loop."""
        solve, a, b = self._solve, self._a, self._a[0]
        t0 = time.perf_counter()
        for _ in range(REF_ITERS):
            solve(a, b)
            x = sum(i * i for i in range(30))
            complex(1.1, 0.3) ** 7 * x
        return time.perf_counter() - t0

    def maybe_sample(self):
        gap = time.perf_counter() - self._last
        if gap < REF_EVERY_S:
            return
        chunks = 1 if self._last < 0 else max(1, round(REF_SHARE * gap / REF_CHUNK_S))
        for _ in range(chunks):
            self.samples.append(self.chunk())
        self._last = time.perf_counter()


def _cli_caller(cli, ref, problems):
    def call(argv):
        ref.maybe_sample()
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:   # a crash is a failed op, not the end of the run
                rc = -1
                problems.append(traceback.format_exc(limit=3))
            t1 = time.perf_counter()
        return rc, t1 - t0, buf.getvalue()
    return call


def _traced_caller(cli, ref, tracer, op_walls, problems):
    def call(argv):
        ref.maybe_sample()
        buf = io.StringIO()
        op_id = len(op_walls)
        with redirect_stdout(buf), redirect_stderr(buf):
            t0 = time.perf_counter()
            try:
                rc = tracer.call_op(op_id, lambda: cli.main(argv))
            except Exception:
                rc = -1
                problems.append(traceback.format_exc(limit=3))
            t1 = time.perf_counter()
        op_walls.append(t1 - t0)
        return rc, t1 - t0, buf.getvalue()
    return call


def _run(args, cli, tracing, workloads):
    work, wl, rng, inp = _setup(args, workloads)
    snapshot = tracing.pristine_snapshot()
    crashes = []
    ref = RefLoop()
    call = _cli_caller(cli, ref, crashes)
    rounds = []
    traced = {"rounds": 0, "untraced_s": 0.0, "traced_s": 0.0, "op_walls": []}
    tracer = tracing.Tracer() if args.trace else None
    traced_call = (_traced_caller(cli, ref, tracer, traced["op_walls"], crashes)
                   if args.trace else None)
    setup_times = []
    # Set-up probes run between rounds, spread over the run, so their median
    # sees the same mix of fast and slow host spells as the rounds do.
    probes = 0 if args.trace else SETUP_PROBES
    try:
        start = time.perf_counter()
        deadline = start + args.seconds
        done = 0
        while True:
            if args.trace:
                # same inputs untraced and traced, alternating which runs first
                order = (False, True) if traced["rounds"] % 2 == 0 else (True, False)
                for with_trace in order:
                    if with_trace:
                        tracer.install()
                        try:
                            res = wl.run_round(inp, traced_call)
                        finally:
                            tracer.uninstall()
                        traced["traced_s"] += res.main_s + res.follow_s
                    else:
                        _assert_pristine(tracing, snapshot)
                        res = wl.run_round(inp, call)
                        traced["untraced_s"] += res.main_s + res.follow_s
                    rounds.append(res)
                traced["rounds"] += 1
            else:
                _assert_pristine(tracing, snapshot)
                rounds.append(wl.run_round(inp, call))
            inp = wl.inputs(rng)
            done += 1
            while (len(setup_times) < probes and time.perf_counter()
                   >= start + args.seconds * len(setup_times) / probes):
                setup_times.append(_measure_setup(args, ref))
            # Start another round only if it still ends before the deadline
            # at the mean round time so far: a run lasts about --seconds
            # instead of overrunning by up to a whole round.
            now = time.perf_counter()
            if now + (now - start) / done >= deadline:
                break
        while len(setup_times) < probes:
            setup_times.append(_measure_setup(args, ref))
        _assert_pristine(tracing, snapshot)
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return rounds, crashes, tracer, traced, ref.samples, setup_times


def _assert_pristine(tracing, snapshot):
    leaked = tracing.leaked(snapshot)
    if leaked:
        raise RuntimeError(f"tracing wrappers left installed: {leaked}")


def _end_to_end(rounds, setup_times, ref_samples):
    # Times are pooled over the run (means), not medians of rounds: the host
    # alternates between a fast and a slow state every ~0.1 s, and the
    # median of a run's rounds jumps between the two where the pooled time
    # moves smoothly.  The gated time is the whole round in units of the
    # reference loop (RefLoop): on a 2-core shared VM, whose slow spells
    # last minutes, ten runs per workload spread 0.18-0.29 in seconds and
    # 0.04-0.105 in reference loops (the same runs; DESIGN.md).
    known = sum(r.known for r in rounds)
    round_s = statistics.fmean(r.main_s + r.follow_s for r in rounds)
    return {
        "setup_s": (statistics.median(scaled for _, scaled in setup_times), "s"),
        "round_cost": (round_s / statistics.fmean(ref_samples), "ref_loops"),
        "recall": (sum(r.found for r in rounds) / known if known else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _kind_totals(rounds):
    out = {}
    for r in rounds:
        for kind, (secs, items) in r.by_kind.items():
            acc = out.setdefault(kind, [0.0, 0, []])
            acc[0] += secs
            acc[1] += items
            acc[2].append(secs)
    return out


def _named_metrics(name, rounds, e2e, setup_times, ref_samples, attempted, failed, short):
    """The same run under the per-workload names of DESIGN.md (solve_s, nid_s, ...)."""
    kinds = _kind_totals(rounds)
    main_s = (statistics.fmean(r.main_s for r in rounds), "s")
    out = {"setup_s": e2e["setup_s"], "round_cost": e2e["round_cost"],
           "setup_wall_s": (statistics.median(wall for wall, _ in setup_times), "s"),
           "round_s": (statistics.fmean(r.main_s + r.follow_s for r in rounds), "s"),
           "ref_loop_ms": (statistics.fmean(ref_samples) * 1e3, "ms")}
    if name == "solve-td":
        out["solve_s"] = main_s
        if "refine" in kinds:
            out["refine_s"] = (statistics.fmean(kinds["refine"][2]), "s")
            secs, items, _ = kinds["refine"]
            out["refine_ms_per_root"] = (secs / items * 1e3, "ms")
    elif name == "param-sweep":
        secs, items, _ = kinds["sweep"]
        out["tuples_per_s"] = (items / secs, "1/s")
        secs, items, _ = kinds["single"]
        out["single_call_ms"] = (secs / items * 1e3, "ms")
    else:
        out["nid_s"] = main_s
        for kind, key in (("member", "member_per_s"), ("sample", "samples_per_s")):
            if kind in kinds:
                secs, items, _ = kinds[kind]
                out[key] = (items / secs, "1/s")
    key = "answer_recall" if name == "witness-sphere-line" else "root_recall"
    out[key] = e2e["recall"]
    out["ops_failed_ratio"] = (failed / attempted if attempted else 0.0, "ratio")
    out["ops_short_ratio"] = (short / attempted if attempted else 0.0, "ratio")
    out["peak_rss_mb"] = e2e["peak_rss_mb"]
    return out


def _trace_metrics(tracing, tracer, traced, rounds_traced):
    out = tracing.layer_metrics(tracer, rounds_traced)
    per = max(rounds_traced, 1)
    out["trace.overhead_s"] = (traced["traced_s"] - traced["untraced_s"]) / per
    out["trace.overhead_ratio"] = (traced["traced_s"] / traced["untraced_s"] - 1.0
                                   if traced["untraced_s"] else 0.0)
    out["trace.spans"] = len(tracer.start) / per
    out["trace.accounting_error_s"] = _accounting_error(tracer, traced["op_walls"])
    return out


def _accounting_error(tracer, op_walls):
    """Largest gap, over ops, between summed self times and the op's wall time."""
    import numpy as np
    _, _, op, _, _ = tracer.arrays()
    sums = np.bincount(op[op >= 0], weights=tracer.self_times()[op >= 0],
                       minlength=len(op_walls))
    return float(np.max(np.abs(sums - np.asarray(op_walls)))) if op_walls else 0.0


def _metadata(args):
    import mpmath
    import numpy
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "src_lines": sum(p.read_bytes().count(b"\n")
                         for p in sorted((SRC / "polypath").glob("*.py"))),
    }
    meta.update(_git_state())
    return meta


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_state():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10, check=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True,
                                timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return {"git_commit": "unknown (not a git checkout)", "git_dirty": None}
    return {"git_commit": commit.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def _report(args, rounds, crashes, metrics, named, meta, trace_extra):
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    short = sum(r.short for r in rounds)
    invalid = sum(r.invalid for r in rounds)
    correct = invalid == 0 and not crashes
    print(f"# polypath benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# rounds {len(rounds)}, ops attempted {attempted}, failed {failed}, "
          f"short of the known answer {short}, outputs failing substitution {invalid}, "
          f"crashes {len(crashes)}")
    seen = {}
    for r in rounds:
        for p in r.problems:
            seen[p] = seen.get(p, 0) + 1
    for p, n in sorted(seen.items()):
        print(f"#   short x{n}: {p}")
    for c in crashes[:3]:
        print("#   crash: " + c.replace("\n", "\n#   "))
    for key, (value, unit) in named.items():
        print(f"{args.workload:20s} {key:32s} {value:14.6g} {unit}")
    for key, value in trace_extra.items():
        print(f"{args.workload:20s} {key:32s} {value:14.6g}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    extra = {"short": short, "invalid": invalid, "crashes": len(crashes)}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"meta": meta, "named": {k: v[0] for k, v in named.items()},
                   "rounds": [{"main_s": r.main_s, "follow_s": r.follow_s,
                               "follow_items": r.follow_items} for r in rounds],
                   **extra, **result},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))


def _run_all(args) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = m
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "polypath" / "cli.py").is_file():
        print(f"no polypath sources under {SRC}; run from a source tree", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        return _probe(args)
    if args.workload == "all":
        return _run_all(args)

    cli, tracing, workloads = _import_program()
    rounds, crashes, tracer, traced, ref_samples, setup_times = _run(
        args, cli, tracing, workloads)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    meta = _metadata(args)
    trace_extra = {}
    if args.trace:
        layer = _trace_metrics(tracing, tracer, traced, traced["rounds"])
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}.npz")
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}
        named = {}
        trace_extra = {"traced_rounds": traced["rounds"]}
        trace_extra.update(layer)
    else:
        e2e = _end_to_end(rounds, setup_times, ref_samples)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        named = _named_metrics(args.workload, rounds, e2e, setup_times, ref_samples,
                               attempted, failed, sum(r.short for r in rounds))
        meta["setup_probes_s"] = [wall for wall, _ in setup_times]
        meta["setup_probes_scaled_s"] = [scaled for _, scaled in setup_times]
        meta["ref_loop_samples"] = len(ref_samples)
    _report(args, rounds, crashes, metrics, named, meta, trace_extra)
    return 0


def _unit(metric: str) -> str:
    leaf = metric.rsplit(".", 1)[-1]
    if leaf.endswith("_s"):
        return "s"
    if leaf.startswith("us_"):
        return "us"
    if leaf.startswith("ms_"):
        return "ms"
    if leaf.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
