"""The three closed-loop workloads, each a sequence of identical rounds.

A round makes its inputs from the run's random stream, runs a fixed set of
CLI calls through ``call(argv)`` and checks every output against known
answers with the residuals in systems.py.  ``call`` returns the exit code,
the wall time of ``polypath.cli.main`` and anything it printed.

Each round has one main call, which builds a result from a problem file,
and follow-up calls:

- solve-td: main is `solve` of katsura-5 plus `solve` of cyclic-5 at one
  seed; the follow-ups are `refine --digits 30` of each of the two results.
- param-sweep: main is one `param` call over SWEEP_TUPLES tuples; the
  follow-ups are SINGLE_CALLS `param` calls with one tuple each.
- witness-sphere-line: main is `posdim`; the follow-ups are one `member`
  call over MEMBER_POINTS points and two `sample` calls of SAMPLE_COUNT.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import systems

SWEEP_TUPLES = 16
SINGLE_CALLS = 6
MEMBER_POINTS = 16
SAMPLE_COUNT = 8
ROOT_TOL = 1e-6          # distinct roots are farther apart than this
# The tracker's own success gate, 1e-8 * max(1, |z|), scaled here by
# (1 + |z|)^degree so it is never tighter: an output failing it is not a root.
RESIDUAL_TOL = 1e-8


@dataclass
class RoundResult:
    """What one round did and what its outputs were found to be."""

    main_s: float = 0.0
    follow_s: float = 0.0
    follow_items: int = 0
    by_kind: dict = field(default_factory=dict)   # call kind -> [seconds, items]
    attempted: int = 0
    failed: int = 0           # ops whose call crashed or exited non-zero
    short: int = 0            # ops whose answer fell short of the known one (failed ops too)
    found: int = 0            # verified answers (distinct roots, correct replies)
    known: int = 0            # answers a correct run gives
    invalid: int = 0          # outputs failing substitution: a non-root, a point off the variety
    problems: list = field(default_factory=list)

    def timed(self, kind: str, secs: float, items: int, main: bool):
        if main:
            self.main_s += secs
        else:
            self.follow_s += secs
            self.follow_items += items
        acc = self.by_kind.setdefault(kind, [0.0, 0])
        acc[0] += secs
        acc[1] += items

    def op(self, ok: bool, what: str, count: int = 1):
        """An op that ran and returned an answer; not ok if it fell short."""
        self.attempted += count
        if not ok:
            self.short += count
            self.problems.append(what)

    def error(self, what: str, count: int = 1):
        """An op that crashed or exited non-zero: failed, and short of the answer."""
        self.op(False, what, count)
        self.failed += count


def _coords(rows) -> list:
    return [np.array([complex(float(c["re"]), float(c["im"])) for c in row]) for row in rows]


def _load(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _residual_ok(residual, z, degree) -> bool:
    scale = (1.0 + float(np.max(np.abs(z)))) ** degree
    return float(np.max(np.abs(residual(z)))) <= RESIDUAL_TOL * scale


def _distinct(points) -> list:
    out = []
    for p in points:
        if all(np.max(np.abs(p - q)) >= ROOT_TOL * (1.0 + np.max(np.abs(q))) for q in out):
            out.append(p)
    return out


def _on_variety(p) -> bool:
    return _residual_ok(systems.sphere_line_residual, p, 3)


def _literal_point(p) -> str:
    return ",".join(systems.complex_literal(c) for c in p)


def _fresh(path: Path) -> str:
    path.unlink(missing_ok=True)
    return str(path)


class SolveTD:
    name = "solve-td"
    degree = {"katsura5": 2, "cyclic5": 5}

    def __init__(self, work: Path):
        self.work = work
        self.files = {}
        for key, (text, _) in systems.SYSTEMS.items():
            self.files[key] = work / f"{key}.sys"
            self.files[key].write_text(text, encoding="utf-8")

    def inputs(self, rng):
        return {"seed": int(rng.integers(0, 2**31))}

    def run_round(self, inp, call) -> RoundResult:
        r = RoundResult()
        solved = {}
        for key in self.degree:
            out = self.work / f"{key}.json"
            rc, secs, _ = call(["solve", str(self.files[key]), "--seed", str(inp["seed"]),
                                "--out", _fresh(out)])
            r.timed("solve", secs, 1, main=True)
            solved[key] = self._check_solve(r, key, rc, _load(out) if rc == 0 else None)
        for key, sols in solved.items():
            if not sols:
                r.op(False, f"refine {key}: the solve gave nothing to refine")
                continue
            ref = self.work / "refined.json"
            rc, secs, _ = call(["refine", str(self.files[key]),
                                "--solutions", str(self.work / f"{key}.json"),
                                "--digits", "30", "--out", _fresh(ref)])
            r.timed("refine", secs, len(sols), main=False)
            self._check_refine(r, key, rc, _load(ref) if rc == 0 else None, sols)
        return r

    def _check_solve(self, r, key, rc, data):
        known = systems.KNOWN_ROOTS[key]
        r.known += known
        if data is None:
            r.error(f"solve {key}: exit {rc}")
            return []
        sols = data["solutions"]
        points = _coords(s["coordinates"] for s in sols)
        residual = systems.SYSTEMS[key][1]
        good = [p for p in points if _residual_ok(residual, p, self.degree[key])]
        bad = len(points) - len(good)
        distinct = len(_distinct(good))
        jumps = sum(1 for s in sols if s["multiplicity"] >= 2 and s["cycleNumber"] == 1)
        r.found += min(distinct, known)
        r.invalid += bad
        r.op(bad == 0 and distinct >= known and jumps == 0,
             f"solve {key}: {distinct}/{known} verified roots, {jumps} path jumps, "
             f"{bad} failing the residual check")
        return points

    def _check_refine(self, r, key, rc, data, before):
        r.known += len(before)
        if data is None:
            r.error(f"refine {key}: exit {rc}")
            return
        after = _coords(s["coordinates"] for s in data["solutions"])
        residual = systems.SYSTEMS[key][1]
        ok = [_residual_ok(residual, p, self.degree[key]) for p in after]
        stayed = [np.max(np.abs(p - q)) <= ROOT_TOL * (1.0 + np.max(np.abs(p)))
                  for p, q in zip(before, after)]
        bad = ok.count(False)
        moved = stayed.count(False)
        r.invalid += bad
        r.found += sum(1 for good, kept in zip(ok, stayed) if good and kept)
        r.op(bad == 0 and moved == 0 and len(after) == len(before),
             f"refine {key}: {bad} roots failing the residual check, {moved} moved away")


class ParamSweep:
    name = "param-sweep"

    def __init__(self, work: Path):
        self.work = work
        self.file = work / "family.sys"
        self.file.write_text(systems.FAMILY, encoding="utf-8")

    def inputs(self, rng):
        return {"seed": int(rng.integers(0, 2**31)),
                "sweep": [systems.family_tuple(rng) for _ in range(SWEEP_TUPLES)],
                "singles": [(int(rng.integers(0, 2**31)), systems.family_tuple(rng))
                            for _ in range(SINGLE_CALLS)]}

    def _param(self, call, seed, tuples):
        out = self.work / "param.json"
        values = ";".join(_literal_point(t) for t in tuples)
        rc, secs, _ = call(["param", str(self.file), "--values", values,
                            "--seed", str(seed), "--out", _fresh(out)])
        return rc, secs, (_load(out) if rc == 0 else None)

    def run_round(self, inp, call) -> RoundResult:
        r = RoundResult()
        rc, secs, data = self._param(call, inp["seed"], inp["sweep"])
        r.timed("sweep", secs, len(inp["sweep"]), main=True)
        self._check(r, rc, data, inp["sweep"])
        for seed, tup in inp["singles"]:
            rc, secs, data = self._param(call, seed, [tup])
            r.timed("single", secs, 1, main=False)
            self._check(r, rc, data, [tup])
        return r

    def _check(self, r, rc, data, tuples):
        r.known += 2 * len(tuples)
        if data is None:
            r.error(f"param: exit {rc}", len(tuples))
            return
        if len(data["solutionSets"]) != len(tuples):
            r.op(False, f"param: {len(data['solutionSets'])} solution sets for "
                        f"{len(tuples)} tuples", len(tuples))
            return
        for tup, sols in zip(tuples, data["solutionSets"]):
            points = _coords(s["coordinates"] for s in sols)
            good = [p for p in points
                    if _residual_ok(lambda z: systems.family_residual(z, tup), p, 2)]
            distinct = len(_distinct(good))
            r.invalid += len(points) - len(good)
            r.found += min(distinct, 2)
            r.op(distinct >= 2 and len(good) == len(points),
                 f"param tuple: {distinct}/2 verified roots")


class WitnessSphereLine:
    name = "witness-sphere-line"

    def __init__(self, work: Path):
        self.work = work
        self.file = work / "sphereline.sys"
        self.file.write_text(systems.SPHERE_LINE, encoding="utf-8")
        self.nv = work / "nv.json"

    def inputs(self, rng):
        return {"seed": int(rng.integers(0, 2**31)),
                "queries": systems.sphere_line_queries(rng, MEMBER_POINTS),
                "sample_seeds": [int(rng.integers(0, 2**31)) for _ in range(2)]}

    def run_round(self, inp, call) -> RoundResult:
        r = RoundResult()
        rc, secs, _ = call(["posdim", str(self.file), "--seed", str(inp["seed"]),
                            "--out", _fresh(self.nv)])
        r.timed("posdim", secs, 1, main=True)
        nv = _load(self.nv) if rc == 0 else None
        self._check_nid(r, rc, nv)
        dims = {comp["dim"] for comp in nv["components"]} if nv else set()

        out = self.work / "member.json"
        argv = ["member", str(self.file), "--decomposition", str(self.nv), "--out", _fresh(out)]
        for p, _ in inp["queries"]:
            argv += ["--point", _literal_point(p)]
        rc, secs, _ = call(argv)
        r.timed("member", secs, len(inp["queries"]), main=False)
        self._check_member(r, rc, _load(out) if rc == 0 else None, inp["queries"])

        for (dim, label), seed in zip(((2, systems.SPHERE), (1, systems.LINE)),
                                      inp["sample_seeds"]):
            if nv and dim not in dims:
                # a wrong decomposition has no such component to sample from
                r.known += SAMPLE_COUNT
                r.op(False, f"sample {label}: the decomposition has no dimension-{dim} "
                            f"component")
                continue
            out = self.work / "sample.json"
            rc, secs, _ = call(["sample", str(self.file), "--decomposition", str(self.nv),
                                "--dim", str(dim), "--index", "0",
                                "--count", str(SAMPLE_COUNT), "--seed", str(seed),
                                "--out", _fresh(out)])
            r.timed("sample", secs, SAMPLE_COUNT, main=False)
            self._check_sample(r, rc, _load(out) if rc == 0 else None, label)
        return r

    def _check_nid(self, r, rc, data):
        expected = systems.SPHERE_LINE_SHAPE
        r.known += sum(len(v) for v in expected.values())
        if data is None:
            r.error(f"posdim: exit {rc}")
            return
        shape, off = {}, {}
        for comp in data["components"]:
            dim = comp["dim"]
            shape.setdefault(dim, []).append(comp["degree"])
            label = systems.SPHERE if dim == 2 else systems.LINE
            points = _coords(comp["points"])
            r.invalid += sum(1 for p in points if not _on_variety(p))
            off[dim] = off.get(dim, 0) + sum(1 for p in points
                                             if not systems.on_component(p, label))
        shape = {d: sorted(v) for d, v in shape.items()}
        r.found += sum(1 for d, v in expected.items() if shape.get(d) == v and not off.get(d))
        off = sum(off.values())
        r.op(shape == expected and off == 0,
             f"posdim: shape {shape}, expected {expected}, {off} witness points off their component")

    def _check_member(self, r, rc, data, queries):
        r.known += len(queries)
        if data is None:
            r.error(f"member: exit {rc}")
            return
        answers = list(zip(queries, data["memberships"]))
        missed = sum(1 for (_, want), got in answers if want - set(got))
        spurious = sum(1 for (_, want), got in answers if set(got) - want)
        wrong = sum(1 for (_, want), got in answers if set(got) != want)
        r.found += len(queries) - wrong
        r.op(wrong == 0 and len(answers) == len(queries),
             f"member: {wrong} wrong answers of {len(queries)} "
             f"({missed} missing a component, {spurious} naming a wrong one)")

    def _check_sample(self, r, rc, data, label):
        r.known += SAMPLE_COUNT
        if data is None:
            r.error(f"sample {label}: exit {rc}")
            return
        points = _coords(data["points"])
        off = sum(1 for p in points if not systems.on_component(p, label))
        r.found += len(points) - off
        r.invalid += sum(1 for p in points if not _on_variety(p))
        r.op(off == 0 and len(points) == SAMPLE_COUNT,
             f"sample {label}: {off} of {len(points)} points off the component")


WORKLOADS = {w.name: w for w in (SolveTD, ParamSweep, WitnessSphereLine)}
