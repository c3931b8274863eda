"""Span tracing of polypath's public functions, installed from outside.

The tracer wraps class methods and module functions of polypath in place
and restores the originals on uninstall, so src/polypath/ is untouched and
an untraced run executes the original code objects.  A module function is
patched in every module that imported it by name, because callers look it
up in their own module's globals.

Spans are kept in flat arrays (name, start, end, parent, op) while the run
lasts and are written out once at the end.  A span's self time is its
duration minus the durations of its direct children; spans nest strictly
because one thread makes every call.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (span name, module, class, method)
METHOD_TARGETS = [
    ("polysys.evaluate", "polysys", "PolySystem", "evaluate"),
    ("polysys.jacobian", "polysys", "PolySystem", "jacobian"),
    ("polysys.param_jacobian", "polysys", "PolySystem", "param_jacobian"),
    ("polysys.specialize", "polysys", "PolySystem", "specialize"),
    ("tracker.homotopy_eval", "tracker", "StraightLineHomotopy", "eval"),
    ("tracker.homotopy_eval", "tracker", "ParameterPathHomotopy", "eval"),
    ("tracker.homotopy_eval", "tracker", "SliceMoveHomotopy", "eval"),
]

# (span name, [(module that binds the function, name it is bound to)])
FUNCTION_TARGETS = [
    ("algebra.lin_solve", [("algebra", "lin_solve"), ("tracker", "lin_solve")]),
    ("algebra.condition_estimate", [("tracker", "condition_estimate"),
                                    ("zerodim", "condition_estimate"),
                                    ("polysys", "condition_estimate")]),
    ("tracker.track_path", [("zerodim", "track_path"), ("witness", "track_path")]),
    ("tracker.endgame", [("tracker", "endgame")]),
    ("zerodim.total_degree_start", [("zerodim", "total_degree_start"),
                                    ("witness", "total_degree_start")]),
    ("zerodim.dedupe", [("zerodim", "dedupe")]),
    ("zerodim.zero_dim_solve", [("zerodim", "zero_dim_solve"), ("cli", "zero_dim_solve")]),
    ("zerodim.parameter_homotopy", [("cli", "parameter_homotopy")]),
    ("zerodim.refine_solutions", [("cli", "refine_solutions")]),
    ("witness.numerical_irreducible_decomposition",
     [("cli", "numerical_irreducible_decomposition")]),
    ("witness.junk_removal", [("witness", "junk_removal")]),
    ("witness.monodromy_partition", [("witness", "monodromy_partition")]),
    ("witness.move_slice", [("witness", "move_slice")]),
    ("witness.membership_test", [("cli", "membership_test")]),
    ("witness.sample", [("cli", "sample_witness")]),
    ("parser.parse_input_file", [("cli", "parse_input_file")]),
    ("parser.parse_complex_literal", [("cli", "parse_complex_literal")]),
    ("cli.read_decomposition", [("cli", "read_decomposition")]),
    ("cli.main", [("cli", "main")]),
]

ROOT = "harness.op"
LAYERS = ("polysys", "algebra", "tracker", "zerodim", "witness", "parser", "cli", "harness")


def _size_of_arg(pos):
    return lambda args, result: len(args[pos])


def _path_note(args, result):
    return (result.status.value, int(result.steps_taken))


# What to keep from a call besides its timing, by span name.
NOTES = {
    "tracker.track_path": _path_note,
    "zerodim.dedupe": _size_of_arg(0),
    "zerodim.refine_solutions": _size_of_arg(1),
    "witness.membership_test": _size_of_arg(1),
    "witness.sample": lambda args, result: len(result),
    "zerodim.total_degree_start": lambda args, result: len(result.start_points),
}

# Calls of total_degree_start made from witness are superset attempts.
SITE_NAMES = {("witness", "total_degree_start"): "zerodim.total_degree_start@witness"}


def _module(name):
    return importlib.import_module(f"polypath.{name}")


def _bindings():
    """Every (owner object, attribute, span name) the tracer replaces."""
    out = []
    for span, mod, cls, meth in METHOD_TARGETS:
        owner = getattr(_module(mod), cls, None)
        if owner is not None and meth in vars(owner):
            out.append((owner, meth, span))
    for span, sites in FUNCTION_TARGETS:
        for mod, attr in sites:
            owner = _module(mod)
            if callable(getattr(owner, attr, None)):
                out.append((owner, attr, SITE_NAMES.get((mod, attr), span)))
    return out


def pristine_snapshot():
    """The current object behind every binding, to compare against later."""
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _ in _bindings()]


def leaked(snapshot) -> list:
    """Bindings that no longer hold the object recorded in snapshot."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, obj in snapshot if getattr(owner, attr) is not obj]


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.errors: dict[int, str] = {}
        self._stack = [-1]
        self._op = -1
        self._saved: list = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span):
        nid = self._id(span)
        note = NOTES.get(span.split("@")[0])
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer._op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                tracer.errors[idx] = type(exc).__name__
                raise
            ends[idx] = clock()
            stack.pop()
            if note is not None:
                tracer.notes[idx] = note(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, span in _bindings():
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def call_op(self, op_id, fn, *args):
        """Run fn(*args) as one op under a root span; returns its result."""
        self._op = op_id
        nid = self._id(ROOT)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._op = -1

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def self_times(self):
        _, parent, _, start, end = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def save(self, path):
        name, parent, op, start, end = self.arrays()
        error_idx = np.array(sorted(self.errors), dtype=np.int64)
        np.savez(path, names=np.array(self.names), name=name, parent=parent, op=op,
                 start=start, end=end, error_idx=error_idx,
                 error=np.array([self.errors[i] for i in error_idx.tolist()], dtype=str))


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics per traced round, from the recorded spans."""
    name, parent, op, start, end = tracer.arrays()
    dur = end - start
    self_t = tracer.self_times()
    base = [n.split("@")[0] for n in tracer.names]
    per = max(rounds, 1)

    def ids(span):
        return [i for i, b in enumerate(base) if b == span]

    def mask(span):
        return np.isin(name, ids(span))

    stats = {}
    for span in set(base):
        m = mask(span)
        calls = int(m.sum())
        stats[span] = (calls, float(dur[m].sum()), float(self_t[m].sum()))

    def calls(span):
        return stats.get(span, (0, 0.0, 0.0))[0] / per

    def self_s(span):
        return stats.get(span, (0, 0.0, 0.0))[2] / per

    def mean_us(span):
        c, d, _ = stats.get(span, (0, 0.0, 0.0))
        return _ratio(d, c) * 1e6

    def note_sum(span):
        return sum(tracer.notes.get(i, 0) for i in np.flatnonzero(mask(span)).tolist())

    out = {}
    for span in ("polysys.evaluate", "polysys.jacobian", "polysys.param_jacobian",
                 "algebra.lin_solve", "algebra.condition_estimate", "tracker.homotopy_eval"):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.us_per_call"] = mean_us(span)
        out[f"{span}.self_s"] = self_s(span)
    out["polysys.specialize.calls"] = calls("polysys.specialize")
    out["polysys.specialize.self_s"] = self_s("polysys.specialize")
    lin = np.flatnonzero(mask("algebra.lin_solve")).tolist()
    out["algebra.lin_solve.singular"] = sum(
        tracer.errors.get(i) == "SingularMatrix" for i in lin) / per

    for span in ("tracker.track_path", "tracker.endgame"):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.ms_per_call"] = mean_us(span) / 1e3
        out[f"{span}.self_s"] = self_s(span)
    paths = [tracer.notes[i] for i in np.flatnonzero(mask("tracker.track_path")).tolist()
             if i in tracer.notes]
    steps = sum(s for _, s in paths)
    out["tracker.steps"] = steps / per
    out["tracker.evals_per_step"] = _ratio(calls("tracker.homotopy_eval") * per, steps)
    for status, key in (("Success", "success"), ("AtInfinity", "at_infinity"),
                        ("StepFailure", "step_failure"), ("MaxSteps", "max_steps")):
        out[f"tracker.paths.{key}"] = sum(st == status for st, _ in paths) / per
    out["tracker.success_ratio"] = _ratio(sum(st == "Success" for st, _ in paths), len(paths))

    out["zerodim.total_degree_start.calls"] = calls("zerodim.total_degree_start")
    out["zerodim.total_degree_start.self_s"] = self_s("zerodim.total_degree_start")
    out["zerodim.dedupe.calls"] = calls("zerodim.dedupe")
    out["zerodim.dedupe.points_in"] = note_sum("zerodim.dedupe") / per
    out["zerodim.dedupe.self_s"] = self_s("zerodim.dedupe")
    refined = note_sum("zerodim.refine_solutions")
    out["zerodim.refine_solutions.ms_per_point"] = _ratio(
        stats.get("zerodim.refine_solutions", (0, 0.0, 0.0))[1], refined) * 1e3
    out["zerodim.refine_solutions.self_s"] = self_s("zerodim.refine_solutions")
    out["zerodim.zero_dim_solve.self_s"] = self_s("zerodim.zero_dim_solve")
    out["zerodim.parameter_homotopy.self_s"] = self_s("zerodim.parameter_homotopy")

    out.update(_witness_stages(tracer, name, parent, start, end, per))
    attempts = [i for i, n in enumerate(tracer.names) if n == "zerodim.total_degree_start@witness"]
    att_idx = np.flatnonzero(np.isin(name, attempts)).tolist()
    out["witness.superset.attempts"] = len(att_idx) / per
    out["witness.superset.paths"] = sum(tracer.notes.get(i, 0) for i in att_idx) / per
    moves = np.flatnonzero(mask("witness.move_slice")).tolist()
    failures = sum(tracer.errors.get(i) == "PathFailure" for i in moves)
    out["witness.move_slice.calls"] = len(moves) / per
    out["witness.move_slice.ms_per_call"] = mean_us("witness.move_slice") / 1e3
    out["witness.move_slice.failures"] = failures / per
    out["witness.move_slice.success_ratio"] = _ratio(len(moves) - failures, len(moves))
    for span, key in (("witness.membership_test", "membership_test"), ("witness.sample", "sample")):
        out[f"witness.{key}.ms_per_point"] = _ratio(
            stats.get(span, (0, 0.0, 0.0))[1], note_sum(span)) * 1e3

    out["parser.parse_input_file.calls"] = calls("parser.parse_input_file")
    out["parser.parse_input_file.ms_per_call"] = mean_us("parser.parse_input_file") / 1e3
    out["parser.parse_input_file.self_s"] = self_s("parser.parse_input_file")
    out["cli.read_decomposition.ms_per_call"] = mean_us("cli.read_decomposition") / 1e3
    out["cli.main.self_s"] = self_s("cli.main")

    layer_of = np.array([LAYERS.index(b.split(".")[0]) for b in base], dtype=np.int64)
    totals = np.bincount(layer_of[name], weights=self_t, minlength=len(LAYERS)) if name.size \
        else np.zeros(len(LAYERS))
    for layer, total in zip(LAYERS, totals):
        out[f"{layer}.self_s"] = float(total) / per
    return out


def _witness_stages(tracer, name, parent, start, end, per):
    """Stage times inside each numerical_irreducible_decomposition span."""
    def ids(span):
        return [i for i, n in enumerate(tracer.names) if n == span]

    stage = dict.fromkeys(("superset_s", "junk_s", "monodromy_s", "trace_s"), 0.0)
    junk_ids, mono_ids = ids("witness.junk_removal"), ids("witness.monodromy_partition")
    for nid_span in np.flatnonzero(np.isin(name, ids("witness.numerical_irreducible_decomposition"))):
        kids = np.flatnonzero(parent == nid_span)
        junk = [k for k in kids if name[k] in junk_ids]
        mono = [k for k in kids if name[k] in mono_ids]
        total = end[nid_span] - start[nid_span]
        superset = (start[junk[0]] if junk else end[nid_span]) - start[nid_span]
        junk_t = sum(end[k] - start[k] for k in junk)
        mono_t = sum(end[k] - start[k] for k in mono)
        stage["superset_s"] += superset
        stage["junk_s"] += junk_t
        stage["monodromy_s"] += mono_t
        stage["trace_s"] += total - superset - junk_t - mono_t
    return {f"witness.stage.{k}": float(v) / per for k, v in stage.items()}
