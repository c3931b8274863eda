"""Self-tests of the benchmark's inputs, checks and tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import systems  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from polypath import cli  # noqa: E402
from polypath.parser import parse_complex_literal, parse_input_file  # noqa: E402


def _system(text):
    return parse_input_file(text).system


def _random_points(rng, count, dim):
    return [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(count)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_katsura_bezout_number_is_its_root_count(n):
    system = _system(systems.katsura_text(n))
    assert system.num_vars == system.n == n + 1
    assert system.bezout_number() == 2 ** n
    assert systems.KNOWN_ROOTS.get(f"katsura{n}", 2 ** n) == 2 ** n


def test_cyclic5_bezout_number_and_known_count():
    system = _system(systems.cyclic_text(5))
    assert system.bezout_number() == 120
    assert systems.KNOWN_ROOTS["cyclic5"] == 70


@pytest.mark.parametrize("key", sorted(systems.SYSTEMS))
def test_residuals_match_the_parsed_systems(key):
    text, residual = systems.SYSTEMS[key]
    system = _system(text)
    for z in _random_points(np.random.default_rng(0), 5, system.num_vars):
        assert np.allclose(residual(z), system.evaluate(z), rtol=1e-12, atol=1e-12)


def test_family_residual_matches_the_parsed_family():
    family = _system(systems.FAMILY)
    rng = np.random.default_rng(1)
    for z in _random_points(rng, 5, 2):
        params = systems.family_tuple(rng)
        assert np.allclose(systems.family_residual(z, params), family.evaluate(z, params))


def test_sphere_line_residual_matches_the_parsed_system():
    system = _system(systems.SPHERE_LINE)
    for p in _random_points(np.random.default_rng(2), 5, 3):
        assert np.allclose(systems.sphere_line_residual(p), system.evaluate(p))


def test_query_points_satisfy_their_defining_equations():
    queries = systems.sphere_line_queries(np.random.default_rng(3), 40)
    assert {frozenset(want) for _, want in queries} == {
        frozenset({systems.SPHERE}), frozenset({systems.LINE}),
        frozenset({systems.SPHERE, systems.LINE}), frozenset()}
    for p, want in queries:
        x, y, z = p
        sphere = abs(x * x + y * y + z * z - 1.0)
        line = max(abs(x), abs(y))
        assert (sphere <= 1e-12) == (systems.SPHERE in want)
        assert (line <= 1e-12) == (systems.LINE in want)
        if not want:
            assert np.max(np.abs(systems.sphere_line_residual(p))) > 1e-3


def test_complex_literals_round_trip_exactly():
    for z in (0.1 + 0.2j, -1e-17 + 3j, 2.5 - 1e300j, complex(1 / 3, -2 / 7)):
        assert parse_complex_literal(systems.complex_literal(z)) == z


def test_only_calls_that_return_no_answer_are_failed_ops():
    r = workloads.RoundResult()
    r.op(True, "answer complete")
    r.op(False, "answer short of the known one", 2)
    r.error("exit 1", 3)
    assert (r.attempted, r.short, r.failed) == (6, 5, 3)
    assert r.problems == ["answer short of the known one", "exit 1"]


def test_tracer_restores_every_binding():
    snapshot = tracing.pristine_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracing.leaked(snapshot)) == len(snapshot)
    finally:
        tracer.uninstall()
    assert tracing.leaked(snapshot) == []
    assert not tracer.installed


def test_self_times_add_up_to_each_op(tmp_path):
    problem = tmp_path / "circles.sys"
    problem.write_text("vars x, y;\nf1 = x^2 + y^2 - 1;\nf2 = (x - 1)^2 + y^2 - 1;\n")
    snapshot = tracing.pristine_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in range(2):
            argv = ["solve", str(problem), "--seed", str(op), "--out", str(tmp_path / "o.json")]
            assert tracer.call_op(op, cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert tracing.leaked(snapshot) == []
    name, parent, op, start, end = tracer.arrays()
    roots = np.flatnonzero(parent == -1)
    assert [tracer.names[name[i]] for i in roots] == [tracing.ROOT, tracing.ROOT]
    self_t = tracer.self_times()
    for i in roots:
        in_op = op == op[i]
        assert np.all(start[in_op] >= start[i]) and np.all(end[in_op] <= end[i])
        assert abs(self_t[in_op].sum() - (end[i] - start[i])) < 1e-9
    metrics = tracing.layer_metrics(tracer, 2)
    statuses = ("success", "at_infinity", "step_failure", "max_steps")
    assert sum(metrics[f"tracker.paths.{s}"] for s in statuses) == 4   # Bezout number
    assert metrics["tracker.paths.success"] >= 2
    assert metrics["cli.main.self_s"] > 0
    assert metrics["algebra.lin_solve.calls"] > 0
