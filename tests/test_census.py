import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _module(ROOT / "tools" / "census.py", "census")
systems = _module(ROOT / "perfbench" / "systems.py", "census_systems")

ZERO_DIM_ROW = {"known": int, "roots": int, "clusters": list, "paths": int, "statuses": dict,
                "reasons": dict, "iterations": int, "longest_path": int, "wall_s": float}


def test_census_of_katsura3_at_two_seeds_has_the_bench_schema():
    rows = census.zero_dim_rows(systems, "katsura-3", seeds=range(2))
    doc = json.loads(json.dumps(census.document(ROOT / "src", rows, {})))
    assert set(doc) == {"schema", "machine", "git", "src_lines", "census", "medians"}
    assert doc["schema"] == census.SCHEMA
    assert set(doc["machine"]) == {"platform", "machine", "cpus", "python", "numpy"}
    assert doc["git"] is None or set(doc["git"]) == {"commit", "dirty"}
    lines = doc["src_lines"]
    assert "zerodim.py" in lines["files"] and lines["total"] == sum(lines["files"].values())
    assert list(doc["census"]) == ["katsura-3 seed 0", "katsura-3 seed 1"]
    for row in doc["census"].values():
        assert {key: type(value) for key, value in row.items()} == ZERO_DIM_ROW
        assert row["known"] == row["paths"] == 8
        assert 0 <= row["roots"] <= 8 and sum(row["statuses"].values()) == 8
        assert row["longest_path"] <= row["iterations"]
        assert all(m >= 2 for m in row["clusters"])


def test_census_against_compares_counts_and_never_times():
    rows = census.zero_dim_rows(systems, "katsura-3", seeds=[0])
    old = {"census": rows}
    slower = {name: dict(row, wall_s=row["wall_s"] + 1.0) for name, row in rows.items()}
    assert census.differing({"census": slower}, old) == {}
    fewer = {name: dict(row, roots=row["roots"] - 1) for name, row in rows.items()}
    diff = census.differing({"census": fewer}, old)
    assert list(diff) == ["katsura-3 seed 0"]
    before, after = diff["katsura-3 seed 0"]
    assert after["roots"] == before["roots"] - 1 and "wall_s" not in before
    assert census.differing({"census": {}}, old) == {"katsura-3 seed 0": (before, None)}
