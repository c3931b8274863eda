import re
from pathlib import Path

import polypath

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _paragraph(text, opening):
    """The paragraph of text that starts with opening, up to the next blank line."""
    start = text.index(opening)
    end = text.find("\n\n", start)
    return text[start:end if end >= 0 else len(text)]


def test_every_main_entry_point_in_the_readme_is_in_the_package():
    names = re.findall(r"`([^`]*)`", _paragraph(README.read_text(), "Main entry points:"))
    assert "track_paths" in names
    for name in names:
        assert re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", name), name
        owner = polypath
        for part in name.split("."):
            assert hasattr(owner, part), name
            owner = getattr(owner, part)


def test_every_test_the_readme_names_exists():
    defined = set()
    for folder in ("tests", "perfbench"):
        for path in (ROOT / folder).glob("*.py"):
            defined.update(re.findall(r"^\s*def (test_\w+)", path.read_text(), re.M))
    names = re.findall(r"`(test_\w+)`", README.read_text())
    assert names
    for name in names:
        assert name in defined, name
