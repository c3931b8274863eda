import re
from pathlib import Path

import polypath

README = Path(__file__).resolve().parents[1] / "README.md"


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
