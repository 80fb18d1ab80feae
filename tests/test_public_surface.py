import inspect
import pathlib
import re

import kvnext

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_entry_points() -> set[str]:
    """Backticked names after the colon of each bullet in README's "Library
    entry points" section; the bullet's label and statement precede it."""
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets = re.findall(r"^- \*\*.*?(?=^\S|\Z)", section, flags=re.M | re.S)
    names = set()
    for bullet in bullets:
        listed = re.match(r"- \*\*[^*]+\*\*[^:]*:\s(.*)", bullet, flags=re.S).group(1)
        names.update(re.findall(r"`([A-Za-z_]\w*)`", listed))
    return names


def test_readme_lists_exactly_the_public_names():
    exported = {
        name
        for name, value in vars(kvnext).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    listed = _readme_entry_points()
    assert listed == exported, (sorted(listed - exported), sorted(exported - listed))
    assert len(exported) == 54
