import ast
import inspect
import pathlib
import re

import kvnext

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_the_hermitian_part_has_one_home():
    """``0.5 * (x + x.conj().T)`` is written once, in ``numcore._herm``; every
    other site calls that kernel."""
    pattern = re.compile(r"0\.5 \* \(.*\.conj\(\)\.T\)")
    found = []
    for path in sorted((ROOT / "src" / "kvnext").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        homes = [
            range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == ("numcore.py", "_herm")
        ]
        for number, line in enumerate(text.splitlines(), start=1):
            if pattern.search(line) and not any(number in home for home in homes):
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert found == []


def test_the_tolerance_rule_has_one_home():
    """No module but ``numcore`` multiplies a tolerance into a threshold:
    every tol * (1 + scale) test goes through ``numcore._within``, and every
    rank cutoff lives in numcore."""
    tolerances = {"tol", "cmp_tol", "psd_tol", "rank_rel_eps"}

    def is_tolerance(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name in tolerances

    found = []
    for path in sorted((ROOT / "src" / "kvnext").glob("*.py")):
        if path.name == "numcore.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                if is_tolerance(node.left) or is_tolerance(node.right):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
