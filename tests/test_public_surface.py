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
    assert len(exported) == 53


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


def test_the_spectral_coordinates_have_one_home():
    """``<x>.u / np.sqrt(<x>.lam)``, the coordinates U Lam^{-1/2} of H_A, is
    written once, in ``GramSpectrum.embed``; every other site reads it."""
    found = []
    for path in sorted((ROOT / "src" / "kvnext").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        homes = [
            range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and (path.name, node.name) == ("partial_op.py", "GramSpectrum")
        ]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Div)
                and getattr(node.left, "attr", None) == "u"
                and ast.unparse(node.right).startswith("np.sqrt(")
                and getattr(node.right.args[0], "attr", None) == "lam"
                and not any(node.lineno in home for home in homes)
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_a_n_is_read_off_the_spectrum_not_imported_from_kvn():
    """``GramSpectrum`` forms a_n and decides extendibility, so no module
    imports from ``.kvn``; the package's ``__init__`` re-exports its public
    names."""
    found = []
    for path in sorted((ROOT / "src" / "kvnext").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) == (1, "kvn"):
                found.append(f"{path.name}:{node.lineno}")
            # from . import kvn
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) == (1, None):
                if any(alias.name == "kvn" for alias in node.names):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_image_of_u_has_one_home():
    """``<x>.action @ <x>.u``, the factor Ad U of a_n, is written once, in
    ``GramSpectrum.image``; every other site calls that method."""
    found = []
    for path in sorted((ROOT / "src" / "kvnext").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        homes = [
            range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and (path.name, node.name) == ("partial_op.py", "GramSpectrum")
        ]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.MatMult)
                and getattr(node.left, "attr", None) == "action"
                and getattr(node.right, "attr", None) == "u"
                and not any(node.lineno in home for home in homes)
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_the_psd_flow_has_one_home():
    """The PSD flow (one certificate, else ``eigvalsh``) is written once, in
    ``numcore._psd_rule``: no other module names the certificate, and the Loewner statements of ``extension_set``
    (``_interval`` and ``in_interval``) reach every eigensolver through numcore."""
    certificates = {"_cholesky_certifies_psd"}
    solvers = {f"{np_}.linalg.{name}" for np_ in ("np", "numpy") for name in ("eigh", "eigvalsh")}
    found = []
    for path in sorted((ROOT / "src" / "kvnext").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in certificates and path.name != "numcore.py":
                found.append(f"{path.name}:{node.lineno} {name}")
        if path.name == "extension_set.py":
            loewner = [
                f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in ("_interval", "in_interval")
            ]
            assert len(loewner) == 2
            for node in (n for f in loewner for n in ast.walk(f)):
                if isinstance(node, ast.Attribute) and ast.unparse(node) in solvers:
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def test_membership_reads_one_factorization():
    """``in_interval`` decides membership by the interval theorem on one
    ``gram_spectrum``: it calls none of ``a_max``, ``_interval`` or
    ``_spectrum``, so it builds neither a_max nor the shifted operator."""
    tree = ast.parse((ROOT / "src" / "kvnext" / "extension_set.py").read_text(encoding="utf-8"))
    (member,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "in_interval"]
    called = [
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(member)
        if isinstance(node, ast.Call)
    ]
    assert called.count("gram_spectrum") == 1
    assert {"a_max", "_interval", "_spectrum"}.isdisjoint(called)


def test_functional_gram_is_only_the_order_oracle():
    """``functional_gram`` contracts (g(b_i* b_j))_ij on its own, rounding
    apart from a record's ``invol @ (w @ L)``: only ``functional_leq`` calls
    it, so no construction decides on a second copy of a record's Gram.  And
    the CLI applies no tolerance rule of its own: it names no ``_within``."""
    found = []
    for path in sorted((ROOT / "src" / "kvnext").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        oracle = [
            range(f.lineno, f.end_lineno + 1)
            for f in tree.body
            if isinstance(f, ast.FunctionDef) and (path.name, f.name) == ("star_algebra.py", "functional_leq")
        ]
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "functional_gram"
                and not any(node.lineno in home for home in oracle)
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            if name == "_within" and path.name == "cli.py":
                found.append(f"{path.name}:{node.lineno} _within")
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


def test_verdict_reductions_skip_numpys_dispatch_wrappers():
    """Norms that only feed a verdict go through ``numcore.fro`` and
    ``numcore._norms``, and reductions are array methods or ufunc reduces:
    ``np.linalg.norm`` stays only where the spectral norm is wanted or its
    value reaches a report, and no ``np.all/any/max/min/sum`` is used."""
    kept_norms = {
        ("numcore.py", "_above_data_cut"),  # the ord=2 spectral norm
        ("numcore.py", "_kernel_witness"),  # the reported witness y / ||y||
        ("schwarz.py", "gap"),  # the reported left side, squared
        ("schwarz.py", "estimate"),  # the reported estimate, squared
        ("schwarz.py", "_unit"),  # the estimate's iterates
        ("star_algebra.py", "fn_on_positive"),  # the reported value, squared
    }
    wrappers = {f"{np_}.{name}" for np_ in ("np", "numpy") for name in ("all", "any", "max", "min", "sum")}

    def visit(node, path, func, found):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute):
            name = ast.unparse(node)
            norm = name in ("np.linalg.norm", "numpy.linalg.norm")
            if name in wrappers or (norm and (path.name, func) not in kept_norms):
                found.append(f"{path.name}:{node.lineno} {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, func, found)

    found = []
    for path in sorted((ROOT / "src" / "kvnext").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None, found)
    assert found == []
