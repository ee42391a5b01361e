"""Source hygiene of the package modules, read with ast (nothing is imported)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pflens"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
# __init__.py imports names to export them, so the unused-import check leaves it out
MODULES = [path for path in ALL_MODULES if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def imported_modules(source: str) -> set[str]:
    """Every module a source imports, at any depth; `from a import b` gives a and a.b."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def slow_scipy_imports(source: str) -> list[str]:
    """The scipy.integrate and scipy.optimize modules a source imports, sorted."""
    return sorted(
        name
        for name in imported_modules(source)
        if name.split(".")[:2] in (["scipy", "integrate"], ["scipy", "optimize"])
    )


def test_checker_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "x = np.zeros(os.path.sep.count('/'))\n"
    )
    assert unused_imports(source) == ["dataclass", "field"]


def test_modules_found():
    assert {path.name for path in MODULES} >= {"beamfit.py", "cli.py", "hankel.py"}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scipy_checker_sees_every_form_at_any_depth():
    source = (
        "import scipy.special\n"
        "from scipy import integrate, special\n"
        "def f():\n"
        "    import scipy.optimize as so\n"
        "    class C:\n"
        "        def g(self):\n"
        "            from scipy.integrate import quad\n"
        "from . import scipy\n"
    )
    assert slow_scipy_imports(source) == [
        "scipy.integrate",
        "scipy.integrate.quad",
        "scipy.optimize",
    ]


# scipy.integrate and scipy.optimize would add about a third to the start-up time; read
# from the source, this covers every code path, where a start-up probe runs only a few
@pytest.mark.parametrize("path", ALL_MODULES, ids=[path.name for path in ALL_MODULES])
def test_no_scipy_integrate_or_optimize(path):
    assert slow_scipy_imports(path.read_text(encoding="utf-8")) == []


def scipy_special_uses(source: str) -> dict[str, list[int]]:
    """Lines that import scipy.special or reach it as scipy.special, split into
    those run on import (outside any function) and those inside a function."""
    found = {"on import": [], "in a function": []}

    def reaches_special(node) -> bool:
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[:2] == ["scipy", "special"] for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module.split(".")
            return module[:2] == ["scipy", "special"] or (
                module == ["scipy"] and any(alias.name == "special" for alias in node.names)
            )
        # scipy loads its submodules lazily, so the attribute reaches it too
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "special"
            and isinstance(node.value, ast.Name)
            and node.value.id == "scipy"
        )

    def visit(node, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if reaches_special(child):
                found["in a function" if in_function else "on import"].append(child.lineno)
            functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            visit(child, in_function or isinstance(child, functions))

    visit(ast.parse(source), False)
    return found


def test_scipy_special_checker_sees_every_form_at_any_depth():
    source = (
        "import scipy.special\n"  # 1
        "from scipy import integrate, special\n"  # 2
        "import scipy.special as sp\n"  # 3
        "if True:\n"
        "    from scipy.special import erfc\n"  # 5
        "class C:\n"
        "    import scipy\n"
        "    j0 = scipy.special.j0\n"  # 8
        "    def method(self):\n"
        "        from scipy.special import j1\n"  # 10
        "def f():\n"
        "    def g():\n"
        "        import scipy.special\n"  # 13
        "    return lambda: scipy.special.jn_zeros\n"  # 14
        "from scipy import optimize\n"
        "from . import special\n"
        "from .special import erfc\n"
        "import scipy_special\n"
    )
    assert scipy_special_uses(source) == {
        "on import": [1, 2, 3, 5, 8],
        "in a function": [10, 13, 14],
    }


# scipy.special costs about 0.25 s and 23 MiB at start-up; only the Hankel
# transform's Bessel functions need it, so only hankel.py reaches it, and only
# when a transform is built
@pytest.mark.parametrize("path", ALL_MODULES, ids=[path.name for path in ALL_MODULES])
def test_scipy_special_never_loaded_on_import_and_only_by_hankel(path):
    uses = scipy_special_uses(path.read_text(encoding="utf-8"))
    assert uses["on import"] == []
    if path.name != "hankel.py":
        assert uses["in a function"] == []
