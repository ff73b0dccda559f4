"""Module boundaries of ``src/commvar``.

A ``_``-prefixed name is private to the module that defines it, so no
``commvar`` module may import one from another; shared code lives under
a public name in the module that owns it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "commvar"
MODULES = sorted(SRC.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """``module.name`` for every private name imported from a commvar module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "commvar":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                prefix = "." * node.level + (module + "." if module else "")
                found.append(prefix + alias.name)
    return found


def test_detects_private_imports():
    assert private_imports("from .symfunc import SymFunc, _cofactor") == [".symfunc._cofactor"]
    assert private_imports("from commvar.arith import _make") == ["commvar.arith._make"]
    assert private_imports("from . import _kernel") == ["._kernel"]
    assert private_imports("from __future__ import annotations") == []
    assert private_imports("from functools import _lru_cache_wrapper") == []


def test_modules_found():
    assert {"arith.py", "symfunc.py", "charmodel.py", "series.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def commvar_imports(source: str) -> list[str]:
    """Every commvar module a source file imports, relative or absolute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "commvar":
                found.append("." * node.level + module)
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "commvar"]
    return found


def test_detects_commvar_imports():
    source = "import os\nimport commvar.arith\nfrom . import series\nfrom .arith import Poly\n"
    assert commvar_imports(source) == ["commvar.arith", ".", ".arith"]
    assert commvar_imports("from functools import lru_cache\n") == []


# The commvar modules each module imports.  The formula side (charmodel,
# series) reaches neither the enumerator (oracle) nor the resolver that
# builds its families (varieties), and the enumerator reaches only the
# bottom layer, so each route checks the other from its own code.
IMPORTS = {
    "__init__": set(),
    "arith": set(),
    "partitions": set(),
    "symfunc": {"arith", "partitions"},
    "charmodel": {"arith", "partitions", "symfunc"},
    "series": {"arith", "charmodel"},
    "oracle": {"arith"},
    "varieties": {"charmodel", "oracle"},
    "verify": {"arith", "charmodel", "oracle", "partitions", "series", "symfunc", "varieties"},
    "cli": {"arith", "charmodel", "oracle", "partitions", "series", "symfunc", "varieties", "verify"},
}


def imported_modules(path: Path) -> set[str]:
    return {name.lstrip(".").removeprefix("commvar.") for name in commvar_imports(path.read_text(encoding="utf-8"))}


def closure(module: str) -> set[str]:
    """``module`` and every commvar module it reaches through ``IMPORTS``."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += IMPORTS[name]
    return seen


def test_import_table_lists_every_module():
    assert set(IMPORTS) == {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_match_the_table(path):
    assert imported_modules(path) == IMPORTS[path.stem]


def test_oracle_takes_only_frozen_and_is_prime_from_arith():
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "commvar")
        for alias in node.names
    ]
    assert names == ["Frozen", "is_prime"]


def fraction_importers(source: str, module: str) -> list[str]:
    """``module.Class.function`` for every import of ``fractions`` in
    source, named by the function (or class, or module) that holds it."""
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}")
            elif isinstance(child, ast.Import):
                if any(alias.name.partition(".")[0] == "fractions" for alias in child.names):
                    found.append(name)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                if child.module.partition(".")[0] == "fractions":
                    found.append(name)
            else:
                visit(child, name)

    visit(ast.parse(source), module)
    return found


def test_detects_fraction_imports():
    source = "import fractions\nclass A:\n  def f(self):\n    if 1:\n      from fractions import F\n"
    assert fraction_importers(source, "m") == ["m", "m.A.f"]
    assert fraction_importers("from .fractions import x\nimport os\n", "m") == []


def test_only_poly_coeffs_imports_fractions():
    # Poly.coeffs, the Fraction view of a Poly, stays in src/ because the
    # benchmark's layer tracer counts coefficient pairs by reading it
    # (perfbench/tracer.py, _count_poly_mul).
    importers = []
    for path in MODULES:
        importers += fraction_importers(path.read_text(encoding="utf-8"), path.stem)
    assert importers == ["arith.Poly.coeffs"]


def fresh_modules(module: str, *flags: str, then: str = "pass") -> set[str]:
    """The modules a fresh interpreter, started with ``flags``, holds after
    importing ``module`` and running the statement ``then``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, *flags, "-c", f"import sys, {module}; {then}; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def loaded_submodules(module: str) -> list[str]:
    """The ``commvar.*`` modules a fresh interpreter holds after importing ``module``."""
    return sorted(m for m in fresh_modules(module) if m.startswith("commvar."))


def test_package_root_loads_no_submodule():
    assert loaded_submodules("commvar") == []


@pytest.mark.parametrize("module", ["oracle", "charmodel", "series"])
def test_a_fresh_import_loads_what_the_table_reaches(module):
    loaded = loaded_submodules(f"commvar.{module}")
    assert loaded == sorted(f"commvar.{name}" for name in closure(module))
    if module != "oracle":
        assert not {"commvar.oracle", "commvar.varieties"} & set(loaded)


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # -S keeps what site imports out of the count: only commvar's imports show.
    # argparse, with gettext, is imported only where argparse parses.
    unwanted = {"dataclasses", "inspect", "json", "argparse", "gettext"}
    assert fresh_modules("commvar.cli", "-S") & unwanted == set()


def test_a_command_argparse_need_not_parse_loads_no_argparse():
    run = "commvar.cli.main(['poincare', '--space', 'flag', '-n', '3'])"
    assert fresh_modules("commvar.cli", "-S", then=run) & {"argparse", "gettext"} == set()
    run = "commvar.cli.main(['poincare', '--space=flag', '-n', '3'])"
    assert "argparse" in fresh_modules("commvar.cli", "-S", then=run)


def test_no_command_loads_fraction_modules(tmp_path):
    # Rationals are constant Polys over ints; fractions (with decimal and
    # numbers) is imported only by Poly.coeffs, the Fraction view the tests
    # read and no command calls (test_only_poly_coeffs_imports_fractions).
    from commvar.verify import SUITES

    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps({"strata": [{"deg": 0}, {"deg": 1, "dim": 2, "eigenvalue": "1/2"}]}))
    argvs = [
        ["poincare", "--variety", "torus", "-n", "4"],
        ["poincare", "--space", "coh", "--variety", "p1", "-n", "3"],
        ["char", "--variety", "torus", "-n", "3", "-q", "3", "--cycle-type", "1^3"],
        ["char", "--variety", str(path), "-n", "3"],
        ["series", "groupoid", "--variety", "punctured", "-q", "3", "--t-order", "3"],
        ["series", "zeta", "--variety", "torus", "-q", "3"],
        ["series", "stable", "--variety", "p1"],
        ["count", "--family", "torus", "-n", "2", "-q", "2"],
    ]
    argvs += [["verify", "--suite", name] for name in SUITES]
    run = f"assert [commvar.cli.main(a) for a in {argvs!r}] == [0] * {len(argvs)}"
    loaded = fresh_modules("commvar.cli", "-S", then=run)
    assert loaded & {"fractions", "decimal", "numbers"} == set()
