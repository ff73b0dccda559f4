"""Every function in ``src/commvar`` is entered by a command, or is listed here.

A fresh interpreter replays through ``cli.main`` every benchmark command
(``perfbench/golden.json``, with the benchmark's descriptor pool), every
README example, ``MORE_COMMANDS`` and ``commvar verify``, under
``sys.setprofile``, and each must exit 0; the commands are read as
``test_golden`` and ``test_readme`` read them.  It reports each function
defined in ``src/commvar`` that no call entered.
The interpreter is fresh because an ``lru_cache`` warmed by an earlier
test would hide the calls behind it.  ``perfbench/`` is only read.

The functions no command enters must be exactly ``UNREACHED``, each with
the reason it stays.  A function that no command needs and no reason
keeps belongs in the tests, next to ``symfunc_ops.py`` and
``series_oracle.py``; a listed function that a command starts to enter
leaves the list.

Every module-level ``lru_cache`` of the package is emptied before each
command and its hits are added up after it, so a hit counts only when
one command asks for the same value twice.  The caches that no command
hits must be exactly ``UNHIT``, each with the reason it stays: a cache
that pays on no command is cost without use, and goes.

Run as a script, this file prints the replay's JSON record.
"""

import ast
import contextlib
import functools
import io
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "commvar"

TRACED = "wrapped by the benchmark's layer tracer (perfbench/tracer.py)"
TRACED_HELPER = "called only by a function the benchmark's layer tracer wraps"
VALUE = "value dunder: repr, str, hash, equality or immutability"
ERROR_PATH = "runs only for help, usage or error text, or a failed check"

UNREACHED = {
    "arith.Poly.coeffs": "read by the tracer's coefficient-pair counter (_count_poly_mul)",
    "arith.Poly.__divmod__": TRACED,
    "arith.poly_gcd": TRACED,
    "arith._primitive": TRACED_HELPER,
    "arith.RatFunc.__add__": TRACED,
    "arith.RatFunc.__mul__": TRACED,
    "arith.TSeries.__mul__": TRACED,
    "arith.TSeries.__init__": TRACED_HELPER,
    "arith.TSeries.__eq__": TRACED_HELPER,
    "charmodel.point_count": TRACED,
    "oracle.commute": TRACED,
    "symfunc.mn_character": TRACED,
    "symfunc.SymFunc.principal_spec": TRACED,
    "symfunc.SymFunc.__mul__": TRACED,
    "symfunc._concat": TRACED_HELPER,
    "arith.Frozen.__eq__": VALUE,
    "arith.Frozen.__repr__": VALUE,
    "arith.Frozen.__setattr__": VALUE,
    "arith.Poly.__repr__": VALUE,
    "arith.Poly.__str__": VALUE,
    "arith.RatFunc.__repr__": VALUE,
    "charmodel.GradedSpace.__repr__": VALUE,
    "charmodel.GradedSpace.__setattr__": VALUE,
    "charmodel.QPower.__str__": VALUE,
    "partitions.Partition.__repr__": VALUE,
    "partitions.Partition.__setattr__": VALUE,
    "symfunc.SymFunc.__hash__": VALUE,
    "symfunc.SymFunc.__repr__": VALUE,
    "cli.build_parser": ERROR_PATH,
    "verify.CrossCheck.describe": ERROR_PATH,
    "arith.Poly.__neg__": "-p, the ring's negation, which the tests write",
    "arith.Poly.__rsub__": "c - p for a scalar c, which the tests write",
}

#: module-level caches that no command hits, each with the reason it stays
UNHIT: dict[str, str] = {}


def defined_functions() -> dict[tuple[str, str, int], str]:
    """(file name, function name, line) -> ``module.Class.function`` for every
    function in the package, keyed by both its ``def`` line and its first
    decorator line, so the key of its code object matches on every Python."""
    names = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for line in {child.lineno, *(d.lineno for d in child.decorator_list)}:
                    names[(path.name, child.name, line)] = prefix + child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return names


# poincare of every space at n = 5 and two series, which neither the
# goldens nor the README run; with them, no gcd (``poly_gcd``,
# ``Poly.__divmod__``) runs on any space's rank recurrence either
MORE_COMMANDS = [
    *(
        ["poincare", "--space", space, "--variety", variety, "-n", "5"]
        for space in ("cn", "sn", "coh")
        for variety in ("point", "torus", "p1", "punctured")
    ),
    ["poincare", "--space", "flag", "-n", "5"],
    ["poincare", "--space", "bgln", "-n", "5"],
    ["series", "zeta", "--variety", "punctured", "-q", "4"],
    ["series", "groupoid", "--variety", "torus", "-q", "3", "--t-order", "3"],
]


def commands(descriptor_dir: Path) -> list[list[str]]:
    """The argv of every golden command, README example, ``MORE_COMMANDS``
    and ``verify``."""
    from test_golden import GOLDEN, write_descriptors
    from test_readme import readme_examples

    paths = write_descriptors(descriptor_dir)
    argvs = [[paths.get(tok, tok) for tok in shlex.split(command)] for command in sorted(GOLDEN)]
    argvs += [shlex.split(command)[1:] for command, _, _ in readme_examples()]
    return argvs + MORE_COMMANDS + [["verify"]]


def module_caches() -> dict[str, object]:
    """``module.function`` -> the function, for every ``lru_cache`` bound
    at module level in a loaded ``commvar`` module; a cache imported
    into another module is named once, by the module that defines it."""
    caches = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name.startswith("commvar."):
            for attr, value in vars(mod).items():
                if hasattr(value, "cache_info") and getattr(value, "__module__", None) == mod_name:
                    caches[f"{mod_name.removeprefix('commvar.')}.{attr}"] = value
    return caches


def replay() -> dict:
    """Run every command under the profiler; the record of what it entered
    and of the hits of each module-level cache within a command."""
    sys.path.insert(0, str(PACKAGE.parent))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        # on before the first import of commvar, so that calls made while
        # a module loads count as entered
        sys.setprofile(profile)
        try:
            argvs = commands(Path(tmp))
            from commvar import cli

            caches = module_caches()
            hits = dict.fromkeys(caches, 0)
            for argv in argvs:
                for cache in caches.values():
                    cache.cache_clear()
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if cli.main(argv) != 0:
                        failed.append(argv)
                for name, cache in caches.items():
                    hits[name] += cache.cache_info().hits
        finally:
            sys.setprofile(None)
    assert Path(cli.__file__).resolve().parent == PACKAGE, cli.__file__
    names = defined_functions()
    reached = {
        names.get((Path(code.co_filename).name, code.co_name, code.co_firstlineno))
        for code in entered
        if Path(code.co_filename).resolve().parent == PACKAGE
    }
    return {
        "commands": len(argvs),
        "failed": failed,
        "unreached": sorted(set(names.values()) - reached),
        "cache_hits": hits,
    }


@functools.cache
def child_record() -> dict:
    """The replay's record, from one fresh interpreter shared by the tests."""
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_every_function_is_entered_by_a_command_or_listed():
    record = child_record()
    assert record["failed"] == []
    assert record["commands"] >= 275 + 10 + len(MORE_COMMANDS) + 1
    assert set(record["unreached"]) == set(UNREACHED)


def test_every_module_cache_is_hit_within_a_command_or_listed():
    hits = child_record()["cache_hits"]
    assert hits, "the replay found no module-level cache"
    unhit = {name for name, count in hits.items() if count == 0}
    assert unhit == set(UNHIT), f"unhit and not listed: {sorted(unhit - set(UNHIT))}"


def test_the_function_index_names_methods_and_decorated_functions():
    names = set(defined_functions().values())
    assert {"arith.Poly.coeffs", "arith.pochhammer_ints", "cli.main", "arith.Frozen.__eq__"} <= names


if __name__ == "__main__":
    print(json.dumps(replay()))
