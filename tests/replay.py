"""One replay of every command that tier-1 checks at command level.

``child_record`` runs every benchmark command (``perfbench/golden.json``,
with the benchmark's descriptor pool), README example, ``MORE_COMMANDS``
and ``PATH_COMMANDS`` through ``cli.main`` in one fresh interpreter
under ``sys.setprofile``.  The record is keyed by the command line as
``golden.json`` writes it (``@dN`` tokens, not paths) or as the README
writes it after ``commvar``; each entry holds the exit code, the SHA-256
of stdout, the stdout itself where a test compares bytes (README
examples, ``MORE_COMMANDS``), stderr where it is not empty, the sorted
``module.function`` names of ``src/commvar`` entered, and the traceback
if the command raised; the replay goes on past it.  Every module-level
``lru_cache`` is emptied before each command, as a fresh interpreter has
it, so a cached function a command calls is entered at least once.  The
totals are ``unreached``, the functions no command entered, and
``cache_hits``, the hits within each command.  ``perfbench/`` is only read.

Run as ``python tests/replay.py``, it prints the record as JSON.
"""

import ast
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import shlex
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "commvar"
PERFBENCH = ROOT / "perfbench"
README = ROOT / "README.md"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["commands"]


def write_descriptors(root: Path) -> dict[str, str]:
    """Write the benchmark's descriptor pool to ``root`` as JSON;
    ``@<name>`` -> path of each descriptor."""
    paths = {}
    for name, body in _load_workloads().descriptor_pool().items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        paths[f"@{name}"] = str(path)
    return paths


def readme_examples() -> list[tuple[str, list[str], bool]]:
    """(command line, expected stdout lines, whether the output is cut short)
    of each ``$ commvar`` line in a fenced block of README.md: the lines
    under it, up to the next ``$`` line, a blank line or the block's end,
    cut short by a line ``...``."""
    examples = []
    in_block = False
    current = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
            continue
        if not in_block:
            continue
        if line.startswith("$ "):
            current = (line[2:], [], False)
            examples.append(current)
        elif not line.strip():
            current = None
        elif current is not None:
            if line == "...":
                examples[-1] = current = (current[0], current[1], True)
            else:
                current[1].append(line)
    return examples


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

# series commands at orders that no golden command or README example
# runs, replayed only for the path rules of ``test_reachability``
PATH_COMMANDS = [
    "series betti --variety p1 --t-order 6",
    "series betti --variety punctured",
    "series coh --variety torus --t-order 4 --u-order 12",
    "series coh --variety p1",
    "series stable --variety punctured --u-order 9",
    "series stable --variety p1",
]


def commands() -> list[str]:
    """The command line of every golden command, README example,
    ``MORE_COMMANDS`` and ``PATH_COMMANDS``, each once, in that order."""
    lines = sorted(GOLDEN)
    lines += [command.removeprefix("commvar ") for command, _, _ in readme_examples()]
    lines += [shlex.join(argv) for argv in MORE_COMMANDS] + PATH_COMMANDS
    return list(dict.fromkeys(lines))


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
    """Run every command under the profiler; the record described above."""
    sys.path.insert(0, str(PACKAGE.parent))
    names = defined_functions()
    called = set()
    lookup = {}  # code object -> its ``module.function``, or None outside the package

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    def entered() -> set[str]:
        """The names of the package functions called since the last call."""
        codes = called.copy()
        for code in codes - lookup.keys():
            path = Path(code.co_filename)
            key = (path.name, code.co_name, code.co_firstlineno)
            lookup[code] = names.get(key) if path.resolve().parent == PACKAGE else None
        called.clear()
        return {lookup[code] for code in codes} - {None}

    with_stdout = {command.removeprefix("commvar ") for command, _, _ in readme_examples()}
    with_stdout |= {shlex.join(argv) for argv in MORE_COMMANDS}
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_descriptors(Path(tmp))
        # on before the first import of commvar, so that calls made while
        # a module loads count as entered
        sys.setprofile(profile)
        try:
            from commvar import cli

            reached = entered()
            caches = module_caches()
            hits = dict.fromkeys(caches, 0)
            for command in commands():
                for cache in caches.values():
                    cache.cache_clear()
                out, err = io.StringIO(), io.StringIO()
                entry = {}
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main([paths.get(tok, tok) for tok in shlex.split(command)])
                    except SystemExit as exc:  # read as the benchmark's child reads it
                        code = exc.code if isinstance(exc.code, int) else 1
                    except Exception:
                        code, entry["traceback"] = 1, traceback.format_exc()
                for name, cache in caches.items():
                    hits[name] += cache.cache_info().hits
                found, stdout = entered(), out.getvalue()
                reached |= found
                entry.update(exit=code, sha256=hashlib.sha256(stdout.encode()).hexdigest())
                entry["entered"] = sorted(found)
                if command in with_stdout:
                    entry["stdout"] = stdout
                if err.getvalue():
                    entry["stderr"] = err.getvalue()
                record[command] = entry
        finally:
            sys.setprofile(None)
    assert Path(cli.__file__).resolve().parent == PACKAGE, cli.__file__
    unreached = sorted(set(names.values()) - reached)
    return {"commands": record, "unreached": unreached, "cache_hits": hits}


@functools.cache
def child_record() -> dict:
    """The replay's record, from one fresh interpreter shared by the tests."""
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


if __name__ == "__main__":
    print(json.dumps(replay()))
