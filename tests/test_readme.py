"""Every ``$ commvar ...`` example in README.md, replayed byte for byte.

An example is a ``$ commvar`` line inside a fenced block followed by
the output lines printed under it, up to the next ``$`` line, a blank
line or the end of the block.  Only stdout is compared (warnings go to
stderr).  An example whose shown output ends in ``...`` is compared on
the lines shown.
"""

import shlex
from pathlib import Path

import pytest

from commvar.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[tuple[str, list[str], bool]]:
    """(command line, expected stdout lines, whether the output is cut short)."""
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


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10
    assert all(command.startswith("commvar ") for command, _, _ in EXAMPLES)
    assert sum(cut for _, _, cut in EXAMPLES) == 1


@pytest.mark.parametrize("command, expected, cut", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_readme_example(capsys, command, expected, cut):
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    shown = "".join(line + "\n" for line in expected)
    if cut:
        assert out.startswith(shown) and out != shown
    else:
        assert out == shown
