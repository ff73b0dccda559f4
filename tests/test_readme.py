"""Every ``$ commvar ...`` example in README.md, read byte for byte from
the one replay (``replay.child_record``).

Only stdout is compared (warnings go to stderr).  An example whose shown
output ends in ``...`` is compared on the lines shown.
"""

import pytest

from replay import child_record, readme_examples

EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10
    assert all(command.startswith("commvar ") for command, _, _ in EXAMPLES)
    assert sum(cut for _, _, cut in EXAMPLES) == 1


@pytest.mark.parametrize("command, expected, cut", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_readme_example(command, expected, cut):
    entry = child_record()["commands"][command.removeprefix("commvar ")]
    assert "traceback" not in entry, entry["traceback"]
    assert entry["exit"] == 0
    out, shown = entry["stdout"], "".join(line + "\n" for line in expected)
    if cut:
        assert out.startswith(shown) and out != shown
    else:
        assert out == shown
