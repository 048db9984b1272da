"""The README's examples, run as written, print what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from singint.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _cli_examples():
    """(command, shown lines) for every `$ singint ...` line of a sh block."""
    examples = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if not chunk.startswith("$ singint "):
                continue
            command, *shown = chunk.rstrip("\n").split("\n")
            while shown and not shown[-1].strip():
                shown.pop()
            examples.append((command[2:], [line.rstrip() for line in shown]))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_readme_has_cli_examples():
    assert len(CLI_EXAMPLES) >= 7


@pytest.mark.parametrize("command, shown", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_readme_cli_example(capsys, command, shown):
    main(shlex.split(command)[1:])
    out = [line.rstrip() for line in capsys.readouterr().out.splitlines()]
    if shown[-1] != "...":
        assert out == shown
        return
    # an elided listing: the shown lines appear in order
    rest = iter(out)
    for line in shown[:-1]:
        assert line in rest, line


def test_readme_python_quick_start(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert expected == ["-3/32 w^-1", "True 0", "order-2 total (a = 1/2)"]
    assert capsys.readouterr().out.splitlines() == expected
