"""The README's examples, run as written: each command of the ``## Example``
block prints exactly the lines that follow it there, and the ``## Library``
snippet runs."""

import contextlib
import io
import pathlib
import shlex

import pytest

from tm2net.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PROMPT = "$ tm2net "


def fenced(section: str) -> str:
    """The first fenced block under the heading ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return body.split("```", 2)[1].split("\n", 1)[1]


def examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) per command of the Example block."""
    pairs = []
    for line in fenced("Example").splitlines():
        if line.startswith(PROMPT):
            pairs.append((line[len(PROMPT):], ""))
        elif line:
            command, out = pairs[-1]
            pairs[-1] = command, out + line + "\n"
    return pairs


def test_the_example_block_holds_commands():
    assert [command.split()[0] for command, _ in examples()] == ["run", "compare", "info"]


@pytest.mark.parametrize("command, want", examples(), ids=[c for c, _ in examples()])
def test_an_example_command_prints_what_the_readme_shows(monkeypatch, command, want):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(command)) == 0
    assert out.getvalue() == want


def test_the_library_snippet_runs(monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(fenced("Library"), "README.md", "exec"), {})
