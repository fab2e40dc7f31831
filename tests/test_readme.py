"""README examples: every command of the "Command line" block runs, and the
library tour prints what its comment says."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from polygraph import Budget, explore_component, parse
from polygraph.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("polygraph ")
]


def test_the_command_line_block_is_found():
    assert len(_COMMANDS) == 11


@pytest.mark.parametrize("argv", _COMMANDS, ids=" ".join)
def test_command_line_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k3.json").write_text(json.dumps({
        "vertices": ["1", "2", "3"],
        "arcs": [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]],
    }))
    graph = explore_component(parse("(y-x)^4-1"), 0j, Budget(max_depth=2))
    (tmp_path / "graph.json").write_text(json.dumps(graph.as_json()))
    assert main(argv) == EXIT_OK, capsys.readouterr().err


def test_library_tour_prints_its_comment():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Library tour", "python"), {})
    assert out.getvalue() == "25 GridPrefix\n"
