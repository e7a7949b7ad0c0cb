"""Tests of the package surface: the exported names and the documented commands."""

from __future__ import annotations

import re
import shlex
import types
from pathlib import Path

import sumfree
from sumfree import IntSet, write_set_file
from sumfree.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves_and_none_is_a_module():
    assert len(sumfree.__all__) == len(set(sumfree.__all__))
    for name in sumfree.__all__:
        value = getattr(sumfree, name)
        assert not isinstance(value, types.ModuleType), name
        assert not name.startswith("_"), name


def readme_commands() -> list[str]:
    """Each ``sumfree ...`` line of the README's shell blocks, continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("sumfree "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for command in commands:
        argv = shlex.split(command, comments=True)[1:]
        # argparse exits on an unknown option or a missing required one
        args = parser.parse_args(argv)
        assert callable(args.handler), command


def test_readme_fls_step_example_runs(tmp_path, capsys):
    (command,) = [c for c in readme_commands() if " fls-step " in c]
    path = tmp_path / "odds.txt"
    write_set_file(str(path), IntSet.of(range(1, 1000, 2)))
    argv = [str(path) if arg == "A.txt" else arg for arg in shlex.split(command)[1:]]
    assert main(argv) == 0
    assert "outcome=periodic-containment" in capsys.readouterr().out
