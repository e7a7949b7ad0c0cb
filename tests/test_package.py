"""Tests of the package surface: the exported names and the documented commands."""

from __future__ import annotations

import ast
import re
import shlex
import types
from pathlib import Path

import sumfree
from sumfree import IntSet, write_set_file
from sumfree.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# exported names kept without a caller in the package or the bench, each with its reason
UNCALLED = {
    "parse_instance": "the planned `verify` command will read saved drop instances with it",
    "parse_measure": "the planned `verify` command will read saved measures with it",
}


def test_every_exported_name_resolves_and_none_is_a_module():
    assert len(sumfree.__all__) == len(set(sumfree.__all__))
    for name in sumfree.__all__:
        value = getattr(sumfree, name)
        assert not isinstance(value, types.ModuleType), name
        assert not name.startswith("_"), name


def reads_by_definition(path: Path, exported: set) -> list[tuple]:
    """(definer, names read) for each top-level statement of a module.

    A read is a name loaded bare or as an attribute; definitions, imports and
    strings are not reads.  The definer is the exported name a top-level def or
    class defines, or None for any other statement.
    """
    pairs = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        defines = isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in exported
        definer = top.name if defines else None
        reads = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }
        pairs.append((definer, reads))
    return pairs


def test_every_exported_name_is_read_outside_the_tests():
    # a name that only the tests call is dead weight in the package: give it a caller or delete
    # it.  A read inside an exported definition counts once that definition is read itself, so
    # names that only call each other fail together; an allowed name that gains a caller leaves
    # UNCALLED.  The bench defines names of its own, so none of its statements is a definer
    exported = set(sumfree.__all__)
    modules = [p for p in (ROOT / "src" / "sumfree").glob("*.py") if p.name != "__init__.py"]
    pairs = [pair for path in modules for pair in reads_by_definition(path, exported)]
    for path in (ROOT / "bench").glob("*.py"):
        pairs += reads_by_definition(path, set())
    live: set = set()
    while True:
        readers = [reads for definer, reads in pairs if definer is None or definer in live]
        reached = exported & set().union(*readers)
        if reached == live:
            break
        live = reached
    uncalled = sorted(exported - live)
    assert uncalled == sorted(UNCALLED), uncalled


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
