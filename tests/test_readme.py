"""README's examples run: the library tour as written, and every
`orbitgrowth` command line of its shell blocks through the CLI in-process."""

import re
import shlex
from pathlib import Path

from orbitgrowth.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def test_library_tour_runs():
    (tour,) = blocks("python")
    exec(compile(tour, "README.md", "exec"), {})


def test_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # the examples that write files write here
    commands = [
        shlex.split(line, comments=True)
        for block in blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("orbitgrowth ")
    ]
    assert commands
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
