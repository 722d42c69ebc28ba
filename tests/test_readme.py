"""Every ``screwspec`` command in the README's ``sh`` blocks runs and exits 0."""

import pathlib
import re
import shlex

import pytest

from screwspec.cli import main

README = pathlib.Path(__file__).parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of each ``screwspec`` line, continuations joined and comments dropped."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["screwspec"]:
                commands.append(argv[1:])
    return commands


COMMANDS = readme_commands()


def test_the_readme_has_commands():
    assert len(COMMANDS) >= 9


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_command_exits_0(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # --out and --gnuplot name files in the working directory
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 0, err
