"""The README examples still run: every `chowmot` line of the "CLI" block
exits 0, and the "Library quick start" block executes."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import chowmot

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = str(Path(chowmot.__file__).resolve().parent.parent)


def code_block(heading: str, language: str) -> str:
    """The first fenced block of `language` in the README section `heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def cli_commands() -> list[list[str]]:
    """Each `chowmot ...` line of the CLI block as argv, continuation lines
    joined and comments dropped."""
    text = code_block("CLI", "sh").replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in text.splitlines()
            if line.startswith("chowmot ")]


def test_cli_examples_exit_zero(tmp_path):
    commands = cli_commands()
    assert len(commands) == 13
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    for argv in commands:
        redirect = None
        if ">" in argv:
            argv, redirect = argv[:argv.index(">")], argv[argv.index(">") + 1]
        proc = subprocess.run([sys.executable, "-m", "chowmot", *argv[1:]], cwd=tmp_path,
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout and not proc.stderr, argv
        if redirect is not None:
            (tmp_path / redirect).write_text(proc.stdout, encoding="utf-8")


def test_library_quick_start_runs():
    exec(code_block("Library quick start", "python"), {})
