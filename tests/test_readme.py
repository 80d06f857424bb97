"""The README's CLI section runs as written."""

import re
import shlex
from pathlib import Path

from oraclelab.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_blocks():
    """(language, body) of each fenced block in the README's CLI section."""
    text = README.read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```(\w+)\n(.*?)```", section, flags=re.S)


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []
    for language, body in _cli_blocks():
        if language == "python":
            exec(body, {})
            continue
        assert language == "sh", language
        for line in body.splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command)
            assert argv[0] == "oraclelab", line
            expected = re.search(r"\bexit (\d)\b", comment)
            code = main(argv[1:])
            capsys.readouterr()
            assert code == (int(expected.group(1)) if expected else 0), line
            ran.append(argv[1])
    assert {"audit", "check-classical", "compile", "reproduce", "simulate"} <= set(ran)


def _parser_flags():
    flags, parsers = set(), [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            flags.update(action.option_strings)
            if isinstance(action.choices, dict):  # the subcommand table
                parsers.extend(action.choices.values())
    return flags


def test_readme_names_only_existing_flags():
    named = set(re.findall(r"`(--[a-z][a-z-]*)", README.read_text()))
    assert named and named <= _parser_flags(), named - _parser_flags()
