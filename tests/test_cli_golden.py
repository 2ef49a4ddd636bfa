"""Byte-identical stdout for every CLI subcommand.

The digests in `cli_golden.json` are sha256 hashes of each command's
stdout. A refactor must leave them unchanged. After an intended output
change, re-record them with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import pathlib

import pytest

from nstl.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

COMMANDS = [
    "kl-basis --r 4 --basis lower",
    "kl-basis --r 4 --basis upper",
    "cells --r 4 --basis lower",
    "cells --r 4 --basis upper",
    "wgraph --shape 3,2",
    "de-graph --shape 3,2",
    "specht --shape 3,2 --basis lower",
    "specht --shape 3,2 --basis upper",
    "transition --shape 3,2",
    "decompose --lhs 3,2 --rhs 3,2",
    "restrict --label +3,2",
    "restrict --label 3,1:2,2",
    "restrict --label eps+ --r 4",
    "restrict --label=-3,2",
    "restrict --label 4,1:3,2",
    "seminormal --lhs 3,2 --rhs 3,2 --level 4",
    "dim-check --r 3",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_digest(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == json.loads(GOLDEN.read_text())[command]


if __name__ == "__main__":
    import contextlib
    import io

    digests = {}
    for command in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if main(command.split()) != 0:
                raise SystemExit(f"{command!r} did not exit 0")
        digests[command] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
