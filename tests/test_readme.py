"""The README's Python examples run as written, the sizes it quotes are
the code's, and it covers every family and subcommand."""

import argparse
import re
from pathlib import Path

import pytest

from qmonogamy import cli, verify

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
# "N (`verify._NAME`)", the README's way of quoting a module constant; a
# line break may fall before the parenthesis.
CONSTANTS = re.findall(r"(\d+)\s+\(`verify\.(_[A-Z][A-Z0-9_]*)`\)", README.read_text())


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_readme_quotes_block_sizes():
    assert {name for _, name in CONSTANTS} >= {"_STATE_BLOCK", "_SWEEP_BLOCK"}


@pytest.mark.parametrize("quoted,name", CONSTANTS)
def test_quoted_constant_is_the_code_value(quoted, name):
    assert int(quoted) == getattr(verify, name), name


def test_readme_covers_every_family_and_subcommand():
    text = README.read_text()
    rows = set(re.findall(r"^\| `(\w+)` +\|", text, re.M))
    assert set(verify.FAMILY_NAMES) <= rows
    [subparsers] = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for sub in subparsers.choices:
        assert re.search(rf"^qmonogamy {sub}\b", text, re.M), sub
