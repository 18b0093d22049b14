"""Every Python file of the project parses under the grammar of the oldest
Python it declares (``requires-python`` in pyproject.toml).

This checks grammar only: ``ast.parse(..., feature_version=...)`` refuses
syntax newer than the floor, such as ``except*`` at 3.10, but not a call to
a standard-library name that the floor lacks.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# tomllib needs 3.11, past the floor, so the floor is read with a pattern.
FLOOR = tuple(
    int(part)
    for part in re.search(
        r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M
    ).groups()
)
FILES = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))


def test_every_tree_has_python_files():
    assert {path.relative_to(ROOT).parts[0] for path in FILES} == {"src", "tests", "bench"}


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_file_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_newer_syntax_is_refused_at_the_floor():
    # except* came with 3.11.
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=FLOOR)
