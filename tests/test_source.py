import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ddlkit"


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    # pyproject.toml allows Python 3.10: no syntax from later versions
    ast.parse(path.read_text(encoding="utf-8"), str(path),
              feature_version=(3, 10))
