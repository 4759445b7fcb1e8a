"""No module of the package imports a name it never uses (a stdlib `ast` check, like flake8's F401)."""

import ast
from pathlib import Path

import pytest

import semfuse

MODULES = sorted(p for p in Path(semfuse.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Each name the source imports and never reads, but for `__future__` and lines marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation, such as one of a name imported only under TYPE_CHECKING, reads its names too
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    quoted = [node.value for annotation in annotations if annotation for node in ast.walk(annotation)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    used.update(node.id for text in quoted for node in ast.walk(ast.parse(text, mode="eval"))
                if isinstance(node, ast.Name))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport os.path\nimport sys\n"
              "from json import dumps, loads\nfrom csv import reader  # noqa: F401  (re-export)\n"
              "from decimal import Decimal\n\n\ndef half(x: \"Decimal\") -> None:\n    sys.exit(loads('0'))\n")
    assert unused_imports(source) == ["os", "os", "dumps"]
