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


def test_the_public_names_are_the_ones_listed():
    # every name in __all__ resolves, and every public name __init__ imports is listed there
    assert [name for name in semfuse.__all__ if not hasattr(semfuse, name)] == []
    tree = ast.parse(Path(semfuse.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    public = sorted(name for name in imported if not name.startswith("_"))
    assert public == sorted(name for name in semfuse.__all__ if name != "__version__")


def package_imports(source: str) -> set[str]:
    """The package modules a source imports, by name: `.embed`, `semfuse.embed` and `from . import embed` are `embed`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = ".".join(filter(None, ["semfuse" if node.level else "", node.module]))
            # `from . import embed` and `from semfuse import embed` import the module itself
            names.update([f"{package}.{alias.name}" for alias in node.names] if package == "semfuse" else [package])
    return {name.removeprefix("semfuse.") for name in names if name.startswith("semfuse.")}


def test_the_import_check_reads_every_form():
    source = ("import semfuse.embed\nfrom .corpus import Record\nfrom semfuse.table import x\nfrom . import tsne\n"
              "from semfuse import cache\nimport os\nfrom numpy import linalg\n")
    assert package_imports(source) == {"embed", "corpus", "table", "tsne", "cache"}


# the numeric layers take matrices and row positions: each stage resolves ids where it reads its files
@pytest.mark.parametrize("module, kept_out", [("spectra", "embed"), ("evalkit", "embed"), ("rankopt", "corpus")])
def test_a_numeric_layer_imports_no_id_layer(module, kept_out):
    source = (Path(semfuse.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    assert kept_out not in package_imports(source)


def test_embed_imports_nothing_from_corpus():
    # the text layer takes (id, tokens) pairs, so it needs no record type of the corpus reader
    source = (Path(semfuse.__file__).parent / "embed.py").read_text(encoding="utf-8")
    assert "corpus" not in package_imports(source)
