import ast
from pathlib import Path

import qapprox

PACKAGE = sorted(p for p in Path(qapprox.__file__).parent.glob("*.py") if p.name != "__init__.py")
SOURCES = PACKAGE + sorted(Path(__file__).parent.glob("*.py"))


def _unused_imports(path):
    """Names bound by an import statement of the file and never read in it."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    assert len(PACKAGE) >= 9 and len(SOURCES) >= len(PACKAGE) + 10  # the globs found both
    unused = {path.name: names for path in SOURCES if (names := _unused_imports(path))}
    assert unused == {}
