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


def _name(node):
    """'lru_cache' for lru_cache and functools.lru_cache, and so on; else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
        return node.attr
    return None


def _unbounded_caches(source):
    """Line numbers of the caches in source that are not lru_cache(maxsize=<int>):
    a bare lru_cache, lru_cache() or lru_cache(None), and functools.cache."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines.update(node.lineno for alias in node.names if alias.name == "cache")
        name = _name(node)
        if name == "cache" and isinstance(node, ast.Attribute):
            lines.add(node.lineno)
        if name != "lru_cache":
            continue
        call = calls.get(id(node))
        sizes = [] if call is None else call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
        if not (len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int):
            lines.add(node.lineno)
    return sorted(lines)


def test_every_cache_is_a_bounded_lru():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert sum(text.count("@lru_cache(maxsize=") for text in sources.values()) >= 6
    unbounded = {name: lines for name, text in sources.items() if (lines := _unbounded_caches(text))}
    assert unbounded == {}


def test_the_cache_check_finds_unbounded_caches():
    bad = ["@lru_cache\ndef f(): pass", "@lru_cache()\ndef f(): pass",
           "@lru_cache(maxsize=None)\ndef f(): pass", "@functools.lru_cache(None)\ndef f(): pass",
           "@lru_cache(maxsize=N)\ndef f(): pass", "from functools import cache",
           "@functools.cache\ndef f(): pass", "g = lru_cache(f)"]
    assert all(_unbounded_caches(text) for text in bad)
    good = ["@lru_cache(maxsize=64)\ndef f(): pass", "@functools.lru_cache(8)\ndef f(): pass",
            "from functools import lru_cache"]
    assert not any(_unbounded_caches(text) for text in good)
