"""No module imports a name it never reads, and no private name in the
package goes unread.

Checked with the standard library's ast.  Imports are checked over
src/oddsrule/*.py, tests/*.py and demos/*.py; the package __init__ is
skipped there, since its imports are the re-exports listed in __all__.
Every private top-level function, class or constant of src/oddsrule/*.py
(a name with one leading underscore) must be read somewhere in
src/oddsrule/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def checked_files() -> list[Path]:
    package = [p for p in (ROOT / "src" / "oddsrule").glob("*.py") if p.name != "__init__.py"]
    return sorted(package + [*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """'line N: name' for each name an import binds and no Name node reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_checker_finds_unused_imports():
    source = "import math\nimport os.path\nfrom x import y, z as w\nprint(os, w)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: y"]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)} {hit}"
        for path in checked_files()
        for hit in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def private_definitions(source: str) -> dict[str, int]:
    """{name: line} for each private top-level def, class or assignment."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for target in nodes for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def names_read(source: str) -> set[str]:
    """Names a module loads, bare or as an attribute (module._name)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """'file line N: name' for each private top-level name that no module
    of ``sources`` (file name -> source) reads."""
    read = set().union(*map(names_read, sources.values()))
    return [
        f"{path} line {line}: {name}"
        for path, source in sorted(sources.items())
        for name, line in private_definitions(source).items()
        if name not in read
    ]


def test_checker_finds_unread_private_names():
    sources = {
        "a.py": "_A = 1\n_B, _C = 2, 3\ndef _f():\n    _g = 4\nclass _K:\n    pass\n__all__ = []\n",
        "b.py": "from a import _A\nimport a\nprint(_A, a._f, _C)\n_D = 5\n",
    }
    assert unread_private_names(sources) == [
        "a.py line 2: _B",
        "a.py line 5: _K",
        "b.py line 4: _D",
    ]


def test_no_unread_private_names():
    package = sorted((ROOT / "src" / "oddsrule").glob("*.py"))
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in package}
    assert sum(len(private_definitions(source)) for source in sources.values()) > 0
    assert unread_private_names(sources) == []
