"""No module imports a name it never reads.

Checked with the standard library's ast over src/oddsrule/*.py, tests/*.py
and demos/*.py.  The package __init__ is skipped: its imports are the
re-exports listed in __all__.
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
