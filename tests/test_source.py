import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "growlat"
MAX_LINE = 120


def test_no_source_line_is_longer_than_120_characters():
    # no linter runs in tier-1, so this is the guard on the package's line length
    long = [f"{path.name}:{number} ({len(line)})" for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > MAX_LINE]
    assert not long, f"lines longer than {MAX_LINE} characters: {long}"


def unused_imports(source: str) -> list[str]:
    """Names that `source` imports and never uses; an import line that
    carries "# noqa: F401" is exempt."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_every_imported_name_is_used():
    # no linter runs in tier-1, so this is the guard against dead imports; __init__.py imports to export
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    unused = {path.name: names for path in modules if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert modules and not unused, f"imported but unused: {unused}"


def test_the_guard_finds_an_unused_import_and_honours_noqa():
    source = "from typing import Callable\nimport numpy as np\nfrom .solver import minimize  # noqa: F401\n"
    assert unused_imports(source + "np.zeros(1)\n") == ["Callable (line 1)"]
