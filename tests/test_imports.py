"""Every imported name in src/ and tests/ is used, and every function and
class in src/ is referenced in src/.  No linter is installed, so the checks
parse each module with the standard library's ast."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """(line, name) of every name the module imports but never references."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in ("src", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(path)]
    assert found == []


# defined in src/ for callers outside it
OUTSIDE_API = {
    "save_config": "harness: perfbench and the tests write a run's config with it",
    "read_mesh": "mesh: reads back what `channelms mesh` writes",
}


def test_no_dead_api():
    """Every function and class defined in src/ (dunder methods aside) is
    referenced by name, or as an attribute, somewhere in src/."""
    defined, referenced = [], set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{path.relative_to(ROOT)}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dead = [f"{where}: {name}" for where, name in defined
            if name not in referenced | set(OUTSIDE_API) and not name.startswith("__")]
    assert dead == []
