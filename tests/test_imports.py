"""Every imported name in src/ and tests/ is used, every function and class
in src/ is referenced in src/, and no parameter of a src/ function takes one
value at every call.  No linter is installed, so the checks parse each module
with the standard library's ast."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parsed(folder):
    for path in sorted((ROOT / folder).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


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


# "function(parameter)": why it keeps a parameter that takes one value
SINGLE_VALUED = {}


def _literal(node):
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None  # not a literal: may differ between calls


def test_no_single_valued_parameters():
    """No parameter of a function defined once in src/ is left at its default
    by every call, or passed the same literal by every call, where the calls
    are those by name in src/ and tests/.  A function with a call that
    forwards *args or **kw is skipped."""
    defs, methods = [], set()
    for _, tree in parsed("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defs.append(node)
            elif isinstance(node, ast.ClassDef):
                methods |= {f for f in node.body if isinstance(f, ast.FunctionDef)
                            and not any(getattr(d, "id", None) == "staticmethod"
                                        for d in f.decorator_list)}
    names = Counter(fn.name for fn in defs)
    calls = {fn.name: [] for fn in defs if names[fn.name] == 1}
    for folder in ("src", "tests"):
        for _, tree in parsed(folder):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in calls:
                        calls[name].append(node)
    found = []
    for fn in defs:
        sites = calls.get(fn.name)
        if not sites or any(isinstance(a, ast.Starred) for c in sites for a in c.args) \
                or any(k.arg is None for c in sites for k in c.keywords):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        positional = positional[1:] if fn in methods else positional
        defaults = dict(zip([p.arg for p in positional][::-1], fn.args.defaults[::-1]))
        defaults |= {p.arg: d for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                     if d is not None}
        for k, param in enumerate(p.arg for p in positional + fn.args.kwonlyargs):
            values = set()
            for c in sites:
                passed = {kw.arg: kw.value for kw in c.keywords}
                if k < len(positional) and k < len(c.args):
                    values.add(_literal(c.args[k]))
                elif param in passed:
                    values.add(_literal(passed[param]))
                elif param in defaults:
                    values.add(_literal(defaults[param]) or "its default")
                else:  # a call to another function of the same name
                    values.add(None)
            if len(values) == 1 and None not in values \
                    and f"{fn.name}({param})" not in SINGLE_VALUED:
                found.append(f"{fn.name}({param}) is {values.pop()} at all "
                             f"{len(sites)} calls")
    assert found == []
