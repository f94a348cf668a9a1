"""Every definition in the package has a caller in the package.

A top-level function, class or module constant that no code under
``src/`` names outside its own definition, or a method or property
whose name no code under ``src/`` reads as an attribute outside its own
definition, is only reachable from tests and should be deleted along
with them.  A method is only ever reached as an attribute, so a local
variable or parameter of the same name is no caller.  Dunder names are
called by Python itself and are left out.  Likewise every name a module
imports is read somewhere in that module; ``from __future__`` imports
are directives, not names, and are left out.  Every import sits at
module level, where an import cycle shows at once.  Every optional
parameter of a ``def`` is passed by some call in the package that names
the function or attribute (a class call is its ``__init__``'s): by
keyword, by position, or through ``*`` or ``**`` forwarding.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "loopforge"

# Kept without a caller, with the reason.
ALLOWED = {
    # Projects a cubic image solution back to its BSL source.  Its caller,
    # a projection back from genre boards, is not written yet.
    "project_from_cubic",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, node, whether it is a method) for top-level functions,
    classes, constants and methods (properties included)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item.name, item, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node, False


def _uses(tree: ast.AST) -> Counter:
    """How often each name is read within ``tree``: ``("name", x)`` counts
    reads of the bare name x, ``("attr", x)`` reads of an attribute x."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found["name", node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found["attr", node.attr] += 1
    return found


def test_every_definition_is_named_elsewhere_in_src():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.rglob("*.py"))}
    total: Counter = Counter()
    for tree in trees.values():
        total.update(_uses(tree))
    defined, unused = set(), []
    for path, tree in trees.items():
        for name, node, method in _definitions(tree):
            defined.add(name)
            if _is_dunder(name) or name in ALLOWED:
                continue
            # A definition's own body does not count as a caller.
            own = _uses(node)
            kinds = ("attr",) if method else ("name", "attr")
            if all(total[kind, name] == own[kind, name] for kind in kinds):
                unused.append(f"{path.relative_to(SRC)}: {name}")
    assert unused == []
    assert ALLOWED <= defined, "an allowlisted name is gone; drop it from ALLOWED"



def _imported(tree: ast.Module):
    """(name, line) for each name an import statement binds in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno


def test_every_import_is_read_in_its_module():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.relative_to(SRC)}:{line}: {name}" for name, line in _imported(tree) if name not in read]
    assert unused == []


def test_no_import_inside_a_function():
    nested = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {
                    f"{path.relative_to(SRC)}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert sorted(nested) == []


def _calls_itself(fn: ast.FunctionDef) -> bool:
    """Whether ``fn``'s body calls ``fn`` by name, or as ``self``'s or ``cls``'s method."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                if f.value.id in ("self", "cls") and f.attr == fn.name:
                    return True
    return False


def test_no_function_calls_itself():
    # Searches keep an explicit stack, so depth never meets the recursion limit.
    recursive = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(fn):
                recursive.append(f"{path.relative_to(SRC)}:{fn.lineno}: {fn.name}")
    assert recursive == []


# Optional parameters kept although no call in the package passes them, with the reason.
UNPASSED_ALLOWED = {
    # The console entry point reads sys.argv; tests drive it with argument lists.
    ("main", "argv"),
    # Tests load broken templates from files of their own.
    ("load_metacell", "path"),
    # Tests drive partly seeded rings through it.
    ("solutions", "seeds"),
}


def _optional_params(fn: ast.FunctionDef, method: bool):
    """(name, index among the positional arguments a call writes, or None)
    for each parameter of ``fn`` with a default.  A method's call does not
    write ``self`` or ``cls``; a keyword-only parameter has no index."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    return found + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _passes(call: ast.Call, name: str, index) -> bool:
    """Whether ``call`` passes the parameter ``name`` at positional ``index``:
    by keyword, by position, or through ``*`` or ``**`` forwarding."""
    if any(k.arg == name or k.arg is None for k in call.keywords):
        return True
    if index is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return index >= i
    return index < len(call.args)


def test_every_optional_parameter_is_passed_somewhere_in_src():
    trees = [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(PACKAGE.rglob("*.py"))]
    classes = {node.name for _, tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    # Calls by the function's or attribute's name; a class call is its __init__'s.
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault("__init__" if name in classes else name, []).append(node)
    methods = {
        id(item)
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    unpassed, flagged = [], set()
    for path, tree in trees:
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for name, index in _optional_params(fn, id(fn) in methods):
                if not any(_passes(call, name, index) for call in calls.get(fn.name, ())):
                    flagged.add((fn.name, name))
                    if (fn.name, name) not in UNPASSED_ALLOWED:
                        unpassed.append(f"{path.relative_to(SRC)}:{fn.lineno}: {fn.name}({name})")
    assert unpassed == []
    assert UNPASSED_ALLOWED <= flagged, "an allowlisted parameter is passed now or gone; drop it"
