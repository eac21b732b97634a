"""Every import in the package modules has a caller."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import flab

PACKAGE = Path(flab.__file__).parent

# imported only so that bench/tracing.py can wrap the module's own name
PINNED_FOR_TRACING = {
    ("fluctuations", "product_moment"),
    ("cli", "induced_moment"),
    ("cli", "decomposition_check"),
    ("cluster", "induced_moment"),
    ("cluster", "product_moment"),
    ("cli", "ccr_decay_check"),
    ("cli", "wick_difference_bound_check"),
    ("gaussian", "hs_coefficients"),
}


def _unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {(path.stem, name) for name in imported - used}


def test_no_unused_imports():
    """Only the names bench/tracing.py patches may be imported and never used.

    ``__init__.py`` is skipped: its imports are the package's public names.
    """
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            unused |= _unused_imports(path)
    assert unused == PINNED_FOR_TRACING


def test_benchmark_tracer_installs():
    """bench/tracing.py wraps flab names by attribute: a renamed one fails here.

    It runs in a child interpreter, so no wrapper leaks into this process.
    """
    bench = PACKAGE.parents[1] / "bench"
    code = "import tracing; tracing.install(tracing.Tracer())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(bench), str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def _private_definitions(tree: ast.Module) -> list:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def test_private_definitions_have_callers():
    """Every private module-level function and class is used in the package.

    A use is a name or attribute reference anywhere in ``src/flab`` outside
    the definition itself, so recursion does not count and an import alone
    does not either (``test_no_unused_imports`` covers imports). Code with
    no caller is deleted, not kept.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
    unused = []
    for module, tree in trees.items():
        for definition in _private_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(name == definition.name and id(node) not in own for name, node in refs):
                unused.append(f"{module}.{definition.name}")
    assert unused == []


def test_stored_attributes_are_read():
    """Every attribute assigned on ``self`` in ``src/flab`` is read somewhere.

    A read is an attribute load of that name anywhere in ``src/flab`` or
    ``tests``. State that nothing reads is deleted, not kept.
    """
    tests = Path(__file__).parent
    stored, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif path.parent == PACKAGE and getattr(node.value, "id", None) == "self":
                stored.setdefault(node.attr, f"{path.stem}:{node.lineno}")
    unread = sorted(f"{where} self.{name}" for name, where in stored.items() if name not in read)
    assert unread == []


def _defaulted_parameters(tree: ast.Module) -> list:
    """(function name, parameter, positional index or None) per defaulted parameter.

    ``__init__`` is named by its class. A method's first parameter
    (``self`` or ``cls``) is skipped, so the index counts the arguments
    a call writes; a keyword-only parameter has no index.
    """
    out = []
    scopes = [(node, None) for node in tree.body]
    while scopes:
        node, owner = scopes.pop()
        if isinstance(node, ast.ClassDef):
            scopes.extend((child, node.name) for child in node.body)
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 0 if owner is None else 1
        name = owner if node.name == "__init__" else node.name
        for index in range(len(positional) - len(args.defaults), len(positional)):
            out.append((name, positional[index].arg, index - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.append((name, arg.arg, None))
    return out


def _sets(call: ast.Call, param: str, index) -> bool:
    """Whether a call passes the parameter by keyword, by position or through * or **."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def test_defaulted_parameters_are_passed():
    """Every defaulted parameter of a ``src/flab`` function is set by some call.

    Calls in ``src/flab``, ``tests`` and ``bench`` are matched by function
    name, or by class name for ``__init__``. An option that no caller
    sets is a constant, not a parameter.
    """
    root = PACKAGE.parents[1]
    calls = {}
    paths = [PACKAGE, root / "tests", root / "bench"]
    for path in [p for folder in paths for p in sorted(folder.glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [
        f"{path.stem}.{name}({param})"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, param, index in _defaulted_parameters(ast.parse(path.read_text()))
        if not any(_sets(call, param, index) for call in calls.get(name, []))
    ]
    assert unset == []
