"""The package ships only code that the package itself reaches.

Every module-level function or class in ``src/sgnsdp/`` must be named
(as an ``ast.Name`` or ``ast.Attribute``) somewhere in the package's own
source, and every non-dunder method or property must be reached through
an attribute access (``ast.Attribute``): a local variable that happens
to share a method's name does not reach it.  So a name that only tests
call fails here.  Names that are public on purpose and that the package never
calls itself are listed in ``ALLOWED`` with the reason.  Test oracles and
test utilities live in ``tests/reference.py`` and ``tests/support.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sgnsdp"

ALLOWED = {
    "NlsdpProblem.eval_f": "problem interface",
    "AffineQuadraticProblem.eval_f": "problem interface",
    "_Parser.error": "argparse hook",
    "save_problem": "README API",
    "point_to_dict": "README API",
    "stationarity_measure": "README API",
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree):
    """(qualified name, bare name, is a method) of the module-level
    functions and classes and of the non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, True


def _references(tree, attributes_only):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not attributes_only:
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_shipped_name_is_reached_from_the_package():
    trees = _trees()
    used = {
        method: {name for tree in trees.values() for name in _references(tree, method)}
        for method in (False, True)
    }
    defined = {
        (module, qualified, bare, method)
        for module, tree in trees.items()
        for qualified, bare, method in _definitions(tree)
    }
    unreached = sorted(
        f"{module}:{qualified}"
        for module, qualified, bare, method in defined
        if bare not in used[method] and qualified not in ALLOWED
    )
    assert unreached == []
    # a stale allowlist entry would hide nothing but still read as a reason
    assert set(ALLOWED) <= {qualified for _, qualified, _, _ in defined}
    reached = sorted(
        qualified
        for _, qualified, bare, method in defined
        if qualified in ALLOWED and bare in used[method]
    )
    assert reached == []
