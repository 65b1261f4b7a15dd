"""The package is a strict stack: each module imports only modules below it.

Every import statement counts, a function-level one included, so a cycle
cannot be held open by importing inside a function.  The package entry
points (``__init__``, ``__main__``) sit above the stack.
"""

import ast
from pathlib import Path

import quasihopf

LAYERS = ["linalg", "report", "qha", "repcat", "center", "algebra_a", "mod_a", "dsl", "qhio",
          "cli"]
ENTRY_POINTS = {"__init__", "__main__"}
PACKAGE = Path(quasihopf.__file__).parent


def _package_imports(path: Path) -> set[str]:
    """The package modules that a module imports, at any depth of its body."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "quasihopf":
            out.add(node.module.split(".")[1] if "." in node.module else "__init__")
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("quasihopf."))
    return out


def test_every_module_has_a_place_in_the_stack():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert modules - ENTRY_POINTS == set(LAYERS)


def test_each_module_imports_only_modules_below_it():
    rank = {name: i for i, name in enumerate(LAYERS)}
    upward = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ENTRY_POINTS:
            continue
        above = sorted(m for m in _package_imports(path)
                       if rank.get(m, len(LAYERS)) >= rank[path.stem])
        if above:
            upward[path.stem] = above
    assert not upward, "".join(f"{mod} imports {above}; " for mod, above in upward.items())
