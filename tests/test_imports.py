"""Every name a module of the package imports is used in that module, and
every public function, class and method it defines is used in the package."""

import ast
import pathlib
from collections import Counter

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "relpower"

MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree):
    """(bound name, line) of every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Every name loaded, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= _used(ast.parse(annotation.value, mode="eval"))
    return names


def test_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"__init__.py", "cli.py", "scenarios.py", "functionals.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _public_definitions(tree):
    """(qualified name, node) of every public module-level function and class,
    and of every public method of a module-level class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")):
                    yield f"{node.name}.{member.name}", member


def _references(node) -> Counter:
    """How often each name is loaded or each attribute read under ``node``."""
    return Counter(child.id if isinstance(child, ast.Name) else child.attr
                   for child in ast.walk(node)
                   if isinstance(child, (ast.Name, ast.Attribute)))


def test_every_public_definition_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in MODULES}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [f"{module}: {qualname}"
              for module, tree in trees.items()
              for qualname, node in _public_definitions(tree)
              if everywhere[node.name] == _references(node)[node.name]]
    assert not unused, f"defined but never used in src/relpower: {', '.join(unused)}"


def _scoped_nodes(tree):
    """(scope, node) for every node: the module-level function, class method or
    ``<module>`` it sits in."""
    for top in tree.body:
        members = top.body if isinstance(top, ast.ClassDef) else [top]
        for member in members:
            scope = getattr(member, "name", "<module>")
            if member is not top:
                scope = f"{top.name}.{scope}"
            for node in ast.walk(member):
                yield scope, node


def _reaches_random(node) -> bool:
    """An import of a random module, or a name or attribute ``random``."""
    if isinstance(node, ast.Import):
        return any("random" in alias.name for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return "random" in (node.module or "") or any(
            "random" in alias.name for alias in node.names)
    return (isinstance(node, ast.Name) and node.id == "random"
            or isinstance(node, ast.Attribute) and node.attr == "random")


def test_random_numbers_are_drawn_in_one_place():
    # every check reads the node data; only the decomposition's two combined
    # observer changes are random, drawn from the scenario's seed
    draws = [(path.name, scope, ast.unparse(node))
             for path in MODULES
             for scope, node in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8")))
             if _reaches_random(node)]
    assert draws == [("functionals.py", "invariance_decomposition", "np.random")]


def test_shared_results_are_assembled_in_one_place():
    # P_rel, P_inn and R1..R4 of a scenario as given: every check and sweep row
    # reads them from one call of cli.shared_results, never from a second one
    shared = ("relative_power", "inner_relative_power", "integral_balance_residuals")
    calls = [(scope, node.func.attr)
             for scope, node in _scoped_nodes(ast.parse((PACKAGE / "cli.py").read_text(
                 encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in shared and ast.unparse(node.func.value) == "fn"
             and len(node.args) == 1 and not node.keywords]
    assert calls == [("shared_results", name) for name in shared]


def test_configurational_traction_is_formed_in_one_place():
    # PP n is SurfaceNodeData.config_traction: R3, R4 and the surface check all
    # read it, so no call elsewhere takes eshelby and normals as two arguments
    def names(node):
        return {sub.attr if isinstance(sub, ast.Attribute) else sub.id
                for sub in ast.walk(node) if isinstance(sub, (ast.Attribute, ast.Name))}

    def contracts(call):
        args = [names(arg) for arg in call.args]
        return any("eshelby" in a and "normals" in b
                   for i, a in enumerate(args) for j, b in enumerate(args) if i != j)

    calls = [(module.name, scope) for module in MODULES
             for scope, node in _scoped_nodes(ast.parse(module.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and contracts(node)]
    assert calls == [("scenarios.py", "SurfaceNodeData.__init__")]
