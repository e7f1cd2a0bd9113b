"""Every public top-level function and class of the package, and every
public method and property of a public class, is reached.

A name counts as reached when the package (the command line included) or
a demo refers to it, when the benchmark tracer wraps it (perfbench/tracer.py
TRACED, which fails on a missing name), or when ALLOWED gives a reason to
keep it. A public name that only tests call is dead weight: delete it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "intgeo"

ALLOWED = {
    "sym_basis": "criterion 10 checks the Sym(n) chart's invariance with it",
    "sym_to_coords": "criterion 10 checks the Sym(n) chart's invariance with it",
    "intrinsic_volume_ellipsoid": "criterion 2 checks the ellipsoid quadrature on balls",
    "membership": "the README's one-row query, the single-point contains_points",
}


def _traced() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
            return {part for _, attr in ast.literal_eval(node.value)
                    for part in attr.split(".")}
    raise AssertionError("perfbench/tracer.py has no TRACED list")


def _referenced(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _public(nodes) -> list:
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_name_is_reached():
    # __init__ re-exports everything, so its imports reach nothing
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    # (name, where it is defined): top-level names, then the methods and
    # properties of public classes
    public = []
    for path in modules:
        for node in _public(ast.parse(path.read_text()).body):
            public.append((node.name, f"{path.stem}.{node.name}"))
            if isinstance(node, ast.ClassDef):
                public += [(member.name, f"{path.stem}.{node.name}.{member.name}")
                           for member in _public(node.body)
                           if isinstance(member, ast.FunctionDef)]
    reached = _referenced(modules + sorted((ROOT / "demos").glob("*.py")))
    reached |= _traced() | set(ALLOWED)
    assert not set(ALLOWED) - {name for name, _ in public}, "an allowed name no longer exists"
    unreached = sorted(where for name, where in public if name not in reached)
    assert not unreached, f"public names nothing reaches: {unreached}"
