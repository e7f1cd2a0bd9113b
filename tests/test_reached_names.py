"""Every public top-level function and class of the package is reached.

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
            return {attr.split(".")[0] for _, attr in ast.literal_eval(node.value)}
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


def test_every_public_name_is_reached():
    # __init__ re-exports everything, so its imports reach nothing
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    public = {node.name: path.stem for path in modules
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    reached = _referenced(modules + sorted((ROOT / "demos").glob("*.py")))
    reached |= _traced() | set(ALLOWED)
    assert not set(ALLOWED) - set(public), "an allowed name no longer exists"
    unreached = sorted(f"{module}.{name}" for name, module in public.items()
                       if name not in reached)
    assert not unreached, f"public names nothing reaches: {unreached}"
