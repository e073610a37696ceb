"""No code under src/ that only tests call, apart from a short allowlist.

The scan parses every module of the package and lists each top-level
function and class, and each method, that no `Name` or `Attribute` node
anywhere in the package refers to, outside the definition's own body.  A
string constant counts too, as `numbers.ROUTES` names its builders by
string, but not one in `__all__`; import statements bind aliases and do not
count.  Dunder methods are called by the interpreter and are left out.

The scan matches methods by name alone, so it cannot see a method whose
name another class shares: one reference to `.product` keeps both
`FiniteGroupoid.product` and `GradedGroupoid.product`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qspecies"

# definition -> why it stays although nothing under src/ calls it
ALLOWED = {
    "builtin_names": "imported by the acceptance gate",
    "TruncatedEGF.truncate": "imported by the acceptance gate",
    "TruncatedEGF.integrate": "imported by the acceptance gate",
    "x_series": "imported by the acceptance gate",
    "scaled_exp_series": "imported by the acceptance gate",
    "sinh_series": "imported by the acceptance gate",
    "cosh_series": "imported by the acceptance gate",
    "sin_series": "imported by the acceptance gate",
    "binomial_series": "imported by the acceptance gate",
    "Polynomial.shift": "imported by the acceptance gate",
    "Polynomial.monomial": "imported by the acceptance gate",
    "FiniteGroupoid.inertia": "imported by the acceptance gate",
    "multinomial": "imported by the acceptance gate",
    "product_labeled": "imported by the acceptance gate",
    "geom_inverse_labeled": "imported by the acceptance gate",
    "TruncatedEGF.divide": "traced by bench/tracer.py",
    "compose_labeled": "the labeled oracle of composition, a test reference",
}


def _unreferenced() -> set[str]:
    defs = []  # (qualified name, name, node) of every definition scanned
    refs = []  # (name, ids of the definitions enclosing the reference)

    def visit(node, enclosing, prefix):
        # prefix: "" at module level, "Class." in a top-level class body,
        # None inside a function, where definitions are not scanned
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = child.name
                if prefix is not None and not (name.startswith("__") and name.endswith("__")):
                    defs.append((prefix + name, name, child))
                body_prefix = name + "." if prefix == "" and isinstance(child, ast.ClassDef) else None
                visit(child, enclosing | {id(child)}, body_prefix)
                continue
            if isinstance(child, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in child.targets
            ):
                continue
            if isinstance(child, ast.Name):
                refs.append((child.id, enclosing))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                refs.append((child.value, enclosing))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, enclosing))
            visit(child, enclosing, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), frozenset(), "")
    return {
        qualified
        for qualified, name, node in defs
        if not any(ref == name and id(node) not in where for ref, where in refs)
    }


def test_only_allowlisted_definitions_lack_a_caller_under_src():
    assert _unreferenced() == set(ALLOWED)
