"""Guard against test-only code: every function, class and method defined in
src/granmpc is referenced elsewhere in src/granmpc.

A reference is a read of the name or of an attribute of that name, or an
import of it, outside the definition itself; so a method counts as reached
when any attribute of its name is read. Special methods are left out, since
Python calls them.

Names are matched bare, so same-named methods hide each other: a read of
``Zonotope.contains`` once counted for the test-only ``HPolytope.contains``.
Nor does the guard see a branch taken only for some argument types or a
parameter only tests set; those still need a trace of the running program.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "granmpc"

# acceptance oracles (criteria 5 and 2) and the determinism contract that
# criterion 12 and the benchmark read
ALLOWED = {"dlqr", "minkowski_sum", "canonical_record_bytes"}


def unreached(src: Path = SRC) -> list:
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))]
    refs = []
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, (ast.Name, ast.Attribute)):
            refs.append((getattr(node, "id", None) or node.attr, node))
        elif isinstance(node, ast.ImportFrom):
            refs += [(alias.name, node) for alias in node.names]
    defs = [d for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)
            for d in [node] + [n for n in node.body if isinstance(n, ast.FunctionDef)]]
    defs += [n for tree in trees for n in tree.body if isinstance(n, ast.FunctionDef)]
    out = []
    for d in defs:
        if d.name in ALLOWED or d.name.startswith("__"):
            continue
        inside = {id(n) for n in ast.walk(d)}
        if not any(name == d.name and id(node) not in inside for name, node in refs):
            out.append(d.name)
    return out


def test_every_definition_is_reached_from_src():
    assert unreached() == []
