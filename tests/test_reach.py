"""Guard against test-only code: every function, class and method defined in
src/granmpc is referenced elsewhere in src/granmpc, and every parameter with
a default is passed by some call in src/granmpc.

A reference is a read of the name or of an attribute of that name, or an
import of it, outside the definition itself; so a method counts as reached
when any attribute of its name is read. Special methods are left out, since
Python calls them.

A call passes a parameter by its keyword, by its position (after ``self`` or
``cls`` for a method), or through a ``*`` or ``**`` argument that may hold
it. Calls are matched to definitions by the bare name they call, with
``import ... as`` aliases resolved (``simulate`` calls ``models.step`` as
``model_step``).

Names are matched bare, so same-named methods hide each other: a read of
``Zonotope.contains`` once counted for the test-only ``HPolytope.contains``.
Nor does the guard see a branch taken only for some argument types; that
still needs a trace of the running program.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "granmpc"

# acceptance oracles (criteria 5 and 2) and the determinism contract that
# criterion 12 and the benchmark read
ALLOWED = {"dlqr", "minkowski_sum", "canonical_record_bytes"}

# parameters that keep their defaults on the run path: the entry point's argv
# (None reads the command line), the QP's iteration cap (tests force
# "iteration_limit") and the tolerances of criterion 5's LQR oracle
ALLOWED_PARAMS = {("main", "argv"), ("qp_solve", "max_iter"), ("dlqr", "tol"),
                  ("dlqr", "max_iter")}


def _trees(src: Path) -> list:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))]


def unreached(src: Path = SRC) -> list:
    trees = _trees(src)
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


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether the call may pass the parameter at this position (None for a
    keyword-only one) and with this name."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def unpassed(src: Path = SRC) -> list:
    """'function(parameter)' for each parameter with a default that no call passes."""
    trees = _trees(src)
    nodes = [n for tree in trees for n in ast.walk(tree)]
    alias = {a.asname: a.name for n in nodes if isinstance(n, ast.ImportFrom)
             for a in n.names if a.asname}
    calls: dict = {}
    for n in nodes:
        if isinstance(n, ast.Call):
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            calls.setdefault(alias.get(name, name), []).append(n)
    out = []
    for d in (n for n in nodes if isinstance(n, ast.FunctionDef)):
        positional = d.args.posonlyargs + d.args.args
        bound = int(bool(positional) and positional[0].arg in ("self", "cls"))
        first = len(positional) - len(d.args.defaults)
        params = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
        params += [(None, a.arg) for a, default in zip(d.args.kwonlyargs, d.args.kw_defaults)
                   if default is not None]
        out += [f"{d.name}({name})" for index, name in params
                if (d.name, name) not in ALLOWED_PARAMS
                and not any(_passes(c, index, name) for c in calls.get(d.name, []))]
    return out


def test_every_definition_is_reached_from_src():
    assert unreached() == []


def test_every_default_parameter_is_passed_from_src():
    assert unpassed() == []


def test_unpassed_sees_positions_keywords_and_aliases(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, y=1, *, z=2):\n    pass\n"
        "class C:\n    def m(self, p=0, q=0):\n        pass\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from .a import f as g\n"
        "def h(w=0):\n    g(0, 1)\n    C().m(1)\n    h(**{})\n", encoding="utf-8")
    assert sorted(unpassed(tmp_path)) == ["f(z)", "m(q)"]
