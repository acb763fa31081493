"""Guard that scipy stays a test-only dependency: no module in src/granmpc
imports it, at module level or inside a function, and the package's runtime
dependencies do not name it (it comes with the ``test`` extra)."""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def scipy_imports(src: Path = ROOT / "src" / "granmpc") -> list:
    """(file, line) of every import of scipy or of a scipy submodule."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                out.append((path.name, node.lineno))
    return out


def test_src_imports_no_scipy():
    assert scipy_imports() == []


def test_scipy_is_not_a_runtime_dependency():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert not [d for d in project["dependencies"] if d.lower().startswith("scipy")]
    assert "scipy" in project["optional-dependencies"]["test"]
