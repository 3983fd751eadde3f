"""Module boundaries of the package, read from its source with ast.

The algebraic side (``cohind``), the geometric side (``locp1``) and the
degree-zero oracle (``hecke``) are a check on each other only while
they share no construction code, and no module reaches into the
private names of another.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "locind"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _locind_imports(module: str) -> list[tuple[str, tuple[str, ...]]]:
    """(imported locind module, imported names) for each import in a module."""
    path = SRC / f"{module}.py"
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out += [(a.name.split(".")[1], ()) for a in node.names
                    if a.name.startswith("locind.")]
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name.split(".")[0] != "locind":
                    continue
                name = name[len("locind"):].lstrip(".")
            if name:
                out.append((name.split(".")[0], tuple(a.name for a in node.names)))
            else:                       # from . import module
                out += [(a.name, ()) for a in node.names]
    return out


def _reachable(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        for dep, _ in _locind_imports(todo.pop()):
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def test_imports_are_found():
    assert {"exactla", "gkmod", "hecke", "liealg", "pbw"} <= \
        {dep for dep, _ in _locind_imports("cohind")}


def test_no_module_imports_a_private_name_of_another():
    private = [f"{module} imports {name} from {dep}" for module in MODULES
               for dep, names in _locind_imports(module)
               for name in names if name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("module", ["hecke", "locp1"])
def test_oracle_and_geometric_side_do_not_use_the_resolution_engine(module):
    assert "cohind" not in _reachable(module)
