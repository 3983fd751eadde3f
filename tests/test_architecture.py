"""Module boundaries of the package, read from its source with ast.

The algebraic side (``cohind``), the geometric side (``locp1``) and the
degree-zero oracle (``hecke``) are a check on each other only while
they share no construction code: none of the three reaches another
through its imports, and what they share lives in the modules below
them.  No module reaches into the private names of another.  Every
name the package defines, and every parameter default it offers, has a
caller outside the unit tests.  No module keeps state in an object's
``__dict__``.  The package needs nothing beyond the standard library.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "locind"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
SIBLINGS = ("cohind", "hecke", "locp1")


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
    assert {"exactla", "gkmod", "liealg", "pbw"} <= \
        {dep for dep, _ in _locind_imports("cohind")}


def test_no_module_imports_a_private_name_of_another():
    private = [f"{module} imports {name} from {dep}" for module in MODULES
               for dep, names in _locind_imports(module)
               for name in names if name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("module", SIBLINGS)
def test_no_sibling_computation_reaches_another(module):
    assert _reachable(module) & set(SIBLINGS) == set()


def test_the_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"__future__", "locind"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                tops = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:                       # relative imports stay in the package
                continue
            foreign += [f"{path.stem} imports {t}" for t in tops if t not in allowed]
    assert foreign == []


def test_no_module_keeps_state_in_an_instance_dict():
    """A per-process memo is an ``lru_cache`` on a function of its
    inputs, never a table stored in an object's ``__dict__``: equal
    inputs then share a result, and no shared object carries state."""
    sites = [f"{path.stem}.py:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "__dict__"]
    assert sites == []


def _defined_names(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) for each module-level function or class and each
    non-dunder method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(item.name, item) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def _uses(node: ast.AST, strings: bool = False) -> tuple[Counter, Counter]:
    """(attribute uses, name uses) of each identifier under node.

    An ast.Attribute counts its attribute and an ast.Name its id.  With
    ``strings``, every word of a string literal that is not a docstring
    counts as both.  Comments and docstrings never count.
    """
    docs = {id(n.body[0].value) for n in ast.walk(node)
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
            and n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)
            and isinstance(n.body[0].value.value, str)}
    attrs, names = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
        elif isinstance(n, ast.Name):
            names[n.id] += 1
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str) and id(n) not in docs):
            words = Counter(re.findall(r"\w+", n.value))
            attrs.update(words)
            names.update(words)
    return attrs, names


def test_every_src_name_has_a_non_test_caller():
    """Every function, class and method in the package is used by the
    package itself, by bench/ or by the acceptance gate, not only by
    unit tests.  A method counts as used through an attribute of its
    name outside its own definition, a module-level function or class
    also through a bare name.  Outside the package either also counts
    through a word of a string literal (bench/tracing.py names what it
    wraps that way); prose in the package's messages does not.  A
    method whose name another class also uses counts as used; this
    check cannot tell the two apart."""
    root = SRC.parents[1]
    trees = {m: ast.parse((SRC / f"{m}.py").read_text()) for m in MODULES}
    outside = [ast.parse(p.read_text()) for p in
               [*sorted((root / "bench").glob("*.py")),
                root / "tests" / "test_acceptance.py"]]
    attrs, names = Counter(), Counter()
    for tree, strings in [*((t, False) for t in trees.values()),
                          *((t, True) for t in outside)]:
        a, n = _uses(tree, strings)
        attrs += a
        names += n
    unused = []
    for module, tree in trees.items():
        top = {id(node) for node in tree.body}
        for name, node in _defined_names(tree):
            own_attrs, own_names = _uses(node)
            count = attrs[name] - own_attrs[name]
            if id(node) in top:
                count += names[name] - own_names[name]
            if count <= 0:
                unused.append(f"{module}.{name}")
    assert unused == []


def _calls(tree: ast.AST) -> list[tuple[str, ast.Call]]:
    """(callee name, call) for each call under tree.  The callee name is
    the called name or attribute, whatever it is called on."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            f = n.func
            if isinstance(f, ast.Name):
                out.append((f.id, n))
            elif isinstance(f, ast.Attribute):
                out.append((f.attr, n))
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "id", getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _optional_parameters(tree: ast.Module) -> list[tuple[str, ast.AST, str, str, int | None]]:
    """(callee name, definition, qualified name, parameter, position or
    None) for each parameter with a default of a module-level function
    or of a method of a module-level class, and for each field with a
    default of a module-level dataclass.  An ``__init__``, written or
    generated, is called by its class name; the position does not count
    a method's self or cls."""
    defs = [(node.name, node, node.name, 0) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    out = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                callee = cls.name if item.name == "__init__" else item.name
                defs.append((callee, item, item.name, 0 if static else 1))
        if _is_dataclass(cls):
            fields = [f for f in cls.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            out += [(cls.name, f, cls.name, f.target.id, i)
                    for i, f in enumerate(fields) if f.value is not None]
    for callee, node, name, skip in defs:
        a = node.args
        positional = (a.posonlyargs + a.args)[skip:]
        first = len(positional) - len(a.defaults)
        out += [(callee, node, name, p.arg, i) for i, p in enumerate(positional) if i >= first]
        out += [(callee, node, name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None]
    return out


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):    # None: **kwargs
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == position:
            return True
    return False


def test_every_optional_parameter_has_a_non_test_caller():
    """Every parameter with a default, of a function or method in the
    package, and every field with a default of a dataclass in it, is
    passed, by keyword or by position, at some call in the package
    (outside the function's own body), in bench/ or in the acceptance
    gate; a field may also be set by keyword through ``replace``.  A
    setting that only unit tests pass is a second configuration nothing
    else runs.  As in the names check, a call of any callable with the
    function's name counts."""
    root = SRC.parents[1]
    trees = {m: ast.parse((SRC / f"{m}.py").read_text()) for m in MODULES}
    outside = [ast.parse(p.read_text()) for p in
               [*sorted((root / "bench").glob("*.py")),
                root / "tests" / "test_acceptance.py"]]
    calls = [c for tree in [*trees.values(), *outside] for c in _calls(tree)]
    unset = []
    for module, tree in trees.items():
        for callee, node, name, param, position in _optional_parameters(tree):
            own = {id(n) for n in ast.walk(node)}
            field = isinstance(node, ast.AnnAssign)
            if not any(id(call) not in own
                       and (n == callee and _passes(call, param, position)
                            or field and n == "replace" and _passes(call, param, None))
                       for n, call in calls):
                unset.append(f"{module}.{name}({param}=)")
    assert unset == []
