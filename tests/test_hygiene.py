"""Source hygiene: every name a galchar module imports is used in it, and
every function, method and class is referenced outside its own body (public
ones may be allowed, each with its reason)."""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import galchar

SRC = Path(__file__).resolve().parent.parent / "src" / "galchar"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for each import except ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's re-exports
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _imported(tree).items()
            if name not in used
        ]
    assert unused == []


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\nx: 'lcm' = 1\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "gcd"}


def _private_defs(tree: ast.Module) -> list[ast.AST]:
    """Private (_name, not __dunder__) functions, methods and classes."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    ]


def _references(tree: ast.AST) -> list[str]:
    """Every name loaded and every attribute read or written, with repeats."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def _unreferenced_private(trees: dict[str, ast.Module]) -> list[str]:
    """Private definitions named nowhere in the package outside their own body."""
    counts: dict[str, int] = {}
    for tree in trees.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    return [
        f"{path}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in _private_defs(tree)
        if counts.get(node.name, 0) == _references(node).count(node.name)
    ]


def test_every_private_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private(trees) == []


def test_detects_an_unreferenced_private_definition():
    source = (
        "def _dead(n):\n    return _dead(n - 1) if n else 0\n"
        "def _used():\n    return 1\n"
        "class _Thing:\n    def _method(self):\n        return _used()\n"
        "    def __len__(self):\n        return 0\n"
        "x = _Thing()._method\n"
    )
    assert _unreferenced_private({"m.py": ast.parse(source)}) == ["m.py:1 _dead"]


# The modules in layers: each may import, at any level, only modules before it.
LAYERS = ("fpmat", "numth", "perm", "cyclotomic", "chartab", "constructors", "classify",
          "corpus", "cli")


def _package_imports(tree: ast.Module) -> set[str]:
    """The galchar modules a module imports, relatively or by full name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["galchar" if node.level else "", node.module]))
            names += [f"{module}.{a.name}" if module == "galchar" else module for a in node.names]
    return {name.split(".")[1] for name in names if name.startswith("galchar.")}


def _upward_imports(trees: dict[str, ast.Module]) -> list[str]:
    """module -> imported, for each import of a module not before it in LAYERS."""
    return [
        f"{module} -> {imported}"
        for module, tree in trees.items()
        for imported in sorted(_package_imports(tree))
        if imported not in LAYERS[:LAYERS.index(module)]
    ]


def test_modules_import_only_the_layers_before_them():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert sorted(trees) == sorted(LAYERS)
    assert _upward_imports(trees) == []


def test_detects_an_upward_import():
    sources = {
        "fpmat": "import numpy\n",
        "numth": "from .fpmat import mul\n",
        "perm": "def f():\n    from . import chartab\n",
        "chartab": "import galchar.classify\nfrom galchar import perm\n",
        "classify": "from galchar.chartab import x\nfrom .cli import main\n",
    }
    trees = {module: ast.parse(source) for module, source in sources.items()}
    assert _upward_imports(trees) == [
        "perm -> chartab", "chartab -> classify", "classify -> cli",
    ]


# Public definitions that nothing in src/galchar refers to, each with the
# reason it stays: tracer-pinned (galbench/tracer.py patches or reads it) or
# public I/O.  Tests alone are no reason: their references and oracles live
# in tests/reference.py.
UNREFERENCED_PUBLIC = {
    "perm.PermGroup.elements": "tracer-pinned: the enumeration hook reads len(group.elements)",
    "perm.PermGroup.close": "tracer-pinned: patched as perm.close",
    "perm.save_group": "public I/O: writes a group file, as load_group reads one",
}
REASONS = ("tracer-pinned: ", "public I/O: ")


def _public_defs(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each public module-level function or class
    and each public method of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{m.name}", m) for m in node.body
                    if isinstance(m, defs) and not m.name.startswith("_")]
    return out


def _unreferenced_public(trees: dict[str, ast.Module]) -> list[str]:
    """Public definitions named nowhere in the modules outside their own
    body, as module.qualified_name.  A package's re-exports are no use, so
    the caller leaves its __init__ out."""
    counts: dict[str, int] = {}
    for tree in trees.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    return [
        f"{path.removesuffix('.py')}.{qualname}"
        for path, tree in trees.items()
        for qualname, node in _public_defs(tree)
        if counts.get(node.name, 0) == _references(node).count(node.name)
    ]


def test_every_public_definition_is_referenced_or_allowed():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert sorted(_unreferenced_public(trees)) == sorted(UNREFERENCED_PUBLIC)
    assert all(reason.startswith(REASONS) for reason in UNREFERENCED_PUBLIC.values())


def test_detects_an_unreferenced_public_definition():
    source = (
        "def dead(n):\n    return dead(n - 1) if n else 0\n"
        "def used():\n    return 1\n"
        "class Thing:\n    def method(self):\n        return used()\n"
        "    def idle(self):\n        return 0\n"
        "    def __len__(self):\n        return 0\n"
        "x = Thing().method\n"
    )
    assert _unreferenced_public({"m.py": ast.parse(source)}) == ["m.dead", "m.Thing.idle"]


# Names the library must not define, as "module" or "module:Class" -> names:
# only tests used them, and tests/reference.py holds them, or the table holds
# their fact once elsewhere (the kernel mask, the lift's values by conductor,
# cyclotomic's one monomial table).
MOVED = {
    "galchar": ("zeta", "check_isaacs_bound", "check_frobenius_criterion", "cyc"),
    "galchar.cyclotomic": ("zeta", "cmath", "cyc"),
    "galchar.numth": ("multiplicative_order", "zsigmondy_exception_expected"),
    "galchar.classify": ("check_isaacs_bound", "check_frobenius_criterion"),
    "galchar.chartab": ("_pool_by_conductor", "_monomials"),
    "galchar.cyclotomic:Cyclotomic": (
        "from_int", "zeta", "from_root_multiplicities", "is_zero", "rational_value", "__add__",
        "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__", "__neg__",
        "galois_apply", "conjugate", "to_complex", "parse",
    ),
    "galchar.chartab:CharacterTable": ("galois_conjugate", "_by_conductor"),
    "galchar.chartab:Character": (
        "galois_stabilizer", "_stab", "is_rational", "kernel_index", "_kernel_classes",
    ),
    "galchar.perm:Permutation": ("identity", "__call__", "inv", "__pow__", "order", "commutator"),
    "galchar.perm:PermGroup": ("element_id", "__contains__", "subgroup", "trivial_subgroup"),
    "galchar.perm:Subgroup": ("elements", "__contains__"),
}


def _defines(owner: str, name: str) -> bool:
    """Whether the module has the attribute, or the class or one of its
    bases other than object defines it (slots included)."""
    module, _, cls = owner.partition(":")
    found = importlib.import_module(module)
    if not cls:
        return hasattr(found, name)
    return any(name in vars(c) for c in getattr(found, cls).__mro__ if c is not object)


def test_package_surface():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        (node.module, alias.name, alias.asname or alias.name)
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name, bound in imported:
        source = importlib.import_module(f"galchar.{module}")
        assert getattr(galchar, bound) is getattr(source, name), (module, name)
    left = [f"{owner}.{name}" for owner, names in MOVED.items()
            for name in names if _defines(owner, name)]
    assert left == []


def test_detects_a_defined_name():
    assert _defines("galchar.perm:Permutation", "__mul__")
    assert _defines("galchar.chartab:Character", "_kernel")  # a slot
    assert not _defines("galchar.perm:Permutation", "__init_subclass__")  # object's
    assert _defines("galchar.numth", "factorize")


_TABLE_AND_REPORT = """
import sys
from galchar import character_table
from galchar.classify import analyze_structure
from galchar.corpus import build

group = build("C7:C3")
analyze_structure(group, character_table(group))
print(sorted({"numpy.random", "numpy.ma", "secrets", "hashlib"} & set(sys.modules)))
"""


def test_a_table_and_its_report_load_neither_numpy_random_nor_numpy_ma():
    # numpy.random brings secrets, hashlib and OpenSSL; numpy.ma is what plain
    # np.unique, np.isin and np.intersect1d import.  C7:C3 descends two
    # levels and runs the structural checklist
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _TABLE_AND_REPORT], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
