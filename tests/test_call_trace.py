"""Every function in src/galchar runs in some subcommand.

The CLI runs in process under sys.setprofile: zsigmondy, construct, chartab
and classify in both formats on one small group, sweep and check-theorem.
Each def it never calls must be allowed below with its reason.
"""
from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import galchar
from galchar.cli import main

SRC = Path(galchar.__file__).resolve().parent

NEVER_CALLED = {
    "perm.PermGroup.close": "tracer-pinned: patched as perm.close",
    "perm.PermGroup.element": "tracer-pinned: serves PermGroup.elements",
    "perm.PermGroup.elements": "tracer-pinned: the enumeration hook reads len(group.elements)",
    "perm.Permutation._of_row": "tracer-pinned: builds the elements of PermGroup.elements",
    "perm.Permutation.__mul__": "tracer-pinned: counted as perm.products",
    "perm.Permutation.__eq__": "tracer-pinned: serves the sets of PermGroup.close",
    "perm.Permutation.__hash__": "tracer-pinned: serves the sets of PermGroup.close",
    "perm.Permutation.__repr__": "debug output",
    "perm.Permutation.cycle_string": "debug output: Permutation.__repr__",
    "perm.Permutation._cycles": "debug output: Permutation.cycle_string",
    "perm.PermGroup.__repr__": "debug output",
    "perm.Subgroup.__repr__": "debug output",
    "chartab.Character.__repr__": "debug output",
    "chartab.CharacterTable.__repr__": "debug output",
    "cyclotomic.Cyclotomic.__repr__": "debug output",
    "chartab.Character.__call__": "public API: one value of a character",
    "perm.Subgroup.__hash__": "public API: subgroups compare by their elements",
    "perm.save_group": "public API: writes a group file, as load_group reads one",
    "cyclotomic._normal_form": "reference path: the checked constructor and == between conductors",
    "cyclotomic.Cyclotomic._terms": "reference path: == between conductors",
    "chartab.Character.values": "bench-pinned: galbench's fingerprint reads each row",
    "chartab.CharacterTable.value_pool": "bench-pinned: galbench's fingerprint reads the values",
    "cyclotomic.Cyclotomic.__eq__": "bench-pinned: galbench's fingerprint compares values with degrees",
}
REASONS = ("tracer-pinned", "debug output", "public API", "reference path", "bench-pinned")


def _defs(source: str, module: str) -> dict[tuple[str, int], str]:
    """(name, first line) -> module.qualname of each def in the source,
    where the first line is that of its first decorator, as in a code
    object's co_firstlineno."""
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[child.name, first] = f"{module}.{prefix}{child.name}"
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return out


def _clear_caches() -> None:
    """Empty every lru_cache of the package, so cached functions run again."""
    for path in SRC.glob("*.py"):
        module = importlib.import_module(f"galchar.{path.stem}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_every_function_runs_in_a_subcommand(tmp_path, capsys):
    group = str(tmp_path / "a5.json")
    runs = [
        ["zsigmondy", "2", "6"],
        ["construct", "a5", "--p", "2", "--n", "2", "--out", group],
        ["chartab", group],
        ["chartab", "--format", "json", group],
        ["classify", group],
        ["classify", "--report", "json", group],
        ["sweep", "--max-order", "100"],
        ["check-theorem"],
    ]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    _clear_caches()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    ran = {
        (Path(code.co_filename).stem, code.co_name, code.co_firstlineno)
        for code in called if Path(code.co_filename).resolve().parent == SRC
    }
    never = sorted(
        qualname
        for path in sorted(SRC.glob("*.py"))
        for key, qualname in _defs(path.read_text(), path.stem).items()
        if (path.stem, *key) not in ran
    )
    assert never == sorted(NEVER_CALLED)
    assert all(reason.startswith(REASONS) for reason in NEVER_CALLED.values())


def test_defs_are_keyed_as_their_code_objects():
    source = (
        "class A:\n    @property\n    def f(self):\n"
        "        def g():\n            pass\n        return g\n"
    )
    namespace = {}
    exec(compile(source, "m.py", "exec"), namespace)
    f = namespace["A"].f.fget
    g = f(None)
    assert _defs(source, "m") == {
        (f.__code__.co_name, f.__code__.co_firstlineno): "m.A.f",
        (g.__code__.co_name, g.__code__.co_firstlineno): "m.A.f.<locals>.g",
    }
