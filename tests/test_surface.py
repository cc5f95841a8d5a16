"""Every function, class and method the package defines is reached by the package.

A symbol counts as reached when its name is used (as a name, an attribute, or
a string naming an attribute, as the benchmark's tracer binds them) anywhere
in `src/umtn/` or `perfbench/` outside its own definition.  Imports and
`__all__` entries do not count: exporting a symbol does not reach it.  The
check goes by name, so a method shares the uses of every attribute of the same
name; it catches code that nothing names at all, which tests alone keep alive.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "umtn"
PERFBENCH = REPO / "perfbench"

# Defined but not reached from the package or the benchmark, on purpose.
KEPT = {
    "ingest_csv": "documented entry point for real site and measurement tables",
    "zero_grads": "ParameterStore API for callers that run backward without an Adam step",
    "DrcModel": "the paper's DRC baseline, kept to be compared against",
    "DrcConfig": "sizing of the DRC baseline; only DrcModel, itself kept, names it",
    "__init__": "constructor protocol",
    "__post_init__": "dataclass protocol",
    "__repr__": "object protocol",
    "__len__": "Sequence protocol (Trajectory)",
    "__getitem__": "Sequence and mapping protocol (Trajectory, ParameterStore)",
}


def _sources(root: Path) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(root.rglob("*.py"))}


def defined_symbols(trees: dict[Path, ast.Module]) -> dict[str, list[str]]:
    """Name -> 'module:qualname' of every module-level function and class and
    every method of a module-level class."""
    defined: dict[str, list[str]] = {}
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.setdefault(node.name, []).append(f"{path.stem}:{node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defined.setdefault(item.name, []).append(f"{path.stem}:{node.name}.{item.name}")
    return defined


def used_names(trees: dict[Path, ast.Module], strings: bool) -> set[str]:
    """Names used as a Name or an Attribute, plus (with `strings`) identifier
    string constants outside `__all__`."""
    used: set[str] = set()
    for tree in trees.values():
        exported = {
            id(constant)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for constant in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (
                strings
                and isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in exported
            ):
                used.add(node.value)
    return used


def unreached() -> list[str]:
    package = _sources(PACKAGE)
    used = used_names(package, strings=False) | used_names(_sources(PERFBENCH), strings=True)
    return sorted(
        where
        for name, places in defined_symbols(package).items()
        if name not in used and name not in KEPT
        for where in places
    )


def test_every_defined_symbol_is_reached():
    missing = unreached()
    assert not missing, (
        f"defined in src/umtn but used nowhere in src/umtn or perfbench: {missing}; "
        "delete it, or add it to KEPT with the reason it stays"
    )


def test_kept_entries_are_still_defined():
    defined = defined_symbols(_sources(PACKAGE))
    assert not sorted(set(KEPT) - set(defined)), "KEPT names a symbol the package no longer defines"
