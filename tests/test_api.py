"""The public surface: one export list per module, and no assert in the engine."""

import ast
import importlib
import pathlib

import flagcalc

SRC = pathlib.Path(flagcalc.__file__).resolve().parent
# the package re-exports these; the command line stays its own entry point
ENGINE = ("weights", "notation", "bundles", "geometry", "bbw", "transform")


def test_every_module_is_accounted_for():
    assert {p.stem for p in SRC.glob("*.py")} == {"__init__", "cli", *ENGINE}


def test_every_exported_name_resolves():
    for name in (*ENGINE, "cli"):
        module = importlib.import_module(f"flagcalc.{name}")
        missing = [x for x in module.__all__ if not hasattr(module, x)]
        assert not missing, (name, missing)


def test_the_package_exports_the_union_of_the_module_lists():
    owner = {}
    for name in ENGINE:
        module = importlib.import_module(f"flagcalc.{name}")
        for x in module.__all__:
            assert x not in owner, f"{x} is exported by both {owner.get(x)} and {name}"
            owner[x] = name
            assert getattr(flagcalc, x) is getattr(module, x)
    assert sorted(flagcalc.__all__) == sorted([*owner, "__version__"])
    assert len(flagcalc.__all__) == len(set(flagcalc.__all__))


def test_no_assert_statement_in_the_engine():
    # checks must hold under python -O, which strips assert statements
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def _unchecked_constructions(tree: ast.AST):
    """Lines that call a ``_trusted`` constructor or ``object.__new__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func
            if target.attr == "_trusted" or (
                    target.attr == "__new__" and isinstance(target.value, ast.Name)
                    and target.value.id == "object"):
                yield node.lineno


def test_no_label_is_built_without_its_checks():
    # every label goes through BundleLabel's own checks, which read one
    # cached shape record, so no path needs to skip them
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = list(_unchecked_constructions(tree))
        assert not lines, f"{path.name}: unchecked construction at lines {lines}"
