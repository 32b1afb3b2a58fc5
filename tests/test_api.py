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


# Where BundleLabel._trusted may build a label without its checks, and why
# the weight is dominant there by construction.
TRUSTED_SITES = {
    ("bundles.py", "FilteredBundle.twist_by"),  # a line adds a constant on each block
    ("bbw.py", "reduce_factor"),                # bbw_reduce returns sorted(w + rho) - rho
}


def _trusted_calls(tree: ast.AST, scope: tuple[str, ...] = ()):
    """(enclosing qualified name, line) of each call to ``*._trusted``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, node.name)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_trusted"):
            yield ".".join(scope), node.lineno
        yield from _trusted_calls(node, inner)


def test_labels_skip_their_checks_only_at_the_listed_sites():
    # a new trusted path must be added to TRUSTED_SITES on purpose
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for where, line in _trusted_calls(tree):
            sites.setdefault((path.name, where), []).append(line)
    assert set(sites) == TRUSTED_SITES, sites
    assert all(len(lines) == 1 for lines in sites.values()), sites
