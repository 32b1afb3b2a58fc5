"""The public surface: one export list per module, each exported function
and each public method or property of an exported class read by the package
or the benchmark, no assert in the engine, and every value class frozen and
slotted."""

import ast
import copy
import importlib
import inspect
import pathlib
import pickle

import pytest

import flagcalc
from flagcalc import (
    BundleLabel,
    FormType,
    assemble_transform,
    check_ellipticity,
    direct_images,
    emit_realization,
    exterior_power,
    involutive_cohomology,
    parse_label,
    registry,
    relative_cotangent,
    x_label,
    z_label,
)
from flagcalc import bundles
from flagcalc.cli import RunConfig
from flagcalc.notation import FrozenDict, Value
from flagcalc.transform import form_dictionary

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


# exported functions that nothing in the package or the benchmark calls yet
UNCALLED = {
    "dual": "the Serre duality test reads it, and a formal adjoint derived by "
            "reversing and dualizing will call it",
}


def _references(node: ast.AST, skip: str | None):
    """Every ast.Name id and ast.Attribute attr under node, outside any
    function definition named ``skip``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip)


def _source_trees() -> dict:
    """The parsed sources of the package and the benchmark, by path."""
    bench = sorted((pathlib.Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    assert bench, "the benchmark sources are missing"
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in (*sorted(SRC.glob("*.py")), *bench)}


def test_every_exported_function_has_a_caller():
    # a reference from its own module counts, but not from its own body
    trees = _source_trees()
    uncalled = set()
    for name in (*ENGINE, "cli"):
        module = importlib.import_module(f"flagcalc.{name}")
        for x in module.__all__:
            obj = getattr(module, x)
            if not callable(obj) or inspect.isclass(obj):
                continue
            if not any(x in set(_references(tree, x if path.stem == name else None))
                       for path, tree in trees.items()):
                uncalled.add(x)
    assert uncalled == set(UNCALLED)


# public methods and properties of exported classes that nothing in the
# package or the benchmark reads yet
UNREAD_MEMBERS: dict[str, str] = {}

# properties named like a field of some value class: a read of the name may
# be a read of the field, so each is listed here with a reader
SHARED_NAME_PROPERTIES = {
    "BundleLabel.n": "geometry.twist_frames and bbw.e1_page read the n of a label",
}


def _attribute_uses(node: ast.AST, skip: str):
    """(attr, called) for every ast.Attribute under node, outside any
    function definition named ``skip``; called when it is a call's function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == skip:
        return
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        yield node.func.attr, True
    if isinstance(node, ast.Attribute):
        yield node.attr, False
    for child in ast.iter_child_nodes(node):
        yield from _attribute_uses(child, skip)


def test_every_public_member_of_an_exported_class_has_a_reader():
    # a method is read only by a call x.m(...), a property by any x.m, each
    # outside the member's own body; a property that shares its name with a
    # field cannot be told from it by name, so it is listed with its reader
    trees = _source_trees().values()
    fields = {f for cls in _value_classes() for f in cls.__slots__}
    unread, shared = set(), set()
    for name in (*ENGINE, "cli"):
        module = importlib.import_module(f"flagcalc.{name}")
        for cls in (getattr(module, x) for x in module.__all__):
            if not inspect.isclass(cls):
                continue
            for member, obj in vars(cls).items():
                prop = isinstance(obj, property)
                method = inspect.isfunction(obj) or isinstance(obj, (staticmethod, classmethod))
                if member.startswith("_") or not (prop or method):
                    continue
                if prop and member in fields:
                    shared.add(f"{cls.__name__}.{member}")
                elif not any((member, True) in uses or (prop and (member, False) in uses)
                             for uses in (set(_attribute_uses(tree, member)) for tree in trees)):
                    unread.add(f"{cls.__name__}.{member}")
    assert unread == set(UNREAD_MEMBERS)
    assert shared == set(SHARED_NAME_PROPERTIES)


# (importer, module, name) -> why one module reads a private name of another.
# The first page is built whole in bbw, so transform reads nothing private there.
PRIVATE_IMPORTS = {
    ("bbw", "bundles", "_check_twist"): "e1_page checks its twist once, where twist_by would",
    ("bbw", "bundles", "_shape"): "the page's reduction reads the line-test links once per call",
    ("bundles", "weights", "_kernel_per_length"): "the rank kernels are compiled as the "
                                                  "reducers are, once per shape",
    ("bundles", "weights", "_listed"): "the rank kernels' source unpacks a weight the same way",
    ("cli", "notation", "_quoted"): "a label the command line cannot read is quoted as the "
                                    "parser quotes it",
    ("geometry", "bundles", "_label_rank"): "a memo's miss path checks each Levi constituent's "
                                            "rank without the traced rank",
    ("transform", "bundles", "_rank_kernel"): "ComplexOnM.ranks() looks a kernel up once per "
                                              "block shape",
    ("transform", "weights", "_pair_scan"): "the symbol check scans each source in one "
                                            "compiled call",
}


def test_each_private_name_read_across_modules_is_listed_with_a_reason():
    # a module that reads another's private name shares a decision with it;
    # each such import is listed above, so a new one has to say why
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found |= {(path.stem, node.module, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names if alias.name.startswith("_")}
    assert found == set(PRIVATE_IMPORTS)
    assert not any(importer == "transform" and module == "bbw" for importer, module, _ in found)


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


_SETTER_NAMES = ("__set__", "_setters")


def _field_write_lines(node: ast.AST, where: tuple = ()):
    """Lines that reach a field's slot: ``object.__setattr__``, a slot
    descriptor's ``__set__`` or the base's ``_setters``, read as an attribute
    or named in a string, each with what it reads and the class and function
    names around it: ``where`` is the path of definitions to node."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        where = (*where, node.name)
    if isinstance(node, ast.Attribute) and node.attr == "__setattr__" \
            and isinstance(node.value, ast.Name) and node.value.id == "object":
        yield where, node.lineno, "object.__setattr__"
    elif isinstance(node, ast.Attribute) and node.attr in _SETTER_NAMES:
        yield where, node.lineno, node.attr
    elif isinstance(node, ast.Constant) and node.value in _SETTER_NAMES:
        yield where, node.lineno, node.value
    for child in ast.iter_child_nodes(node):
        yield from _field_write_lines(child, where)


def _holds_a_slot_setter(value) -> bool:
    """A slot descriptor's bound ``__set__``, or a container that holds one."""
    items = value.values() if isinstance(value, dict) else \
        value if isinstance(value, (tuple, list, set, frozenset)) else (value,)
    return any(getattr(item, "__name__", None) == "__set__"
               and inspect.ismemberdescriptor(getattr(item, "__self__", None)) for item in items)


def test_only_the_value_base_and_the_label_constructor_set_fields():
    # every other value, a mapping field included, is stored by the __init__
    # that the value base generates through the setters it binds; the label
    # constructor takes the same setters from the base, and nothing else
    # reads a slot's setter, so no write can go around the label checks
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "notation.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            lines = [(line, what) for where, line, what in _field_write_lines(tree)
                     if (where, what) != (("BundleLabel", "__init__"), "_setters")]
            if lines:
                found[path.name] = lines
    assert not found, f"a field write outside the value base: {found}"
    modules = [flagcalc, *(importlib.import_module(f"flagcalc.{name}")
                           for name in (*ENGINE, "cli"))]
    bound = [f"{module.__name__}.{name}" for module in modules
             for name, value in vars(module).items() if _holds_a_slot_setter(value)]
    bound += [f"{cls.__qualname__}.{name}" for cls in _value_classes()
              for name, value in vars(cls).items()
              if name != "_setters" and _holds_a_slot_setter(value)]
    assert not bound, f"a slot setter bound outside the value base: {bound}"
    for cls in _value_classes():  # each class's own slots, in field order
        assert [setter.__self__ for setter in cls._setters] == [vars(cls)[f] for f in cls.__slots__]


def _value_classes():
    """Every class built on the value base, private ones included."""
    for name in (*ENGINE, "cli"):
        module = importlib.import_module(f"flagcalc.{name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__ \
                    and issubclass(cls, Value) and cls is not Value:
                yield cls


def _value_definitions() -> int:
    """The class statements in the package source that name the base."""
    return sum(1 for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)
               and any(isinstance(b, ast.Name) and b.id == "Value" for b in node.bases))


def test_every_value_class_is_frozen_and_slotted():
    classes = list(_value_classes())
    assert len(classes) == _value_definitions()
    for cls in classes:
        assert "__slots__" in vars(cls), cls
        assert not any("__dict__" in vars(k) for k in cls.__mro__), cls
    res = assemble_transform(z_label((0, 0, 0, 0)), 3)
    fib = registry(3)["mu"]
    report = check_ellipticity(res.complex_)
    hyperplane = exterior_power(relative_cotangent(fib), 1).twist_by(x_label((0, 1, 0, 0)))
    values = [res, res.table, res.complex_, res.complex_.form_types[0][0],
              res.complex_.terms[0][0], report, report.arrows[0], relative_cotangent(fib), fib,
              fib.total, parse_label("(1|0,0|0)"),
              direct_images(hyperplane, registry(3)["nu"], p=1).log[0],
              emit_realization(res.complex_),
              RunConfig(), bundles._shape("Z", 3)]
    assert {type(value) for value in values} == set(classes)
    for value in values:
        assert not hasattr(value, "__dict__"), type(value)
        field = type(value).__slots__[0]
        for write in (lambda: setattr(value, field, None), lambda: delattr(value, field),
                      lambda: setattr(value, "extra", None)):
            with pytest.raises(AttributeError):
                write()
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(again) is type(value) and again == value and hash(again) == hash(value)
            assert repr(again) == repr(value)


def test_a_label_is_unpickled_and_copied_through_its_checks():
    label = z_label((1, 0, 0, -2))
    assert label.__reduce__() == (BundleLabel, ("Z", (1, 0, 0, -2)))

    class Forged:  # pickles as a label whose weight breaks the block rule
        def __reduce__(self):
            return BundleLabel, ("Z", (1, 2, 0, -2))

    for rebuild in (lambda: pickle.loads(pickle.dumps(Forged())), lambda: copy.deepcopy(Forged())):
        with pytest.raises(ValueError, match="nondecreasing"):
            rebuild()


def test_value_reprs_name_every_field():
    assert repr(FormType(1, 1, "full")) == "FormType(p=1, q=1, role='full')"
    assert repr(parse_label("(1|0,0|0)")) == \
        "ParsedLabel(weight=(1, 0, 0, 0), blocks=(1, 2, 1), double_bar=False)"
    assert repr(RunConfig()) == \
        "RunConfig(n=3, twist=None, mode='paper', format='markdown', fibration=None)"
    assert repr(involutive_cohomology(z_label((0, 0, 0, 0)))) == "{0: 1, 2: 1}"  # a mapping
    assert repr(z_label((1, 0, 0, -2))) == "<Z (1|0,0|-2)>"  # the label writes its own


def test_frozen_results_are_hashable_and_read_only():
    # their mapping fields were plain dicts: hash() raised TypeError, and
    # res.table.cells[(9, 9)] = () changed a frozen result in place; the
    # shared registry and form dictionary are the same read-only mapping
    res = assemble_transform(None, 3)
    coh = involutive_cohomology(z_label((0, 0, 0, 0)))
    assert type(coh) is FrozenDict
    for value in (res, res.table, res.complex_, coh):
        assert hash(value) == hash(value)
    again = assemble_transform(None, 3)
    assert again == res and hash(again) == hash(res)
    assert involutive_cohomology(z_label((0, 0, 0, 0))) == coh
    for mapping in (res.table.cells, res.complex_.claim_tags, coh, registry(3),
                    *form_dictionary(3)):
        assert type(mapping) is FrozenDict and hash(mapping) == hash(FrozenDict(mapping))
        assert mapping == dict(mapping) and mapping  # equality with a dict is unchanged
        key = next(iter(mapping))
        for write in (lambda: mapping.__setitem__((9, 9), ()), lambda: mapping.__delitem__(key),
                      lambda: mapping.update({}), lambda: mapping.pop(key),
                      lambda: mapping.setdefault(key), mapping.popitem, mapping.clear):
            with pytest.raises(TypeError):
                write()
        with pytest.raises(TypeError):
            mapping |= {}
        assert pickle.loads(pickle.dumps(mapping)) == mapping
        assert type(pickle.loads(pickle.dumps(mapping))) is type(mapping)
    assert again == res and (9, 9) not in res.table.cells


def test_a_label_is_built_by_keyword_as_by_position():
    for space, weight in (("Z", (1, 0, 0, -2)), ("M", (0, -1, 0, 1)), ("X", (2, 1, 0)),
                          ("fiber", (-1, 0, 3))):
        by_keyword = BundleLabel(space=space, weight=weight)
        assert by_keyword == BundleLabel(space, weight)
        assert hash(by_keyword) == hash(BundleLabel(space, weight))
        assert (by_keyword.space, by_keyword.weight) == (space, weight)
