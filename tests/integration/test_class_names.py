"""Cluster names are class names, so two modules that each define an
``OdeObject`` subclass called ``Part`` would make one module's database
open the other's class. Defining the second one raises
:class:`SchemaError` naming both modules; a class redefined in its own
module (a notebook cell run twice, a class defined inside a test) takes
over the name. Every persistent class a test module defines, at module
level or inside a test, needs a name no other test module uses."""

import ast
import collections
import pathlib

import pytest

from repro import IntField, OdeObject
from repro.core.objects import OdeMeta, class_registry
from repro.errors import SchemaError

TESTS = pathlib.Path(__file__).resolve().parents[1]


def _base_names(node):
    for base in node.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def ode_class_modules():
    """Class name -> test modules defining an ``OdeObject`` subclass of
    that name (directly, or through another such class)."""
    classes = [(path.relative_to(TESTS).as_posix(), node)
               for path in sorted(TESTS.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    ode = {"OdeObject"}
    grew = True
    while grew:
        before = len(ode)
        ode.update(node.name for _module, node in classes
                   if ode.intersection(_base_names(node)))
        grew = len(ode) > before
    modules = collections.defaultdict(set)
    for module, node in classes:
        if node.name in ode and ode.intersection(_base_names(node)):
            modules[node.name].add(module)
    return modules


def test_the_guard_sees_the_suite():
    modules = ode_class_modules()
    assert modules["ScanItem"] == {"storage/test_scanbatch.py"}
    assert len(modules) > 50


def test_no_two_test_modules_share_an_ode_class_name():
    shared = {name: sorted(found)
              for name, found in ode_class_modules().items()
              if len(found) > 1}
    assert shared == {}


def _define(module, name="ClashWidget", **fields):
    return OdeMeta(name, (OdeObject,), dict(fields, __module__=module))


def test_a_second_module_reusing_a_class_name_raises():
    first = _define("shop.models", qty=IntField(default=0))
    try:
        with pytest.raises(SchemaError) as err:
            _define("warehouse.models", size=IntField(default=0))
        assert "shop.models" in str(err.value)
        assert "warehouse.models" in str(err.value)
        assert class_registry()["ClashWidget"] is first
    finally:
        class_registry().pop("ClashWidget", None)


def test_redefinition_in_the_same_module_takes_the_name():
    _define("shop.models", qty=IntField(default=0))
    try:
        again = _define("shop.models", qty=IntField(default=1))
        assert class_registry()["ClashWidget"] is again
        assert again().qty == 1
    finally:
        class_registry().pop("ClashWidget", None)
