"""Ode classes — the object definition facility (paper sections 2, 5).

O++ borrows the C++ *class*: data encapsulation, member functions, and
multiple inheritance. Here a metaclass plays the compiler's role::

    class Person(OdeObject):
        name = StringField()
        age = IntField(default=0)

        def income(self):
            return 0.0

    class Employee(Person):
        salary = FloatField(default=0.0)

        def income(self):
            return self.salary

        @constraint
        def salary_nonneg(self):
            return self.salary >= 0.0

:class:`OdeMeta` gathers field descriptors, constraints and trigger
declarations across the full MRO (multiple inheritance included; derived
classes inherit base constraints per section 5), wraps public member
functions so constraints are checked when they return (the paper checks
"at the end of each public member function and at transaction commit"),
and records the class in a global registry keyed by class name — the name
doubles as the cluster name, because clusters are type extents (2.5).

Instances start life *volatile* — ordinary Python objects. They become
persistent via ``db.pnew(Person, ...)`` or ``obj.persist(db)``; both bind
the instance to a database and allocate its object id. Volatile and
persistent objects are manipulated by exactly the same code (section 2.2's
central promise).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..errors import ConstraintViolation, NotPersistentError, SchemaError
from .fields import Field
from .oid import Oid, Vref

_CLASS_REGISTRY: Dict[str, type] = {}
#: Classes OdeMeta has registered — the registry's one writer.
_REGISTRATIONS = [0]


def class_registry() -> Dict[str, type]:
    """Global name -> Ode class map (cluster names are class names)."""
    return _CLASS_REGISTRY


def registry_generation() -> Tuple[int, int]:
    """A value that changes whenever the set of registered class names
    may have: on every registration, and on a delete made from outside
    (the size). The registry stays a plain dict, so lookups keep the
    interpreter's exact-dict fast paths."""
    return _REGISTRATIONS[0], len(_CLASS_REGISTRY)


def constraint(func: Callable) -> Callable:
    """Mark a zero-argument method as a class constraint (section 5).

    The method must return a truthy value for a consistent object. All
    constraints of a class and its bases are checked together; a falsy
    result raises :class:`ConstraintViolation`, which aborts the enclosing
    transaction.
    """
    func._is_ode_constraint = True
    return func


def _wrap_public_method(func: Callable) -> Callable:
    """Run constraint checks when a public member function returns.

    This emulates the paper's rule that constraints are verified at the
    end of each (public) member function. Internal helpers (underscore
    names) and reads are unaffected — only methods defined by the user's
    class body are wrapped.
    """
    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        result = func(self, *args, **kwargs)
        self._check_constraints_after_method()
        return result
    wrapper._ode_constraint_wrapped = True
    return wrapper


class OdeMeta(type):
    """Metaclass assembling the schema of an Ode class."""

    def __new__(mcs, name, bases, namespace, **kwargs):
        # Wrap public member functions for constraint checking, before the
        # class object is created so super() calls inside them still work.
        # OdeObject's own infrastructure methods (check_constraints, follow,
        # as_dict, ...) are exempt — only user class bodies are wrapped.
        if name != "OdeObject":
            reserved = {"check_constraints", "persist", "follow", "as_dict"}
            for attr, value in list(namespace.items()):
                if (callable(value) and not attr.startswith("_")
                        and attr not in reserved
                        and not isinstance(value, (staticmethod, classmethod,
                                                   property))
                        and not getattr(value, "_is_ode_constraint", False)
                        and not getattr(value, "_ode_constraint_wrapped", False)
                        and not isinstance(value, Field)):
                    from .triggers import Trigger
                    if not isinstance(value, Trigger):
                        namespace[attr] = _wrap_public_method(value)
        cls = super().__new__(mcs, name, bases, namespace, **kwargs)

        # Collect fields across the MRO (earlier classes win, as Python's
        # attribute lookup would).
        fields: Dict[str, Field] = {}
        for klass in reversed(cls.__mro__):
            for attr, value in vars(klass).items():
                if isinstance(value, Field):
                    fields[attr] = value
        cls._ode_fields = fields

        # Collect constraints: conjunction over the MRO (section 5 —
        # derived classes must satisfy base constraints too).
        constraints: List[Tuple[str, Callable]] = []
        seen = set()
        for klass in cls.__mro__:
            for attr, value in vars(klass).items():
                if getattr(value, "_is_ode_constraint", False) and attr not in seen:
                    seen.add(attr)
                    constraints.append((attr, value))
        cls._ode_constraints = constraints

        # Collect trigger declarations.
        from .triggers import Trigger
        triggers: Dict[str, Trigger] = {}
        for klass in reversed(cls.__mro__):
            for attr, value in vars(klass).items():
                if isinstance(value, Trigger):
                    triggers[attr] = value
        cls._ode_triggers = triggers

        if name != "OdeObject":
            earlier = _CLASS_REGISTRY.get(name)
            if earlier is not None and earlier.__module__ != cls.__module__:
                # The cluster is named after the class: two modules'
                # classes of one name would share (and misread) it.
                raise SchemaError(
                    "persistent class %r is defined in module %s and "
                    "again in module %s; cluster names are class names, "
                    "so persistent classes need distinct names"
                    % (name, earlier.__module__, cls.__module__))
            # Redefinition in the same module (notebooks, classes defined
            # inside tests): latest wins.
            _CLASS_REGISTRY[name] = cls
            _REGISTRATIONS[0] += 1
        return cls

    @property
    def parents(cls) -> List[type]:
        """Direct Ode base classes (for the cluster hierarchy)."""
        return [b for b in cls.__bases__
                if isinstance(b, OdeMeta) and b.__name__ != "OdeObject"]


class OdeObject(metaclass=OdeMeta):
    """Base class for all Ode objects (the paper's class instances)."""

    _ode_fields: Dict[str, Field] = {}
    _ode_constraints: List[Tuple[str, Callable]] = []
    _ode_triggers: Dict[str, Any] = {}

    def __init__(self, **kwargs):
        # Persistence bookkeeping. Underscore-p names are reserved.
        self.__dict__["_p_db"] = None
        self.__dict__["_p_oid"] = None
        self.__dict__["_p_version"] = 0
        self.__dict__["_p_dirty"] = False
        self.__dict__["_p_readonly"] = False
        self.__dict__["_p_loading"] = False
        for name, value in kwargs.items():
            if name not in self._ode_fields:
                raise SchemaError("%s has no field %r"
                                  % (type(self).__name__, name))
            setattr(self, name, value)
        # Materialise defaults so constraints can see them immediately.
        for name in self._ode_fields:
            getattr(self, name)
        self.__dict__["_p_dirty"] = False

    # -- persistence status -------------------------------------------------

    @property
    def is_persistent(self) -> bool:
        """Whether this instance is bound to a database object."""
        return self.__dict__.get("_p_oid") is not None

    @property
    def oid(self) -> Oid:
        """This object's id (its identity). Raises if volatile."""
        oid = self.__dict__.get("_p_oid")
        if oid is None:
            raise NotPersistentError(
                "%s instance is volatile; it has no object id"
                % type(self).__name__)
        return oid

    @property
    def vref(self) -> Vref:
        """Specific reference to the version this instance represents."""
        oid = self.oid
        return Vref(oid.cluster, oid.serial, self.__dict__["_p_version"])

    @property
    def database(self):
        return self.__dict__.get("_p_db")

    @property
    def version(self) -> int:
        """Version number of this instance's state (0 while volatile)."""
        return self.__dict__.get("_p_version", 0)

    def persist(self, db) -> "OdeObject":
        """Move this volatile object into *db* (equivalent to pnew)."""
        return db.pnew_from(self)

    # -- dirty tracking / write-back -----------------------------------------

    def _p_mark_dirty(self) -> None:
        if self.__dict__.get("_p_loading"):
            return
        if self.__dict__.get("_p_snapshot_stale"):
            # A private snapshot materialization: this reader saw the
            # committed image as of its snapshot, and a concurrent
            # transaction has since written (or is writing) the object.
            # Writing through this copy would base the update on stale
            # data — surface the conflict so run_transaction retries the
            # whole read-modify-write on a fresh snapshot.
            from ..errors import SnapshotConflictError
            raise SnapshotConflictError(
                "%r was read from a snapshot that a concurrent "
                "transaction has since overwritten; retry the "
                "transaction" % (self.__dict__.get("_p_oid"),))
        if self.__dict__.get("_p_readonly"):
            raise NotPersistentError(
                "version %d of %r is not the current version; old versions "
                "are read-only" % (self.version, self.__dict__.get("_p_oid")))
        self.__dict__["_p_dirty"] = True
        db = self.__dict__.get("_p_db")
        if db is not None and self.is_persistent:
            db._note_dirty(self)

    # -- state conversion -----------------------------------------------------

    def _p_state_dict(self) -> Dict[str, Any]:
        """The storage form of this object's fields."""
        state = {}
        for name, field in self._ode_fields.items():
            state[name] = field.to_stored(self, getattr(self, name))
        return state

    def _p_load_state(self, state: Dict[str, Any]) -> None:
        """Overwrite fields from a storage dict (no dirty marking)."""
        self.__dict__["_p_loading"] = True
        try:
            for name, field in self._ode_fields.items():
                if name in state:
                    value = field.from_stored(self, state[name])
                    self.__dict__["_f_" + name] = field.validate(value)
                else:
                    self.__dict__["_f_" + name] = field.default_value()
        finally:
            self.__dict__["_p_loading"] = False
        self.__dict__["_p_dirty"] = False

    # -- constraints ------------------------------------------------------------

    def check_constraints(self) -> None:
        """Evaluate every class constraint; raise on the first violation."""
        for name, check in self._ode_constraints:
            ok = check(self)
            if not ok:
                raise ConstraintViolation(
                    "constraint %r violated on %s" % (name, self._describe()),
                    obj=self, constraint_name=name)

    def _check_constraints_after_method(self) -> None:
        """Constraint hook run by wrapped public member functions."""
        try:
            self.check_constraints()
        except ConstraintViolation:
            db = self.__dict__.get("_p_db")
            if db is not None:
                db._constraint_violated()
            raise

    # -- navigation -------------------------------------------------------------

    def follow(self, field_name: str):
        """Dereference a Ref/Any field: ids become live objects.

        Volatile targets are returned as-is. Persistent ids need the
        object to be bound to a database.
        """
        value = getattr(self, field_name)
        if isinstance(value, (Oid, Vref)):
            db = self.__dict__.get("_p_db")
            if db is None:
                raise NotPersistentError(
                    "cannot dereference %s.%s: object is not bound to a "
                    "database" % (type(self).__name__, field_name))
            return db.deref(value)
        return value

    # -- misc ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Plain-Python snapshot of the field values (live forms)."""
        return {name: getattr(self, name) for name in self._ode_fields}

    def _describe(self) -> str:
        if self.is_persistent:
            return "%s%r" % (type(self).__name__, self.__dict__["_p_oid"])
        return "volatile %s at 0x%x" % (type(self).__name__, id(self))

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (n, getattr(self, n))
                           for n in list(self._ode_fields)[:4])
        return "<%s %s>" % (self._describe(), fields)
