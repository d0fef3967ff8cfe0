"""O++ body compilation: constraints and trigger bodies become Python code.

The interpreter (:mod:`repro.opp.interp`) re-walks the AST of a trigger
condition on every end-of-transaction evaluation and of a trigger action
on every firing — a cascade of N firings pays N full tree walks, each
allocating :class:`~repro.opp.interp.Scope` chains and dispatching
``getattr(self, "_eval_" + type)`` per node.  This module lowers those
bodies *once*, at class-definition time, into synthesized Python source
that is ``compile()``d and registered in :mod:`linecache` under
``<opp-codegen:N>`` filenames (same scheme as the query codegen).

Lowering strategy:

* Parameters and block-local ``VarDecl`` names are resolved at compile
  time to (mangled) Python locals — the one part of O++ name resolution
  that is static.
* Every other name keeps the interpreter's dynamic lookup order
  (enclosing globals chain, then ``this`` members) through the ``_NM`` /
  ``_LK`` runtime helpers, so globals declared *after* the class still
  shadow member fields exactly as ``Scope.lookup`` would.
* Operators lower to small runtime helpers (``_AR``/``_DV``/``_CP``/…)
  that replicate ``_eval_Binary`` exactly: int/int division truncates,
  division by zero and TypeErrors raise the same ``Opp*Error`` with the
  same source line, ``==`` compares persistent objects by oid, ``<<``
  on an :class:`~repro.core.sets.OdeSet` stores oids.
* Member access and calls keep the null-pointer check, the C++-style
  access control check, and the argument-before-callee evaluation order.

Anything outside the supported subset (``return`` in a trigger body,
conditionally-scoped declarations, ``forall`` statements, ``continue``
inside ``do``/``for`` where Python's ``continue`` would skip the
step/condition, …) raises :class:`_Bail` during lowering and the caller
keeps the interpreted closure; the two paths are semantically
identical. Only :class:`_Bail` means "no lowering" — any other
exception while generating is a bug and propagates.

Compilation respects the same switch as the query codegen
(``db.codegen_enabled``); compile time is accounted to
``codegen.compile_ns`` on the database's codegen cache.
"""

from __future__ import annotations

import linecache
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.objects import OdeMeta, OdeObject
from ..core.oid import Oid, Vref
from ..core.sets import OdeSet
from ..errors import OppNameError, OppRuntimeError, OppTypeError
from ..query.codegen import cache_for, enabled_for
from . import ast_nodes as ast

_FN = "__ode_body"

#: module-level counters, read by tests and ``stats()`` callers
stats = {"compiled": 0, "fallbacks": 0}


class _Bail(Exception):
    """Raised during lowering when a construct has no compiled form."""


# ---------------------------------------------------------------------------
# runtime helpers — each replicates one interpreter evaluation rule exactly
# ---------------------------------------------------------------------------

def _LK(interp, this, name, line):
    """``Scope.lookup`` with the static locals already stripped out."""
    scope = interp.globals
    while scope is not None:
        if name in scope.vars:
            return scope.vars[name]
        scope = scope.parent
    if this is not None:
        cls = type(this)
        if (name in cls._ode_fields or name in cls._ode_triggers
                or hasattr(cls, name)):
            return getattr(this, name)
    raise OppNameError("undefined name %r" % name, line=line)


def _NM(interp, this, name, line):
    """``_eval_Name``: scope lookup with the class-registry fallback."""
    cls = interp._maybe_class(name)
    try:
        return _LK(interp, this, name, line)
    except OppNameError:
        if cls is not None:
            return cls
        raise


def _AS(interp, this, name, value):
    """``Scope.assign`` for a name proven at compile time to be a field."""
    scope = interp.globals
    while scope is not None:
        if name in scope.vars:
            scope.vars[name] = value
            return
        scope = scope.parent
    setattr(this, name, value)


def _access(target, field, this, line):
    access = getattr(type(target), "_opp_access", None)
    if access is None:
        return
    mode = access.get(field, "public")
    if mode == "public":
        return
    if this is not None and (isinstance(this, type(target))
                             or isinstance(target, type(this))):
        return
    raise OppRuntimeError(
        "%r is a %s member of %s" % (field, mode, type(target).__name__),
        line=line)


def _M(interp, this, target, field, line):
    target = interp._deref(target, line)
    _access(target, field, this, line)
    try:
        return getattr(target, field)
    except AttributeError:
        raise OppRuntimeError(
            "%s has no member %r" % (type(target).__name__, field),
            line=line)


def _SM(interp, this, target, field, value, line):
    obj = interp._deref(target, line)
    _access(obj, field, this, line)
    setattr(obj, field, value)


def _AR(op, left, right, line):
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        return left % right
    except TypeError as exc:
        raise OppTypeError(str(exc), line=line)


def _DV(left, right, line):
    try:
        if isinstance(left, int) and isinstance(right, int):
            if right == 0:
                raise OppRuntimeError("division by zero", line=line)
            return left // right
        if right == 0:
            raise OppRuntimeError("division by zero", line=line)
        return left / right
    except TypeError as exc:
        raise OppTypeError(str(exc), line=line)


def _CP(op, left, right, line):
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    except TypeError as exc:
        raise OppTypeError(str(exc), line=line)


def _EQ(interp, left, right, line):
    try:
        return interp._equal(left, right)
    except TypeError as exc:
        raise OppTypeError(str(exc), line=line)


def _SH(interp, op, left, right):
    if op == "<<":
        if isinstance(left, OdeSet):
            return left << interp._storable(right)
        return left << right
    if isinstance(left, OdeSet):
        return left >> interp._storable(right)
    return left >> right


def _ctail(func, args, line):
    if isinstance(func, OdeMeta):
        return func(*args)
    if not callable(func):
        raise OppTypeError("%r is not callable" % (func,), line=line)
    return func(*args)


def _CN(interp, this, args, name, line):
    return _ctail(_NM(interp, this, name, line), args, line)


def _CV(args, func, line):
    return _ctail(func, args, line)


def _CM(interp, this, args, target, field, line):
    target = interp._deref(target, line)
    _access(target, field, this, line)
    func = getattr(target, field, None)
    if func is None:
        raise OppRuntimeError(
            "%s has no member function %r" % (type(target).__name__, field),
            line=line)
    return _ctail(func, args, line)


def _IX(target, index, line):
    try:
        return target[index]
    except (TypeError, KeyError, IndexError) as exc:
        raise OppRuntimeError(str(exc), line=line)


def _SI(container, index, value):
    container[index] = value


def _NEW(interp, type_name, args, persistent, line):
    cls = interp._find_class(type_name, line)
    obj = cls(*args)
    if persistent:
        return interp.db.pnew_from(obj)
    return obj


def _IT(interp, value, type_name, persistent, line):
    if isinstance(value, (Oid, Vref)):
        value = interp._deref(value, line)
    cls = interp._find_class(type_name, line)
    if not isinstance(value, cls):
        return False
    if persistent and not (isinstance(value, OdeObject)
                           and value.is_persistent):
        return False
    return True


def _PD(interp, target, line):
    if target is None:
        raise OppRuntimeError("pdelete of null", line=line)
    interp.db.pdelete(target)


def _MAT(interp, item):
    return interp._materialize(item)


def _RTE(message, line):
    raise OppRuntimeError(message, line=line)


#: namespace every generated body executes in
_NS = {
    "_LK": _LK, "_NM": _NM, "_AS": _AS, "_M": _M, "_SM": _SM,
    "_AR": _AR, "_DV": _DV, "_CP": _CP, "_EQ": _EQ, "_SH": _SH,
    "_CN": _CN, "_CV": _CV, "_CM": _CM, "_IX": _IX, "_SI": _SI,
    "_NEW": _NEW, "_IT": _IT, "_PD": _PD, "_MAT": _MAT, "_RTE": _RTE,
    "_OdeSet": OdeSet,
}

_LITERALS = (bool, int, float, str, type(None))


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

class _Lower:
    """One compilation: static scope tracking + source emission."""

    def __init__(self, param_names: Sequence[str],
                 fields: frozenset = frozenset()):
        self.scopes: List[dict] = [{}]
        self.fields = fields
        self.out: List[str] = []
        self.ntmp = 0
        self.nloc = 0
        self.loops: List[dict] = []
        self.params = [self.declare(name) for name in param_names]

    # -- scope / emission plumbing -----------------------------------------

    def declare(self, name: str) -> str:
        self.nloc += 1
        mangled = ("_x%d_%s" % (self.nloc, name) if name.isidentifier()
                   else "_x%d" % self.nloc)
        self.scopes[-1][name] = mangled
        return mangled

    def find(self, name: str) -> Optional[str]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def tmp(self) -> str:
        self.ntmp += 1
        return "_t%d" % self.ntmp

    def w(self, indent: int, text: str) -> None:
        self.out.append("    " * indent + text)

    # -- expressions --------------------------------------------------------

    def expr(self, node: ast.Node) -> str:
        handler = getattr(self, "_e_" + type(node).__name__, None)
        if handler is None:
            raise _Bail(type(node).__name__)
        return handler(node)

    def _e_Literal(self, node: ast.Literal) -> str:
        if type(node.value) in _LITERALS:
            return repr(node.value)
        raise _Bail("literal %r" % (node.value,))

    def _e_Name(self, node: ast.Name) -> str:
        local = self.find(node.ident)
        if local is not None:
            return local
        return "_NM(_interp, this, %r, %d)" % (node.ident, node.line)

    def _e_This(self, node: ast.This) -> str:
        return "this"

    def _binop(self, op: str, left: str, right: str, line: int) -> str:
        if op in ("+", "-", "*", "%"):
            return "_AR(%r, %s, %s, %d)" % (op, left, right, line)
        if op == "/":
            return "_DV(%s, %s, %d)" % (left, right, line)
        if op in ("<", "<=", ">", ">="):
            return "_CP(%r, %s, %s, %d)" % (op, left, right, line)
        if op == "==":
            return "_EQ(_interp, %s, %s, %d)" % (left, right, line)
        if op == "!=":
            return "(not _EQ(_interp, %s, %s, %d))" % (left, right, line)
        if op in ("<<", ">>"):
            return "_SH(_interp, %r, %s, %s)" % (op, left, right)
        raise _Bail("binary %r" % op)

    def _e_Binary(self, node: ast.Binary) -> str:
        if node.op == "&&":
            return "bool((%s) and (%s))" % (self.expr(node.left),
                                            self.expr(node.right))
        if node.op == "||":
            return "bool((%s) or (%s))" % (self.expr(node.left),
                                           self.expr(node.right))
        return self._binop(node.op, self.expr(node.left),
                           self.expr(node.right), node.line)

    def _e_Unary(self, node: ast.Unary) -> str:
        operand = self.expr(node.operand)
        if node.op == "-":
            return "(- (%s))" % operand
        if node.op == "+":
            return "(+ (%s))" % operand
        if node.op == "!":
            return "(not (%s))" % operand
        if node.op == "~":
            return "(~ (%s))" % operand
        raise _Bail("unary %r" % node.op)

    def _e_Conditional(self, node: ast.Conditional) -> str:
        return "((%s) if (%s) else (%s))" % (
            self.expr(node.then), self.expr(node.cond),
            self.expr(node.otherwise))

    def _e_Member(self, node: ast.Member) -> str:
        return "_M(_interp, this, %s, %r, %d)" % (
            self.expr(node.target), node.field, node.line)

    def _e_Index(self, node: ast.Index) -> str:
        return "_IX(%s, %s, %d)" % (self.expr(node.target),
                                    self.expr(node.index), node.line)

    def _args(self, nodes: List[ast.Node]) -> str:
        parts = [self.expr(arg) for arg in nodes]
        if len(parts) == 1:
            return "(%s,)" % parts[0]
        return "(%s)" % ", ".join(parts)

    def _e_Call(self, node: ast.Call) -> str:
        # The interpreter evaluates arguments before resolving the
        # callee; the argument tuple is the first positional below so
        # Python's left-to-right evaluation preserves that order.
        args = self._args(node.args)
        callee = node.callee
        if isinstance(callee, ast.Member):
            return "_CM(_interp, this, %s, %s, %r, %d)" % (
                args, self.expr(callee.target), callee.field, node.line)
        if isinstance(callee, ast.Name):
            local = self.find(callee.ident)
            if local is not None:
                return "_CV(%s, %s, %d)" % (args, local, node.line)
            return "_CN(_interp, this, %s, %r, %d)" % (
                args, callee.ident, node.line)
        return "_CV(%s, %s, %d)" % (args, self.expr(callee), node.line)

    def _e_New(self, node: ast.New) -> str:
        return "_NEW(_interp, %r, %s, %r, %d)" % (
            node.type_name, self._args(node.args), node.persistent,
            node.line)

    def _e_IsType(self, node: ast.IsType) -> str:
        return "_IT(_interp, %s, %r, %r, %d)" % (
            self.expr(node.target), node.type_name, node.persistent,
            node.line)

    # -- statements ----------------------------------------------------------

    def stmt(self, node: ast.Node, indent: int,
             decl_ok: bool = False) -> None:
        name = type(node).__name__
        handler = getattr(self, "_s_" + name, None)
        if handler is None:
            raise _Bail(name)
        if name == "VarDecl" and not decl_ok:
            # `if (c) int x = ...;` declares into the *enclosing* scope
            # only when the branch runs — not expressible statically.
            raise _Bail("conditionally-scoped declaration")
        handler(node, indent)

    def _s_Block(self, node: ast.Block, indent: int) -> None:
        before = len(self.out)
        self.scopes.append({})
        try:
            for child in node.body:
                self.stmt(child, indent, decl_ok=True)
        finally:
            self.scopes.pop()
        if len(self.out) == before:
            self.w(indent, "pass")

    def _s_ExprStmt(self, node: ast.ExprStmt, indent: int) -> None:
        expr = node.expr
        if isinstance(expr, ast.Assign):
            self._assign_stmt(expr, indent)
        elif isinstance(expr, ast.IncDec):
            self._incdec_stmt(expr, indent)
        else:
            self.w(indent, self.expr(expr))

    def _assign_stmt(self, node: ast.Assign, indent: int) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            local = self.find(target.ident)
            if local is None and target.ident not in self.fields:
                # would create a script-style local in a runtime scope
                raise _Bail("assignment to %r" % target.ident)
            if node.op == "=":
                value = self.expr(node.value)
                if local is not None:
                    self.w(indent, "%s = %s" % (local, value))
                else:
                    self.w(indent, "_AS(_interp, this, %r, %s)"
                           % (target.ident, value))
                return
            # augmented: RHS first, then the current value, then assign
            tmp = self.tmp()
            self.w(indent, "%s = %s" % (tmp, self.expr(node.value)))
            current = local if local is not None else (
                "_NM(_interp, this, %r, %d)" % (target.ident, target.line))
            combined = self._binop(node.op[:-1], current, tmp, node.line)
            if local is not None:
                self.w(indent, "%s = %s" % (local, combined))
            else:
                self.w(indent, "_AS(_interp, this, %r, %s)"
                       % (target.ident, combined))
            return
        if isinstance(target, ast.Member):
            tmp = self.tmp()
            self.w(indent, "%s = %s" % (tmp, self.expr(node.value)))
            if node.op != "=":
                cur = self.tmp()
                self.w(indent, "%s = _M(_interp, this, %s, %r, %d)" % (
                    cur, self.expr(target.target), target.field,
                    target.line))
                self.w(indent, "%s = %s" % (
                    tmp, self._binop(node.op[:-1], cur, tmp, node.line)))
            self.w(indent, "_SM(_interp, this, %s, %r, %s, %d)" % (
                self.expr(target.target), target.field, tmp, target.line))
            return
        if isinstance(target, ast.Index):
            if node.op != "=":
                raise _Bail("augmented index assignment")
            tmp = self.tmp()
            self.w(indent, "%s = %s" % (tmp, self.expr(node.value)))
            self.w(indent, "_SI(%s, %s, %s)" % (
                self.expr(target.target), self.expr(target.index), tmp))
            return
        raise _Bail("assignment target")

    def _incdec_stmt(self, node: ast.IncDec, indent: int) -> None:
        # `current + delta` with a raw Python `+`, like _eval_IncDec
        delta = "1" if node.op == "++" else "(-1)"
        target = node.target
        if isinstance(target, ast.Name):
            local = self.find(target.ident)
            if local is not None:
                self.w(indent, "%s = %s + %s" % (local, local, delta))
                return
            if target.ident not in self.fields:
                raise _Bail("incdec of %r" % target.ident)
            tmp = self.tmp()
            self.w(indent, "%s = _NM(_interp, this, %r, %d) + %s" % (
                tmp, target.ident, target.line, delta))
            self.w(indent, "_AS(_interp, this, %r, %s)"
                   % (target.ident, tmp))
            return
        if isinstance(target, ast.Member):
            tmp = self.tmp()
            self.w(indent, "%s = _M(_interp, this, %s, %r, %d) + %s" % (
                tmp, self.expr(target.target), target.field, target.line,
                delta))
            self.w(indent, "_SM(_interp, this, %s, %r, %s, %d)" % (
                self.expr(target.target), target.field, tmp, target.line))
            return
        raise _Bail("incdec target")

    def _s_VarDecl(self, node: ast.VarDecl, indent: int) -> None:
        # evaluate the initializer in the *enclosing* scope, then declare
        if node.init is not None:
            value = self.expr(node.init)
        else:
            value = self._default_code(node.type_name)
        self.w(indent, "%s = %s" % (self.declare(node.name), value))

    @staticmethod
    def _default_code(type_name: ast.TypeName) -> str:
        name = type_name.name
        if name in ("int", "long", "unsigned"):
            return "0"
        if name in ("double", "float"):
            return "0.0"
        if name == "bool":
            return "False"
        if name == "char":
            return "''"
        if name == "set":
            return "_OdeSet()"
        return "None"

    def _s_If(self, node: ast.If, indent: int) -> None:
        self.w(indent, "if %s:" % self.expr(node.cond))
        self.stmt(node.then, indent + 1)
        if node.otherwise is not None:
            self.w(indent, "else:")
            self.stmt(node.otherwise, indent + 1)

    def _s_While(self, node: ast.While, indent: int) -> None:
        self.w(indent, "while %s:" % self.expr(node.cond))
        self.loops.append({"kind": "while", "continue": False})
        try:
            self.stmt(node.body, indent + 1)
        finally:
            self.loops.pop()

    def _s_DoWhile(self, node: ast.DoWhile, indent: int) -> None:
        self.w(indent, "while True:")
        record = {"kind": "do", "continue": False}
        self.loops.append(record)
        try:
            self.stmt(node.body, indent + 1)
        finally:
            self.loops.pop()
        if record["continue"]:
            # Python `continue` would skip the trailing condition check
            raise _Bail("continue in do-while")
        self.w(indent + 1, "if not (%s): break" % self.expr(node.cond))

    def _s_CFor(self, node: ast.CFor, indent: int) -> None:
        self.scopes.append({})
        try:
            if node.init is not None:
                self.stmt(node.init, indent, decl_ok=True)
            self.w(indent, "while True:")
            if node.cond is not None:
                self.w(indent + 1,
                       "if not (%s): break" % self.expr(node.cond))
            record = {"kind": "for", "continue": False}
            self.loops.append(record)
            try:
                self.stmt(node.body, indent + 1)
            finally:
                self.loops.pop()
            if record["continue"]:
                # Python `continue` would skip the step statement
                raise _Bail("continue in C-for")
            if node.step is not None:
                self.stmt(node.step, indent + 1)
            elif node.cond is None:
                self.w(indent + 1, "pass")
        finally:
            self.scopes.pop()

    def _s_ForIn(self, node: ast.ForIn, indent: int) -> None:
        src = self.tmp()
        self.w(indent, "%s = %s" % (src, self.expr(node.source)))
        self.w(indent, "if %s is None: _RTE('for-in over null', %d)"
               % (src, node.line))
        item = self.tmp()
        self.scopes.append({})
        try:
            var = self.declare(node.var)
            self.w(indent, "for %s in %s:" % (item, src))
            self.w(indent + 1, "%s = _MAT(_interp, %s)" % (var, item))
            self.loops.append({"kind": "forin", "continue": False})
            try:
                self.stmt(node.body, indent + 1)
            finally:
                self.loops.pop()
        finally:
            self.scopes.pop()

    def _s_Break(self, node: ast.Break, indent: int) -> None:
        if not self.loops:
            raise _Bail("break outside loop")
        self.w(indent, "break")

    def _s_Continue(self, node: ast.Continue, indent: int) -> None:
        if not self.loops:
            raise _Bail("continue outside loop")
        self.loops[-1]["continue"] = True
        self.w(indent, "continue")

    def _s_PDelete(self, node: ast.PDelete, indent: int) -> None:
        self.w(indent, "_PD(_interp, %s, %d)" % (self.expr(node.target),
                                                 node.line))

    def _s_TransactionBlock(self, node: ast.TransactionBlock,
                            indent: int) -> None:
        self.w(indent, "with _interp.db.transaction():")
        self.stmt(node.body, indent + 1)


# ---------------------------------------------------------------------------
# compilation entry points
# ---------------------------------------------------------------------------

def _assemble(lower: _Lower, tail: List[str]) -> str:
    header = "def %s(this%s):" % (
        _FN, "".join(", %s" % p for p in lower.params))
    lines = [header] + lower.out + ["    " + t for t in tail]
    return "\n".join(lines) + "\n"


def _compile(interp, build: Callable[[], str],
             label: str) -> Optional[Callable]:
    db = getattr(interp, "db", None)
    if not enabled_for(db):
        return None
    started = time.perf_counter_ns()
    try:
        source = build()
    except _Bail:
        stats["fallbacks"] += 1
        return None
    cache = cache_for(db)
    filename = "<opp-codegen:%d>" % cache.next_tag()
    code = compile(source, filename, "exec")
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = dict(_NS)
    namespace["_interp"] = interp
    exec(code, namespace)
    fn = namespace[_FN]
    fn._ode_source = source
    fn._ode_label = label
    cache.compile_ns += time.perf_counter_ns() - started
    stats["compiled"] += 1
    return fn


_WRAPS = {"bool": "return bool(%s)", "float": "return float(%s)",
          "raw": "return %s"}


def compile_expr(interp, node: ast.Node, param_names: Sequence[str] = (),
                 wrap: str = "bool", label: str = "o++ expr",
                 fields: frozenset = frozenset()) -> Optional[Callable]:
    """Compile a single O++ expression to ``fn(this, *params)``."""
    def build():
        lower = _Lower(param_names, fields)
        code = lower.expr(node)
        if lower.out:
            raise _Bail("expression emitted statements")
        return _assemble(lower, [_WRAPS[wrap] % code])
    return _compile(interp, build, label)


def compile_body(interp, node: ast.Node, param_names: Sequence[str] = (),
                 label: str = "o++ body",
                 fields: frozenset = frozenset()) -> Optional[Callable]:
    """Compile an O++ statement (a trigger action) to ``fn(this, *params)``."""
    def build():
        lower = _Lower(param_names, fields)
        lower.stmt(node, 1, decl_ok=True)
        if not lower.out:
            lower.w(1, "pass")
        return _assemble(lower, [])
    return _compile(interp, build, label)


def with_fallback(fast: Optional[Callable], nparams: int,
                  slow: Callable) -> Callable:
    """Route through *fast* when the call-shape matches, else *slow*.

    The interpreter tolerates activation-argument count mismatches
    (``zip`` truncation); the compiled function has a fixed signature,
    so mismatched calls keep the interpreted behavior.
    """
    if fast is None:
        return slow

    def run(this, *args):
        if len(args) != nparams:
            return slow(this, *args)
        return fast(this, *args)

    run._ode_compiled = fast
    run.__name__ = getattr(slow, "__name__", "run")
    return run
