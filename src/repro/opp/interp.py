"""Interpreter for the O++ subset.

Executes a parsed :class:`~repro.opp.ast_nodes.Program` against a live
:class:`~repro.core.database.Database`. O++ class declarations become real
Ode classes (built with :class:`~repro.core.objects.OdeMeta`), so objects
created from O++ live in the same clusters, obey the same constraints and
fire the same triggers as objects created from Python — the two front ends
are interchangeable views of one database.

The paper's programs run nearly verbatim::

    class stockitem {
        public:
            char* name;
            double price;
            int qty;
            stockitem(char* n, double p, int q) { name = n; price = p; qty = q; }
        constraint:
            qty >= 0;
        trigger:
            reorder(int n) : qty <= 100 ==> order(this, n);
    };

    create stockitem;
    persistent stockitem *sip;
    sip = pnew stockitem("512 dram", 5.00, 7500);
    forall t in stockitem suchthat (t->price < 10.0) by (t->name)
        printf("%s %d\\n", t->name, t->qty);

Output from ``printf`` is captured on :attr:`Interpreter.output` (and
optionally echoed to a stream).
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.database import Database
from ..core.fields import (BoolField, CharField, Field, FloatField, IntField,
                           RefField, SetField, StringField)
from ..core.objects import (OdeMeta, OdeObject, class_registry,
                             registry_generation)
from ..core.oid import Oid, Vref
from ..core.sets import OdeSet
from ..core.triggers import Trigger, TriggerId
from ..errors import (OdeError, OppNameError, OppRuntimeError, OppTypeError,
                      QueryError)
from ..query.iterate import Forall as QueryForall
from ..query.predicates import _FLIP, And, AttrExpr, Callable_, VarAttrExpr
from . import ast_nodes as ast
from .lexer import SHAPE, literal
from .parser import LITERAL_VALUE, Parser

#: Statement shapes one interpreter keeps parsed (least recently used
#: goes first). A server session sends a handful of shapes; the bound
#: only keeps a client that sends every statement differently from
#: growing it without limit.
STMT_CACHE_SIZE = 256


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class Scope:
    """A lexical scope: locals chained to a parent, optionally an object.

    Name lookup order inside a member function (per C++): locals, then
    the object's members, then enclosing/global scope.
    """

    __slots__ = ("vars", "parent", "this")

    def __init__(self, parent: Optional["Scope"] = None,
                 this: Optional[OdeObject] = None):
        self.vars: Dict[str, Any] = {}
        self.parent = parent
        self.this = this if this is not None else (
            parent.this if parent is not None else None)

    def lookup(self, name: str, line: int = 0) -> Any:
        scope = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        if self.this is not None and self._this_has(name):
            return getattr(self.this, name)
        raise OppNameError("undefined name %r" % name, line=line)

    def _this_has(self, name: str) -> bool:
        cls = type(self.this)
        return (name in cls._ode_fields or name in cls._ode_triggers
                or hasattr(cls, name))

    def assign(self, name: str, value: Any) -> None:
        scope = self
        while scope is not None:
            if name in scope.vars:
                scope.vars[name] = value
                return
            scope = scope.parent
        if (self.this is not None
                and name in type(self.this)._ode_fields):
            setattr(self.this, name, value)
            return
        # New name: created in the current scope (script-style).
        self.vars[name] = value

    def declare(self, name: str, value: Any) -> None:
        self.vars[name] = value


class _Statement:
    """A cached parse: the program and the Literal nodes its literal
    texts bind to, in source order. ``running`` while an execution of
    it is on the stack — a re-entrant run of the same shape then parses
    its own copy instead of rebinding literals under it."""

    __slots__ = ("program", "literals", "running")

    def __init__(self, program: ast.Program, literals: List[ast.Literal]):
        self.program = program
        self.literals = literals
        self.running = False


class Interpreter:
    """Evaluates O++ programs against a Database."""

    def __init__(self, db: Database, echo: bool = False,
                 dump_code: bool = False):
        self.db = db
        self.echo = echo
        #: when set, ``explain`` statements also print generated code
        self.dump_code = dump_code
        self.globals = Scope()
        #: lines printed by printf/puts, for tests and callers
        self.output: List[str] = []
        self._step_hook = None
        self._ticks = 0
        #: statement shape + known-types generation -> _Statement
        self._statements: "OrderedDict[tuple, _Statement]" = OrderedDict()
        self._known: Tuple[tuple, set] = ((), set())
        #: O++ bindings of global names to or from classes (see
        #: :meth:`_bound`)
        self._class_bindings = 0
        self._hits = db.metrics.counter("opp.stmt_cache.hits")
        self._misses = db.metrics.counter("opp.stmt_cache.misses")
        self._install_builtins()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, source: str, step_hook=None) -> List[str]:
        """Parse and execute *source*; returns the captured output lines.

        *step_hook*, when given, is called (with no arguments) before
        each top-level declaration/statement executes — the network
        session uses it to enforce request deadlines and stream output
        between statements. An exception it raises aborts execution at
        a statement boundary.

        A statement shape this interpreter has run before is not lexed
        or parsed again: see :meth:`_parse`.
        """
        statement = self._parse(source)
        statement.running = True
        try:
            self.execute(statement.program, step_hook=step_hook)
        finally:
            statement.running = False
        return self.output

    def _parse(self, source: str) -> "_Statement":
        """*source* parsed: from the statement cache, or parsed now.

        The cache key is the source with its int, float, string and char
        literals cut out (whitespace and comments kept, so line numbers
        hold) plus the known-types generation. A hit binds the literal
        texts to the cached program's Literal nodes. A miss parses and
        caches the program if it declares no class or function (their
        bodies outlive the request) and the cut-out spans are exactly the
        parser's literal tokens. A source with a newline inside a literal
        is never cached.
        """
        pieces = SHAPE.split(source)
        texts = pieces[1::2]
        generation, known = self._known_types()
        key = None
        if "\n" not in source or not any("\n" in text for text in texts):
            key = (generation, tuple(pieces[::2]))
        statement = self._statements.get(key)
        if statement is not None and not statement.running:
            self._statements.move_to_end(key)
            for node, text in zip(statement.literals, texts):
                kind, value = literal(text)
                node.value = LITERAL_VALUE[kind](value)
            self._hits.inc()
            return statement
        self._misses.inc()
        parser = Parser(source, known_types=known)
        fresh = _Statement(parser.parse(), parser.literals)
        if (key is not None and statement is None
                and _cacheable(parser, fresh.program, source, pieces)):
            self._statements[key] = fresh
            if len(self._statements) > STMT_CACHE_SIZE:
                self._statements.popitem(last=False)
        return fresh

    def _known_types(self) -> Tuple[tuple, set]:
        """``(generation, names)``: the class names the parser reads as
        types — the registry's and the classes bound in globals —
        recomputed only when either has changed. (A class bound into
        :attr:`globals` from Python is seen once the registry or an O++
        binding moves the generation.)"""
        generation = (registry_generation(), self._class_bindings)
        if generation != self._known[0]:
            names = set(class_registry())
            names.update(name for name, v in self.globals.vars.items()
                         if isinstance(v, OdeMeta))
            self._known = (generation, names)
        return self._known

    def run_file(self, path: str) -> List[str]:
        with open(path) as handle:
            return self.run(handle.read())

    def execute(self, program: ast.Program, step_hook=None) -> None:
        prev = self._step_hook
        self._step_hook = step_hook
        try:
            for decl in program.decls:
                if step_hook is not None:
                    step_hook()
                if isinstance(decl, ast.ClassDecl):
                    self._define_class(decl)
                elif isinstance(decl, ast.FuncDecl):
                    self._define_function(decl)
                else:
                    self.exec_stmt(decl, self.globals)
        finally:
            self._step_hook = prev

    def _loop_tick(self) -> None:
        """Periodic hook call inside loop bodies (guarded at call
        sites on ``self._step_hook``), so a single long while/for/forall
        statement cannot outrun a deadline — the hook otherwise only
        runs at top-level statement boundaries."""
        self._ticks += 1
        if not self._ticks & 1023:
            self._step_hook()

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------

    def _bound(self, name: str, value: Any) -> None:
        """*name* was just bound to *value* by O++ code: count it if the
        name may now be, or may have been, a class (an over-count only
        costs a statement-cache miss)."""
        if isinstance(value, OdeMeta) or name in self._known[1]:
            self._class_bindings += 1

    def _define_class(self, decl: ast.ClassDecl) -> type:
        bases: List[type] = []
        for base_name in decl.bases:
            base = self._find_class(base_name, decl.line)
            bases.append(base)
        if not bases:
            bases = [OdeObject]
        namespace: Dict[str, Any] = {"__doc__": "O++ class %s" % decl.name}

        # Access control map for the interpreter (C++-style encapsulation:
        # private/protected members are invisible outside member functions).
        access: Dict[str, str] = {}
        for base in bases:
            access.update(getattr(base, "_opp_access", {}))
        for field in decl.fields:
            access[field.name] = field.access
        for method in decl.methods:
            if not method.is_constructor:
                access[method.name] = method.access
        namespace["_opp_access"] = access

        for field in decl.fields:
            namespace[field.name] = self._make_field(field.type_name)

        # Positional order for the default constructor: inherited fields
        # first (base declaration order), then this class's own fields —
        # so `pnew student("name", year)` works across the hierarchy.
        field_order: List[str] = []
        for base in bases:
            for fname in getattr(base, "_ode_fields", {}):
                if fname not in field_order:
                    field_order.append(fname)
        for field in decl.fields:
            if field.name not in field_order:
                field_order.append(field.name)
        ctor = next((m for m in decl.methods if m.is_constructor), None)
        namespace["__init__"] = self._make_init(decl.name, field_order, ctor)

        for method in decl.methods:
            if method.is_constructor:
                continue
            namespace[method.name] = self._make_method(method)

        for i, cons in enumerate(decl.constraints):
            namespace["constraint_%d" % i] = self._make_constraint(cons)

        for trig in decl.triggers:
            namespace[trig.name] = self._make_trigger(trig)

        cls = OdeMeta(decl.name, tuple(bases), namespace)
        # No _bound: registering the class moved the generation already.
        self.globals.declare(decl.name, cls)
        return cls

    def _make_field(self, type_name: ast.TypeName) -> Field:
        name = type_name.name
        if name == "int" or name == "long" or name == "unsigned":
            return IntField(default=0)
        if name in ("double", "float"):
            return FloatField(default=0.0)
        if name == "bool":
            return BoolField(default=False)
        if name == "char":
            if type_name.pointer:
                return StringField(default="")
            return CharField(default="")
        if name == "set":
            target = type_name.element.name if type_name.element else None
            return SetField(target=target)
        # class-typed member: a reference either way (embedded objects are
        # modelled as references — Python has no value semantics for them).
        return RefField(target=name)

    def _default_for(self, type_name: ast.TypeName) -> Any:
        name = type_name.name
        if name in ("int", "long", "unsigned"):
            return 0
        if name in ("double", "float"):
            return 0.0
        if name == "bool":
            return False
        if name == "char":
            return ""
        if name == "set":
            return OdeSet()
        return None

    def _make_init(self, class_name: str, field_order: List[str],
                   ctor: Optional[ast.MethodDecl]) -> Callable:
        interp = self

        if ctor is None:
            def __init__(self, *args, **kwargs):
                OdeObject.__init__(self, **kwargs)
                own_fields = field_order
                if len(args) > len(own_fields):
                    raise OppTypeError(
                        "%s() takes at most %d positional arguments"
                        % (class_name, len(own_fields)))
                for fname, value in zip(own_fields, args):
                    setattr(self, fname, value)
            return __init__

        def __init__(self, *args, **kwargs):
            OdeObject.__init__(self, **kwargs)
            interp._call(class_name, ctor.params, ctor.body, self, args)
        return __init__

    def _call(self, name: str, params, body: ast.Node, this, args,
              run=None) -> Any:
        """Bind *args* to *params* and run *body* — the one way into a
        constructor, member function, free function or trigger/constraint
        body (*this* None: a free function). *run* is ``self.eval`` for
        an expression body; a statement body's value is its ``return``.
        """
        if len(args) != len(params):
            raise OppTypeError("%s() takes %d arguments, got %d"
                               % (name, len(params), len(args)))
        scope = Scope(self.globals, this=this)
        for param, value in zip(params, args):
            scope.declare(param.name, value)
        try:
            return (run or self.exec_stmt)(body, scope)
        except _Return as ret:
            return ret.value

    def _make_method(self, decl: ast.MethodDecl) -> Callable:
        interp = self

        def method(self, *args):
            return interp._call(decl.name, decl.params, decl.body, self, args)
        method.__name__ = decl.name
        return method

    def _make_constraint(self, decl: ast.ConstraintDecl) -> Callable:
        interp = self

        def check(self):
            return bool(interp._call(decl.name, (), decl.expr, self, (),
                                     interp.eval))
        check.__name__ = decl.name
        check._is_ode_constraint = True
        return check

    def _make_trigger(self, decl: ast.TriggerDecl) -> Trigger:
        def body(node: Optional[ast.Node], run=None) -> Optional[Callable]:
            if node is None:
                return None
            return lambda this, *args: self._call(decl.name, decl.params,
                                                  node, this, args, run)

        return Trigger(condition=body(decl.condition, self.eval),
                       action=body(decl.action),
                       perpetual=decl.perpetual,
                       within=body(decl.within, self.eval),
                       timeout_action=body(decl.timeout_action))

    def _define_function(self, decl: ast.FuncDecl) -> None:
        def function(*args):
            return self._call(decl.name, decl.params, decl.body, None, args)
        function.__name__ = decl.name
        self.globals.declare(decl.name, function)
        self._bound(decl.name, function)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def exec_stmt(self, node: ast.Node, scope: Scope) -> None:
        method = getattr(self, "_stmt_" + type(node).__name__, None)
        if method is None:
            raise OppRuntimeError("cannot execute %s node"
                                  % type(node).__name__, line=node.line)
        method(node, scope)

    def _stmt_Block(self, node: ast.Block, scope: Scope) -> None:
        inner = Scope(scope)
        for stmt in node.body:
            self.exec_stmt(stmt, inner)

    def _stmt_ExprStmt(self, node: ast.ExprStmt, scope: Scope) -> None:
        self.eval(node.expr, scope)

    def _stmt_VarDecl(self, node: ast.VarDecl, scope: Scope) -> None:
        if node.init is not None:
            value = self.eval(node.init, scope)
        else:
            value = self._default_for(node.type_name)
        scope.declare(node.name, value)
        self._bound(node.name, value)

    def _stmt_If(self, node: ast.If, scope: Scope) -> None:
        if self.eval(node.cond, scope):
            self.exec_stmt(node.then, scope)
        elif node.otherwise is not None:
            self.exec_stmt(node.otherwise, scope)

    def _stmt_While(self, node: ast.While, scope: Scope) -> None:
        while self.eval(node.cond, scope):
            if self._step_hook is not None:
                self._loop_tick()
            try:
                self.exec_stmt(node.body, scope)
            except _Break:
                break
            except _Continue:
                continue

    def _stmt_DoWhile(self, node: ast.DoWhile, scope: Scope) -> None:
        while True:
            if self._step_hook is not None:
                self._loop_tick()
            try:
                self.exec_stmt(node.body, scope)
            except _Break:
                break
            except _Continue:
                pass
            if not self.eval(node.cond, scope):
                break

    def _stmt_CFor(self, node: ast.CFor, scope: Scope) -> None:
        inner = Scope(scope)
        if node.init is not None:
            self.exec_stmt(node.init, inner)
        while node.cond is None or self.eval(node.cond, inner):
            if self._step_hook is not None:
                self._loop_tick()
            try:
                self.exec_stmt(node.body, inner)
            except _Break:
                break
            except _Continue:
                pass
            if node.step is not None:
                self.exec_stmt(node.step, inner)

    def _stmt_ForIn(self, node: ast.ForIn, scope: Scope) -> None:
        source = self.eval(node.source, scope)
        if source is None:
            raise OppRuntimeError("for-in over null", line=node.line)
        inner = Scope(scope)
        inner.declare(node.var, None)
        for item in source:
            if self._step_hook is not None:
                self._loop_tick()
            inner.vars[node.var] = self._materialize(item)
            try:
                self.exec_stmt(node.body, inner)
            except _Break:
                break
            except _Continue:
                continue

    def _stmt_Forall(self, node: ast.Forall, scope: Scope) -> None:
        started = time.perf_counter_ns()
        rows_seen = 0
        try:
            rows_seen = self._run_forall(node, scope)
        finally:
            record = getattr(self.db, "_record_query", None)
            if record is not None:
                record("opp.forall", "forall at line %d" % node.line,
                       time.perf_counter_ns() - started, rows_seen)

    def _run_forall(self, node: ast.Forall, scope: Scope) -> int:
        names = [var for var, _, _ in node.sources]
        inner = Scope(scope)
        seen = 0
        for row in self._lower_forall(node, scope):
            if self._step_hook is not None:
                self._loop_tick()
            seen += 1
            if len(names) == 1:
                inner.vars[names[0]] = row
            else:
                inner.vars.update(zip(names, row))
            try:
                self.exec_stmt(node.body, inner)
            except _Break:
                break
            except _Continue:
                continue
        return seen

    def _stmt_Explain(self, node: ast.Explain, scope: Scope) -> None:
        """``explain [analyze] forall ...`` — print plan (and trace)."""
        query = self._lower_forall(node.query, scope)
        text = query.explain(analyze=node.analyze, code=self.dump_code)
        self.output.append(text + "\n")

    def _lower_forall(self, node: ast.Forall, scope: Scope) -> QueryForall:
        """Lower a forall header to the :class:`repro.query.Forall` that
        runs it — what ``explain`` prints is what the statement executes.

        The ``suchthat`` clause is split at its top-level ``&&``: the
        conjuncts the optimizer can read (:meth:`_lower_conjunct`) become
        predicates, so it may pick an index, push a restriction below a
        join or hash-join on an equality; the rest stay one interpreted
        callable over the loop variables, checked on the rows that are
        left. ``by`` is an interpreted sort key.
        """
        names = [var for var, _, _ in node.sources]
        sources = [self._forall_source(src, deep, scope, node.line)
                   for _, src, deep in node.sources]

        def over_row(expr: ast.Node) -> Callable:
            def interpreted(*row):
                inner = Scope(scope)
                inner.vars.update(zip(names, row))
                return self.eval(expr, inner)
            return interpreted

        query = QueryForall(*sources)
        if node.as_of is not None:
            self._as_of(query, node.as_of, scope, node.line)
        if node.suchthat is not None:
            classes = [_source_class(source) for source in sources]
            lowered, rest = [], []
            for conj in _conjuncts(node.suchthat):
                pred = self._lower_conjunct(conj, names, classes, scope)
                if pred is None:
                    rest.append(conj)
                else:
                    lowered.append(pred)
            pred = None
            if rest:
                residual = rest[0]
                for conj in rest[1:]:
                    residual = ast.Binary("&&", residual, conj,
                                          line=conj.line)
                pred = over_row(residual)
                if lowered:
                    lowered.append(Callable_(pred))
            if lowered:
                pred = lowered[0] if len(lowered) == 1 else And(*lowered)
            query.suchthat(pred)
        if node.by is not None:
            query.by(over_row(node.by), desc=node.by_desc)
        return query

    def _lower_conjunct(self, expr: ast.Node, names: List[str], classes,
                        scope: Scope):
        """*expr* as a predicate the optimizer can read, or None.

        ``var->field <op> constant`` (either way round; the constant side
        names no loop variable and is evaluated here, once) and
        ``var->field == var->field``. A constant that fails to evaluate
        leaves the conjunct to the interpreter, which raises with its
        line on the first row.
        """
        if not (isinstance(expr, ast.Binary) and expr.op in _FLIP):
            return None
        op = expr.op
        left = self._loop_field(expr.left, names, classes, scope)
        right = self._loop_field(expr.right, names, classes, scope)
        if left is not None and right is not None:
            return left._compare(op, right) if op == "==" else None
        if left is not None:
            attr, other = left, expr.right
        elif right is not None:
            attr, other, op = right, expr.left, _FLIP[op]
        else:
            return None
        if _mentions(other, names):
            return None
        try:
            return attr._compare(op, self.eval(other, scope))
        except OdeError:
            return None

    def _loop_field(self, node: ast.Node, names: List[str], classes,
                    scope: Scope):
        """``var->field`` on a loop variable whose source has a known
        class with that member -> ``A.field`` / ``V[i].field``, else
        None. The member's access section is checked here, against the
        source's class, once — not per row."""
        if not (isinstance(node, ast.Member)
                and isinstance(node.target, ast.Name)
                and node.target.ident in names):
            return None
        var = names.index(node.target.ident)
        cls = classes[var]
        if cls is None or not hasattr(cls, node.field):
            return None
        self._check_access(cls, node.field, scope, node.line)
        return (AttrExpr(node.field) if len(names) == 1
                else VarAttrExpr(var, node.field))

    def _forall_source(self, src: ast.Node, deep: bool, scope: Scope,
                       line: int):
        if isinstance(src, ast.Name):
            cls = self._maybe_class(src.ident)
            if cls is not None:
                handle = self.db.cluster(cls)
                return handle.deep() if deep else handle
            value = scope.lookup(src.ident, line)
        else:
            value = self.eval(src, scope)
        if isinstance(value, OdeMeta):
            handle = self.db.cluster(value)
            return handle.deep() if deep else handle
        if value is None:
            raise OppRuntimeError("forall over null", line=line)
        return _Elements(value, self._materialize)

    def _as_of(self, query: QueryForall, expr: ast.Node, scope: Scope,
               line: int) -> None:
        """Time travel: *query*'s cluster sources as of the token *expr*."""
        token = self.eval(expr, scope)
        if not isinstance(token, int) or isinstance(token, bool):
            raise OppRuntimeError(
                "as of expects a snapshot token (from snapshot_token()), "
                "got %r" % (token,), line=line)
        try:
            query.as_of(token)
        except QueryError:
            raise OppRuntimeError(
                "as of applies to cluster sources only", line=line)

    def _stmt_Return(self, node: ast.Return, scope: Scope) -> None:
        value = None if node.value is None else self.eval(node.value, scope)
        raise _Return(value)

    def _stmt_Break(self, node: ast.Break, scope: Scope) -> None:
        raise _Break()

    def _stmt_Continue(self, node: ast.Continue, scope: Scope) -> None:
        raise _Continue()

    def _stmt_PDelete(self, node: ast.PDelete, scope: Scope) -> None:
        target = self.eval(node.target, scope)
        if target is None:
            raise OppRuntimeError("pdelete of null", line=node.line)
        self.db.pdelete(target)

    def _stmt_Create(self, node: ast.Create, scope: Scope) -> None:
        cls = self._find_class(node.type_name, node.line)
        self.db.create(cls, exist_ok=True)

    def _stmt_TransactionBlock(self, node: ast.TransactionBlock,
                               scope: Scope) -> None:
        with self.db.transaction():
            self.exec_stmt(node.body, scope)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def eval(self, node: ast.Node, scope: Scope) -> Any:
        method = getattr(self, "_eval_" + type(node).__name__, None)
        if method is None:
            raise OppRuntimeError("cannot evaluate %s node"
                                  % type(node).__name__, line=node.line)
        return method(node, scope)

    def _eval_Literal(self, node: ast.Literal, scope: Scope) -> Any:
        return node.value

    def _eval_Name(self, node: ast.Name, scope: Scope) -> Any:
        cls = self._maybe_class(node.ident)
        try:
            return scope.lookup(node.ident, node.line)
        except OppNameError:
            if cls is not None:
                return cls
            raise

    def _eval_This(self, node: ast.This, scope: Scope) -> Any:
        if scope.this is None:
            raise OppRuntimeError("'this' outside a member function",
                                  line=node.line)
        return scope.this

    def _eval_Binary(self, node: ast.Binary, scope: Scope) -> Any:
        op = node.op
        if op == "&&":
            return bool(self.eval(node.left, scope)
                        and self.eval(node.right, scope))
        if op == "||":
            return bool(self.eval(node.left, scope)
                        or self.eval(node.right, scope))
        left = self.eval(node.left, scope)
        right = self.eval(node.right, scope)
        if op == "<<":
            if isinstance(left, OdeSet):
                return left << self._as_ref(right)
            return left << right
        if op == ">>":
            if isinstance(left, OdeSet):
                return left >> self._as_ref(right)
            return left >> right
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if isinstance(left, int) and isinstance(right, int):
                    return left // right if right != 0 else self._div0(node)
                return left / right if right != 0 else self._div0(node)
            if op == "%":
                return left % right
            if op == "==":
                return self._equal(left, right)
            if op == "!=":
                return not self._equal(left, right)
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
        except TypeError as exc:
            raise OppTypeError(str(exc), line=node.line)
        raise OppRuntimeError("unknown operator %r" % op, line=node.line)

    def _div0(self, node):
        raise OppRuntimeError("division by zero", line=node.line)

    def _equal(self, left, right) -> bool:
        left = self._as_ref(left)
        right = self._as_ref(right)
        return left == right

    def _as_ref(self, value):
        if isinstance(value, OdeObject) and value.is_persistent:
            return value.oid
        return value

    def _eval_Unary(self, node: ast.Unary, scope: Scope) -> Any:
        value = self.eval(node.operand, scope)
        if node.op == "-":
            return -value
        if node.op == "+":
            return +value
        if node.op == "!":
            return not value
        if node.op == "~":
            return ~value
        raise OppRuntimeError("unknown unary %r" % node.op, line=node.line)

    def _eval_Conditional(self, node: ast.Conditional, scope: Scope) -> Any:
        if self.eval(node.cond, scope):
            return self.eval(node.then, scope)
        return self.eval(node.otherwise, scope)

    def _eval_Member(self, node: ast.Member, scope: Scope) -> Any:
        target = self._deref(self.eval(node.target, scope), node.line)
        self._check_access(type(target), node.field, scope, node.line)
        try:
            return getattr(target, node.field)
        except AttributeError:
            raise OppRuntimeError(
                "%s has no member %r" % (type(target).__name__, node.field),
                line=node.line)

    def _check_access(self, cls: type, field: str, scope: Scope,
                      line: int) -> None:
        """Enforce O++ access sections (C++ semantics, approximated).

        Private/protected members of *cls* may only be touched when the
        code runs inside a member function of the class (``this`` is an
        instance of a type sharing the member). Python callers are not
        restricted — the host language follows its own conventions.
        """
        access = getattr(cls, "_opp_access", None)
        if access is None:
            return
        mode = access.get(field, "public")
        if mode == "public":
            return
        this = scope.this
        if this is not None and (isinstance(this, cls)
                                 or issubclass(cls, type(this))):
            return
        raise OppRuntimeError(
            "%r is a %s member of %s" % (field, mode, cls.__name__),
            line=line)

    def _eval_Index(self, node: ast.Index, scope: Scope) -> Any:
        target = self.eval(node.target, scope)
        index = self.eval(node.index, scope)
        try:
            return target[index]
        except (TypeError, KeyError, IndexError) as exc:
            raise OppRuntimeError(str(exc), line=node.line)

    def _eval_Call(self, node: ast.Call, scope: Scope) -> Any:
        args = [self.eval(arg, scope) for arg in node.args]
        if isinstance(node.callee, ast.Member):
            target = self._deref(self.eval(node.callee.target, scope),
                                 node.line)
            self._check_access(type(target), node.callee.field, scope,
                               node.line)
            func = getattr(target, node.callee.field, None)
            if func is None:
                raise OppRuntimeError(
                    "%s has no member function %r"
                    % (type(target).__name__, node.callee.field),
                    line=node.line)
        else:
            func = self.eval(node.callee, scope)
        if isinstance(func, OdeMeta):
            # `T(args)` used as a conversion/constructor: volatile object.
            return func(*args)
        if not callable(func):
            raise OppTypeError("%r is not callable" % (func,),
                               line=node.line)
        return func(*args)

    def _eval_New(self, node: ast.New, scope: Scope) -> Any:
        cls = self._find_class(node.type_name, node.line)
        args = [self.eval(arg, scope) for arg in node.args]
        obj = cls(*args)
        if node.persistent:
            return self.db.pnew_from(obj)
        return obj

    def _eval_IsType(self, node: ast.IsType, scope: Scope) -> bool:
        value = self.eval(node.target, scope)
        value = self._deref(value, node.line) if isinstance(
            value, (Oid, Vref)) else value
        cls = self._find_class(node.type_name, node.line)
        if not isinstance(value, cls):
            return False
        if node.persistent and not (isinstance(value, OdeObject)
                                    and value.is_persistent):
            return False
        return True

    def _eval_Assign(self, node: ast.Assign, scope: Scope) -> Any:
        value = self.eval(node.value, scope)
        if node.op != "=":
            current = self.eval(node.target, scope)
            binop = node.op[:-1]
            value = self._apply_binop(binop, current, value, node.line)
        self._assign_to(node.target, value, scope)
        return value

    def _apply_binop(self, op: str, left, right, line: int):
        fake = ast.Binary(op, ast.Literal(left), ast.Literal(right),
                          line=line)
        return self.eval(fake, self.globals)

    def _assign_to(self, target: ast.Node, value: Any, scope: Scope) -> None:
        if isinstance(target, ast.Name):
            scope.assign(target.ident, value)
            self._bound(target.ident, value)
            return
        if isinstance(target, ast.Member):
            obj = self._deref(self.eval(target.target, scope), target.line)
            self._check_access(type(obj), target.field, scope, target.line)
            setattr(obj, target.field, value)
            return
        if isinstance(target, ast.Index):
            container = self.eval(target.target, scope)
            index = self.eval(target.index, scope)
            container[index] = value
            return
        raise OppRuntimeError("invalid assignment target", line=target.line)

    def _eval_IncDec(self, node: ast.IncDec, scope: Scope) -> Any:
        current = self.eval(node.target, scope)
        delta = 1 if node.op == "++" else -1
        self._assign_to(node.target, current + delta, scope)
        return current

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _deref(self, value: Any, line: int) -> Any:
        if value is None:
            raise OppRuntimeError("null pointer dereference", line=line)
        if isinstance(value, (Oid, Vref)):
            return self.db.deref(value)
        return value

    def _materialize(self, item: Any) -> Any:
        """Iteration yields live objects for reference elements."""
        if isinstance(item, (Oid, Vref)):
            return self.db.deref(item, _missing_ok=True)
        return item

    def _maybe_class(self, name: str) -> Optional[type]:
        value = self.globals.vars.get(name)
        if isinstance(value, OdeMeta):
            return value
        cls = class_registry().get(name)
        if isinstance(cls, OdeMeta):
            return cls
        return None

    def _find_class(self, name: str, line: int) -> type:
        cls = self._maybe_class(name)
        if cls is None:
            raise OppNameError("undefined class %r" % name, line=line)
        return cls

    # ------------------------------------------------------------------
    # builtins
    # ------------------------------------------------------------------

    def _install_builtins(self) -> None:
        g = self.globals

        def printf(fmt: str, *args) -> None:
            text = _c_format(fmt, args)
            self.output.append(text)
            if self.echo:
                print(text, end="")

        def puts(text: str) -> None:
            printf("%s\n", text)

        g.declare("printf", printf)
        g.declare("puts", puts)
        g.declare("sqrt", math.sqrt)
        g.declare("abs", abs)
        g.declare("fabs", abs)
        g.declare("floor", math.floor)
        g.declare("ceil", math.ceil)
        g.declare("pow", pow)
        g.declare("strlen", len)
        g.declare("strcmp", lambda a, b: (a > b) - (a < b))
        g.declare("count", lambda xs: sum(1 for _ in xs))
        # Ode macros
        g.declare("newversion", lambda obj: self.db.newversion(obj))
        g.declare("vprev", lambda ref: self.db.vprev(ref))
        g.declare("vnext", lambda ref: self.db.vnext(ref))
        g.declare("vfirst", lambda ref: self.db.vfirst(ref))
        g.declare("vlast", lambda ref: self.db.vlast(ref))
        g.declare("deref", lambda ref: self.db.deref(ref))
        g.declare("deactivate",
                  lambda tid: tid.deactivate()
                  if isinstance(tid, TriggerId) else False)
        g.declare("advance_time", lambda s: self.db.advance_time(s))
        g.declare("now", lambda: self.db.now())
        g.declare("snapshot_token", lambda: self.db.snapshot_token())
        g.declare("min", min)
        g.declare("max", max)
        g.declare("exp", math.exp)
        g.declare("log", math.log)
        g.declare("toupper", lambda s: s.upper())
        g.declare("tolower", lambda s: s.lower())
        g.declare("substr", lambda s, i, n: s[i:i + n])
        g.declare("atoi", int)
        g.declare("atof", float)


class _Elements:
    """A set- or list-valued ``forall`` source: reference elements come
    out as the live objects. Iterated lazily, so members the loop adds
    are visited (section 3.2)."""

    __slots__ = ("source", "materialize")

    def __init__(self, source, materialize: Callable):
        self.source = source
        self.materialize = materialize

    def __iter__(self):
        return map(self.materialize, self.source)

    def __len__(self) -> int:
        return len(self.source)

    def __repr__(self) -> str:
        return repr(self.source)


def _cacheable(parser: Parser, program: ast.Program, source: str,
               pieces: List[str]) -> bool:
    """Whether *program* may be served again for *source*'s shape: it
    declares nothing that outlives a run, and the spans the shape cut
    out are exactly the literal tokens (same count, each starting at a
    token's line and column — the same pattern matched there, so the
    values agree too). Then any source with the same pieces lexes to
    these tokens with only literal values changed."""
    if any(isinstance(decl, (ast.ClassDecl, ast.FuncDecl))
           for decl in program.decls):
        return False
    tokens = [tok for tok in parser.tokens if tok.kind in LITERAL_VALUE]
    if len(tokens) != len(pieces) // 2:
        return False
    start = 0
    for tok, before, text in zip(tokens, pieces[::2], pieces[1::2]):
        start += len(before)
        if (tok.line != source.count("\n", 0, start) + 1
                or tok.column != start - source.rfind("\n", 0, start)):
            return False
        start += len(text)
    return True


def _source_class(source) -> Optional[type]:
    """The class a forall source's elements are declared to have: a
    cluster's (also behind a deep or as-of view), None for a set."""
    return getattr(getattr(source, "handle", source), "cls", None)


def _conjuncts(expr: ast.Node) -> List[ast.Node]:
    """*expr* split at its top-level ``&&``."""
    if isinstance(expr, ast.Binary) and expr.op == "&&":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _mentions(node: ast.Node, names: List[str]) -> bool:
    """Whether *node* names any of *names* (the loop variables)."""
    if isinstance(node, ast.Name):
        return node.ident in names
    for slot in type(node).__slots__:
        child = getattr(node, slot, None)
        for item in child if isinstance(child, list) else (child,):
            if isinstance(item, ast.Node) and _mentions(item, names):
                return True
    return False


def _c_format(fmt: str, args: tuple) -> str:
    """Translate the printf subset used by the paper to Python %-format."""
    out = []
    arg_i = 0
    i = 0
    n = len(fmt)
    while i < n:
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        if i + 1 < n and fmt[i + 1] == "%":
            out.append("%")
            i += 2
            continue
        # scan the conversion spec: flags/width/precision + letter
        j = i + 1
        while j < n and fmt[j] in "-+ 0123456789.*lh":
            j += 1
        if j >= n:
            out.append(fmt[i:])
            break
        conv = fmt[j]
        spec = fmt[i:j + 1].replace("l", "").replace("h", "")
        arg = args[arg_i] if arg_i < len(args) else ""
        arg_i += 1
        if conv in "dioxX":
            out.append(spec % int(arg))
        elif conv in "eEfgG":
            out.append(spec % float(arg))
        elif conv == "c":
            out.append(str(arg)[:1])
        elif conv == "s":
            out.append(spec % (arg if isinstance(arg, str) else str(arg)))
        else:
            out.append(fmt[i:j + 1])
        i = j + 1
    return "".join(out)


def run_program(db: Database, source: str, echo: bool = False) -> List[str]:
    """One-shot convenience: run O++ *source* against *db*."""
    return Interpreter(db, echo=echo).run(source)
