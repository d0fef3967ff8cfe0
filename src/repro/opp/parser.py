"""Recursive-descent parser for the O++ subset.

Grammar highlights (see the module docs of :mod:`repro.opp` for the full
summary):

* C-like declarations, statements and expressions with C precedence.
* ``class`` declarations with multiple (public) inheritance, access
  labels, ``constraint:`` and ``trigger:`` sections (paper sections 2, 5,
  6).
* ``persistent T *`` pointer types, ``pnew`` / ``pdelete`` / ``create``.
* ``forall x in C [suchthat (e)] [by (e) [desc]] stmt`` with multiple
  loop variables (either chained ``forall`` or comma separated), and the
  ``C*`` deep-extent form.
* ``for x in set_expr stmt`` iteration over set values.
* ``expr is [persistent] T [*]`` run-time type tests.
* ``transaction { ... }`` blocks.

The parser is permissive about types (they guide field construction, not
static checking — the interpreter is dynamically typed like the Python
substrate underneath).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..errors import OppSyntaxError
from . import ast_nodes as ast
from .lexer import Token, tokenize

_PRIMITIVE_TYPES = {"int", "double", "float", "char", "bool", "void",
                    "long", "unsigned"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%="}

#: A literal token's value, by token kind (lexer.literal gives the kind).
LITERAL_VALUE = {"int": int, "float": float, "string": str, "char": str}


class Parser:
    """One-shot parser: construct with source, call :meth:`parse`."""

    def __init__(self, source: str, known_types: Optional[Set[str]] = None):
        self.tokens = tokenize(source)
        self.pos = 0
        #: the Literal nodes built from literal tokens, in source order
        self.literals: List[ast.Literal] = []
        # Class names seen so far; lets `stockitem *p;` parse as a decl.
        self.known_types: Set[str] = set(known_types or ())

    # -- token plumbing ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def match(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if not self.check(kind, value):
            want = value if value is not None else kind
            raise OppSyntaxError("expected %r, found %r" % (want, tok.value),
                                 line=tok.line, column=tok.column)
        return self.advance()

    def error(self, message: str) -> OppSyntaxError:
        tok = self.peek()
        return OppSyntaxError(message + " (at %r)" % tok.value,
                              line=tok.line, column=tok.column)

    # -- entry point --------------------------------------------------------------

    def parse(self) -> ast.Program:
        decls: List[ast.Node] = []
        while not self.check("eof"):
            decls.append(self.top_level())
        return ast.Program(decls)

    def top_level(self) -> ast.Node:
        if self.check("keyword", "class"):
            return self.class_decl()
        if self._looks_like_function():
            return self.func_decl()
        return self.statement()

    def _looks_like_function(self) -> bool:
        """type ident ( ... ) { — distinguishes functions from the rest."""
        save = self.pos
        try:
            if not self._try_type():
                return False
            if not self.check("ident"):
                return False
            self.advance()
            if not self.check("op", "("):
                return False
            depth = 0
            i = self.pos
            while i < len(self.tokens):
                tok = self.tokens[i]
                if tok.kind == "op" and tok.value == "(":
                    depth += 1
                elif tok.kind == "op" and tok.value == ")":
                    depth -= 1
                    if depth == 0:
                        nxt = self.tokens[i + 1] if i + 1 < len(self.tokens) else None
                        return (nxt is not None and nxt.kind == "op"
                                and nxt.value == "{")
                i += 1
            return False
        finally:
            self.pos = save

    def _try_type(self) -> bool:
        """Consume a type name if one is present; used for lookahead only."""
        if self.check("keyword") and self.peek().value in _PRIMITIVE_TYPES:
            self.advance()
            while self.match("op", "*"):
                pass
            return True
        if self.check("keyword", "persistent"):
            self.advance()
            if self.check("ident"):
                self.advance()
                while self.match("op", "*"):
                    pass
                return True
            return False
        if self.check("keyword", "set"):
            self.advance()
            if self.match("op", "<"):
                self._try_type()
                self.match("op", ">")
            return True
        if self.check("ident") and self.peek().value in self.known_types:
            self.advance()
            while self.match("op", "*"):
                pass
            return True
        return False

    # -- types --------------------------------------------------------------

    def type_name(self) -> ast.TypeName:
        line = self.peek().line
        persistent = bool(self.match("keyword", "persistent"))
        tok = self.peek()
        if tok.kind == "keyword" and tok.value in _PRIMITIVE_TYPES:
            self.advance()
            # "unsigned int", "long long" etc: swallow extra type words
            while (self.check("keyword")
                   and self.peek().value in _PRIMITIVE_TYPES):
                self.advance()
            name = tok.value
        elif tok.kind == "keyword" and tok.value == "set":
            self.advance()
            element = None
            if self.match("op", "<"):
                element = self.type_name()
                self.expect("op", ">")
            pointer = bool(self.match("op", "*"))
            return ast.TypeName("set", pointer=pointer,
                                persistent=persistent, element=element,
                                line=line)
        elif tok.kind == "ident":
            self.advance()
            name = tok.value
        else:
            raise self.error("expected a type name")
        pointer = False
        while self.match("op", "*"):
            pointer = True
        return ast.TypeName(name, pointer=pointer, persistent=persistent,
                            line=line)

    def _at_type(self) -> bool:
        """Is the current token the start of a declaration type?"""
        tok = self.peek()
        if tok.kind == "keyword" and tok.value in (
                _PRIMITIVE_TYPES | {"persistent", "set"}):
            return True
        if tok.kind == "ident" and tok.value in self.known_types:
            nxt = self.peek(1)
            if nxt.kind == "op" and nxt.value == "*":
                return True
            if nxt.kind == "ident":
                return True
        return False

    # -- class declarations ------------------------------------------------------

    def class_decl(self) -> ast.ClassDecl:
        line = self.expect("keyword", "class").line
        name = self.expect("ident").value
        self.known_types.add(name)
        bases: List[str] = []
        if self.match("op", ":"):
            while True:
                self.match("keyword", "public")
                self.match("keyword", "private")
                bases.append(self.expect("ident").value)
                if not self.match("op", ","):
                    break
        self.expect("op", "{")
        fields: List[ast.FieldDecl] = []
        methods: List[ast.MethodDecl] = []
        constraints: List[ast.ConstraintDecl] = []
        triggers: List[ast.TriggerDecl] = []
        access = "private"  # C++ default for class
        while not self.check("op", "}"):
            if (self.check("keyword") and self.peek().value in
                    ("public", "private", "protected")
                    and self.peek(1).kind == "op"
                    and self.peek(1).value == ":"):
                access = self.advance().value
                self.advance()
                continue
            if self.check("keyword", "constraint"):
                self.advance()
                self.expect("op", ":")
                constraints.extend(self._constraint_section())
                continue
            if self.check("keyword", "trigger"):
                self.advance()
                self.expect("op", ":")
                triggers.extend(self._trigger_section())
                continue
            self._class_member(name, access, fields, methods)
        self.expect("op", "}")
        self.match("op", ";")
        return ast.ClassDecl(name, bases, fields, methods, constraints,
                             triggers, line=line)

    def _class_member(self, class_name: str, access: str,
                      fields: List[ast.FieldDecl],
                      methods: List[ast.MethodDecl]) -> None:
        line = self.peek().line
        # Constructor: `ClassName(params) {...}` with no return type.
        if (self.check("ident", class_name) and self.peek(1).kind == "op"
                and self.peek(1).value == "("):
            self.advance()
            params = self._params()
            body = self.block()
            methods.append(ast.MethodDecl(None, class_name, params, body,
                                          access, True, line=line))
            self.match("op", ";")
            return
        type_name = self.type_name()
        member = self.expect("ident").value
        if self.check("op", "("):
            params = self._params()
            body = self.block()
            methods.append(ast.MethodDecl(type_name, member, params, body,
                                          access, False, line=line))
            self.match("op", ";")
            return
        fields.append(ast.FieldDecl(type_name, member, access, line=line))
        while self.match("op", ","):
            extra = self.expect("ident").value
            fields.append(ast.FieldDecl(type_name, extra, access, line=line))
        self.expect("op", ";")

    def _constraint_section(self) -> List[ast.ConstraintDecl]:
        """Expressions, one per ';', until the next section or '}'."""
        out: List[ast.ConstraintDecl] = []
        i = 0
        while not (self.check("op", "}") or self._at_section_keyword()):
            line = self.peek().line
            expr = self.expression()
            self.expect("op", ";")
            out.append(ast.ConstraintDecl("constraint_%d" % i, expr,
                                          line=line))
            i += 1
        return out

    def _trigger_section(self) -> List[ast.TriggerDecl]:
        out: List[ast.TriggerDecl] = []
        while not (self.check("op", "}") or self._at_section_keyword()):
            out.append(self._trigger_decl())
        return out

    def _at_section_keyword(self) -> bool:
        return (self.check("keyword") and self.peek().value in
                ("public", "private", "protected", "constraint", "trigger")
                and self.peek(1).kind == "op" and self.peek(1).value == ":")

    def _trigger_decl(self) -> ast.TriggerDecl:
        line = self.peek().line
        perpetual = bool(self.match("keyword", "perpetual"))
        name = self.expect("ident").value
        params = self._params()
        self.expect("op", ":")
        within = None
        if self.match("keyword", "within"):
            within = self.expression()
            self.expect("op", ":")
        condition = self.expression()
        self.expect("op", "==>")
        action = self._trigger_action()
        timeout_action = None
        if self.match("op", ":"):
            timeout_action = self._trigger_action()
        self.expect("op", ";")
        return ast.TriggerDecl(name, params, perpetual, within, condition,
                               action, timeout_action, line=line)

    def _trigger_action(self) -> ast.Node:
        if self.check("op", "{"):
            return self.block()
        return ast.ExprStmt(self.expression(), line=self.peek().line)

    def _params(self) -> List[ast.Param]:
        self.expect("op", "(")
        params: List[ast.Param] = []
        if not self.check("op", ")"):
            while True:
                line = self.peek().line
                type_name = self.type_name()
                pname = self.expect("ident").value
                params.append(ast.Param(type_name, pname, line=line))
                if not self.match("op", ","):
                    break
        self.expect("op", ")")
        return params

    # -- functions -----------------------------------------------------------------

    def func_decl(self) -> ast.FuncDecl:
        line = self.peek().line
        return_type = self.type_name()
        name = self.expect("ident").value
        params = self._params()
        body = self.block()
        return ast.FuncDecl(return_type, name, params, body, line=line)

    # -- statements ---------------------------------------------------------------

    def block(self) -> ast.Block:
        line = self.expect("op", "{").line
        body: List[ast.Node] = []
        while not self.check("op", "}"):
            body.append(self.statement())
        self.expect("op", "}")
        return ast.Block(body, line=line)

    def statement(self) -> ast.Node:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "{":
            return self.block()
        if tok.kind == "op" and tok.value == ";":
            self.advance()
            return ast.Block([], line=tok.line)
        if tok.kind == "keyword":
            if tok.value == "if":
                return self._if_stmt()
            if tok.value == "while":
                return self._while_stmt()
            if tok.value == "do":
                return self._do_while_stmt()
            if tok.value == "for":
                return self._for_stmt()
            if tok.value == "forall":
                return self._forall_stmt()
            if tok.value == "return":
                self.advance()
                value = None
                if not self.check("op", ";"):
                    value = self.expression()
                self.expect("op", ";")
                return ast.Return(value, line=tok.line)
            if tok.value == "break":
                self.advance()
                self.expect("op", ";")
                return ast.Break(line=tok.line)
            if tok.value == "continue":
                self.advance()
                self.expect("op", ";")
                return ast.Continue(line=tok.line)
            if tok.value == "pdelete":
                self.advance()
                target = self.expression()
                self.expect("op", ";")
                return ast.PDelete(target, line=tok.line)
            if tok.value == "create":
                self.advance()
                paren = bool(self.match("op", "("))
                name = self.expect("ident").value
                if paren:
                    self.expect("op", ")")
                self.expect("op", ";")
                return ast.Create(name, line=tok.line)
            if tok.value == "transaction":
                self.advance()
                body = self.block()
                return ast.TransactionBlock(body, line=tok.line)
        if tok.kind == "ident" and tok.value == "explain":
            # Soft keyword: only a statement when followed by `forall`
            # or `analyze` — `explain` stays usable as a variable name.
            nxt = self.peek(1)
            if ((nxt.kind == "keyword" and nxt.value == "forall")
                    or (nxt.kind == "ident" and nxt.value == "analyze")):
                return self._explain_stmt()
        if self._at_type():
            return self._var_decl_stmt()
        expr = self.expression()
        self.expect("op", ";")
        return ast.ExprStmt(expr, line=tok.line)

    def _var_decl_stmt(self) -> ast.Node:
        line = self.peek().line
        type_name = self.type_name()
        decls: List[ast.Node] = []
        while True:
            name = self.expect("ident").value
            init = None
            if self.match("op", "="):
                init = self.expression()
            decls.append(ast.VarDecl(type_name, name, init, line=line))
            if not self.match("op", ","):
                break
        self.expect("op", ";")
        if len(decls) == 1:
            return decls[0]
        return ast.Block(decls, line=line)

    def _if_stmt(self) -> ast.If:
        line = self.expect("keyword", "if").line
        self.expect("op", "(")
        cond = self.expression()
        self.expect("op", ")")
        then = self.statement()
        otherwise = None
        if self.match("keyword", "else"):
            otherwise = self.statement()
        return ast.If(cond, then, otherwise, line=line)

    def _while_stmt(self) -> ast.While:
        line = self.expect("keyword", "while").line
        self.expect("op", "(")
        cond = self.expression()
        self.expect("op", ")")
        body = self.statement()
        return ast.While(cond, body, line=line)

    def _do_while_stmt(self) -> ast.DoWhile:
        line = self.expect("keyword", "do").line
        body = self.statement()
        self.expect("keyword", "while")
        self.expect("op", "(")
        cond = self.expression()
        self.expect("op", ")")
        self.expect("op", ";")
        return ast.DoWhile(cond, body, line=line)

    def _for_stmt(self) -> ast.Node:
        line = self.expect("keyword", "for").line
        if self.check("op", "("):
            self.advance()
            init = None
            if not self.check("op", ";"):
                if self._at_type():
                    type_name = self.type_name()
                    name = self.expect("ident").value
                    ini = None
                    if self.match("op", "="):
                        ini = self.expression()
                    init = ast.VarDecl(type_name, name, ini, line=line)
                else:
                    init = ast.ExprStmt(self.expression(), line=line)
            self.expect("op", ";")
            cond = None
            if not self.check("op", ";"):
                cond = self.expression()
            self.expect("op", ";")
            step = None
            if not self.check("op", ")"):
                step = ast.ExprStmt(self.expression(), line=line)
            self.expect("op", ")")
            body = self.statement()
            return ast.CFor(init, cond, step, body, line=line)
        # `for x in expr stmt`
        var = self.expect("ident").value
        self.expect("keyword", "in")
        source = self.expression()
        body = self.statement()
        return ast.ForIn(var, source, body, line=line)

    def _explain_stmt(self) -> ast.Explain:
        line = self.advance().line  # 'explain'
        analyze = False
        if self.check("ident", "analyze"):
            self.advance()
            analyze = True
        if not self.check("keyword", "forall"):
            raise self.error("expected 'forall' after 'explain'")
        query = self._forall_stmt()
        return ast.Explain(query, analyze, line=line)

    def _forall_stmt(self) -> ast.Forall:
        line = self.peek().line
        sources: List[Tuple[str, ast.Node, bool]] = []
        while self.match("keyword", "forall"):
            var = self.expect("ident").value
            self.expect("keyword", "in")
            source, deep = self._forall_source()
            sources.append((var, source, deep))
            # allow `, forall y in ...` or immediately another `forall`
            self.match("op", ",")
            if not self.check("keyword", "forall"):
                break
        as_of = None
        # `as of (expr)` — soft keywords, so `as` and `of` stay valid
        # identifiers everywhere else.
        if self.check("ident", "as") and self.peek(1).kind == "ident" \
                and self.peek(1).value == "of":
            self.advance()
            self.advance()
            self.expect("op", "(")
            as_of = self.expression()
            self.expect("op", ")")
        suchthat = None
        if self.match("keyword", "suchthat"):
            self.expect("op", "(")
            suchthat = self.expression()
            self.expect("op", ")")
        by = None
        by_desc = False
        if self.match("keyword", "by"):
            self.expect("op", "(")
            by = self.expression()
            self.expect("op", ")")
            if self.check("ident", "desc"):
                self.advance()
                by_desc = True
        body = self.statement()
        return ast.Forall(sources, suchthat, by, by_desc, body, line=line,
                          as_of=as_of)

    def _forall_source(self) -> Tuple[ast.Node, bool]:
        """A cluster name (optionally starred: deep) or a set expression."""
        if self.check("ident"):
            nxt = self.peek(1)
            if nxt.kind == "op" and nxt.value == "*":
                name = self.advance().value
                self.advance()  # '*'
                return ast.Name(name, line=self.peek().line), True
            if nxt.kind == "keyword" and nxt.value in ("suchthat", "by",
                                                       "forall"):
                name = self.advance().value
                return ast.Name(name, line=self.peek().line), False
            if nxt.kind == "op" and nxt.value in ("{", ","):
                name = self.advance().value
                return ast.Name(name, line=self.peek().line), False
        return self.expression(), False

    # -- expressions (C precedence climbing) ----------------------------------

    def expression(self) -> ast.Node:
        return self.assignment()

    def assignment(self) -> ast.Node:
        left = self.conditional()
        tok = self.peek()
        if tok.kind == "op" and tok.value in _ASSIGN_OPS:
            if not isinstance(left, (ast.Name, ast.Member, ast.Index)):
                raise self.error("invalid assignment target")
            self.advance()
            value = self.assignment()
            return ast.Assign(left, tok.value, value, line=tok.line)
        return left

    def conditional(self) -> ast.Node:
        cond = self.logical_or()
        if self.match("op", "?"):
            then = self.expression()
            self.expect("op", ":")
            otherwise = self.conditional()
            return ast.Conditional(cond, then, otherwise, line=cond.line)
        return cond

    def logical_or(self) -> ast.Node:
        left = self.logical_and()
        while self.check("op", "||"):
            line = self.advance().line
            left = ast.Binary("||", left, self.logical_and(), line=line)
        return left

    def logical_and(self) -> ast.Node:
        left = self.equality()
        while self.check("op", "&&"):
            line = self.advance().line
            left = ast.Binary("&&", left, self.equality(), line=line)
        return left

    def equality(self) -> ast.Node:
        left = self.relational()
        while self.check("op", "==") or self.check("op", "!="):
            tok = self.advance()
            left = ast.Binary(tok.value, left, self.relational(),
                              line=tok.line)
        return left

    def relational(self) -> ast.Node:
        left = self.shift()
        while True:
            if self.check("keyword", "is"):
                tok = self.advance()
                persistent = bool(self.match("keyword", "persistent"))
                tname = self.expect("ident").value
                self.match("op", "*")
                left = ast.IsType(left, tname, persistent, line=tok.line)
                continue
            if (self.check("op", "<") or self.check("op", ">")
                    or self.check("op", "<=") or self.check("op", ">=")):
                tok = self.advance()
                left = ast.Binary(tok.value, left, self.shift(),
                                  line=tok.line)
                continue
            return left

    def shift(self) -> ast.Node:
        left = self.additive()
        while self.check("op", "<<") or self.check("op", ">>"):
            tok = self.advance()
            left = ast.Binary(tok.value, left, self.additive(),
                              line=tok.line)
        return left

    def additive(self) -> ast.Node:
        left = self.multiplicative()
        while self.check("op", "+") or self.check("op", "-"):
            tok = self.advance()
            left = ast.Binary(tok.value, left, self.multiplicative(),
                              line=tok.line)
        return left

    def multiplicative(self) -> ast.Node:
        left = self.unary()
        while (self.check("op", "*") or self.check("op", "/")
               or self.check("op", "%")):
            tok = self.advance()
            left = ast.Binary(tok.value, left, self.unary(), line=tok.line)
        return left

    def unary(self) -> ast.Node:
        tok = self.peek()
        if tok.kind == "op" and tok.value in ("-", "!", "~", "+"):
            self.advance()
            return ast.Unary(tok.value, self.unary(), line=tok.line)
        if tok.kind == "op" and tok.value in ("++", "--"):
            self.advance()
            target = self.unary()
            return ast.IncDec(target, tok.value, line=tok.line)
        if tok.kind == "keyword" and tok.value in ("new", "pnew"):
            self.advance()
            tname = self.expect("ident").value
            args: List[ast.Node] = []
            if self.match("op", "("):
                if not self.check("op", ")"):
                    while True:
                        args.append(self.expression())
                        if not self.match("op", ","):
                            break
                self.expect("op", ")")
            return ast.New(tname, args, tok.value == "pnew", line=tok.line)
        return self.postfix()

    def postfix(self) -> ast.Node:
        expr = self.primary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in ("->", "."):
                self.advance()
                field = self.expect("ident").value
                expr = ast.Member(expr, field, line=tok.line)
            elif tok.kind == "op" and tok.value == "(":
                self.advance()
                args: List[ast.Node] = []
                if not self.check("op", ")"):
                    while True:
                        args.append(self.expression())
                        if not self.match("op", ","):
                            break
                self.expect("op", ")")
                expr = ast.Call(expr, args, line=tok.line)
            elif tok.kind == "op" and tok.value == "[":
                self.advance()
                index = self.expression()
                self.expect("op", "]")
                expr = ast.Index(expr, index, line=tok.line)
            elif tok.kind == "op" and tok.value in ("++", "--"):
                self.advance()
                expr = ast.IncDec(expr, tok.value, line=tok.line)
            else:
                return expr

    def primary(self) -> ast.Node:
        tok = self.peek()
        convert = LITERAL_VALUE.get(tok.kind)
        if convert is not None:
            self.advance()
            node = ast.Literal(convert(tok.value), line=tok.line)
            self.literals.append(node)
            return node
        if tok.kind == "keyword":
            if tok.value == "this":
                self.advance()
                return ast.This(line=tok.line)
            if tok.value == "true":
                self.advance()
                return ast.Literal(True, line=tok.line)
            if tok.value == "false":
                self.advance()
                return ast.Literal(False, line=tok.line)
            if tok.value in ("null", "nullptr"):
                self.advance()
                return ast.Literal(None, line=tok.line)
        if tok.kind == "ident":
            self.advance()
            return ast.Name(tok.value, line=tok.line)
        if tok.kind == "op" and tok.value == "(":
            self.advance()
            expr = self.expression()
            self.expect("op", ")")
            return expr
        raise self.error("expected an expression")


def parse(source: str, known_types: Optional[Set[str]] = None) -> ast.Program:
    """Parse O++ *source* into a :class:`~repro.opp.ast_nodes.Program`."""
    return Parser(source, known_types).parse()
