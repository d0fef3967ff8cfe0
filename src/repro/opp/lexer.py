"""Lexer for the O++ subset.

Tokenizes the C-flavoured surface syntax of the paper's examples:
identifiers, keywords, numeric/string/char literals, the full C operator
set, plus the O++ extras — ``==>`` (trigger arrow), ``<<`` / ``>>`` (set
insertion/removal), and the keywords ``persistent``, ``pnew``, ``pdelete``,
``forall``, ``suchthat``, ``by``, ``trigger``, ``constraint``,
``perpetual``, ``within``, ``create``, ``newversion`` and friends.

Comments: ``//`` to end of line and ``/* ... */``.

One compiled pattern does the work. Its literal alternatives
(:data:`LITERAL`) are also what :data:`SHAPE` cuts out of a statement,
so the interpreter's statement cache and the lexer agree on where every
literal starts and ends. Lines are counted in whitespace and comments
only — a raw newline inside a string or char literal does not start a
new line.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

from ..errors import OppSyntaxError

KEYWORDS = {
    "class", "public", "private", "protected",
    "int", "double", "float", "char", "void", "bool", "long", "unsigned",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "new", "delete", "this", "true", "false", "null", "nullptr",
    # O++ extensions
    "persistent", "pnew", "pdelete", "create",
    "forall", "in", "suchthat", "by", "is",
    "constraint", "trigger", "perpetual", "within",
    "set", "transaction",
}

# Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "==>", "<<=", ">>=",
    "->", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "++", "--", "::",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", ":", "?",
]

# Literals (ASCII digits only: Unicode "digits" like '²' are not
# numerals). An exponent needs digits after its optional sign — "0E" is
# the int 0 then the identifier E — and "1..2" is the int 1, not "1.".
_EXPONENT = r"(?:[eE][+-]?[0-9]+)"
_STRING = r'"(?:[^"\\\n]|\\[\s\S])*'          # a string up to its close
_QUOTED = _STRING + r'"|' + r"'(?:\\[\s\S]|[^\\])'"
_NUMBER = (r"[0-9]+\.(?![.])[0-9]*%s?|\.[0-9]+%s?|[0-9]+%s|[0-9]+"
           % ((_EXPONENT,) * 3))
LITERAL = _QUOTED + "|" + _NUMBER

#: Splits a statement into its shape and its literal texts:
#: ``SHAPE.split(src)`` alternates text between literals and literals.
#: A number right after an identifier character or a dot stays in the
#: shape (the lexer reads ``x1`` as one identifier, ``a.5`` as ``a .5``).
SHAPE = re.compile(r"(%s|(?<![A-Za-z0-9_.])(?:%s))" % (_QUOTED, _NUMBER))

_TOKEN = re.compile("|".join((
    r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)+)",
    r"(?P<open>/\*)",
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<literal>%s)" % LITERAL,
    r"(?P<quote>[\"'])",
    r"(?P<op>%s)" % "|".join(re.escape(op) for op in OPERATORS),
)))
_STRING_PREFIX = re.compile(_STRING)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
            "\\": "\\", '"': '"', "'": "'"}


class Token(NamedTuple):
    kind: str        # "ident", "keyword", "int", "float", "string",
                     # "char", "op", "eof"
    value: str
    line: int
    column: int

    def __repr__(self):
        return "Token(%s, %r, %d:%d)" % (self.kind, self.value,
                                         self.line, self.column)


def literal(text: str) -> Tuple[str, str]:
    """``(kind, token value)`` of a literal's source *text* (a match of
    :data:`LITERAL`): quotes dropped and escapes resolved for strings
    and chars, the digits as written for numbers."""
    first = text[0]
    if first == '"' or first == "'":
        body = text[1:-1]
        if "\\" in body:
            body = _ESCAPE.sub(_unescape, body)
        return ("string" if first == '"' else "char"), body
    if "." in text or "e" in text or "E" in text:
        return "float", text
    return "int", text


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*; raises :class:`OppSyntaxError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    line, line_start, pos, n = 1, 0, 0, len(source)
    while pos < n:
        m = match(source, pos)
        group = m.lastgroup if m is not None else None
        if group == "skip":
            text = m.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rfind("\n") + 1
        elif group == "word":
            word = m.group()
            append(Token("keyword" if word in KEYWORDS else "ident", word,
                         line, pos - line_start + 1))
        elif group == "op":
            append(Token("op", m.group(), line, pos - line_start + 1))
        elif group == "literal":
            kind, value = literal(m.group())
            append(Token(kind, value, line, pos - line_start + 1))
        else:
            message, at = _error(source, pos, group)
            raise OppSyntaxError(message, line=line,
                                 column=at - line_start + 1)
        pos = m.end()
    append(Token("eof", "", line, pos - line_start + 1))
    return tokens


def _error(source: str, pos: int, group) -> Tuple[str, int]:
    """The message and source offset of the error at *pos*."""
    if group == "open":
        return "unterminated /* comment", pos
    if group is None:
        return "unexpected character %r" % source[pos], pos
    if source[pos] == '"':
        end = _STRING_PREFIX.match(source, pos).end()
        if end < len(source) and source[end] == "\n":
            return "newline inside string literal", end
        return "unterminated string literal", pos
    # A char literal: the offset where its closing quote was due.
    if pos + 1 < len(source):
        pos += 3 if source[pos + 1] == "\\" and pos + 2 < len(source) else 2
    return "unterminated char literal", pos


def _unescape(m: "re.Match") -> str:
    return _ESCAPES.get(m.group(1), m.group(1))
