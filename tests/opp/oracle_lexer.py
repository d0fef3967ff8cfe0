"""The hand-written O++ lexer, kept as the differential oracle for
:func:`repro.opp.lexer.tokenize` (one compiled pattern).

This is the character loop the package lexed with before; it is not
imported by ``src/``. The two must agree on every token (kind, value,
line, column) and every :class:`OppSyntaxError` (message, line, column)
but one:

Known divergence: the ``//`` comment skip below never advances the
column, so at end of input (no newline after the comment) the ``eof``
token — and any parse error reported at it — carries the column where
the comment *started*. The package lexer reports the true column.
"""

from __future__ import annotations

from typing import List

from repro.errors import OppSyntaxError
from repro.opp.lexer import KEYWORDS, OPERATORS, Token


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*; raises :class:`OppSyntaxError` on bad input."""
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(msg: str):
        raise OppSyntaxError(msg, line=line, column=col)

    while i < n:
        ch = source[i]
        # whitespace
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        # comments
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                error("unterminated /* comment")
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        # identifiers / keywords (ASCII only: Unicode "digits" like '²'
        # satisfy str.isdigit() but are not valid numerals)
        if (ch.isascii() and ch.isalpha()) or ch == "_":
            start = i
            while i < n and ((source[i].isascii() and source[i].isalnum())
                             or source[i] == "_"):
                i += 1
            word = source[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += i - start
            continue
        # numbers (ASCII digits only)
        digits = "0123456789"
        if ch in digits or (ch == "." and i + 1 < n
                            and source[i + 1] in digits):
            start = i
            is_float = False
            while i < n and source[i] in digits:
                i += 1
            if i < n and source[i] == "." and (i + 1 >= n or source[i + 1] != "."):
                is_float = True
                i += 1
                while i < n and source[i] in digits:
                    i += 1
            if i < n and source[i] in "eE":
                # Only an exponent if digits follow (past an optional
                # sign): "0E" is the int 0 then the identifier E, not a
                # malformed float literal.
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j] in digits:
                    is_float = True
                    i = j
                    while i < n and source[i] in digits:
                        i += 1
            text = source[start:i]
            tokens.append(Token("float" if is_float else "int",
                                text, line, col))
            col += i - start
            continue
        # string literals
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            chars = []
            while i < n and source[i] != '"':
                if source[i] == "\\" and i + 1 < n:
                    chars.append(_unescape(source[i + 1]))
                    i += 2
                    col += 2
                elif source[i] == "\n":
                    error("newline inside string literal")
                else:
                    chars.append(source[i])
                    i += 1
                    col += 1
            if i >= n:
                raise OppSyntaxError("unterminated string literal",
                                     line=start_line, column=start_col)
            i += 1
            col += 1
            tokens.append(Token("string", "".join(chars),
                                start_line, start_col))
            continue
        # char literals
        if ch == "'":
            start_col = col
            i += 1
            if i < n and source[i] == "\\" and i + 1 < n:
                value = _unescape(source[i + 1])
                i += 2
                col += 3
            elif i < n:
                value = source[i]
                i += 1
                col += 2
            else:
                error("unterminated char literal")
            if i >= n or source[i] != "'":
                error("unterminated char literal")
            i += 1
            col += 1
            tokens.append(Token("char", value, line, start_col))
            continue
        # operators
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            error("unexpected character %r" % ch)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _unescape(ch: str) -> str:
    return {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
            "\\": "\\", '"': '"', "'": "'"}.get(ch, ch)
