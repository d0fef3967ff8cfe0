"""Unit tests for the O++ lexer, and its differential test against the
hand-written character loop it replaced (``oracle_lexer``)."""

import ast as pyast
import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OppSyntaxError
from repro.opp.lexer import Token, tokenize
from repro.opp.parser import parse
from tests.opp import oracle_lexer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def kinds_values(source):
    return [(t.kind, t.value) for t in tokenize(source) if t.kind != "eof"]


class TestBasics:
    def test_empty(self):
        assert tokenize("")[-1].kind == "eof"

    def test_identifiers_and_keywords(self):
        toks = kinds_values("class stockitem persistent foo_bar2")
        assert toks == [("keyword", "class"), ("ident", "stockitem"),
                        ("keyword", "persistent"), ("ident", "foo_bar2")]

    def test_numbers(self):
        toks = kinds_values("42 3.14 0.5 1e10 2.5e-3 7.")
        assert toks == [("int", "42"), ("float", "3.14"), ("float", "0.5"),
                        ("float", "1e10"), ("float", "2.5e-3"),
                        ("float", "7.")]

    def test_exponent_requires_digits(self):
        # "0E" is the int 0 then the identifier E — consuming the bare
        # E as an exponent produced a float token float() rejects.
        assert kinds_values("0E") == [("int", "0"), ("ident", "E")]
        assert kinds_values("1e+") == [("int", "1"), ("ident", "e"),
                                       ("op", "+")]
        assert kinds_values("2.5E-3")[0] == ("float", "2.5E-3")

    def test_strings(self):
        toks = kinds_values(r'"hello" "with \"escape\"" "tab\t"')
        assert toks == [("string", "hello"), ("string", 'with "escape"'),
                        ("string", "tab\t")]

    def test_chars(self):
        toks = kinds_values(r"'a' '\n' 'f'")
        assert toks == [("char", "a"), ("char", "\n"), ("char", "f")]

    def test_operators_maximal_munch(self):
        toks = [v for _, v in kinds_values("==> == = <= << < -> - >>=")]
        assert toks == ["==>", "==", "=", "<=", "<<", "<", "->", "-", ">>="]

    def test_line_tracking(self):
        toks = tokenize("a\nbb\n  c")
        assert toks[0].line == 1
        assert toks[1].line == 2
        assert toks[2].line == 3 and toks[2].column == 3


class TestComments:
    def test_line_comment(self):
        assert kinds_values("a // comment\n b") == [("ident", "a"),
                                                    ("ident", "b")]

    def test_block_comment(self):
        assert kinds_values("a /* x\ny */ b") == [("ident", "a"),
                                                  ("ident", "b")]

    def test_unterminated_block(self):
        with pytest.raises(OppSyntaxError):
            tokenize("a /* never ends")


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(OppSyntaxError):
            tokenize('"never ends')

    def test_bad_character(self):
        with pytest.raises(OppSyntaxError):
            tokenize("a @ b")

    def test_newline_in_string(self):
        with pytest.raises(OppSyntaxError):
            tokenize('"line\nbreak"')

    def test_error_carries_position(self):
        try:
            tokenize("ok\nok @")
        except OppSyntaxError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected OppSyntaxError")


    def test_line_comment_at_end_advances_the_column(self):
        # The character loop left the column at the comment's start, so
        # the missing ';' was reported there (col 7), not at the end.
        assert tokenize("x = 1 // c")[-1] == Token("eof", "", 1, 11)
        with pytest.raises(OppSyntaxError) as err:
            parse("x = 1 // c")
        assert (err.value.line, err.value.column) == (1, 11)
        assert tokenize("x = 1 // c\n")[-1] == Token("eof", "", 2, 1)


def lex_both(source):
    """The oracle's and the package lexer's results for *source*: the
    token list, or the error's (message, line, column)."""
    results = []
    for lex in (oracle_lexer.tokenize, tokenize):
        try:
            results.append(lex(source))
        except OppSyntaxError as exc:
            results.append((str(exc), exc.line, exc.column))
    return results


def assert_same_tokens(source):
    want, got = lex_both(source)
    if isinstance(want, list) and isinstance(got, list) and want != got:
        # The oracle's one known divergence: after a `//` comment at the
        # end of input its eof column is the comment's start.
        assert want[:-1] == got[:-1]
        assert want[-1].line == got[-1].line
        assert "//" in source.rsplit("\n", 1)[-1]
        assert got[-1].column > want[-1].column
        return
    assert want == got


def example_sources():
    """Every string constant with a ';' in the examples' Python files —
    the O++ programs among them, and text that is not O++ at all."""
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        with open(path) as handle:
            tree = pyast.parse(handle.read())
        for node in pyast.walk(tree):
            if (isinstance(node, pyast.Constant)
                    and isinstance(node.value, str) and ";" in node.value):
                out.append(pytest.param(node.value, id="%s:%d" % (
                    os.path.basename(path), node.lineno)))
    return out


FRAGMENTS = [
    "x", "v2", "_t", "class", "forall", "in", "suchthat", "printf", " ",
    "\t", "\n", "\r", "0", "7", "42", "1.5", ".5", "7.", "1e10", "2.5E-3",
    "0E", "1e+", "1..2", ".", "..", '"', "'", "\\", '"s"', '"a\\"b"',
    "'c'", "'\\n'", "''", "//", "/*", "*/", "// c\n", "/* x\ny */",
    "==>", "->", "<<=", "==", "=", "+", "-", "*", "/", "(", ")", "{", "}",
    ";", ",", "@", "$", "\u00b2", "\u00e9", "\x0c",
]


class TestDifferential:
    """Same tokens (kind, value, line, column) and the same errors
    (message, line, column) as the character loop."""

    @pytest.mark.parametrize("source", example_sources())
    def test_example_programs(self, source):
        assert_same_tokens(source)

    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join))
    @settings(max_examples=2000, deadline=None)
    def test_fragment_soup(self, source):
        assert_same_tokens(source)

    @given(st.text(max_size=60))
    @settings(max_examples=500, deadline=None)
    def test_any_text(self, source):
        assert_same_tokens(source)

    @pytest.mark.parametrize("source", [
        '"never ends', '"line\nbreak"', "'", "'a", "'\\", "'\\n",
        "a /* never ends", "ok\nok @", '"esc\\\nraw"', "'\n' x",
        "x // end", "x /* a\nb */ y",
    ])
    def test_edge_cases(self, source):
        assert_same_tokens(source)
