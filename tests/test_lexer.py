"""Lexer unit tests."""

import pytest

from repro.lang import LexError, tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]  # drop EOF


class TestBasics:
    def test_empty_input_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_whitespace_only(self):
        assert kinds("  \t\n\r\n ") == [TokenKind.EOF]

    def test_identifier(self):
        token = tokenize("foo_bar9")[0]
        assert token.kind is TokenKind.NAME
        assert token.value == "foo_bar9"

    def test_identifier_with_leading_underscore(self):
        assert tokenize("_x")[0].value == "_x"

    def test_keywords_are_not_names(self):
        for word in ("class", "var", "def", "if", "else", "while", "for",
                     "return", "break", "continue", "new", "this", "super",
                     "true", "false", "nil", "inline"):
            token = tokenize(word)[0]
            assert token.kind is not TokenKind.NAME, word
            assert token.text == word

    def test_keyword_prefix_is_a_name(self):
        assert tokenize("classy")[0].kind is TokenKind.NAME
        assert tokenize("iffy")[0].kind is TokenKind.NAME


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0]
        assert token.kind is TokenKind.INT
        assert token.value == 42

    def test_zero(self):
        assert tokenize("0")[0].value == 0

    def test_float(self):
        token = tokenize("3.25")[0]
        assert token.kind is TokenKind.FLOAT
        assert token.value == 3.25

    def test_float_with_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e-2")[0].value == 0.025
        assert tokenize("7E+2")[0].value == 700.0

    def test_int_then_dot_is_not_float(self):
        # `1.x` must lex as INT DOT NAME (field access on a literal).
        toks = tokenize("1.x")
        assert [t.kind for t in toks[:3]] == [TokenKind.INT, TokenKind.DOT, TokenKind.NAME]

    def test_adjacent_number_and_name(self):
        toks = tokenize("12abc")
        assert toks[0].value == 12
        assert toks[1].value == "abc"

    def test_non_decimal_digit_is_a_lex_error(self):
        # ``str.isdigit`` accepts superscripts, which ``int`` rejects.
        with pytest.raises(LexError, match="unexpected character '²'") as info:
            tokenize("def main() { print(²); }")
        location = info.value.location
        assert (location.line, location.column) == (1, 20)

    def test_decimal_digits_of_other_scripts_lex_as_numbers(self):
        assert tokenize("١٢")[0].value == 12
        token = tokenize("١.٥")[0]
        assert token.kind is TokenKind.FLOAT
        assert token.value == 1.5


class TestStrings:
    def test_simple_string(self):
        token = tokenize('"hello"')[0]
        assert token.kind is TokenKind.STRING
        assert token.value == "hello"

    def test_escapes(self):
        assert tokenize(r'"a\nb\tc\\d\"e"')[0].value == 'a\nb\tc\\d"e'

    def test_empty_string(self):
        assert tokenize('""')[0].value == ""

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')

    def test_unknown_escape(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')


class TestOperators:
    def test_two_char_operators(self):
        assert kinds("== != <= >= && ||")[:-1] == [
            TokenKind.EQ, TokenKind.NE, TokenKind.LE,
            TokenKind.GE, TokenKind.AND, TokenKind.OR,
        ]

    def test_single_char_operators(self):
        assert kinds("+ - * / % < > ! =")[:-1] == [
            TokenKind.PLUS, TokenKind.MINUS, TokenKind.STAR, TokenKind.SLASH,
            TokenKind.PERCENT, TokenKind.LT, TokenKind.GT, TokenKind.NOT,
            TokenKind.ASSIGN,
        ]

    def test_punctuation(self):
        assert kinds("( ) { } [ ] , ; . :")[:-1] == [
            TokenKind.LPAREN, TokenKind.RPAREN, TokenKind.LBRACE,
            TokenKind.RBRACE, TokenKind.LBRACKET, TokenKind.RBRACKET,
            TokenKind.COMMA, TokenKind.SEMICOLON, TokenKind.DOT, TokenKind.COLON,
        ]

    def test_stray_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_single_ampersand_rejected(self):
        with pytest.raises(LexError):
            tokenize("a & b")

    def test_single_pipe_rejected(self):
        with pytest.raises(LexError):
            tokenize("a | b")


class TestComments:
    def test_line_comment(self):
        assert texts("a // comment here\n b") == ["a", "b"]

    def test_line_comment_at_eof(self):
        assert texts("a // no newline") == ["a"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_block_comment_with_stars(self):
        assert texts("a /* ** * */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_slash_is_division_not_comment(self):
        assert kinds("a / b")[1] is TokenKind.SLASH


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].location.line, tokens[0].location.column) == (1, 1)
        assert (tokens[1].location.line, tokens[1].location.column) == (2, 3)

    def test_filename_in_location(self):
        token = tokenize("x", filename="prog.icc")[0]
        assert token.location.filename == "prog.icc"
        assert "prog.icc" in str(token.location)

    def test_error_carries_location(self):
        with pytest.raises(LexError) as info:
            tokenize("\n\n  $")
        assert info.value.location.line == 3
