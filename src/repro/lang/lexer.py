"""Hand-written lexer for mini-ICC++.

The lexer is a straightforward single-pass scanner producing a list of
:class:`~repro.lang.tokens.Token`.  Both ``//`` line comments and
``/* ... */`` block comments are supported; block comments do not nest
(matching C/C++).
"""

from __future__ import annotations

from .errors import LexError, SourceLocation
from .tokens import KEYWORDS, Token, TokenKind

_SIMPLE_PUNCT: dict[str, TokenKind] = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    ".": TokenKind.DOT,
    ":": TokenKind.COLON,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "%": TokenKind.PERCENT,
}

_ESCAPES: dict[str, str] = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    '"': '"',
    "\\": "\\",
    "0": "\0",
}


class Lexer:
    """Tokenizes one source string."""

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self._source = source
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._col = 1

    def tokenize(self) -> list[Token]:
        """Scan the entire input, returning tokens terminated by EOF."""
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # ------------------------------------------------------------------
    # Scanning helpers.

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._col, self._filename)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._source):
            return ""
        return self._source[index]

    def _advance(self) -> str:
        ch = self._source[self._pos]
        self._pos += 1
        if ch == "\n":
            self._line += 1
            self._col = 1
        else:
            self._col += 1
        return ch

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments."""
        while self._pos < len(self._source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance()
                self._advance()
                while True:
                    if self._pos >= len(self._source):
                        raise LexError("unterminated block comment", start)
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance()
                        self._advance()
                        break
                    self._advance()
            else:
                return

    # ------------------------------------------------------------------
    # Token producers.

    def _next_token(self) -> Token:
        self._skip_trivia()
        loc = self._location()
        if self._pos >= len(self._source):
            return Token(TokenKind.EOF, "", loc)

        ch = self._peek()
        if ch.isdecimal():
            return self._lex_number(loc)
        if ch.isalpha() or ch == "_":
            return self._lex_name(loc)
        if ch == '"':
            return self._lex_string(loc)
        return self._lex_punct(loc)

    def _lex_number(self, loc: SourceLocation) -> Token:
        start = self._pos
        while self._peek().isdecimal():
            self._advance()
        is_float = False
        if self._peek() == "." and self._peek(1).isdecimal():
            is_float = True
            self._advance()
            while self._peek().isdecimal():
                self._advance()
        if self._peek() in ("e", "E") and (
            self._peek(1).isdecimal()
            or (self._peek(1) in "+-" and self._peek(2).isdecimal())
        ):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek().isdecimal():
                self._advance()
        text = self._source[start : self._pos]
        if is_float:
            return Token(TokenKind.FLOAT, text, loc, float(text))
        return Token(TokenKind.INT, text, loc, int(text))

    def _lex_name(self, loc: SourceLocation) -> Token:
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._source[start : self._pos]
        kind = KEYWORDS.get(text, TokenKind.NAME)
        value = text if kind is TokenKind.NAME else None
        return Token(kind, text, loc, value)

    def _lex_string(self, loc: SourceLocation) -> Token:
        self._advance()  # opening quote
        parts: list[str] = []
        while True:
            if self._pos >= len(self._source):
                raise LexError("unterminated string literal", loc)
            ch = self._advance()
            if ch == '"':
                break
            if ch == "\n":
                raise LexError("newline in string literal", loc)
            if ch == "\\":
                if self._pos >= len(self._source):
                    raise LexError("unterminated escape sequence", loc)
                escape = self._advance()
                if escape not in _ESCAPES:
                    raise LexError(f"unknown escape sequence '\\{escape}'", loc)
                parts.append(_ESCAPES[escape])
            else:
                parts.append(ch)
        text = "".join(parts)
        return Token(TokenKind.STRING, text, loc, text)

    def _lex_punct(self, loc: SourceLocation) -> Token:
        ch = self._advance()
        nxt = self._peek()
        if ch == "=" and nxt == "=":
            self._advance()
            return Token(TokenKind.EQ, "==", loc)
        if ch == "!" and nxt == "=":
            self._advance()
            return Token(TokenKind.NE, "!=", loc)
        if ch == "<" and nxt == "=":
            self._advance()
            return Token(TokenKind.LE, "<=", loc)
        if ch == ">" and nxt == "=":
            self._advance()
            return Token(TokenKind.GE, ">=", loc)
        if ch == "&" and nxt == "&":
            self._advance()
            return Token(TokenKind.AND, "&&", loc)
        if ch == "|" and nxt == "|":
            self._advance()
            return Token(TokenKind.OR, "||", loc)
        if ch == "=":
            return Token(TokenKind.ASSIGN, "=", loc)
        if ch == "<":
            return Token(TokenKind.LT, "<", loc)
        if ch == ">":
            return Token(TokenKind.GT, ">", loc)
        if ch == "!":
            return Token(TokenKind.NOT, "!", loc)
        if ch == "/":
            return Token(TokenKind.SLASH, "/", loc)
        if ch in _SIMPLE_PUNCT:
            return Token(_SIMPLE_PUNCT[ch], ch, loc)
        raise LexError(f"unexpected character {ch!r}", loc)


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source, filename).tokenize()
