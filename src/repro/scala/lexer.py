"""Tokenizer for the mini-Scala subset: one compiled master regex."""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ScalaSyntaxError

KEYWORDS = frozenset({
    "def", "val", "var", "while", "for", "if", "else", "new", "class",
    "extends", "true", "false", "until", "to", "return", "import",
    "package", "override",
})

_PUNCT = {"(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
          "[": "LBRACKET", "]": "RBRACKET", ",": "COMMA", ":": "COLON",
          ";": "SEMI", ".": "DOT"}

_STRING_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "'": "'",
                   "0": "\0"}
_CHAR_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", "0": "\0"}

#: One alternative per token class, tried in order at each position.
#: Numbers are ASCII digits only (as in scalac); ``\w`` is exactly
#: ``str.isalnum()`` plus ``_``.  Operators are listed longest first so
#: maximal munch works, and an unclosed ``/*`` is not an operator.
_TOKEN_RE = re.compile(r"""
    (?P<space>[ \t\r]+)
  | (?P<newline>\n[ \t\r]*)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<ident>[^\W\d][\w$]*)
  | (?P<punct>[()\[\]{},:;.])
  | (?P<op>(?!/\*)(?:<-|=>|==|!=|<=|>=|&&|\|\||<<|>>>|>>|[-+*/%<>=!&|^~]))
  | (?P<hex>0[xX][0-9a-fA-F]*)
  | (?P<num>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?[fFdDlL]?)
  | (?P<string>"(?:[^"\\\n]|\\[nt\\"'0])*")
  | (?P<char>'(?:[^\\]|\\[nt\\'0])')
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)
_STRING_ESCAPE_RE = re.compile(r"\\(.)")


class Token(NamedTuple):
    kind: str       # IDENT, INT, FLOAT, DOUBLE, STRING, CHAR, OP, kw, punct
    text: str
    value: object
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


#: Builds a token without the Python-level ``Token.__new__`` call.
_token = tuple.__new__


def _error(source: str, pos: int, message: str) -> ScalaSyntaxError:
    line_start = source.rfind("\n", 0, pos) + 1
    return ScalaSyntaxError(message, source.count("\n", 0, pos) + 1,
                            pos - line_start + 1)


def _literal_error(source: str, pos: int) -> ScalaSyntaxError:
    """The error for a malformed string/char literal starting at ``pos``
    (scanned again character by character: only errors come here)."""
    quote = source[pos]
    escapes = _STRING_ESCAPES if quote == '"' else _CHAR_ESCAPES
    pos += 1
    while True:
        ch = source[pos:pos + 1]
        if ch == "\\":
            pos += 1
            escape = source[pos:pos + 1]
            if escape not in escapes:
                return _error(source, pos, f"bad escape \\{escape}")
        elif quote == '"' and ch in ("", "\n"):
            return _error(source, pos, "unterminated string literal")
        pos += 1
        if quote == "'":
            return _error(source, pos, "unterminated char literal")


def tokenize(source: str) -> list[Token]:
    """Tokenize the whole source; the list always ends with ``EOF``."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        if group == "space":
            continue
        start = match.start()
        if group == "newline":
            line, line_start = line + 1, start + 1
            continue
        text = match.group()
        if group == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        column = start - line_start + 1
        if group == "ident":
            if text in KEYWORDS:
                if text == "true" or text == "false":
                    append(_token(Token, ("BOOL", text, text == "true",
                                          line, column)))
                else:
                    append(_token(Token, (text, text, text, line, column)))
            elif text[0] == "_" or text[0].isalpha():
                append(_token(Token, ("IDENT", text, text, line, column)))
            else:       # '²' is a \w but starts no token
                raise _error(source, start,
                             f"unexpected character {text[0]!r}")
        elif group == "punct":
            append(_token(Token, (_PUNCT[text], text, text, line, column)))
        elif group == "op":
            append(_token(Token, ("OP", text, text, line, column)))
        elif group == "num":
            suffix = text[-1]
            digits = text[:-1] if suffix in "fFdDlL" else text
            fractional = "." in digits or "e" in digits or "E" in digits
            if suffix in "fF":
                token = ("FLOAT", digits + "f", float(digits))
            elif suffix in "dD":
                token = ("DOUBLE", digits + "d", float(digits))
            elif suffix in "lL":
                if fractional:
                    raise _error(source, match.end() - 1,
                                 "long suffix on a fractional literal")
                token = ("LONG", digits + "L", int(digits))
            elif fractional:
                token = ("DOUBLE", text, float(text))
            else:
                token = ("INT", text, int(text))
            append(_token(Token, token + (line, column)))
        elif group == "hex":
            if len(text) == 2:
                raise _error(source, start,
                             f"hex literal {text!r} has no digits")
            append(_token(Token, ("INT", text, int(text, 16), line, column)))
        elif group == "string":
            body = text[1:-1]
            if "\\" in body:
                body = _STRING_ESCAPE_RE.sub(
                    lambda m: _STRING_ESCAPES[m.group(1)], body)
            append(_token(Token, ("STRING", body, body, line, column)))
        elif group == "char":
            body = text[1:-1]
            char = _CHAR_ESCAPES[body[1]] if len(body) == 2 else body
            append(_token(Token, ("CHAR", char, ord(char), line, column)))
            if char == "\n" and len(body) == 1:     # a raw line break
                line, line_start = line + 1, match.end() - 1
        elif text in "\"'":
            raise _literal_error(source, start)
        elif source.startswith("/*", start):
            raise _error(source, len(source), "unterminated block comment")
        else:
            raise _error(source, start, f"unexpected character {text!r}")
    append(_token(Token, ("EOF", "", None, line,
                          len(source) - line_start + 1)))
    return tokens
