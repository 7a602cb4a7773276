"""Lexer tests."""

import pytest

from repro.errors import ScalaSyntaxError
from repro.scala.lexer import tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def values(source):
    return [t.value for t in tokenize(source)][:-1]


class TestLiterals:
    def test_ints(self):
        assert values("0 42 0x1F") == [0, 42, 31]

    def test_float_suffixes(self):
        tokens = tokenize("1.5f 2.5 3f 4d 7L")[:-1]
        assert [t.kind for t in tokens] \
            == ["FLOAT", "DOUBLE", "FLOAT", "DOUBLE", "LONG"]
        assert [t.value for t in tokens] == [1.5, 2.5, 3.0, 4.0, 7]

    def test_scientific(self):
        assert values("1e3 2.5e-2")[0] == 1000.0

    def test_strings_with_escapes(self):
        assert values('"a\\nb"') == ["a\nb"]

    def test_unterminated_string(self):
        with pytest.raises(ScalaSyntaxError, match="unterminated"):
            tokenize('"abc')

    def test_char_literal(self):
        assert values("'A'") == [ord("A")]

    def test_bools(self):
        assert kinds("true false") == ["BOOL", "BOOL"]


class TestStructure:
    def test_keywords_vs_idents(self):
        assert kinds("def valx while") == ["def", "IDENT", "while"]

    def test_operators_maximal_munch(self):
        source = "a <= b << c <- d"
        ops = [t.text for t in tokenize(source) if t.kind == "OP"]
        assert ops == ["<=", "<<", "<-"]

    def test_comments_skipped(self):
        source = "a // line comment\n /* block\n comment */ b"
        assert [t.text for t in tokenize(source)[:-1]] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(ScalaSyntaxError, match="comment"):
            tokenize("/* never ends")

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(ScalaSyntaxError, match="unexpected"):
            tokenize("a ` b")


def table(source):
    return [(t.kind, t.text, t.value, t.line, t.column)
            for t in tokenize(source)]


class TestTokenTable:
    """Every token kind with its text, value and position."""

    @pytest.mark.parametrize("source, expected", [
        ("foo _x a$b x² café", [
            ("IDENT", "foo", "foo", 1, 1), ("IDENT", "_x", "_x", 1, 5),
            ("IDENT", "a$b", "a$b", 1, 8), ("IDENT", "x²", "x²", 1, 12),
            ("IDENT", "café", "café", 1, 15), ("EOF", "", None, 1, 19)]),
        ("def val var while for if else new class extends until to "
         "return import package override", [
             (kw, kw, kw, 1, col) for kw, col in (
                 ("def", 1), ("val", 5), ("var", 9), ("while", 13),
                 ("for", 19), ("if", 23), ("else", 26), ("new", 31),
                 ("class", 35), ("extends", 41), ("until", 49),
                 ("to", 55), ("return", 58), ("import", 65),
                 ("package", 72), ("override", 80))
         ] + [("EOF", "", None, 1, 88)]),
        ("true false", [("BOOL", "true", True, 1, 1),
                        ("BOOL", "false", False, 1, 6),
                        ("EOF", "", None, 1, 11)]),
        ("0 42 0x1F 0Xff 7L 3l", [
            ("INT", "0", 0, 1, 1), ("INT", "42", 42, 1, 3),
            ("INT", "0x1F", 31, 1, 6), ("INT", "0Xff", 255, 1, 11),
            ("LONG", "7L", 7, 1, 16), ("LONG", "3L", 3, 1, 19),
            ("EOF", "", None, 1, 21)]),
        ("1.5f 3F 2.5e-2f 2.5 1E+3 4d 5D 1e3", [
            ("FLOAT", "1.5f", 1.5, 1, 1), ("FLOAT", "3f", 3.0, 1, 6),
            ("FLOAT", "2.5e-2f", 0.025, 1, 9),
            ("DOUBLE", "2.5", 2.5, 1, 17), ("DOUBLE", "1E+3", 1000.0, 1, 21),
            ("DOUBLE", "4d", 4.0, 1, 26), ("DOUBLE", "5d", 5.0, 1, 29),
            ("DOUBLE", "1e3", 1000.0, 1, 32), ("EOF", "", None, 1, 35)]),
        ('"" "ab" "a\\"b\\\'c\\0\\t\\n\\\\"', [
            ("STRING", "", "", 1, 1), ("STRING", "ab", "ab", 1, 4),
            ("STRING", "a\"b'c\0\t\n\\", "a\"b'c\0\t\n\\", 1, 9),
            ("EOF", "", None, 1, 26)]),
        ("'A' '\\n' '\\'' '\\\\' '\\0' '\\t' '''", [
            ("CHAR", "A", 65, 1, 1), ("CHAR", "\n", 10, 1, 5),
            ("CHAR", "'", 39, 1, 10), ("CHAR", "\\", 92, 1, 15),
            ("CHAR", "\0", 0, 1, 20), ("CHAR", "\t", 9, 1, 25),
            ("CHAR", "'", 39, 1, 30), ("EOF", "", None, 1, 33)]),
        ("()[]{},:;.", [
            (kind, ch, ch, 1, col) for col, (ch, kind) in enumerate(zip(
                "()[]{},:;.",
                ["LPAREN", "RPAREN", "LBRACKET", "RBRACKET", "LBRACE",
                 "RBRACE", "COMMA", "COLON", "SEMI", "DOT"]), start=1)
        ] + [("EOF", "", None, 1, 11)]),
        ("<- => == != <= >= && || << >>> >> + - * / % < > = ! & | ^ ~", [
            ("OP", op, op, 1, col) for op, col in (
                ("<-", 1), ("=>", 4), ("==", 7), ("!=", 10), ("<=", 13),
                (">=", 16), ("&&", 19), ("||", 22), ("<<", 25),
                (">>>", 28), (">>", 32), ("+", 35), ("-", 37), ("*", 39),
                ("/", 41), ("%", 43), ("<", 45), (">", 47), ("=", 49),
                ("!", 51), ("&", 53), ("|", 55), ("^", 57), ("~", 59))
        ] + [("EOF", "", None, 1, 60)]),
        ("", [("EOF", "", None, 1, 1)]),
    ])
    def test_kinds_values_positions(self, source, expected):
        assert table(source) == expected

    @pytest.mark.parametrize("source, expected", [
        # A multi-line block comment moves the line and resets the column.
        ("/* a\nbc */ x\n  y", [("IDENT", "x", "x", 2, 7),
                               ("IDENT", "y", "y", 3, 3),
                               ("EOF", "", None, 3, 4)]),
        ("a // c /* d\n\tb", [("IDENT", "a", "a", 1, 1),
                             ("IDENT", "b", "b", 2, 2),
                             ("EOF", "", None, 2, 3)]),
        ("a\r\nb", [("IDENT", "a", "a", 1, 1), ("IDENT", "b", "b", 2, 1),
                    ("EOF", "", None, 2, 2)]),
        ("/**/x/*/ */y", [("IDENT", "x", "x", 1, 5),
                          ("IDENT", "y", "y", 1, 12),
                          ("EOF", "", None, 1, 13)]),
        # A raw newline inside a char literal counts as a line break.
        ("'\n' x", [("CHAR", "\n", 10, 1, 1), ("IDENT", "x", "x", 2, 3),
                    ("EOF", "", None, 2, 4)]),
    ])
    def test_positions_across_lines(self, source, expected):
        assert table(source) == expected

    @pytest.mark.parametrize("source, expected", [
        (">>>= >> >=", [("OP", ">>>"), ("OP", "="), ("OP", ">>"),
                        ("OP", ">=")]),
        ("a<<-b", [("IDENT", "a"), ("OP", "<<"), ("OP", "-"),
                   ("IDENT", "b")]),
        ("x<-y", [("IDENT", "x"), ("OP", "<-"), ("IDENT", "y")]),
        ("1.f", [("INT", "1"), ("DOT", "."), ("IDENT", "f")]),
        ("1e", [("INT", "1"), ("IDENT", "e")]),
        ("1e+x", [("INT", "1"), ("IDENT", "e"), ("OP", "+"),
                  ("IDENT", "x")]),
        ("0x1L", [("INT", "0x1"), ("IDENT", "L")]),
        ("0x1.5", [("INT", "0x1"), ("DOT", "."), ("INT", "5")]),
        ("00x1", [("INT", "00"), ("IDENT", "x1")]),
        ("1_000", [("INT", "1"), ("IDENT", "_000")]),
        ("valx val_ true1", [("IDENT", "valx"), ("IDENT", "val_"),
                             ("IDENT", "true1")]),
        ("a.b(0)", [("IDENT", "a"), ("DOT", "."), ("IDENT", "b"),
                    ("LPAREN", "("), ("INT", "0"), ("RPAREN", ")")]),
    ])
    def test_maximal_munch(self, source, expected):
        assert [(t.kind, t.text) for t in tokenize(source)[:-1]] == expected


class TestLexerErrors:
    """Every lexer error with its exact message and position."""

    @pytest.mark.parametrize("source, message, line, column", [
        ('"abc', "unterminated string literal", 1, 5),
        ('"ab\nc"', "unterminated string literal", 1, 4),
        ('x\n  "a\\q"', "bad escape \\q", 2, 6),
        ('"a\\', "bad escape \\", 1, 4),
        ("'ab'", "unterminated char literal", 1, 3),
        ("'", "unterminated char literal", 1, 3),
        ("''", "unterminated char literal", 1, 3),
        ("'\\q'", "bad escape \\q", 1, 3),
        ("'\\\"'", "bad escape \\\"", 1, 3),
        ("/* x", "unterminated block comment", 1, 5),
        ("a /* x\ny", "unterminated block comment", 2, 2),
        ("1.5L", "long suffix on a fractional literal", 1, 4),
        ("1e5L", "long suffix on a fractional literal", 1, 4),
        ("@", "unexpected character '@'", 1, 1),
        ("a ` b", "unexpected character '`'", 1, 3),
        ("$a", "unexpected character '$'", 1, 1),
        ("a\n #", "unexpected character '#'", 2, 2),
        ("\\", "unexpected character '\\\\'", 1, 1),
        ("\fa", "unexpected character '\\x0c'", 1, 1),
    ])
    def test_message_and_position(self, source, message, line, column):
        with pytest.raises(ScalaSyntaxError) as info:
            tokenize(source)
        assert (str(info.value), info.value.line, info.value.column) == (
            f"{message} at line {line}, column {column}", line, column)


class TestMalformedLiterals:
    """Malformed numerals are syntax errors at the literal, never a bare
    ``ValueError`` from ``int()``; numerals are ASCII digits only."""

    @pytest.mark.parametrize("source, message, line, column", [
        ("0x", "hex literal '0x' has no digits", 1, 1),
        ("a +\n  0xG", "hex literal '0x' has no digits", 2, 3),
        ("0X;", "hex literal '0X' has no digits", 1, 1),
        ("²", "unexpected character '²'", 1, 1),
        ("1²", "unexpected character '²'", 1, 2),
        ("x = ٣", "unexpected character '٣'", 1, 5),
        ("1.٣", "unexpected character '٣'", 1, 3),
        ("½", "unexpected character '½'", 1, 1),
    ])
    def test_raises_syntax_error(self, source, message, line, column):
        with pytest.raises(ScalaSyntaxError) as info:
            tokenize(source)
        assert (str(info.value), info.value.line, info.value.column) == (
            f"{message} at line {line}, column {column}", line, column)

    def test_identifiers_keep_unicode_letters_and_digits(self):
        assert table("café x² y٣") == [
            ("IDENT", "café", "café", 1, 1), ("IDENT", "x²", "x²", 1, 6),
            ("IDENT", "y٣", "y٣", 1, 9), ("EOF", "", None, 1, 11)]
