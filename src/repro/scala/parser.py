"""Recursive-descent parser for the mini-Scala subset; binary operators
are parsed by precedence climbing over one operator -> level table."""

from __future__ import annotations

from ..errors import ScalaSyntaxError, UnsupportedConstructError
from . import sast, types
from .lexer import Token, tokenize

#: Binary operator precedence levels, low to high.
_PRECEDENCE = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>", ">>>"],
    ["+", "-"],
    ["*", "/", "%"],
]
_LEVEL = {op: level for level, ops in enumerate(_PRECEDENCE) for op in ops}

_LITERAL_TYPES = {"INT": types.INT, "LONG": types.LONG, "FLOAT": types.FLOAT,
                  "DOUBLE": types.DOUBLE, "STRING": types.STRING,
                  "CHAR": types.CHAR, "BOOL": types.BOOLEAN}


class Parser:
    """Parses a token stream into a :class:`~repro.scala.sast.Program`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -------------------------------------------------

    def peek(self) -> Token:
        # ``advance`` never moves past the closing EOF token.
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def at(self, kind: str, text: str | None = None) -> bool:
        token = self.tokens[self.pos]
        return token.kind == kind and (text is None or token.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.peek()
        if not self.at(kind, text):
            wanted = text or kind
            raise ScalaSyntaxError(
                f"expected {wanted!r} but found {token.text!r}",
                token.line, token.column)
        return self.advance()

    def accept(self, kind: str, text: str | None = None) -> bool:
        if self.at(kind, text):
            self.advance()
            return True
        return False

    def _pos(self) -> tuple[int, int]:
        token = self.peek()
        return (token.line, token.column)

    # -- types ----------------------------------------------------------

    def parse_type(self) -> types.Type:
        if self.accept("LPAREN"):
            elems = [self.parse_type()]
            while self.accept("COMMA"):
                elems.append(self.parse_type())
            self.expect("RPAREN")
            if len(elems) == 1:
                return elems[0]
            return types.TupleType(tuple(elems))
        name = self.expect("IDENT").text
        if name == "Array":
            self.expect("LBRACKET")
            elem = self.parse_type()
            self.expect("RBRACKET")
            return types.ArrayType(elem)
        if name == "String":
            return types.STRING
        if types.is_primitive_name(name):
            return types.primitive(name)
        if self.at("LBRACKET"):
            # Generic class other than Array — consume args, keep the name.
            self.expect("LBRACKET")
            args = [self.parse_type()]
            while self.accept("COMMA"):
                args.append(self.parse_type())
            self.expect("RBRACKET")
            return types.ClassType(name)
        return types.ClassType(name)

    # -- program ---------------------------------------------------------

    def parse_program(self) -> sast.Program:
        program = sast.Program(pos=(1, 1))
        while not self.at("EOF"):
            if self.at("import") or self.at("package"):
                # Skip to end of line: consume tokens on the same line.
                line = self.peek().line
                while not self.at("EOF") and self.peek().line == line:
                    self.advance()
                continue
            if self.at("class"):
                program.classes.append(self.parse_class())
            elif self.at("def") or self.at("override"):
                program.functions.append(self.parse_func())
            else:
                token = self.peek()
                raise ScalaSyntaxError(
                    f"expected class or def at top level, found "
                    f"{token.text!r}", token.line, token.column)
        return program

    def parse_class(self) -> sast.ClassDef:
        pos = self._pos()
        self.expect("class")
        name = self.expect("IDENT").text
        record_fields: list[sast.Param] = []
        if self.accept("LPAREN"):
            # Constructor parameters make this a record class (the
            # "S2FA class template" for custom composite types).
            while not self.at("RPAREN"):
                fpos = self._pos()
                fname = self.expect("IDENT").text
                self.expect("COLON")
                ftype = self.parse_type()
                record_fields.append(
                    sast.Param(name=fname, declared=ftype, pos=fpos))
                if not self.at("RPAREN"):
                    self.expect("COMMA")
            self.expect("RPAREN")
        parent = None
        type_args: list[types.Type] = []
        if self.accept("extends"):
            parent = self.expect("IDENT").text
            if self.accept("LBRACKET"):
                type_args.append(self.parse_type())
                while self.accept("COMMA"):
                    type_args.append(self.parse_type())
                self.expect("RBRACKET")
        fields: list[sast.FieldDef] = []
        methods: list[sast.FuncDef] = []
        if record_fields and not self.at("LBRACE"):
            # Record classes may omit the body entirely.
            return sast.ClassDef(
                name=name, parent=parent, type_args=type_args,
                fields=fields, methods=methods,
                record_fields=record_fields, pos=pos)
        self.expect("LBRACE")
        while not self.at("RBRACE"):
            if self.at("def") or self.at("override"):
                methods.append(self.parse_func())
            elif self.at("val") or self.at("var"):
                fields.append(self.parse_field())
            else:
                token = self.peek()
                raise ScalaSyntaxError(
                    f"expected class member, found {token.text!r}",
                    token.line, token.column)
            self.accept("SEMI")
        self.expect("RBRACE")
        return sast.ClassDef(
            name=name, parent=parent, type_args=type_args,
            fields=fields, methods=methods,
            record_fields=record_fields, pos=pos)

    def parse_field(self) -> sast.FieldDef:
        pos = self._pos()
        if not (self.accept("val") or self.accept("var")):
            raise ScalaSyntaxError("expected val/var", *pos)
        name = self.expect("IDENT").text
        declared = self.parse_type() if self.accept("COLON") else None
        self.expect("OP", "=")
        init = self.parse_expr()
        return sast.FieldDef(name=name, declared=declared, init=init, pos=pos)

    def parse_func(self) -> sast.FuncDef:
        pos = self._pos()
        self.accept("override")
        self.expect("def")
        name = self.expect("IDENT").text
        self.expect("LPAREN")
        params: list[sast.Param] = []
        while not self.at("RPAREN"):
            ppos = self._pos()
            pname = self.expect("IDENT").text
            self.expect("COLON")
            ptype = self.parse_type()
            params.append(sast.Param(name=pname, declared=ptype, pos=ppos))
            if not self.at("RPAREN"):
                self.expect("COMMA")
        self.expect("RPAREN")
        ret = self.parse_type() if self.accept("COLON") else None
        self.expect("OP", "=")
        body = self.parse_expr()
        return sast.FuncDef(name=name, params=params, ret=ret, body=body,
                            pos=pos)

    # -- statements -------------------------------------------------------

    def parse_block(self) -> sast.BlockExpr:
        pos = self._pos()
        self.expect("LBRACE")
        stmts: list[sast.Node] = []
        while not self.at("RBRACE"):
            stmts.append(self.parse_statement())
            self.accept("SEMI")
        self.expect("RBRACE")
        return sast.BlockExpr(stmts=stmts, pos=pos)

    def parse_statement(self) -> sast.Node:
        pos = self._pos()
        if self.at("val") or self.at("var"):
            mutable = self.peek().kind == "var"
            self.advance()
            name = self.expect("IDENT").text
            declared = self.parse_type() if self.accept("COLON") else None
            self.expect("OP", "=")
            init = self.parse_expr()
            return sast.ValDef(name=name, declared=declared, init=init,
                               mutable=mutable, pos=pos)
        if self.at("while"):
            self.advance()
            self.expect("LPAREN")
            cond = self.parse_expr()
            self.expect("RPAREN")
            body = self.parse_expr()
            return sast.WhileStmt(cond=cond, body=body, pos=pos)
        if self.at("for"):
            return self.parse_for()
        if self.at("return"):
            token = self.peek()
            raise UnsupportedConstructError(
                f"explicit 'return' at line {token.line} is not supported; "
                f"make the result the last expression of the block")
        expr = self.parse_expr()
        if self.at("OP", "="):
            self.advance()
            rhs = self.parse_expr()
            if not isinstance(expr, (sast.Ident, sast.Apply, sast.Select)):
                raise ScalaSyntaxError("invalid assignment target", *pos)
            return sast.AssignStmt(lhs=expr, rhs=rhs, pos=pos)
        return expr

    def parse_for(self) -> sast.ForRange:
        pos = self._pos()
        self.expect("for")
        self.expect("LPAREN")
        var = self.expect("IDENT").text
        self.expect("OP", "<-")
        start = self.parse_expr()
        if self.accept("until"):
            inclusive = False
        elif self.accept("to"):
            inclusive = True
        else:
            token = self.peek()
            raise ScalaSyntaxError(
                f"expected 'until' or 'to' in for-range, found "
                f"{token.text!r}", token.line, token.column)
        bound = self.parse_expr()
        self.expect("RPAREN")
        body = self.parse_expr()
        return sast.ForRange(var=var, start=start, bound=bound,
                             inclusive=inclusive, body=body, pos=pos)

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> sast.Node:
        return self._parse_binary(0)

    def _parse_binary(self, min_level: int) -> sast.Node:
        """Precedence climbing: operators at ``min_level`` or above."""
        lhs = self.parse_unary()
        while True:
            token = self.tokens[self.pos]
            level = _LEVEL.get(token.text, -1) if token.kind == "OP" else -1
            if level < min_level:
                return lhs
            self.pos += 1
            rhs = self._parse_binary(level + 1)
            lhs = sast.BinOp(op=token.text, lhs=lhs, rhs=rhs,
                             pos=(token.line, token.column))

    def parse_unary(self) -> sast.Node:
        if self.at("OP") and self.peek().text in ("-", "!", "~"):
            pos = self._pos()
            op = self.advance().text
            operand = self.parse_unary()
            return sast.UnOp(op=op, operand=operand, pos=pos)
        return self.parse_postfix()

    def parse_postfix(self) -> sast.Node:
        expr = self.parse_primary()
        while True:
            if self.at("DOT"):
                pos = self._pos()
                self.advance()
                name = self.expect("IDENT").text
                if (isinstance(expr, sast.Ident) and expr.name == "math"
                        and self.at("LPAREN")):
                    args = self._parse_args()
                    expr = sast.MathCall(func=name, args=args, pos=pos)
                else:
                    expr = sast.Select(obj=expr, name=name, pos=pos)
            elif self.at("LPAREN") and isinstance(
                    expr, (sast.Ident, sast.Select, sast.Apply,
                           sast.ArrayLit)):
                # Only names and selections are callable/indexable; a block
                # or literal followed by `(` starts a new expression (this
                # stands in for Scala's newline-based inference).
                pos = self._pos()
                args = self._parse_args()
                expr = sast.Apply(fn=expr, args=args, pos=pos)
            else:
                return expr

    def _parse_args(self) -> list[sast.Node]:
        self.expect("LPAREN")
        args: list[sast.Node] = []
        while not self.at("RPAREN"):
            args.append(self.parse_expr())
            if not self.at("RPAREN"):
                self.expect("COMMA")
        self.expect("RPAREN")
        return args

    def parse_primary(self) -> sast.Node:
        pos = self._pos()
        token = self.peek()
        if token.kind in _LITERAL_TYPES:
            self.advance()
            lit = sast.Lit(value=token.value, pos=pos)
            lit.tpe = _LITERAL_TYPES[token.kind]
            return lit
        if self.at("if"):
            self.advance()
            self.expect("LPAREN")
            cond = self.parse_expr()
            self.expect("RPAREN")
            then = self.parse_expr()
            orelse = self.parse_expr() if self.accept("else") else None
            return sast.IfExpr(cond=cond, then=then, orelse=orelse, pos=pos)
        if self.at("LBRACE"):
            return self.parse_block()
        if self.at("new"):
            self.advance()
            name = self.expect("IDENT").text
            if name != "Array":
                # Record-class construction: new Point(a, b).  The typer
                # validates that the class is a known record.
                args = self._parse_args()
                return sast.NewObject(class_name=name, args=args, pos=pos)
            self.expect("LBRACKET")
            elem = self.parse_type()
            self.expect("RBRACKET")
            self.expect("LPAREN")
            size = self.parse_expr()
            self.expect("RPAREN")
            return sast.NewArray(elem_type=elem, size=size, pos=pos)
        if self.at("LPAREN"):
            self.advance()
            first = self.parse_expr()
            if self.accept("COMMA"):
                elems = [first, self.parse_expr()]
                while self.accept("COMMA"):
                    elems.append(self.parse_expr())
                self.expect("RPAREN")
                return sast.TupleExpr(elems=elems, pos=pos)
            self.expect("RPAREN")
            return first
        if self.at("IDENT"):
            name = self.advance().text
            if name == "Array" and self.at("LPAREN"):
                args = self._parse_args()
                return sast.ArrayLit(elems=args, pos=pos)
            return sast.Ident(name=name, pos=pos)
        raise ScalaSyntaxError(
            f"unexpected token {token.text!r} in expression",
            token.line, token.column)


def parse(source: str) -> sast.Program:
    """Parse mini-Scala source text into a program AST."""
    return Parser(tokenize(source)).parse_program()
