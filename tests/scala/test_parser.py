"""Parser tests."""

import pytest

from repro.errors import ScalaSyntaxError, UnsupportedConstructError
from repro.scala import parse, sast, types


class TestTypes:
    def test_tuple_type(self):
        program = parse("def f(x: (Int, Float)): Int = 0")
        param = program.functions[0].params[0]
        assert param.declared == types.TupleType((types.INT, types.FLOAT))

    def test_array_type(self):
        program = parse("def f(x: Array[Array[Float]]): Int = 0")
        assert program.functions[0].params[0].declared \
            == types.ArrayType(types.ArrayType(types.FLOAT))

    def test_string_type(self):
        program = parse("def f(s: String): Int = 0")
        assert program.functions[0].params[0].declared == types.STRING


class TestExpressions:
    def _body(self, expr_src):
        program = parse(f"def f(a: Int, b: Int): Int = {expr_src}")
        return program.functions[0].body

    def test_precedence(self):
        body = self._body("a + b * 2")
        assert isinstance(body, sast.BinOp) and body.op == "+"
        assert isinstance(body.rhs, sast.BinOp) and body.rhs.op == "*"

    def test_comparison_precedence(self):
        body = self._body("if (a + 1 < b * 2) 1 else 0")
        assert isinstance(body, sast.IfExpr)
        assert body.cond.op == "<"

    def test_unary(self):
        body = self._body("-a + b")
        assert body.op == "+"
        assert isinstance(body.lhs, sast.UnOp)

    def test_tuple_literal(self):
        body = self._body("(a, b)._1")
        assert isinstance(body, sast.Select)
        assert isinstance(body.obj, sast.TupleExpr)

    def test_parenthesized_not_tuple(self):
        body = self._body("(a + b) * 2")
        assert isinstance(body, sast.BinOp) and body.op == "*"

    def test_math_call(self):
        body = self._body("math.max(a, b)")
        assert isinstance(body, sast.MathCall)
        assert body.func == "max"

    def test_select_chain(self):
        program = parse("def f(t: ((Int, Int), Int)): Int = t._1._2")
        body = program.functions[0].body
        assert isinstance(body, sast.Select) and body.name == "_2"
        assert isinstance(body.obj, sast.Select) and body.obj.name == "_1"

    def test_array_literal(self):
        body = self._body("Array(1, 2, 3)(a)")
        assert isinstance(body, sast.Apply)
        assert isinstance(body.fn, sast.ArrayLit)


class TestStatements:
    def test_val_var(self):
        program = parse(
            "def f(a: Int): Int = { val x = 1; var y: Int = 2; x + y }")
        stmts = program.functions[0].body.stmts
        assert isinstance(stmts[0], sast.ValDef) and not stmts[0].mutable
        assert isinstance(stmts[1], sast.ValDef) and stmts[1].mutable
        assert stmts[1].declared == types.INT

    def test_while(self):
        program = parse(
            "def f(a: Int): Int = { var i = 0\n while (i < a) { i = i + 1 }\n i }")
        loop = program.functions[0].body.stmts[1]
        assert isinstance(loop, sast.WhileStmt)

    def test_for_until_and_to(self):
        program = parse("""
def f(a: Int): Int = {
  var s = 0
  for (i <- 0 until 10) { s = s + i }
  for (j <- 1 to 5) { s = s + j }
  s
}
""")
        stmts = program.functions[0].body.stmts
        assert isinstance(stmts[1], sast.ForRange) and not stmts[1].inclusive
        assert isinstance(stmts[2], sast.ForRange) and stmts[2].inclusive

    def test_array_update(self):
        program = parse(
            "def f(a: Array[Int]): Int = { a(0) = 5; a(0) }")
        stmt = program.functions[0].body.stmts[0]
        assert isinstance(stmt, sast.AssignStmt)
        assert isinstance(stmt.lhs, sast.Apply)

    def test_return_rejected(self):
        with pytest.raises(UnsupportedConstructError, match="return"):
            parse("def f(a: Int): Int = { return a }")

    def test_block_followed_by_tuple_not_application(self):
        program = parse("""
def f(a: Int): (Int, Int) = {
  for (i <- 0 until 3) { a + i }
  (a, a)
}
""")
        last = program.functions[0].body.stmts[-1]
        assert isinstance(last, sast.TupleExpr)


class TestClasses:
    def test_accelerator_class(self):
        program = parse("""
class K extends Accelerator[(String, String), Int] {
  val id: String = "K"
  def call(in: (String, String)): Int = 0
}
""")
        cls = program.classes[0]
        assert cls.parent == "Accelerator"
        assert cls.type_args[0] == types.TupleType((types.STRING,
                                                    types.STRING))
        assert cls.type_args[1] == types.INT
        assert [f.name for f in cls.fields] == ["id"]
        assert [m.name for m in cls.methods] == ["call"]

    def test_new_object_parses_as_record_construction(self):
        program = parse("def f(a: Int): Int = { val x = new Foo(3); a }")
        val = program.functions[0].body.stmts[0]
        assert isinstance(val.init, sast.NewObject)
        assert val.init.class_name == "Foo"

    def test_record_class_declaration(self):
        program = parse("class Point(x: Float, y: Float)")
        cls = program.classes[0]
        assert cls.is_record
        assert [p.name for p in cls.record_fields] == ["x", "y"]
        assert cls.record_fields[0].declared == types.FLOAT

    def test_junk_at_top_level(self):
        with pytest.raises(ScalaSyntaxError):
            parse("42")

    def test_import_lines_skipped(self):
        program = parse("""
import org.apache.spark.SparkContext
def f(a: Int): Int = a
""")
        assert len(program.functions) == 1


#: Binary operators low to high, one representative list per level.
LEVELS = [["||"], ["&&"], ["|"], ["^"], ["&"], ["==", "!="],
          ["<", "<=", ">", ">="], ["<<", ">>", ">>>"], ["+", "-"],
          ["*", "/", "%"]]


def render(node):
    """Fully parenthesized form of an expression AST."""
    if isinstance(node, sast.BinOp):
        return f"({render(node.lhs)} {node.op} {render(node.rhs)})"
    if isinstance(node, sast.UnOp):
        return f"({node.op}{render(node.operand)})"
    if isinstance(node, sast.Ident):
        return node.name
    if isinstance(node, sast.Lit):
        return repr(node.value)
    if isinstance(node, sast.Apply):
        return f"{render(node.fn)}({', '.join(map(render, node.args))})"
    raise AssertionError(f"unexpected node {node!r}")


def body_of(expr_src):
    program = parse(f"def f(a: Int, b: Int, c: Int): Int = {expr_src}")
    return program.functions[0].body


class TestPrecedenceTable:
    @pytest.mark.parametrize("op", [op for ops in LEVELS for op in ops])
    def test_left_associative(self, op):
        assert render(body_of(f"a {op} b {op} c")) \
            == f"((a {op} b) {op} c)"

    @pytest.mark.parametrize("ops", LEVELS)
    def test_same_level_mixes_left_to_right(self, ops):
        first, last = ops[0], ops[-1]
        assert render(body_of(f"a {last} b {first} c")) \
            == f"((a {last} b) {first} c)"

    @pytest.mark.parametrize("low, high", [
        (low, high)
        for i, lows in enumerate(LEVELS) for low in lows
        for highs in LEVELS[i + 1:] for high in highs])
    def test_higher_level_binds_tighter(self, low, high):
        assert render(body_of(f"a {low} b {high} c")) \
            == f"(a {low} (b {high} c))"
        assert render(body_of(f"a {high} b {low} c")) \
            == f"((a {high} b) {low} c)"

    @pytest.mark.parametrize("source, expected", [
        ("-a * b", "((-a) * b)"),
        ("!a && b", "((!a) && b)"),
        ("~a & b", "((~a) & b)"),
        ("- - a", "(-(-a))"),
        ("a - -b", "(a - (-b))"),
        ("!a == !b", "((!a) == (!b))"),
        ("a * (b + c)", "(a * (b + c))"),
        ("a(0) + b * -c || a < b", "((a(0) + (b * (-c))) || (a < b))"),
        ("a + b == c && a | b ^ c & a << 1 >= b",
         "((a + b) == c) && (a | (b ^ (c & ((a << 1) >= b))))"
         .join("()")),
    ])
    def test_unary_and_mixed(self, source, expected):
        assert render(body_of(source)) == expected

    def test_binop_position_is_the_operator(self):
        body = body_of("a +\n  b * c")
        assert body.pos == (1, 40)
        assert body.rhs.pos == (2, 5)
        assert body.lhs.pos == (1, 38) and body.rhs.rhs.pos == (2, 7)

    def test_for_range_bounds_stop_at_until_and_to(self):
        program = parse("""
def f(a: Int): Int = {
  var s = 0
  for (i <- a + 1 until a * 2 + 3) { s = s + i }
  for (j <- -a to a << 1) { s = s + j }
  s
}
""")
        first, second = program.functions[0].body.stmts[1:3]
        assert (render(first.start), render(first.bound)) \
            == ("(a + 1)", "((a * 2) + 3)")
        assert (render(second.start), render(second.bound)) \
            == ("(-a)", "(a << 1)")
