"""Property-based tests for the parser: AST -> text -> AST round trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.expressions import (
    BinaryOp,
    Column,
    Expression,
    Literal,
    UnaryOp,
)
from repro.query.parser import parse_expression, parse_query

_COLUMNS = ("a", "b", "c", "delay", "speed")


@st.composite
def expressions(draw, depth: int = 0) -> Expression:
    if depth >= 4:
        kind = draw(st.sampled_from(["column", "literal"]))
    else:
        kind = draw(
            st.sampled_from(
                ["column", "literal", "binary", "unary", "binary"]
            )
        )
    if kind == "column":
        return Column(draw(st.sampled_from(_COLUMNS)))
    if kind == "literal":
        value = draw(
            st.floats(
                min_value=0.0, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            )
        )
        return Literal(value)
    if kind == "binary":
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return BinaryOp(
            op,
            draw(expressions(depth=depth + 1)),
            draw(expressions(depth=depth + 1)),
        )
    op = draw(st.sampled_from(["sqrtabs", "square", "abs", "neg"]))
    return UnaryOp(op, draw(expressions(depth=depth + 1)))


def render(expr: Expression) -> str:
    """Render an AST to parseable query text."""
    if isinstance(expr, Column):
        return expr.name
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, BinaryOp):
        return f"({render(expr.left)} {expr.op} {render(expr.right)})"
    assert isinstance(expr, UnaryOp)
    if expr.op == "neg":
        return f"(-{render(expr.operand)})"
    keyword = {"sqrtabs": "SQRT", "square": "SQUARE", "abs": "ABS"}[expr.op]
    return f"{keyword}({render(expr.operand)})"


@given(expr=expressions())
@settings(max_examples=300, deadline=None)
def test_expression_round_trip(expr):
    reparsed = parse_expression(render(expr))
    assert reparsed == expr


@given(expr=expressions())
@settings(max_examples=100, deadline=None)
def test_round_trip_preserves_columns(expr):
    reparsed = parse_expression(render(expr))
    assert reparsed.columns() == expr.columns()


@given(
    expr=expressions(),
    threshold=st.floats(min_value=0.01, max_value=0.99),
    constant=st.floats(min_value=-1000, max_value=1000),
)
@settings(max_examples=150, deadline=None)
def test_query_round_trip_with_threshold(expr, threshold, constant):
    text = (
        f"SELECT x FROM s WHERE {render(expr)} > {constant!r} "
        f"PROB {threshold!r}"
    )
    query = parse_query(text)
    assert query.where is not None
    assert query.where.comparison.left == expr
    assert query.where.threshold == threshold


@given(
    exprs=st.lists(expressions(), min_size=1, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_select_list_round_trip(exprs):
    text = "SELECT " + ", ".join(
        f"{render(e)} AS f{i}" for i, e in enumerate(exprs)
    ) + " FROM s"
    query = parse_query(text)
    assert len(query.select_items) == len(exprs)
    for (parsed, alias), (i, original) in zip(
        query.select_items, enumerate(exprs)
    ):
        assert parsed == original
        assert alias == f"f{i}"
