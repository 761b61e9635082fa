"""Parser and printer: schemas, constraints, queries, error positions."""

import ast
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import holds, reference_tokenize
from raqdp.constraints import Cmp, DomainKind, format_constraint
from raqdp.errors import ParseError, SchemaError
from raqdp.parsing import (
    format_query,
    parse_constraint,
    parse_query,
    parse_schemas,
    tokenize,
)
from raqdp.query import (
    AggFn,
    GroupAggregate,
    Id,
    ProductAgg,
    ProductN,
    ProductOne,
    Projection,
    Restriction,
    Union,
)


# ---------------------------------------------------------------------------
# Schemas


def test_schema_declaration_full():
    text = """
    # people and what they weigh
    relation People {
      Name: string in {"Ann", "Bob"};
      Weight: int [0, 150];
      Score: real [-1, 1];
      Grade: num in {1, 3/2, 2}
    } check { Weight <= 120 or Name in {"Ann"} }
    """
    schemas = parse_schemas(text)
    s = schemas["People"]
    assert s.attr_names() == ("Name", "Weight", "Score", "Grade")
    assert s.domain("Name").kind is DomainKind.STR_SET
    assert s.domain("Weight").kind is DomainKind.INT_RANGE
    assert s.domain("Score").kind is DomainKind.REAL_RANGE
    assert s.domain("Grade").members == (Fraction(1), Fraction(3, 2), Fraction(2))


def test_schema_real_unbounded():
    s = parse_schemas("relation R { x: real [-inf, inf] }")["R"]
    lo, hi = s.domain("x").interval()
    assert float(lo) == float("-inf") and float(hi) == float("inf")


@pytest.mark.parametrize("bounds", ["inf, inf", "-inf, -inf", "inf, -inf", "inf, 3", "3, -inf"])
def test_schema_real_range_without_a_real_number_rejected(bounds):
    with pytest.raises(ParseError, match="real range"):
        parse_schemas(f"relation R {{ x: real [{bounds}] }}")


def test_schema_duplicate_relation_rejected():
    with pytest.raises(ParseError):
        parse_schemas("relation R { a: int [0, 1] } relation R { a: int [0, 1] }")


def test_schema_check_must_reference_declared_attrs():
    with pytest.raises((ParseError, SchemaError)):
        parse_schemas("relation R { a: int [0, 1] } check { zz > 0 }")


def test_schema_int_range_needs_integer_endpoints():
    with pytest.raises((ParseError, SchemaError)):
        parse_schemas("relation R { a: int [0, 3/2] }")


def test_parse_error_carries_position():
    try:
        parse_constraint("a <= ")
    except ParseError as e:
        assert e.line == 1 and e.col >= 5
    else:
        pytest.fail("expected a parse error")


def test_number_past_the_digit_limit_is_a_parse_error_at_its_position():
    limit = sys.get_int_max_str_digits()
    digits = "1" + "0" * limit
    cases = [
        (parse_schemas, f"relation R {{\n  x: real [0, {digits}]\n}}", (2, 15)),
        (parse_query, f"count of\n  select x <= {digits}.5 from R", (2, 15)),
    ]
    for parse, text, (line, col) in cases:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert str(exc.value) == f"number has more than {limit} digits (line {line}, col {col})"


# ---------------------------------------------------------------------------
# Constraints


def test_rational_and_negative_literals():
    c = parse_constraint("a >= -3/2")
    assert isinstance(c, Cmp)
    assert c.right.value == Fraction(-3, 2)


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_constraint("a = 1/0")


def test_not_equal_folds_to_complement():
    c = parse_constraint("a != 2")
    # prints as a negated equality and parses back to the same meaning
    text = format_constraint(c)
    assert text == "not (a = 2)"
    again = parse_constraint(text)
    for v in (1, 2, 3):
        env = {"a": Fraction(v)}
        assert holds(c, env) == holds(again, env) == (v != 2)


def test_membership_and_negation():
    c = parse_constraint('Name in {"x", "y"}')
    assert holds(c, {"Name": "x"}) and not holds(c, {"Name": "z"})
    n = parse_constraint('not (Name in {"x"})')
    assert holds(n, {"Name": "z"})


def test_not_in_is_negated_membership():
    c = parse_constraint('Name not in {"x", "y"}')
    assert c == parse_constraint('not (Name in {"x", "y"})')
    assert format_constraint(c) == 'not (Name in {"x", "y"})'
    assert holds(c, {"Name": "z"}) and not holds(c, {"Name": "x"})
    assert parse_constraint("a + 1 not in {2, 3}") == parse_constraint("not (a + 1 in {2, 3})")
    with pytest.raises(ParseError):
        parse_constraint("a not = 1")


def test_iff_and_precedence():
    c = parse_constraint("a <= 1 or b <= 1 and a >= 0 iff b >= 0")
    # iff binds loosest, and tighter than or
    for a in range(-1, 3):
        for b in range(-1, 3):
            env = {"a": Fraction(a), "b": Fraction(b)}
            want = ((a <= 1) or ((b <= 1) and (a >= 0))) == (b >= 0)
            assert holds(c, env) == want


def test_arithmetic_terms():
    # division is not an operator; rational scalars come in as p/q literals
    c = parse_constraint("2 * a + b - 1 <= 1/2 * a + 3")
    for a in range(0, 4):
        for b in range(0, 4):
            env = {"a": Fraction(a), "b": Fraction(b)}
            assert holds(c, env) == (2 * a + b - 1 <= Fraction(a, 2) + 3)


def test_aggregate_names_usable_as_attributes():
    # count/sum/... are contextual keywords, legal as attribute names
    c = parse_constraint("count >= 0 and sum <= 10")
    assert holds(c, {"count": Fraction(1), "sum": Fraction(5)})
    s = parse_schemas("relation G { count: int [0, 5]; avg: real [0, 1] }")["G"]
    assert s.attr_names() == ("count", "avg")


def test_parenthesized_arithmetic_vs_grouping():
    c = parse_constraint("(a + 1) * 2 <= 6 and (a <= 1 or a >= 3)")
    assert holds(c, {"a": Fraction(1)})
    assert not holds(c, {"a": Fraction(2)})


# ---------------------------------------------------------------------------
# Queries


def test_query_worked_example_shape():
    tq = parse_query("avg(Weight) of select Weight <= Height - 100 from People")
    assert tq.fn == AggFn("avg", "Weight")
    assert isinstance(tq.body, Restriction)
    assert tq.body.source == Id("People")


def test_query_operators_parse():
    tq = parse_query("count of (A union B) intersect (A minus B)")
    body = tq.body
    assert isinstance(body, type(body))
    assert format_query(tq) == "count of (A union B) intersect (A minus B)"


def test_query_products():
    tq = parse_query("count of A product1 B")
    assert isinstance(tq.body, ProductOne)
    tq = parse_query("count of A productn 3 B")
    assert isinstance(tq.body, ProductN) and tq.body.n == 3
    tq = parse_query("count of A productagg sum(x) B")
    assert isinstance(tq.body, ProductAgg) and tq.body.fn == AggFn("sum", "x")


def test_query_productn_needs_positive_count():
    with pytest.raises(ParseError):
        parse_query("count of A productn 0 B")
    with pytest.raises(ParseError):
        parse_query("count of A productn B C")


def test_query_group_aggregate():
    tq = parse_query("max(avg_Height) of group Car agg count, avg(Height) from Cars")
    g = tq.body
    assert isinstance(g, GroupAggregate)
    assert g.group_attrs == ("Car",)
    assert g.fns == (AggFn("count"), AggFn("avg", "Height"))


def test_query_projection_and_nesting():
    tq = parse_query("count of project Name, Age from (A union B)")
    assert isinstance(tq.body, Projection)
    assert tq.body.attrs == ("Name", "Age")
    assert isinstance(tq.body.source, Union)


def test_query_left_associativity():
    tq = parse_query("count of A union B union C")
    assert isinstance(tq.body, Union)
    assert isinstance(tq.body.left, Union)
    assert tq.body.right == Id("C")


def test_query_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_query("count of A extra")


def test_count_takes_no_attribute():
    with pytest.raises(ParseError):
        parse_query("count(x) of A")


# ---------------------------------------------------------------------------
# Round trips


QUERIES = [
    "count of People",
    "avg(Weight) of select Weight <= Height - 100 from People",
    "sum(x) of (A union B) minus (C intersect D)",
    "min(x) of A product B",
    "max(v) of A product1 (select x >= 0 from B)",
    "count of A productn 5 B",
    "sum(total) of A productagg sum(x) B",
    "avg(avg_Height) of group Car agg count, avg(Height) from Cars",
    "count of project Name from select Age >= 20 and Height < 180 from People",
    'count of select Name in {"Ann", "Bob"} or not (Age = 3) from People',
]


@pytest.mark.parametrize("text", QUERIES)
def test_query_round_trip(text):
    tq = parse_query(text)
    assert parse_query(format_query(tq)) == tq


@st.composite
def random_plan_text(draw):
    names = st.sampled_from(["A", "B", "C"])
    def plan(depth):
        if depth == 0:
            return draw(names)
        form = draw(st.sampled_from(
            ["leaf", "union", "minus", "intersect", "product", "product1",
             "productn", "select", "project", "group"]
        ))
        if form == "leaf":
            return draw(names)
        if form in ("union", "minus", "intersect", "product", "product1"):
            return f"({plan(depth - 1)}) {form} ({plan(depth - 1)})"
        if form == "productn":
            n = draw(st.integers(min_value=1, max_value=9))
            return f"({plan(depth - 1)}) productn {n} ({plan(depth - 1)})"
        if form == "select":
            atom = draw(st.sampled_from(["x <= 1", "x + y >= 2", 'n in {"a"}']))
            return f"select {atom} from ({plan(depth - 1)})"
        if form == "project":
            return f"project x, y from ({plan(depth - 1)})"
        return f"group x agg count, sum(y) from ({plan(depth - 1)})"
    fn = draw(st.sampled_from(["count", "sum(x)", "avg(y)", "max(x)", "min(y)"]))
    return f"{fn} of {plan(draw(st.integers(min_value=0, max_value=3)))}"


@given(random_plan_text())
@settings(max_examples=150, deadline=None)
def test_random_query_round_trip(text):
    tq = parse_query(text)
    printed = format_query(tq)
    assert parse_query(printed) == tq
    # printing is a fixed point after one round
    assert format_query(parse_query(printed)) == printed


# ---------------------------------------------------------------------------
# Tokenizer against the lexeme-by-lexeme reference

TESTS = os.path.dirname(os.path.abspath(__file__))


def _lexed(tokenize_, text: str):
    """Every token's fields (and its value's type), or the ParseError's
    message, line and column."""
    try:
        tokens = tokenize_(text)
    except ParseError as e:
        return ("error", str(e), e.line, e.col)
    rows = [t if isinstance(t, tuple) else (t.kind, t.text, t.value, t.line, t.col) for t in tokens]
    return [(*row, type(row[2])) for row in rows]


def _readme_blocks() -> list[str]:
    with open(os.path.join(TESTS, os.pardir, "README.md"), encoding="utf-8") as fh:
        return fh.read().split("```")[1::2]


def _test_strings() -> list[str]:
    """Every string literal in the test modules: their schema, constraint and
    query texts among them."""
    out = []
    for name in sorted(os.listdir(TESTS)):
        if name.endswith(".py"):
            with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            out += [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return out


_PIECES = (
    "relation", "R", "check", "count", "of", "select", "from", "a_1", "_x", "in", "not", "iff",
    "0", "42", "007", "3.25", "1.0", "<=", ">=", "!=", "=", "<", ">", "{", "}", "(", ")", "[", "]",
    ",", ";", ":", "+", "-", "*", "/", '"Ann"', '"a\\"b"', '"back\\\\slash"', '"\\q"', '""',
)
_SPACES = (" ", "  ", "\t", "\n", "\r\n", "\n\n", "\n \t\n", "\x0b", "\u00a0", "\u2028")


def _random_text(rng: random.Random, limit: int) -> str:
    """Pieces with whitespace, comments, tabs, CRLF line ends, escaped
    strings, an occasional number past the digit limit, and now and then a
    character no token starts with, mostly late in the text."""
    parts = []
    for i in range(rng.randint(1, 40)):
        r = rng.random()
        if r < 0.004:
            parts.append("9" * (limit + rng.randint(1, 3)) + rng.choice(["", ".5"]))
        elif r < 0.008:
            parts.append("1." + "0" * (limit + 1))
        elif r < 0.07:
            parts.append("# note " + rng.choice(["", "x <= 1", '"q"', "\t#"]) + rng.choice(["\n", "\r\n"]))
        elif r < 0.14 and i > 5:
            parts.append(rng.choice(["$", "@", "!", ".", "é", "\"", "'", "\x00"]))
        else:
            parts.append(rng.choice(_PIECES))
        parts.append(rng.choice(_SPACES) if rng.random() < 0.6 else "")
    return "".join(parts)


def test_tokenize_matches_the_reference_loop():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
    rng = random.Random(1913)
    texts = _readme_blocks() + _test_strings() + [_random_text(rng, limit) for _ in range(600)]
    errors = 0
    for text in texts:
        got = _lexed(tokenize, text)
        assert got == _lexed(reference_tokenize, text), text[:200]
        errors += got[0] == "error"
    assert 0 < errors < len(texts)


def test_unexpected_character_on_a_later_line():
    text = "relation R {\r\n\ta: int [0, 3]  # range\n\n} check { a @ 1 }"
    assert _lexed(tokenize, text) == _lexed(reference_tokenize, text)
    with pytest.raises(ParseError) as e:
        parse_schemas(text)
    assert (str(e.value), e.value.line, e.value.col) == ("unexpected character '@' (line 4, col 13)", 4, 13)
