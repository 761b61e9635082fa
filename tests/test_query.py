"""Plan validation and constraint propagation through operators."""

from fractions import Fraction

import pytest

from raqdp.constraints import (
    Attr,
    Bounds,
    Cmp,
    Lit,
    attribute_bounds,
    format_constraint,
    make_and,
    solution_count,
)
from raqdp import query
from raqdp.errors import ValidationError
from raqdp.parsing import parse_query, parse_schemas
from raqdp.query import (
    AggFn,
    GroupAggregate,
    Id,
    ProductAgg,
    ProductOne,
    Restriction,
    Union,
    default_aggregate,
    validate,
)

from helpers import output_schema

PEOPLE = """
relation People {
  Name: string in {"Ann", "Bob", "Cy", "Dee"};
  Weight: int [0, 150];
  Height: int [0, 200]
}
"""

CAP = """
relation R { c: int [0, 1] }
relation S { a: int [0, 4]; b: int [0, 4] } check { a * b >= 12 }
"""

TWO = """
relation R { a: int [0, 3] }
relation T { a: int [2, 5] }
"""


def schemas_of(text):
    return parse_schemas(text)


# ---------------------------------------------------------------------------
# Per-operator constraint rules


def test_id_gets_the_initial_constraint():
    schemas = schemas_of(PEOPLE)
    out = output_schema(Id("People"), schemas)
    text = format_constraint(out.constraint)
    assert "Weight >= 0" in text and "Weight <= 150" in text
    assert "Height <= 200" in text


def test_restriction_conjoins_predicate():
    schemas = schemas_of(PEOPLE)
    tq = parse_query("avg(Weight) of select Weight <= Height - 100 from People")
    out = output_schema(tq.body, schemas)
    b = attribute_bounds(out.constraint, out, "Weight")
    assert (b.lower, b.upper) == (0, 100)


def test_restriction_rejects_unknown_attribute():
    schemas = schemas_of(PEOPLE)
    tq = parse_query("count of select Wages >= 3 from People")
    with pytest.raises(ValidationError):
        validate(tq, schemas)


def test_restriction_rejects_type_mismatch():
    schemas = schemas_of(PEOPLE)
    tq = parse_query('count of select Name <= 3 from People')
    with pytest.raises(ValidationError):
        validate(tq, schemas)


@pytest.mark.parametrize("source", [
    "People", "select false from People", "select Weight >= 1 from select false from People",
])
def test_restriction_predicate_is_type_checked_whatever_its_source(source):
    # the output schema type-checks the conjunction, which drops the
    # predicate when the source's constraint is false
    schemas = schemas_of(PEOPLE)
    tq = parse_query(f"count of select Name <= 3 from {source}")
    with pytest.raises(ValidationError) as exc:
        validate(tq, schemas)
    assert str(exc.value) == "restriction predicate: ordered comparison <= requires numeric operands"


def test_projection_moves_dropped_attrs_to_aux():
    schemas = schemas_of(PEOPLE)
    plan = parse_query(
        "count of project Name from select Weight >= 100 from People"
    ).body
    out = output_schema(plan, schemas)
    assert out.attr_names() == ("Name",)
    aux_names = [a for a, _ in out.aux]
    assert "Weight" in aux_names and "Height" in aux_names
    # the dropped attribute still participates in the constraint
    assert "Weight" in format_constraint(out.constraint)


def test_union_is_disjunction():
    schemas = schemas_of(TWO)
    out = output_schema(Union(Id("R"), Id("T")), schemas)
    b = attribute_bounds(out.constraint, out, "a")
    assert (b.lower, b.upper) == (0, 5)
    assert solution_count(out.constraint, out) == 6  # {0..3} union {2..5}


def test_intersection_is_conjunction():
    schemas = schemas_of(TWO)
    out = output_schema(parse_query("count of R intersect T").body, schemas)
    b = attribute_bounds(out.constraint, out, "a")
    assert (b.lower, b.upper) == (2, 3)


def test_set_ops_require_same_attributes():
    schemas = schemas_of(
        "relation R { a: int [0, 3] } relation T { b: int [0, 3] }"
    )
    with pytest.raises(ValidationError):
        output_schema(Union(Id("R"), Id("T")), schemas)


def test_set_ops_require_compatible_kinds():
    schemas = schemas_of(
        'relation R { a: int [0, 3] } relation T { a: string in {"x"} }'
    )
    with pytest.raises(ValidationError):
        output_schema(Union(Id("R"), Id("T")), schemas)


def test_difference_same_base_negates_right():
    schemas = schemas_of(PEOPLE)
    plan = parse_query(
        "count of People minus (select Weight >= 100 from People)"
    ).body
    out = output_schema(plan, schemas)
    b = attribute_bounds(out.constraint, out, "Weight")
    # Weight >= 100 negated gives Weight < 100; integer tightening closes at 99
    assert (b.lower, b.upper) == (0, 99)
    # 4 names x Weight 0-99 x Height 0-200
    assert solution_count(out.constraint, out) == 80_400


def test_difference_unrelated_keeps_left_only():
    schemas = schemas_of(TWO)
    plan = parse_query("count of R minus T").body
    out = output_schema(plan, schemas)
    b = attribute_bounds(out.constraint, out, "a")
    assert (b.lower, b.upper) == (0, 3)  # right side not negated


def test_product_concatenates_and_conjoins():
    schemas = schemas_of(
        "relation R { a: int [0, 1] } relation T { b: int [4, 5] }"
    )
    out = output_schema(parse_query("count of R product T").body, schemas)
    assert out.attr_names() == ("a", "b")
    assert solution_count(out.constraint, out) == 4


def test_product_rejects_name_collision():
    schemas = schemas_of(TWO)
    with pytest.raises(ValidationError):
        output_schema(parse_query("count of R product T").body, schemas)


def test_product_one_requires_pinned_shape():
    schemas = schemas_of(
        "relation R { a: int [0, 1] } relation T { b: int [4, 5] }"
    )
    plan = ProductOne(Restriction(parse_query("count of select b >= 4 from T").body.predicate, Id("T")), Id("R"))
    with pytest.raises(ValidationError):
        output_schema(plan, schemas)
    # Id on the pinned side is fine
    out = output_schema(ProductOne(Id("T"), Id("R")), schemas)
    assert out.attr_names() == ("b", "a")


def test_group_aggregate_output_schema():
    schemas = schemas_of(PEOPLE)
    plan = parse_query(
        "max(avg_Height) of group Name agg count, avg(Height) from People"
    ).body
    out = output_schema(plan, schemas)
    assert out.attr_names() == ("Name", "count", "avg_Height")
    cb = attribute_bounds(out.constraint, out, "count")
    assert cb.lower == 0
    hb = attribute_bounds(out.constraint, out, "avg_Height")
    assert (hb.lower, hb.upper) == (0, 200)


def test_group_aggregate_requires_known_group_attr():
    schemas = schemas_of(PEOPLE)
    plan = GroupAggregate(("Car",), (AggFn("count"),), Id("People"))
    with pytest.raises(ValidationError):
        output_schema(plan, schemas)


def test_group_aggregate_rejects_column_collision():
    schemas = schemas_of(PEOPLE)
    plan = GroupAggregate(
        ("Name",), (AggFn("avg", "Height"), AggFn("avg", "Height")), Id("People")
    )
    with pytest.raises(ValidationError):
        output_schema(plan, schemas)


def test_product_agg_value_constraint_and_default_branch():
    schemas = schemas_of(
        "relation R { a: int [0, 1] } relation T { b: int [4, 6] }"
    )
    plan = ProductAgg(AggFn("max", "b"), Id("R"), Id("T"))
    out = output_schema(plan, schemas)
    assert out.attr_names() == ("a", "max_b")
    vb = attribute_bounds(out.constraint, out, "max_b")
    assert (vb.lower, vb.upper) == (4, 6)


def test_product_agg_statically_empty_right_keeps_default_reachable():
    # the right operand is unsatisfiable; runtime still emits the default,
    # so the propagated constraint must keep that row admissible
    schemas = parse_schemas(
        "relation R { a: int [0, 1] } "
        "relation T { b: int [4, 6] } check { b > 99 }"
    )
    plan = ProductAgg(AggFn("count"), Id("R"), Id("T"))
    out = output_schema(plan, schemas)
    # the exact runtime row (a=0, count=0) must remain admissible, and so
    # the unpinned constraint is satisfiable too
    pinned = make_and(
        [
            out.constraint,
            Cmp("=", Attr("a"), Lit(Fraction(0))),
            Cmp("=", Attr("count"), Lit(Fraction(0))),
        ]
    )
    assert solution_count(pinned, out) == 1


def test_top_level_aggregate_attribute_checked():
    schemas = schemas_of(PEOPLE)
    with pytest.raises(ValidationError):
        validate(parse_query("sum(Wages) of People"), schemas)
    with pytest.raises(ValidationError):
        validate(parse_query("avg(Name) of People"), schemas)


def test_validate_records_each_aggregate_value_range():
    # a * b >= 12 leaves a in [3, 4]; enumeration cut off at one solution
    # falls back to the domain box [0, 4]
    schemas = schemas_of(CAP)
    tq = parse_query("avg(a) of S")
    assert validate(tq, schemas).bounds == Bounds(Fraction(3), Fraction(4))
    b = validate(tq, schemas, enum_cap=1).bounds
    assert (b.lower, b.upper) == (0, 4)
    tq = parse_query("count of S")
    assert validate(tq, schemas).bounds is None
    tq = parse_query("max(avg_a) of R productagg avg(a) S")
    memo = validate(tq, schemas)
    plan = tq.body
    right = memo.nodes[plan.right].schema
    assert memo.nodes[plan].bounds == attribute_bounds(right.constraint, right, "a")
    assert memo.nodes[plan].bounds == Bounds(Fraction(3), Fraction(4))


def test_agg_fn_validation():
    with pytest.raises(ValidationError):
        AggFn("count", "x")
    with pytest.raises(ValidationError):
        AggFn("sum")
    with pytest.raises(ValidationError):
        AggFn("median", "x")


def test_default_aggregate_values():
    from raqdp.constraints import Bounds

    b = Bounds(Fraction(0), Fraction(10))
    assert default_aggregate(AggFn("count"), b) == 0
    assert default_aggregate(AggFn("sum", "a"), b) == 0
    assert default_aggregate(AggFn("max", "a"), b) == 0  # inf of the range
    assert default_aggregate(AggFn("min", "a"), b) == 10  # sup of the range
    assert default_aggregate(AggFn("avg", "a"), b) == 5  # midpoint


def test_projection_then_union_aligns():
    schemas = schemas_of(PEOPLE)
    text = (
        "count of (project Name from People) union "
        "(project Name from select Weight >= 50 from People)"
    )
    out = output_schema(parse_query(text).body, schemas)
    assert out.attr_names() == ("Name",)
    assert solution_count(out.constraint, out) == 4


def test_every_node_is_validated_before_any_diameter_is_counted(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a diameter was counted")

    monkeypatch.setattr(query, "diameter", refuse)
    schemas = parse_schemas("relation R { a: int [0, 3] }\nrelation T { b: int [0, 3] }")
    with pytest.raises(ValidationError, match="unknown attributes"):
        validate(parse_query("count of select zz >= 1 from (R product T)"), schemas)
    with pytest.raises(AssertionError, match="a diameter was counted"):
        validate(parse_query("count of select a >= 1 from (R product T)"), schemas)
