"""Static sensitivity: operator factors, recursion, worked examples."""

from fractions import Fraction

import pytest

from raqdp.analyzer import (
    aggregation_delta,
    global_sensitivity,
)
from raqdp.constraints import Bounds
from raqdp.errors import ValidationError
from raqdp.extmath import INF, is_infinite
from raqdp.parsing import parse_query, parse_schemas
from raqdp.query import AggFn, TopQuery, operator_delta, plan_children, validate

PEOPLE = """
relation People {
  Weight: int [0, 150];
  Height: int [0, 200]
}
"""


def gs(query_text, schema_text):
    return global_sensitivity(validate(parse_query(query_text), parse_schemas(schema_text)))


# ---------------------------------------------------------------------------
# Operator factor table


def test_operator_factor_table():
    assert operator_delta("id") == 1
    assert operator_delta("restriction") == 1
    assert operator_delta("projection") == 1
    assert operator_delta("product-one") == 1
    assert operator_delta("product-agg") == 1
    assert operator_delta("union") == 2
    assert operator_delta("intersection") == 2
    assert operator_delta("difference") == 2
    assert operator_delta("group-aggregate") == 2
    assert operator_delta("product-n", n=7) == 7
    assert is_infinite(operator_delta("product"))


def test_unknown_operator_rejected():
    with pytest.raises(ValidationError):
        operator_delta("swizzle")


# ---------------------------------------------------------------------------
# Aggregation-function factors


def test_aggregation_deltas():
    b = Bounds(Fraction(-30), Fraction(100))
    assert aggregation_delta(AggFn("count"), None) == 1
    assert aggregation_delta(AggFn("sum", "a"), b) == 100  # max(|lo|, |hi|)
    assert aggregation_delta(AggFn("max", "a"), b) == 130  # hi - lo
    assert aggregation_delta(AggFn("min", "a"), b) == 130
    assert aggregation_delta(AggFn("avg", "a"), b) == 65  # (hi - lo) / 2


def test_aggregation_delta_unbounded():
    b = Bounds(Fraction(0), INF)
    assert is_infinite(aggregation_delta(AggFn("sum", "a"), b))
    assert is_infinite(aggregation_delta(AggFn("avg", "a"), b))


# ---------------------------------------------------------------------------
# The worked pair of examples


def test_avg_weight_unrestricted_is_75():
    rep = gs("avg(Weight) of People", PEOPLE)
    assert rep.gs == 75
    assert rep.top.bounds.lower == 0 and rep.top.bounds.upper == 150


def test_avg_weight_restricted_is_50():
    rep = gs("avg(Weight) of select Weight <= Height - 100 from People", PEOPLE)
    assert rep.gs == 50
    assert rep.top.bounds.lower == 0 and rep.top.bounds.upper == 100


# ---------------------------------------------------------------------------
# The S recursion


def test_leaf_s_is_one_when_domain_is_large():
    rep = gs("count of People", PEOPLE)
    (leaf,) = rep.nodes
    assert leaf.s == 1
    assert rep.gs == 1


def test_s_capped_by_diameter():
    text = "relation R { a: int [0, 1] }\nrelation T { b: int [4, 5] }"
    rep = gs("count of R product T", text)
    assert [n.op for n in rep.nodes] == ["id", "id", "product"]
    assert rep.nodes[2].s == 4  # min(inf * 1, |sol| = 4)
    assert rep.gs == 4


def test_s_single_tuple_leaf():
    rep = gs("count of K", "relation K { k: int [7, 7] }")
    (leaf,) = rep.nodes
    assert leaf.diam == 1 and leaf.s == 1


def test_statically_empty_query_reports_zero():
    rep = gs("count of R", "relation R { a: int [0, 5] } check { a > 9 }")
    assert rep.gs == 0
    assert any("statically empty" in w for w in rep.warnings)


def test_union_doubles():
    text = "relation R { a: int [0, 3] }\nrelation T { a: int [2, 5] }"
    rep = gs("count of R union T", text)
    assert rep.gs == 2


def test_binary_takes_max_of_children():
    # left branch has S = 1, right branch is a product with S = 4
    text = (
        "relation R { a: int [0, 1] }\n"
        "relation T { b: int [4, 5] }\n"
        "relation U { a: int [0, 1]; b: int [4, 5] }"
    )
    rep = gs("count of U union (R product T)", text)
    union_node = rep.nodes[-1]
    assert union_node.op == "union"
    assert rep.gs == union_node.s
    # both sides describe the same 2x2 grid, so the disjunction has 4
    # solutions and the diameter cap beats the factor bound 2 * max(1, 4)
    assert union_node.diam == 4
    assert union_node.s == 4


def test_nested_unary_chain_keeps_s_at_one():
    rep = gs(
        "count of project Weight from select Weight >= 10 from People", PEOPLE
    )
    assert all(n.s == 1 for n in rep.nodes)
    assert rep.gs == 1


def test_max_min_ignore_intermediate_factor():
    # max/min sensitivity is the value range alone, even over a union
    text = "relation R { a: int [0, 100] }\nrelation T { a: int [50, 150] }"
    rep = gs("max(a) of R union T", text)
    assert rep.gs == 150
    rep = gs("min(a) of R union T", text)
    assert rep.gs == 150
    rep = gs("sum(a) of R union T", text)
    assert rep.gs == 2 * 150


def test_product_n_scales_linearly():
    text = "relation L { x: int [0, 1] }\nrelation R { a: int [0, 200] }"
    rep3 = gs("count of L productn 3 R", text)
    rep5 = gs("count of L productn 5 R", text)
    assert rep3.gs == 3 and rep5.gs == 5


def test_product_agg_factor_is_one():
    text = "relation L { x: int [0, 1] }\nrelation R { a: int [0, 9] }"
    rep = gs("count of L productagg sum(a) R", text)
    assert rep.gs == 1


def test_unbounded_attribute_warns_by_name():
    rep = gs("sum(w) of W", "relation W { w: real [0, inf] }")
    assert is_infinite(rep.gs)
    assert any("'w'" in w and "unbounded" in w for w in rep.warnings)


def test_raw_product_over_reals_is_unbounded():
    text = "relation A { x: real [0, 1] }\nrelation B { y: real [0, 1] }"
    rep = gs("count of A product B", text)
    assert is_infinite(rep.gs)


def test_difference_fallback_warns():
    text = "relation R { a: int [0, 3] }\nrelation T { a: int [2, 5] }"
    rep = gs("count of R minus T", text)
    assert any("difference" in w or "negated soundly" in w for w in rep.warnings)


def test_pinned_product_derived_side_warns():
    # a derived (non-leaf) pinned side is allowed for the block product, but
    # the report flags that its contents can co-vary with the database
    text = "relation L { x: int [0, 1] }\nrelation R { a: int [0, 9] }"
    rep = gs("count of L productn 2 (select a <= 3 from R)", text)
    assert rep.gs == 2
    assert any("derived subquery" in w for w in rep.warnings)
    plain = gs("count of L productn 2 R", text)
    assert not any("derived subquery" in w for w in plain.warnings)


def test_product_one_rejects_derived_single_side():
    text = "relation K { k: int [0, 5] }\nrelation R { a: int [0, 9] }"
    with pytest.raises(ValidationError):
        gs("count of (select k <= 3 from K) product1 R", text)


def test_intermediate_sensitivity_exposed():
    schemas = parse_schemas("relation R { a: int [0, 1] }")
    plan = parse_query("count of R union R").body
    memo = validate(TopQuery(AggFn("count"), plan), schemas)
    assert memo.nodes[plan].s == 2  # min(2 * 1, diam = 2)
    # the shared leaf is one node of the plan, reported once per occurrence
    rep = global_sensitivity(memo)
    assert [n.op for n in rep.nodes] == ["id", "id", "union"]
    assert rep.nodes[0] == rep.nodes[1]
    assert (rep.nodes[0].diam, rep.nodes[0].s) == (2, 1)


def _occurrences(plan):
    for child in plan_children(plan):
        yield from _occurrences(child)
    yield plan


@pytest.mark.parametrize(
    "query_text, schema_text, warned",
    [
        ("count of ((R minus T) union (R minus T)) productn 1 (select b >= 1 from U)",
         "relation R { a: int [0, 3] }\nrelation T { a: int [0, 3] }\n"
         "relation U { b: int [0, 2] }",
         ["difference", "difference", "product-n"]),
        ("count of ((select a <= 1 from R) union (select a >= 1 from R)) productn 2 U",
         "relation R { a: int [0, 3] }\nrelation U { b: int [0, 2] }", []),
        ("sum(a) of R productagg max(c) (select c >= 1 from S)",
         "relation R { a: int [0, 3] }\nrelation S { c: int [0, 5] }",
         ["product-agg"]),
        ("count of ((K productagg count R) product1 R)",
         "relation K { k: int [0, 1] }\nrelation R { a: int [0, 3] }",
         ["product-one"]),
    ],
    ids=["structural", "plain", "productagg", "product1"],
)
def test_report_nodes_are_the_validated_records(query_text, schema_text, warned):
    vq = validate(parse_query(query_text), parse_schemas(schema_text))
    rep = global_sensitivity(vq)
    plans = list(_occurrences(vq.query.body))
    assert len(rep.nodes) == len(plans)
    for record, plan in zip(rep.nodes, plans):
        assert record is vq.nodes[plan]
    # validation states each structural warning on the node it belongs to
    assert [r.op for r in rep.nodes if r.warning is not None] == warned


# ---------------------------------------------------------------------------
# Report rendering


def test_report_json_shape():
    rep = gs("avg(Weight) of select Weight <= Height - 100 from People", PEOPLE)
    d = rep.to_json_dict()
    assert d["gs"] == "50" and d["gs_float"] == 50.0
    assert d["top"]["fn"] == "avg" and d["top"]["attr"] == "Weight"
    assert d["top"]["bounds"]["lo"] == "0" and d["top"]["bounds"]["hi"] == "100"
    assert [n["op"] for n in d["nodes"]] == ["id", "restriction"]
    for n in d["nodes"]:
        assert set(n) >= {"op", "s", "delta_op", "diam", "constraint_text"}
    assert isinstance(d["warnings"], list)


def test_report_json_renders_infinity():
    rep = gs("sum(w) of W", "relation W { w: real [0, inf] }")
    d = rep.to_json_dict()
    assert d["gs"] == "inf"
    assert d["gs_float"] is None  # JSON has no infinity: null
