"""Brute-force ground truth and its agreement with the static bound."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from raqdp.analyzer import global_sensitivity
from raqdp import oracle
from raqdp.constraints import ConstrainedSchema
from raqdp.engine import Relation, compile_query
from raqdp.errors import EvalError, OracleError, ValidationError
from raqdp.extmath import is_infinite
from raqdp.oracle import (
    SensitiveRelation,
    Universe,
    _databases,
    _read_bits,
    _read_tuples,
    brute_lipschitz,
    brute_sensitivity,
    build_universe,
    enumerate_tuples,
)
from raqdp.parsing import parse_query, parse_schemas
from raqdp.query import (
    AggFn,
    Difference,
    Intersection,
    Product,
    ProductOne,
    TopQuery,
    Union,
    validate,
)

from helpers import (
    AGG_KINDS,
    K_SCHEMA_TEXT,
    multi_relation_case,
    random_case,
    random_plan,
    random_schema,
    reference_brute_lipschitz,
    reference_brute_ratio,
    reference_brute_sensitivity,
    reference_databases,
)


def universe_for(query_text, schema_text, context=None, cap=12):
    """The query validated against the parsed schemas, and its universe."""
    vq = validate(parse_query(query_text), parse_schemas(schema_text))
    return vq, build_universe(vq, context, cap=cap)


# ---------------------------------------------------------------------------
# Universe construction


def test_enumerate_tuples_lists_the_grid():
    schema = parse_schemas("relation R { a: int [0, 2] }")["R"]
    assert enumerate_tuples(schema) == (
        (Fraction(0),),
        (Fraction(1),),
        (Fraction(2),),
    )


def test_enumerate_respects_check_constraint():
    schema = parse_schemas(
        "relation R { a: int [0, 5] } check { a <= 1 }"
    )["R"]
    assert enumerate_tuples(schema) == ((Fraction(0),), (Fraction(1),))


def test_universe_cap_enforced():
    with pytest.raises(OracleError):
        universe_for("count of R", "relation R { a: int [0, 50] }")


def test_non_enumerable_universe_rejected():
    with pytest.raises(OracleError):
        universe_for("count of R", "relation R { x: real [0, 1] }")


def test_context_relations_are_not_enumerated():
    schemas = parse_schemas(
        "relation S { a: int [0, 1] }\nrelation T { a: int [0, 50] }"
    )
    vq = validate(parse_query("count of S intersect T"), schemas)
    t_rel = Relation.from_rows(schemas["T"], [[Fraction(1)]])
    uni = build_universe(vq, context={"T": t_rel})
    assert [sr.name for sr in uni.sensitive] == ["S"]
    res = brute_sensitivity(vq, uni)
    assert res.value == 1


# ---------------------------------------------------------------------------
# Known exact values


def test_count_brute_is_one():
    vq, uni = universe_for("count of R", "relation R { a: int [0, 2] }")
    res = brute_sensitivity(vq, uni)
    assert res.value == 1
    assert res.witness is not None


def test_sum_brute_is_extreme_magnitude():
    vq, uni = universe_for("sum(a) of R", "relation R { a: int [-4, 2] }")
    res = brute_sensitivity(vq, uni)
    assert res.value == 4  # adding or removing the tuple (-4,)
    before, after = res.witness
    diff = set(map(tuple, before["R"])) ^ set(map(tuple, after["R"]))
    assert diff == {(Fraction(-4),)}


def test_max_brute_spans_the_range():
    vq, uni = universe_for("max(a) of R", "relation R { a: int [0, 10] }")
    assert brute_sensitivity(vq, uni).value == 10


def test_avg_brute_is_half_range():
    vq, uni = universe_for("avg(a) of R", "relation R { a: num in {0, 5, 10} }")
    assert brute_sensitivity(vq, uni).value == 5


def test_empty_default_drives_min_sensitivity():
    # min over empty relation defaults to the range supremum; inserting the
    # smallest tuple then swings the answer across the whole range
    vq, uni = universe_for("min(a) of R", "relation R { a: num in {0, 5, 10} }")
    assert brute_sensitivity(vq, uni).value == 10


def test_union_witness_changes_both_relations():
    text = "relation R { a: int [0, 2] }\nrelation T { a: int [3, 5] }"
    vq, uni = universe_for("count of R union T", text)
    res = brute_sensitivity(vq, uni)
    assert res.value == 2
    before, after = res.witness
    assert before["R"] != after["R"] and before["T"] != after["T"]


# ---------------------------------------------------------------------------
# The two oracle formulations agree


def test_adjacent_equals_ratio_on_random_cases():
    rng = random.Random(424242)
    for _ in range(25):
        tq, schemas, uni = random_case(rng, max_solutions=4, depth=3)
        vq = validate(tq, schemas)
        adjacent = brute_sensitivity(vq, uni).value
        ratio = reference_brute_ratio(vq, uni)
        assert adjacent == ratio


# ---------------------------------------------------------------------------
# Lipschitz form for plans


def test_lipschitz_of_identity_is_one():
    vq, uni = universe_for("count of R", "relation R { a: int [0, 2] }")
    assert brute_lipschitz(vq.query.body, uni, vq) == 1


def test_lipschitz_union_reaches_two():
    text = "relation R { a: int [0, 2] }\nrelation T { a: int [3, 5] }"
    vq, uni = universe_for("count of R union T", text)
    assert brute_lipschitz(vq.query.body, uni, vq) == 2


def test_lipschitz_bounded_by_static_s():
    rng = random.Random(31415)
    for _ in range(15):
        tq, schemas, uni = random_case(rng, max_solutions=4, depth=3)
        memo = validate(tq, schemas)
        s = memo.nodes[tq.body].s
        lip = brute_lipschitz(tq.body, uni, memo)
        assert is_infinite(s) or lip <= s


def assert_lipschitz_matches_the_pairwise_judge(vq, universe):
    """At every node: the adjacent-pair value equals the all-pairs ratio and
    stays within S; the query's brute force matches the reference."""
    for plan, facts in vq.nodes.items():
        lip = brute_lipschitz(plan, universe, vq)
        assert type(lip) is int
        assert lip == reference_brute_lipschitz(plan, universe, vq), plan
        assert is_infinite(facts.s) or lip <= facts.s, plan
    assert_matches_reference(vq, universe)


def test_lipschitz_matches_the_pairwise_judge_on_one_relation():
    rng = random.Random(99)
    for _ in range(40):
        tq, schemas, universe = random_case(rng, max_solutions=5, depth=3)
        assert_lipschitz_matches_the_pairwise_judge(validate(tq, schemas), universe)


def two_relation_case(rng):
    """R and T, a random plan over each, joined by a set operator or a product
    (T's attributes renamed apart for the product), under a count: the query
    validated against R, T and K, and its universe."""
    k_schema = parse_schemas(K_SCHEMA_TEXT)["K"]
    context = (("K", Relation(k_schema, frozenset({(Fraction(7),)}))),)
    while True:
        r, t = random_schema(rng, "R", 3), random_schema(rng, "T", 3)
        join = rng.choice([Union, Intersection, Difference, Product])
        if join is Product:
            t = ConstrainedSchema("T", tuple((f"b{i}", d) for i, (_, d) in enumerate(t.attributes)))
        tq = TopQuery(AggFn("count"), join(random_plan(rng, r, 2), random_plan(rng, t, 2)))
        try:
            vq = validate(tq, {"R": r, "T": t, "K": k_schema})
        except ValidationError:
            continue
        sensitive = tuple(SensitiveRelation(s.name, s, enumerate_tuples(s)) for s in (r, t))
        return vq, Universe(sensitive, context)


def test_lipschitz_matches_the_pairwise_judge_on_two_relations():
    rng = random.Random(5)
    joins = set()
    for _ in range(20):
        vq, universe = two_relation_case(rng)
        joins.add(type(vq.query.body))
        assert_lipschitz_matches_the_pairwise_judge(vq, universe)
    assert joins == {Union, Intersection, Difference, Product}


@pytest.mark.parametrize(
    "query",
    [
        "count of (R union T) minus U",
        "sum(a) of (R intersect T) union (select a >= 1 from U)",
        "max(a) of R union (T minus U)",
        "count of group a agg count from ((R union T) union U)",
        "avg(a) of (select a <= 1 from R) union (T intersect U)",
    ],
)
def test_lipschitz_matches_the_pairwise_judge_on_three_relations(query):
    text = "relation R { a: int [0, 1] }\nrelation T { a: int [1, 2] }\nrelation U { a: int [0, 2] }"
    vq, universe = universe_for(query, text)
    assert [sr.name for sr in universe.sensitive] == ["R", "T", "U"]
    assert_lipschitz_matches_the_pairwise_judge(vq, universe)


@pytest.mark.parametrize(
    "query, s",
    [
        ("count of R union T", 2),
        ("count of (R union T) minus (select a <= 3 from R)", 4),
        ("count of group a agg count from (R union T)", 4),
    ],
)
def test_lipschitz_of_twelve_tuple_nodes(query, s):
    text = "relation R { a: int [1, 6] }\nrelation T { a: int [1, 6] }"
    vq, universe = universe_for(query, text)
    assert sum(len(sr.universe) for sr in universe.sensitive) == 12
    assert vq.nodes[vq.query.body].s == s
    assert brute_lipschitz(vq.query.body, universe, vq) == 2


# ---------------------------------------------------------------------------
# Soundness of the full bound


def test_static_bound_dominates_brute_on_random_cases():
    rng = random.Random(8675309)
    for _ in range(40):
        tq, schemas, uni = random_case(rng)
        vq = validate(tq, schemas)
        rep = global_sensitivity(vq)
        res = brute_sensitivity(vq, uni)
        assert is_infinite(rep.gs) or res.value <= rep.gs


def test_avg_over_an_enumerated_universe_stays_exact():
    # the empty database takes avg's default, the midpoint 3/2 of a's range
    # [0, 3]: exact only while attribute_bounds returns Fraction endpoints
    vq, universe = universe_for("avg(a) of R", "relation R { a: int [0, 3] }")
    brute = brute_sensitivity(vq, universe)
    ratio = reference_brute_ratio(vq, universe)
    assert brute.value == ratio == Fraction(3, 2)
    assert type(brute.value) is Fraction and type(ratio) is Fraction


# ---------------------------------------------------------------------------
# The integer neighbour loop against the Fraction reference


def assert_matches_reference(vq, universe):
    got = brute_sensitivity(vq, universe)
    want = reference_brute_sensitivity(vq, universe)
    assert got.value == want.value and type(got.value) is Fraction
    assert got.witness == want.witness


def test_brute_matches_the_reference_on_random_cases():
    rng = random.Random(20121)
    for _ in range(30):
        tq, schemas, universe = random_case(rng)
        assert_matches_reference(validate(tq, schemas), universe)


@pytest.mark.parametrize(
    "query",
    [
        "count of R union T",
        "avg(a) of R union T",
        "sum(a) of R minus T",
        "max(a) of R intersect T",
        "min(a) of (select a >= 1 from R) union T",
    ],
)
def test_brute_matches_the_reference_on_two_relations(query):
    text = "relation R { a: int [0, 2] }\nrelation T { a: int [1, 3] }"
    vq, universe = universe_for(query, text)
    assert len(universe.sensitive) == 2
    assert_matches_reference(vq, universe)


def test_brute_matches_the_reference_over_a_common_denominator():
    # averages of subsets of {0, 1, 2, 3} include 1/2 and 4/3, so the values
    # are compared over a denominator of 6
    vq, universe = universe_for("avg(a) of R", "relation R { a: int [0, 3] }")
    kept = _read_tuples(universe, _read_bits(vq.query.body, vq, universe))
    values = list(map(compile_query(vq), _databases(universe, kept)))
    assert math.lcm(*(v.denominator for v in values)) == 6
    assert_matches_reference(vq, universe)


def test_a_sixteen_tuple_universe_at_an_explicit_cap():
    # 2^16 databases, all read
    text = "relation R { a: int [1, 8] }\nrelation T { a: int [1, 8] }"
    vq, universe = universe_for("avg(a) of R union T", text, cap=16)
    res = brute_sensitivity(vq, universe)
    assert res.value == 7
    assert res.witness == ({"R": [], "T": [(1,)]}, {"R": [(8,)], "T": []})


def outcome(run):
    """run()'s result, or the type and message of the EvalError it raises."""
    try:
        return run()
    except EvalError as e:
        return type(e), str(e)


def adjacent_pairs_at(vq, universe, change) -> int:
    """How many adjacent pairs of databases the answer differs by `change` across."""
    value = compile_query(vq)
    values = {combo: value(db) for combo, db in reference_databases(universe)}
    return sum(
        abs(values[a] - values[b]) == change
        for a, b in itertools.combinations(values, 2)
        if all(bin(x ^ y).count("1") <= 1 for x, y in zip(a, b))
    )


def test_brute_matches_the_reference_on_multi_relation_cases():
    # the neighbourhood passes against the plain pair search: value, witness
    # and first error; many tied count pairs pin which pair is the witness
    rng = random.Random(2718)
    seen = Counter()
    for _ in range(150):
        tq, schemas, universe = multi_relation_case(rng)
        vq = validate(tq, schemas)
        got = outcome(lambda: brute_sensitivity(vq, universe))
        assert got == outcome(lambda: reference_brute_sensitivity(vq, universe)), tq
        lip = outcome(lambda: brute_lipschitz(tq.body, universe, vq))
        assert lip == outcome(lambda: reference_brute_lipschitz(tq.body, universe, vq)), tq
        seen[len(universe.sensitive)] += 1
        seen[type(tq.body)] += 1
        seen[tq.fn.kind] += 1
        seen["unread relation"] += 0 in _read_bits(tq.body, vq, universe)
        if isinstance(got, tuple):
            seen["error"] += 1
            continue
        assert type(got.value) is Fraction
        if tq.fn.kind == "count" and got.value:
            seen["tied count"] += adjacent_pairs_at(vq, universe, got.value) > 1
    assert seen[2] and seen[3]
    assert all(seen[op] for op in (Union, Intersection, Difference, Product, ProductOne))
    assert all(seen[kind] for kind in AGG_KINDS)
    assert seen["unread relation"] and seen["error"] and seen["tied count"] >= 10, seen


# ---------------------------------------------------------------------------
# Enumerating only the read bits changes no result: each entry point against
# the reference, which enumerates every mask of every relation

_K = "relation K { k: int [7, 7] }\n"
_ONE = "relation R { a: int [-1, 4] }"
_PAIR = "relation R { a: int [0, 2] }\nrelation T { a: int [0, 2] }"


def full_bits(universe):
    return tuple((1 << len(sr.universe)) - 1 for sr in universe.sensitive)


def assert_projection_changes_nothing(vq, universe):
    assert_matches_reference(vq, universe)
    assert brute_lipschitz(vq.query.body, universe, vq) == reference_brute_lipschitz(
        vq.query.body, universe, vq
    )


@pytest.mark.parametrize(
    "query, schema_text",
    [
        pytest.param("sum(a) of select a >= 2 from R", _ONE, id="select"),
        pytest.param(
            "count of (select a >= 1 from R) minus (select a >= 4 from R)", _ONE, id="minus"
        ),
        pytest.param(
            "max(a) of (select a <= 3 from R) intersect (select a >= 1 from R)",
            _ONE,
            id="intersect",
        ),
        pytest.param(
            "count of group g agg count from (select a >= 1 from R)",
            "relation R { g: int [0, 1]; a: int [0, 2] }",
            id="group",
        ),
        pytest.param("sum(a) of K product1 (select a <= 2 from R)", _K + _ONE, id="product1"),
        pytest.param("count of (select a >= 2 from R) union T", _PAIR, id="union-pair"),
        pytest.param("sum(a) of (select a = 1 from R) minus T", _PAIR, id="minus-pair"),
        pytest.param("avg(a) of (select a <= 1 from R) intersect T", _PAIR, id="intersect-pair"),
    ],
)
def test_read_bits_match_the_full_enumeration(query, schema_text):
    context = None
    if "K" in query:
        context = {"K": Relation(parse_schemas(_K)["K"], frozenset({(Fraction(7),)}))}
    vq, universe = universe_for(query, schema_text, context)
    bits = _read_bits(vq.query.body, vq, universe)
    assert bits != full_bits(universe) and all(bits)
    assert_projection_changes_nothing(vq, universe)


def test_read_bits_match_the_full_enumeration_on_random_cases():
    rng = random.Random(20260)
    projected = 0
    for _ in range(30):
        tq, schemas, universe = random_case(rng, max_solutions=5)
        vq = validate(tq, schemas)
        projected += _read_bits(tq.body, vq, universe) != full_bits(universe)
        assert_projection_changes_nothing(vq, universe)
    assert projected >= 5


def test_read_bits_raise_the_first_error_of_the_full_enumeration():
    # the one-row side is sensitive, so a database without exactly one R
    # tuple cannot be evaluated
    text = "relation R { r: int [0, 2] }\nrelation T { a: int [0, 2] }"
    vq, universe = universe_for("count of R product1 (select a >= 1 from T)", text)
    assert _read_bits(vq.query.body, vq, universe) == (0b111, 0b110)
    with pytest.raises(EvalError) as want:
        reference_brute_sensitivity(vq, universe)
    assert str(want.value) == "one-sided product requires exactly one tuple, found 0"
    for run in (
        lambda: brute_sensitivity(vq, universe),
        lambda: brute_lipschitz(vq.query.body, universe, vq),
    ):
        with pytest.raises(EvalError) as got:
            run()
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# How many databases the oracle evaluates


@pytest.mark.parametrize(
    "query, schema_text, runs",
    [
        pytest.param(
            "sum(a) of select a <= 7 from R", "relation R { a: int [0, 11] }", 2**8, id="select"
        ),
        pytest.param(
            "avg(a) of R union T",
            "relation R { a: int [1, 6] }\nrelation T { a: int [1, 6] }",
            2**12,
            id="unrestricted",
        ),
        pytest.param(
            "count of select a >= 5 from R", "relation R { a: int [0, 2] }", 1, id="keeps-none"
        ),
    ],
)
def test_the_oracle_runs_the_query_once_per_readable_database(
    monkeypatch, query, schema_text, runs
):
    count = 0

    def counted(vq):
        value = compile_query(vq)

        def run(db):
            nonlocal count
            count += 1
            return value(db)

        return run

    monkeypatch.setattr(oracle, "compile_query", counted)
    vq, universe = universe_for(query, schema_text)
    brute_sensitivity(vq, universe)
    assert count == runs


def test_a_universe_of_context_relations_only_is_one_database():
    schemas = parse_schemas("relation R { a: int [0, 2] }")
    vq = validate(parse_query("sum(a) of select a >= 1 from R"), schemas)
    data = {"R": Relation.from_rows(schemas["R"], [[Fraction(1)], [Fraction(2)]])}
    universe = build_universe(vq, data)
    assert universe.sensitive == () and _read_bits(vq.query.body, vq, universe) == ()
    assert brute_sensitivity(vq, universe) == reference_brute_sensitivity(vq, universe)
    assert brute_sensitivity(vq, universe).value == 0
    assert brute_lipschitz(vq.query.body, universe, vq) == 0
