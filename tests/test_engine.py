"""Evaluation semantics: the reference tables, CSV loading, identities."""

import csv
import io
import itertools
import random
import re
import sys
import tokenize
import tracemalloc
from fractions import Fraction

import pytest

from raqdp import constraints, engine
from raqdp.constraints import compile_constraint
from raqdp.engine import Relation, answer, apply_agg, compile_plan, eval_plan, load_csv
from raqdp.errors import DataError, EvalError
from raqdp.parsing import parse_query, parse_schemas
from raqdp.query import AggFn, default_aggregate, validate

PEOPLE_TEXT = """
relation People {
  Name: string in {"John", "Tim", "Alice", "Natalie"};
  Age: int [0, 120];
  Height: int [0, 220]
}
"""

CARS_TEXT = """
relation Drivers {
  Name: string in {"John", "Tim", "Alice", "Natalie"};
  Height: int [0, 220];
  Car: string in {"Ford", "Fiat", "Renault"}
}
"""


def people_relation(schemas):
    rows = [
        ("John", 30, 180),
        ("Tim", 10, 100),
        ("Alice", 45, 160),
        ("Natalie", 20, 175),
    ]
    return Relation.from_rows(
        schemas["People"], [(n, Fraction(a), Fraction(h)) for n, a, h in rows]
    )


def run_plan(text, schemas, db):
    tq = parse_query(text)
    memo = validate(tq, schemas)
    return eval_plan(tq.body, db, memo)


def run_answer(text, schemas, db, trace=None):
    tq = parse_query(text)
    memo = validate(tq, schemas)
    return answer(memo, db, trace=trace)


# ---------------------------------------------------------------------------
# The four reference tables


def test_restriction_table():
    schemas = parse_schemas(PEOPLE_TEXT)
    db = {"People": people_relation(schemas)}
    out = run_plan(
        "count of select Age >= 20 and Height < 180 from People", schemas, db
    )
    assert out.tuples == {
        ("Alice", Fraction(45), Fraction(160)),
        ("Natalie", Fraction(20), Fraction(175)),
    }
    assert run_answer(
        "count of select Age >= 20 and Height < 180 from People", schemas, db
    ) == 2


def test_projection_table_deduplicates():
    text = """
    relation Owners {
      Name: string in {"John", "Alice"};
      Age: int [0, 120];
      Car: string in {"Ford", "Renault", "Fiat"}
    }
    """
    schemas = parse_schemas(text)
    rel = Relation.from_rows(
        schemas["Owners"],
        [
            ("John", Fraction(30), "Ford"),
            ("John", Fraction(30), "Renault"),
            ("Alice", Fraction(45), "Fiat"),
        ],
    )
    out = run_plan("count of project Name, Age from Owners", schemas, {"Owners": rel})
    assert out.tuples == {("John", Fraction(30)), ("Alice", Fraction(45))}


def test_cartesian_join_identity():
    text = """
    relation R { a: int [0, 5]; u: int [0, 9] }
    relation T { b: int [0, 5]; w: int [0, 9] }
    """
    schemas = parse_schemas(text)
    r = Relation.from_rows(
        schemas["R"], [(Fraction(1), Fraction(7)), (Fraction(2), Fraction(8))]
    )
    t = Relation.from_rows(
        schemas["T"], [(Fraction(1), Fraction(3)), (Fraction(4), Fraction(5))]
    )
    db = {"R": r, "T": t}
    product = run_plan("count of R product T", schemas, db)
    assert len(product) == 4
    join = run_plan("count of select a = b from (R product T)", schemas, db)
    assert join.tuples == {(Fraction(1), Fraction(7), Fraction(1), Fraction(3))}


def test_group_aggregate_table():
    schemas = parse_schemas(CARS_TEXT)
    rel = Relation.from_rows(
        schemas["Drivers"],
        [
            ("John", Fraction(150), "Ford"),
            ("Tim", Fraction(180), "Ford"),
            ("Alice", Fraction(180), "Fiat"),
            ("Natalie", Fraction(165), "Renault"),
        ],
    )
    out = run_plan(
        "max(avg_Height) of group Car agg count, avg(Height) from Drivers",
        schemas,
        {"Drivers": rel},
    )
    assert out.tuples == {
        ("Ford", Fraction(2), Fraction(165)),
        ("Fiat", Fraction(1), Fraction(180)),
        ("Renault", Fraction(1), Fraction(165)),
    }


# ---------------------------------------------------------------------------
# Aggregation, including the empty-relation defaults


def test_aggregates_on_data():
    schemas = parse_schemas("relation R { a: int [0, 10] }")
    rel = Relation.from_rows(schemas["R"], [(Fraction(v),) for v in (1, 4, 7)])
    memo = validate(parse_query("count of R"), schemas)
    node = memo.nodes[parse_query("count of R").body].schema
    assert apply_agg(AggFn("count"), rel) == 3
    assert apply_agg(AggFn("sum", "a"), rel) == 12
    assert apply_agg(AggFn("max", "a"), rel) == 7
    assert apply_agg(AggFn("min", "a"), rel) == 1
    assert apply_agg(AggFn("avg", "a"), rel) == 4
    assert node.attr_names() == ("a",)


def test_empty_defaults_follow_the_propagated_range():
    schemas = parse_schemas("relation R { a: num in {0, 5, 10} }")
    db = {"R": Relation(schemas["R"], frozenset())}
    assert run_answer("count of R", schemas, db) == 0
    assert run_answer("sum(a) of R", schemas, db) == 0
    assert run_answer("max(a) of R", schemas, db) == 0  # range minimum
    assert run_answer("min(a) of R", schemas, db) == 10  # range maximum
    assert run_answer("avg(a) of R", schemas, db) == 5  # midpoint


def test_empty_default_sees_restriction():
    schemas = parse_schemas("relation R { a: int [0, 100] }")
    db = {"R": Relation(schemas["R"], frozenset())}
    assert run_answer("min(a) of select a <= 30 from R", schemas, db) == 30


def test_avg_is_sum_over_count_when_nonempty():
    schemas = parse_schemas("relation R { a: int [0, 100] }")
    rng = random.Random(5)
    rows = [(Fraction(rng.randint(0, 100)),) for _ in range(9)]
    rel = Relation.from_rows(schemas["R"], set(rows))
    s = apply_agg(AggFn("sum", "a"), rel)
    c = apply_agg(AggFn("count"), rel)
    assert apply_agg(AggFn("avg", "a"), rel) == s / c


def sum_over_count(fn: AggFn, cells: list, empty: Fraction) -> Fraction:
    """The aggregate with avg as Fraction(total) / count, normalised twice."""
    if not cells:
        return empty
    if fn.kind == "count":
        return Fraction(len(cells))
    total = Fraction({"max": max, "min": min, "sum": sum, "avg": sum}[fn.kind](cells))
    return total / len(cells) if fn.kind == "avg" else total


@pytest.mark.parametrize(
    "cells",
    [[1, 4, 2, 7, 3, 8], [Fraction(1, 2), Fraction(4, 3), Fraction(-5, 6), 2], []],
    ids=["int", "fraction", "empty"],
)
def test_every_aggregate_matches_the_fraction_expression(cells):
    schemas = parse_schemas("relation R { a: real [-10, 10] }")
    bounds = validate(parse_query("avg(a) of R"), schemas).bounds
    rel = Relation(schemas["R"], frozenset((c,) for c in cells))
    for kind in ("count", "sum", "max", "min", "avg"):
        fn = AggFn(kind, None if kind == "count" else "a")
        got = apply_agg(fn, rel, bounds)
        want = sum_over_count(fn, [c for (c,) in rel.tuples], default_aggregate(fn, bounds))
        assert got == want and type(got) is Fraction, kind


# ---------------------------------------------------------------------------
# Identities on random relations


def random_people(rng, schemas, n):
    names = ["John", "Tim", "Alice", "Natalie"]
    rows = {
        (rng.choice(names), Fraction(rng.randint(0, 120)), Fraction(rng.randint(0, 220)))
        for _ in range(n)
    }
    return Relation(schemas["People"], frozenset(rows))


def test_restriction_equals_difference_of_complement():
    schemas = parse_schemas(PEOPLE_TEXT)
    rng = random.Random(77)
    for trial in range(20):
        db = {"People": random_people(rng, schemas, rng.randint(0, 8))}
        kept = run_plan("count of select Age >= 20 from People", schemas, db)
        removed = run_plan(
            "count of People minus (select not (Age >= 20) from People)", schemas, db
        )
        assert kept.tuples == removed.tuples


def test_projection_of_everything_is_identity():
    schemas = parse_schemas(PEOPLE_TEXT)
    rng = random.Random(78)
    db = {"People": random_people(rng, schemas, 6)}
    out = run_plan("count of project Name, Age, Height from People", schemas, db)
    assert out.tuples == db["People"].tuples


def test_union_intersection_algebra():
    schemas = parse_schemas(PEOPLE_TEXT)
    rng = random.Random(79)
    a = random_people(rng, schemas, 5)
    b = random_people(rng, schemas, 5)
    db = {"People": a}
    # R ∪ R = R ∩ R = R at the evaluation level
    assert run_plan("count of People union People", schemas, db).tuples == a.tuples
    assert run_plan("count of People intersect People", schemas, db).tuples == a.tuples
    assert run_plan("count of People minus People", schemas, db).tuples == frozenset()
    assert b.tuples | a.tuples == (a.tuples | b.tuples)


# ---------------------------------------------------------------------------
# Products


def test_product_one_requires_exactly_one_row():
    text = """
    relation K { k: int [7, 7] }
    relation R { a: int [0, 5] }
    """
    schemas = parse_schemas(text)
    r = Relation.from_rows(schemas["R"], [(Fraction(1),), (Fraction(2),)])
    good = {"K": Relation.from_rows(schemas["K"], [(Fraction(7),)]), "R": r}
    out = run_plan("count of K product1 R", schemas, good)
    assert out.tuples == {(Fraction(7), Fraction(1)), (Fraction(7), Fraction(2))}

    empty = {"K": Relation(schemas["K"], frozenset()), "R": r}
    with pytest.raises(EvalError):
        run_plan("count of K product1 R", schemas, empty)


def test_product_n_truncates_deterministically():
    text = """
    relation L { x: int [0, 1] }
    relation R { a: int [0, 9] }
    """
    schemas = parse_schemas(text)
    left = Relation.from_rows(schemas["L"], [(Fraction(0),)])
    right = Relation.from_rows(schemas["R"], [(Fraction(v),) for v in (5, 1, 9, 3)])
    db = {"L": left, "R": right}
    out = run_plan("count of L productn 2 R", schemas, db)
    # the two smallest right-hand tuples under the canonical order
    assert out.tuples == {(Fraction(0), Fraction(1)), (Fraction(0), Fraction(3))}


def test_product_agg_attaches_the_aggregate():
    text = """
    relation L { x: int [0, 1] }
    relation R { a: int [0, 9] }
    """
    schemas = parse_schemas(text)
    left = Relation.from_rows(schemas["L"], [(Fraction(0),), (Fraction(1),)])
    right = Relation.from_rows(schemas["R"], [(Fraction(2),), (Fraction(6),)])
    db = {"L": left, "R": right}
    out = run_plan("count of L productagg avg(a) R", schemas, db)
    assert out.tuples == {(Fraction(0), Fraction(4)), (Fraction(1), Fraction(4))}

    # empty right side feeds the totalized default (midpoint of [0, 9])
    db_empty = {"L": left, "R": Relation(schemas["R"], frozenset())}
    out = run_plan("count of L productagg avg(a) R", schemas, db_empty)
    assert out.tuples == {
        (Fraction(0), Fraction(9, 2)),
        (Fraction(1), Fraction(9, 2)),
    }


def test_group_aggregate_on_empty_input_is_empty():
    schemas = parse_schemas(CARS_TEXT)
    db = {"Drivers": Relation(schemas["Drivers"], frozenset())}
    out = run_plan(
        "max(avg_Height) of group Car agg count, avg(Height) from Drivers",
        schemas,
        db,
    )
    assert out.tuples == frozenset()


# ---------------------------------------------------------------------------
# Loading and validation of data


def test_from_rows_rejects_violations_in_bulk():
    schemas = parse_schemas(PEOPLE_TEXT)
    with pytest.raises(DataError) as exc:
        Relation.from_rows(
            schemas["People"],
            [
                ("John", Fraction(30), Fraction(180)),
                ("Zed", Fraction(30), Fraction(180)),     # name not in domain
                ("Tim", Fraction(-1), Fraction(100)),     # age below range
                ("Alice", Fraction(45)),                  # wrong arity
            ],
        )
    assert len(exc.value.violations) == 3


def test_from_rows_enforces_check_constraint():
    schemas = parse_schemas(
        "relation R { a: int [0, 10]; b: int [0, 10] } check { a <= b }"
    )
    with pytest.raises(DataError):
        Relation.from_rows(schemas["R"], [(Fraction(5), Fraction(3))])


def test_from_rows_and_load_csv_word_the_same_violations_in_order(tmp_path):
    # one row check serves both: the same bad rows give the same lines
    schema = parse_schemas(
        'relation R { a: int [0, 9]; s: string in {"x", "y"} } check { a <= 5 or s = "x" }'
    )["R"]
    rows = [(3, "x"), (12, "x"), (7, "y"), (1, "z"), (1,), (1, "x", 2), (Fraction(1, 2), "x"),
            (4, "x"), (9, "y"), (0, "y" * 25)]
    with pytest.raises(DataError) as from_rows:
        Relation.from_rows(schema, rows)
    text = "a,s\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)
    with pytest.raises(DataError) as loaded:
        load_csv(schema, write_csv(tmp_path, text))
    assert from_rows.value.violations == loaded.value.violations == [
        "row 2: a = 12 outside its domain",
        "row 3: violates the check constraint",
        "row 4: s = z outside its domain",
        "row 5: expected 2 values, got 1",
        "row 6: expected 2 values, got 3",
        "row 7: a = 1/2 outside its domain",
        "row 9: violates the check constraint",
        "row 10: s = yyyyyyyyyyyyyyyyyyyy... outside its domain",
    ]


def test_load_csv(tmp_path):
    schemas = parse_schemas(PEOPLE_TEXT)
    path = tmp_path / "people.csv"
    path.write_text("Name,Age,Height\nJohn,30,180\nTim,10,100\n")
    rel = load_csv(schemas["People"], str(path))
    assert rel.tuples == {
        ("John", Fraction(30), Fraction(180)),
        ("Tim", Fraction(10), Fraction(100)),
    }


def test_load_csv_header_mismatch(tmp_path):
    schemas = parse_schemas(PEOPLE_TEXT)
    path = tmp_path / "people.csv"
    path.write_text("Name,Height\nJohn,180\n")
    with pytest.raises(DataError):
        load_csv(schemas["People"], str(path))


def test_load_csv_reports_bad_rows(tmp_path):
    schemas = parse_schemas(PEOPLE_TEXT)
    path = tmp_path / "people.csv"
    path.write_text("Name,Age,Height\nJohn,notanumber,180\nZed,10,100\n")
    with pytest.raises(DataError) as exc:
        load_csv(schemas["People"], str(path))
    assert len(exc.value.violations) == 2


def test_missing_relation_at_eval():
    schemas = parse_schemas(PEOPLE_TEXT)
    with pytest.raises(EvalError):
        run_plan("count of People", schemas, {})


# ---------------------------------------------------------------------------
# Containment: every evaluated node stays inside its propagated constraint


def test_eval_outputs_satisfy_node_constraints():
    from helpers import holds

    schemas = parse_schemas(PEOPLE_TEXT)
    rng = random.Random(80)
    plans = [
        "count of select Age >= 20 from People",
        "count of project Name from People",
        "count of (select Age >= 50 from People) union (select Age <= 10 from People)",
        "count of People minus (select Height >= 150 from People)",
        "count of project Name from select Height < 180 from People",
    ]
    for text in plans:
        tq = parse_query(text)
        memo = validate(tq, schemas)
        db = {"People": random_people(rng, schemas, 6)}
        out = eval_plan(tq.body, db, memo)
        node = memo.nodes[tq.body].schema
        names = node.attr_names()
        for tup in out.tuples:
            env = dict(zip(names, tup))
            # aux attributes are existentially quantified; direct check only
            # applies when the constraint mentions visible attributes alone
            from raqdp.constraints import constraint_attrs

            if constraint_attrs(node.constraint) <= set(names):
                assert holds(node.constraint, env)


def test_trace_reports_postorder_row_counts():
    schemas = parse_schemas(PEOPLE_TEXT)
    db = {"People": people_relation(schemas)}
    trace = []
    value = run_answer(
        "count of select Age >= 20 and Height < 180 from People", schemas, db, trace
    )
    assert value == 2
    assert trace == [("id", 4), ("restriction", 2)]


TRACE_TEXT = """
relation K { k: int [7, 7] }
relation L { x: int [0, 9] }
relation R { a: int [0, 9] }
relation T { a: int [0, 9] }
"""


@pytest.mark.parametrize(
    "query, trace",
    [
        ("count of T union (select a >= 2 from R)",
         [("id", 4), ("id", 3), ("restriction", 2), ("union", 5)]),
        ("count of K product1 R", [("id", 1), ("id", 3), ("product-one", 3)]),
        ("count of L productn 2 R", [("id", 3), ("id", 2), ("product-n", 4)]),
        ("count of L productagg sum(a) R", [("id", 3), ("id", 2), ("product-agg", 2)]),
        ("count of (L productagg count R) productn 1 T",
         [("id", 4), ("id", 3), ("id", 2), ("product-agg", 2), ("product-n", 2)]),
    ],
)
def test_trace_order_of_two_operand_nodes(query, trace):
    # each base relation has its own size, so a trace shows which ran first:
    # left before right, single before source, but the right operand first
    # for productn and productagg
    schemas = parse_schemas(TRACE_TEXT)
    rows = {"K": [7], "L": [0, 1], "R": [1, 2, 3], "T": [3, 4, 5, 6]}
    db = {name: Relation.from_rows(schemas[name], [(v,) for v in values])
          for name, values in rows.items()}
    got: list = []
    run_answer(query, schemas, db, got)
    assert got == trace


# ---------------------------------------------------------------------------
# CSV cells: integers as int, every aggregate as Fraction


def test_load_csv_refuses_a_cell_over_the_field_limit(tmp_path):
    schemas = parse_schemas("relation R { a: int [0, 9] }")
    path = tmp_path / "r.csv"
    path.write_text("a\n1\n2\n" + "1" * 131_073 + "\n3\n")
    with pytest.raises(DataError, match=r"r\.csv: line 4: field larger than field limit"):
        load_csv(schemas["R"], str(path))
    path.write_text("a" * 131_073 + "\n1\n")
    with pytest.raises(DataError, match=r"r\.csv: line 1: field larger than field limit"):
        load_csv(schemas["R"], str(path))


def test_load_csv_tells_an_empty_file_from_a_blank_header_line(tmp_path):
    schema = parse_schemas("relation R { a: int [0, 9] }")["R"]
    for text, message in [("", "empty file"),
                          ("\na\n1\n", "header [] does not match schema attributes ['a']")]:
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(DataError) as exc:
            load_csv(schema, str(path))
        assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("before", [256, 812])
def test_load_csv_names_the_line_of_an_over_limit_cell_past_the_first_chunk(tmp_path, before):
    schemas = parse_schemas("relation R { a: int [0, 9] }")
    path = tmp_path / "r.csv"
    path.write_text("a\n" + "1\n" * before + "1" * 131_073 + "\n2\n")
    with pytest.raises(DataError) as exc:
        load_csv(schemas["R"], str(path))
    assert str(exc.value) == f"{path}: line {before + 2}: field larger than field limit (131072)"


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_refuses_a_row_with_extra_fields(tmp_path, capsys):
    from raqdp.cli import main

    schema = tmp_path / "r.schema"
    schema.write_text("relation R { a: int [0, 9]; b: int [0, 9] }")
    query = tmp_path / "q.raq"
    query.write_text("sum(a) of R")
    data = write_csv(tmp_path, "a,b\n1,2,3\n4,5\n6\n")
    with pytest.raises(DataError) as exc:
        load_csv(parse_schemas(schema.read_text())["R"], data)
    assert exc.value.violations == [
        "row 1: expected 2 values, got 3",
        "row 3: expected 2 values, got 1",
    ]
    assert main(["run", str(schema), str(query), "--data", f"R={data}"]) == 2
    err = capsys.readouterr().err
    assert "row 1: expected 2 values, got 3" in err


CELL_TEXTS = ["+5", "-0", "007", "1_000", "1.0", "2.50", "1e2", "3/2", "٣", "1__0", "",
              "-", "inf", "nan", "1/0", "0x10"]


@pytest.mark.parametrize("text", CELL_TEXTS)
def test_csv_cells_parse_as_fraction_does(tmp_path, text):
    schemas = parse_schemas("relation R { k: int [0, 9]; x: real [-inf, inf] }")
    data = write_csv(tmp_path, f"k,x\n1,{text}\n")
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(DataError) as exc:
            load_csv(schemas["R"], data)
        assert exc.value.violations == [f"row 1: x = {text!r} is not a number"]
        return
    (row,) = load_csv(schemas["R"], data).tuples
    assert row[1] == want
    assert type(row[1]) is (int if want.denominator == 1 else Fraction)


def test_csv_integral_decimal_in_an_int_column(tmp_path):
    schemas = parse_schemas("relation R { a: int [0, 9] }")
    (row,) = load_csv(schemas["R"], write_csv(tmp_path, "a\n1.0\n")).tuples
    assert row == (1,) and type(row[0]) is int
    with pytest.raises(DataError) as exc:
        load_csv(schemas["R"], write_csv(tmp_path, "a\n1.5\n"))
    assert exc.value.violations == ["row 1: a = 3/2 outside its domain"]


def test_every_aggregate_of_int_cells_is_a_fraction(tmp_path):
    from raqdp.oracle import build_universe

    from helpers import reference_brute_ratio

    schemas = parse_schemas("relation S { a: int [0, 2] }\nrelation T { b: int [0, 50] }")
    t = load_csv(schemas["T"], write_csv(tmp_path, "b\n3\n7\n15\n"))
    assert all(type(v) is int for (v,) in t.tuples)
    for fn in (AggFn("count"), AggFn("sum", "b"), AggFn("max", "b"), AggFn("min", "b"),
               AggFn("avg", "b")):
        assert type(apply_agg(fn, t)) is Fraction
    # answers 3 (S = {1}) and 7 (S = {2}) at distance 2 give the ratio 2
    tq = parse_query("max(b) of select b <= a * 5 from (S product T)")
    vq = validate(tq, schemas)
    ratio = reference_brute_ratio(vq, build_universe(vq, {"T": t}))
    assert type(ratio) is Fraction
    grouped = run_answer("max(max_b) of group a agg count, max(b) from (S product T)", schemas,
                         {"S": Relation.from_rows(schemas["S"], [(1,)]), "T": t})
    assert grouped == 15 and type(grouped) is Fraction


def test_aggregate_columns_hold_integral_values_as_int():
    schemas = parse_schemas("relation L { x: int [0, 1] }\nrelation R { a: int [0, 9]; c: int [0, 9] }")
    db = {"L": Relation.from_rows(schemas["L"], [(0,), (1,)]),
          "R": Relation.from_rows(schemas["R"], [(2, 9), (3, 9), (3, 4)])}
    expected = {
        "count of L productagg max(c) R": {(0, 9), (1, 9)},
        "count of L productagg avg(a) R": {(0, Fraction(8, 3)), (1, Fraction(8, 3))},
        "count of group c agg count, sum(a), min(a), max(a), avg(a) from R": {
            (9, 2, 5, 2, 3, Fraction(5, 2)), (4, 1, 3, 3, 3, 3)},
    }
    for text, want in expected.items():
        out = run_plan(text, schemas, db).tuples
        assert out == want, text
        for row in out:
            assert [type(v) for v in row] == [
                int if Fraction(v).denominator == 1 else Fraction for v in row], text
        assert type(run_answer(text, schemas, db)) is Fraction


def test_compiled_query_holds_its_value_as_int_unless_it_is_not_integral():
    from raqdp.engine import compile_query

    schemas = parse_schemas("relation R { a: int [0, 9]; b: int [0, 9] }")
    db = {"R": Relation.from_rows(schemas["R"], [(1, 2), (3, 2), (4, 5)])}
    expected = {
        "count of R": 3, "sum(a) of R": 8, "max(a) of R": 4, "min(a) of R": 1,
        "avg(b) of R": 3, "avg(a) of R": Fraction(8, 3), "avg(a) of select a <= 3 from R": 2,
        "count of select a >= 8 from R": 0, "avg(a) of select a >= 8 from R": Fraction(17, 2),
        "avg(b) of select a >= 8 from R": Fraction(9, 2), "max(b) of select a >= 8 from R": 0,
        "sum(avg_a) of group b agg avg(a) from R": 6,
    }
    for text, want in expected.items():
        vq = validate(parse_query(text), schemas)
        got = compile_query(vq)(db)
        assert got == want, text
        assert type(got) is (int if Fraction(want).denominator == 1 else Fraction), text
        assert type(answer(vq, db)) is Fraction, text


def test_answers_agree_with_sqlite():
    """SQLite, a second evaluator, judges `eval_plan` and `answer` over random
    plans and databases: the body's tuples exactly, and the top aggregate
    exactly, an average as its SUM over its COUNT. A one-sided product raises
    exactly when SQLite counts other than one row on its one-row side. Cases
    with a group-level avg are skipped: its values are rationals, which SQLite
    holds as doubles."""
    from helpers import multi_relation_case, random_case, sqlite_answer

    rng = random.Random(2027)
    compared = raised = skipped = 0
    for i in range(400):
        tq, schemas, universe = (random_case if i % 2 else multi_relation_case)(rng)
        vq = validate(tq, schemas)
        for _ in range(3):
            db = dict(universe.context)
            for sr in universe.sensitive:
                db[sr.name] = Relation(sr.schema, frozenset(
                    t for t in sr.universe if rng.random() < 0.5))
            try:
                said = sqlite_answer(vq, db)
            except NotImplementedError:
                skipped += 1
                break
            if said is None:
                with pytest.raises(EvalError):
                    answer(vq, db)
                raised += 1
                continue
            rows, aggregate = said
            assert eval_plan(tq.body, db, vq).tuples == rows, tq
            fn = tq.fn
            if not rows:
                want = default_aggregate(fn, vq.bounds)
            elif fn.kind == "count":
                want = len(rows)
            elif fn.kind == "avg":
                want = Fraction(aggregate, len(rows))
            else:
                want = aggregate
            assert answer(vq, db) == want, tq
            compared += 1
    assert compared >= 1000 and raised >= 15 and skipped <= 40, (compared, raised, skipped)


# ---------------------------------------------------------------------------
# The generated CSV loop against a plain row-by-row reference

CHUNK_SCHEMA = """relation R {
  k: int [0, 20];
  x: real [-5, 5];
  m: num in {0, 1/2, 3, 1000};
  s: string in {"a", "b", "c"};
  y: real [-inf, 4];
  z: real [-2, inf];
  n: num in {-3, 7/2, 10}
} check { %s }"""
CHUNK_CHECKS = ["k >= x", "k != 7 and m <= 3", 's = "a" or k <= 10', "not (k = 3)", "true",
                "k - 2 * x >= m - 3 and s != \"c\"", "y <= k and n != 10", "z >= x or n = -3"]
CHUNK_STRING = 3  # the one string column; the others are numeric


def _cell_texts(v) -> list[str]:
    """Texts that read as the number v: plain, padded, decimal, fraction, exponent."""
    f = Fraction(v)
    texts = [str(f), f" {f} ", f"\x1c{f}", f"{float(f)}", f"{f.numerator * 2}/{f.denominator * 2}"]
    return texts + {10: ["1e1"], 1000: ["1e3"]}.get(f, [])


# A bad row: a valid row with this cell (column, text), extra field or
# missing fields, or the check constraint violated (three times as often,
# as a row breaks it in many ways).
BAD_ROWS = [(0, "zz"), (1, "1/0"), (2, ""), (0, "nan"), (0, "21"), (0, "-1"), (0, "3/2"),
            (1, "6"), (1, "-11/2"), (2, "2"), (2, "1e2"), (3, "d"), (3, " "),
            (4, "5"), (4, "inf"), (5, "-3"), (6, "0"), (6, "7/3"), ("long", "1"), ("long", "zz"), ("short", 1), ("short", 3)] + [("check", None)] * 3


def _chunked_csv_case(rng: random.Random, check: str, block: int, bad_rows=None):
    """A seeded CSV of two or more `block`-row blocks of valid rows, blank
    lines and duplicates. In about half the blocks, one row in twenty is
    spelled unusually or has a fraction in a numeric column, which keeps it
    off the plain `int` path; the other rows hold ints, some padded with
    spaces, which take it. With `bad_rows`, an iterator over `BAD_ROWS`, each
    block holds one bad row, often its first or last."""
    schema = parse_schemas(CHUNK_SCHEMA % check)["R"]
    satisfies = compile_constraint(schema.constraint, schema.attr_names())
    xs = [-5, Fraction(-5, 2), Fraction(-1, 4), 0, Fraction(1, 2), 3, 5]
    ms = [0, Fraction(1, 2), 3, 1000]
    ys = [-10**6, Fraction(-7, 3), 0, 4]
    zs = [-2, 0, Fraction(5, 2), 10**6]
    ns = [-3, Fraction(7, 2), 10]
    pools = {(odd, valid): [] for odd in (False, True) for valid in (False, True)}
    for _ in range(600):
        values = (rng.randint(0, 20), rng.choice(xs), rng.choice(ms), rng.choice("abc"),
                  rng.choice(ys), rng.choice(zs), rng.choice(ns))
        valid = satisfies(values)
        pools[True, valid].append(values)
        if all(v.__class__ is not Fraction for v in values):
            pools[False, valid].append(values)

    def row(valid: bool = True, odd: float = 0.0) -> list[str]:
        if rng.random() >= odd:
            values = rng.choice(pools[False, valid] or pools[False, True])
            pad = ["{}", " {}", "{} ", " {} "]
            return [str(v) if i == CHUNK_STRING else rng.choice(pad).format(v) for i, v in enumerate(values)]
        values = rng.choice(pools[True, valid] or pools[True, True])
        return [
            rng.choice([v, f" {v} ", f"\x1c{v}"] if i == CHUNK_STRING else _cell_texts(v))
            for i, v in enumerate(values)
        ]

    def bad(where, text) -> list[str]:
        if where == "check":
            return row(False)
        texts = row()
        if where == "long":
            return texts + [text]
        if where == "short":
            return texts[:text]
        texts[where] = text
        return texts

    n = rng.randint(block + 1, 2 * block + 200)
    odd = [rng.choice([0.0, 0.05]) for _ in range(n // block + 1)]
    lines = [row(odd=odd[i // block]) for i in range(n)]
    for _ in range(rng.randint(0, 5)):
        lines[rng.randrange(n)] = list(rng.choice(lines))  # a duplicate row
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randrange(n), [])  # a blank line
    for first in range(0, len(lines), block) if bad_rows else ():
        last = min(len(lines), first + block) - 1
        lines[rng.choice([first, last, rng.randint(first, last)])] = bad(*next(bad_rows))
    bom = "\ufeff" if rng.random() < 0.3 else ""
    return schema, bom + "k,x,m,s,y,z,n\n" + "".join(",".join(t) + "\n" for t in lines)


def _load_outcome(load, schema, path):
    """The loaded tuples with each cell's type, or the DataError's text and rows."""
    try:
        return frozenset(tuple((type(v), v) for v in t) for t in load(schema, path))
    except DataError as e:
        return str(e), e.violations


@pytest.mark.parametrize("chunk, cases", [(256, 48), (8, 48)])
def test_chunked_load_matches_the_row_by_row_reference(tmp_path, chunk, cases):
    """Files of 256-row blocks, and of 8-row blocks, where bad rows are dense."""
    from helpers import reference_load_csv

    rng = random.Random(131_313 + chunk)
    bad_rows = itertools.cycle(rng.sample(BAD_ROWS, len(BAD_ROWS)))
    refused = 0
    for case in range(cases):
        check = CHUNK_CHECKS[case // 2 % len(CHUNK_CHECKS)]
        schema, text = _chunked_csv_case(rng, check, chunk, bad_rows if case % 2 else None)
        path = write_csv(tmp_path, text, f"case{case}.csv")
        got = _load_outcome(lambda s, p: load_csv(s, p).tuples, schema, path)
        assert got == _load_outcome(reference_load_csv, schema, path), case
        refused += isinstance(got, tuple)
    assert refused == cases // 2


def test_load_csv_reads_again_only_the_rows_the_generated_loop_refuses(tmp_path, monkeypatch):
    """A `3.0` cell and a cell padded with U+001C, which `int` does not strip,
    send their own rows to the row-by-row check, and no other row."""
    checked = []
    row_checker = engine._row_checker

    def counting_checker(schema):
        check = row_checker(schema)
        return lambda label, cells: checked.append(label) or check(label, cells)

    monkeypatch.setattr(engine, "_row_checker", counting_checker)
    schema = parse_schemas("relation R { a: int [0, 999]; b: int [0, 9] }")["R"]
    lines = [f"{i},{i % 10}" for i in range(1000)]
    lines[103], lines[700] = "103,3.0", "\x1c700,0"
    path = write_csv(tmp_path, "a,b\n" + "".join(line + "\n" for line in lines))
    assert load_csv(schema, path).tuples == {(i, i % 10) for i in range(1000)}
    assert checked == [104, 701]


def _counting_checker(monkeypatch) -> list:
    """The labels of the rows `_row_checker`'s checks are called on, in order."""
    checked = []
    row_checker = engine._row_checker

    def counting_checker(schema):
        check = row_checker(schema)
        return lambda label, cells: checked.append(label) or check(label, cells)

    monkeypatch.setattr(engine, "_row_checker", counting_checker)
    return checked


MEMO_SCHEMA = "relation R { a: int [0, 999]; b: int [0, 9]; m: num in {1/2, 3} }"


@pytest.mark.parametrize("bs, ms", [
    (["0", "5", "9"], ["1/2", "3"]),  # canonical: the loop reads every row
    (["00", "05", "5", "09"], ["1/2"]),
    ([" 0", "5 ", " 9 ", "9"], ["3", "1/2"]),
    (["0", "7"], ["2/4", " 1/2", "3.0", "6/2", "1/2"]),
])
def test_a_spelling_reaches_the_row_check_once(tmp_path, monkeypatch, bs, ms):
    """Each cell table learns an in-domain spelling from the first row that
    holds it, so at most one row per distinct non-canonical text is read
    again, and a file of canonical texts sends none."""
    checked = _counting_checker(monkeypatch)
    rng = random.Random(len(bs) * 10 + len(ms))
    rows = [(i, rng.choice(bs), rng.choice(ms)) for i in range(1000)]
    path = write_csv(tmp_path, "a,b,m\n" + "".join(f"{i},{b},{m}\n" for i, b, m in rows))
    schema = parse_schemas(MEMO_SCHEMA)["R"]
    assert load_csv(schema, path).tuples == {(i, int(b), Fraction(m.strip())) for i, b, m in rows}
    canonical = [set(map(str, range(10))), {"1/2", "3"}]
    seen, first = [set(texts) for texts in canonical], []
    for i, *texts in rows:
        if any(t not in known for t, known in zip(texts, seen)):
            first.append(i + 1)
        for t, known in zip(texts, seen):
            known.add(t)
    assert checked == first
    assert len(checked) <= len(set(bs) - canonical[0]) + len(set(ms) - canonical[1])


def test_a_refused_spelling_is_not_learned(tmp_path, monkeypatch):
    """A text outside its domain, or not a number, stays out of the table:
    every row that holds it is read again, and each is reported."""
    checked = _counting_checker(monkeypatch)
    lines = [f"{i},{'10' if i % 3 else ' 05'},3" for i in range(9)] + ["9,zz,3", "10,zz,3"]
    path = write_csv(tmp_path, "a,b,m\n" + "".join(line + "\n" for line in lines))
    with pytest.raises(DataError) as refused:
        load_csv(parse_schemas(MEMO_SCHEMA)["R"], path)
    assert checked == [1, 2, 3, 5, 6, 8, 9]  # row 1 teaches " 05"
    assert refused.value.violations == [
        "row 10: b = 'zz' is not a number",
        "row 11: b = 'zz' is not a number",
        *(f"row {r}: b = 10 outside its domain" for r in checked[1:]),
    ]


DIFF_WORDS = [f"w{i}" for i in range(300)]  # over the table cap: read by .get and a set test
DIFF_SCHEMA = """relation R {
  a: int [0, 9];
  b: int [-300, 300];
  m: num in {-5/2, 1/2, 3, 1000};
  s: string in {"a", "b", " c", "d e"};
  x: real [-5, 5];
  w: string in {%s}
} check { a + b <= 200 or s = "a" }""" % ", ".join(f'"{w}"' for w in DIFF_WORDS)
_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _spellings(v) -> list[str]:
    """Texts that read as v, canonical ones the most often."""
    if isinstance(v, str):
        return [v, v, v, f" {v} ", f"\x1c{v}", f"{v}  "]
    f = Fraction(v)
    sign, n, d = "-" if f < 0 else "", abs(f.numerator), f.denominator
    base = str(f)
    out = [base, base, base, f" {base}", f"{base} ", f"\x1c{base}", base.translate(_FULLWIDTH),
           f"{sign}0{n}" + (f"/{d}" if d > 1 else ""), f"{2 * f.numerator}/{2 * d}"]
    if f >= 0:
        out.append(f"+{base}")
    if d in (1, 2, 4, 5):
        out.append(f"{float(f)}")
    if d == 1 and n >= 10:
        out.append(sign + "_".join(str(n)))
    if d == 1 and n and n % 10 == 0:
        out.append(f"{sign}{n // 10}e1")
    return out


# (column, text) cells no row may hold; a row too long or too short; a check violation
DIFF_BAD = [(0, "10"), (0, "-1"), (0, "zz"), (0, "3/2"), (0, ""), (1, "301"), (1, "1/0"),
            (1, "nan"), (2, "1/3"), (2, "7"), (2, "inf"), (3, "zz"), (3, " c"), (3, ""),
            (4, "6"), (4, "-inf"), (5, "w300"), (5, "W1"), ("long", "1"), ("short", 4),
            ("short", 1), ("check", None)]


def _differential_case(rng: random.Random, bad_rows=None) -> str:
    """A seeded CSV over DIFF_SCHEMA: valid rows spelled in many ways,
    duplicates, blank rows, perhaps a BOM, and with `bad_rows`, an iterator
    over `DIFF_BAD`, a few bad rows, each once or twice."""
    pools = ([0, 3, 7, 9], [-300, -17, 0, 5, 10, 120, 300], [Fraction(-5, 2), Fraction(1, 2), 3, 1000],
             ["a", "b", "d e"], [-5, Fraction(-5, 2), Fraction(1, 3), 0, Fraction(1, 2), 5],
             DIFF_WORDS[::37])

    def row(valid: bool = True, plain: bool = False) -> list[str]:
        """A row's texts; `plain`, canonical texts the loop reads whole."""
        while True:
            values = [rng.choice(pool) for pool in pools]
            if plain:
                values[4] = rng.choice([-5, 0, 5])
            if (values[0] + values[1] <= 200 or values[3] == "a") == valid:
                return [str(v) if plain else rng.choice(_spellings(v)) for v in values]

    lines = [row() for _ in range(rng.randint(50, 400))]
    for _ in range(rng.randint(0, 5)):
        lines[rng.randrange(len(lines))] = list(rng.choice(lines))
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randrange(len(lines)), [])
    for _ in range(rng.randint(1, 4) if bad_rows else 0):
        where, text = next(bad_rows)
        texts = row(where != "check", plain=rng.random() < 0.5)
        if where == "long":
            texts.append(text)
        elif where == "short":
            texts = texts[:text]
        elif where != "check":
            texts[where] = text
        for _ in range(rng.randint(1, 2)):  # twice: a later row with the text is refused too
            lines.insert(rng.randrange(len(lines)), texts)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([["a", "b", "m", "s", "x", "w"], *lines])
    return ("\ufeff" if rng.random() < 0.3 else "") + out.getvalue()


def test_cell_tables_load_what_the_loop_without_them_loaded(tmp_path):
    """Seeded files of canonical, padded, zero-led, signed, `1_0`,
    Unicode-digit, U+001C-padded, `3.0`, `1e1` and `3/2` cells, bad rows, blank
    rows and BOMs: the loader with cell tables gives the tuples of the loader
    without them (`reference_loop_load_csv`), every string cell its domain's
    member object, or the same DataError."""
    from helpers import reference_loop_load_csv

    schema = parse_schemas(DIFF_SCHEMA)["R"]
    members = {a: {id(m) for m in schema.domain(a).members} for a in ("s", "w")}
    rng = random.Random(33_033)
    bad_rows = itertools.cycle(rng.sample(DIFF_BAD, len(DIFF_BAD)))
    refused = 0
    for case in range(40):
        text = _differential_case(rng, bad_rows if case % 2 else None)
        path = write_csv(tmp_path, text, f"case{case}.csv")
        got = _load_outcome(lambda s, p: load_csv(s, p).tuples, schema, path)
        assert got == _load_outcome(reference_loop_load_csv, schema, path), case
        if isinstance(got, tuple):
            refused += 1
            continue
        for t in load_csv(schema, path).tuples:
            assert id(t[3]) in members["s"] and id(t[5]) in members["w"], (case, t)
    assert refused == 20


@pytest.mark.parametrize("cell", ["x\ny", "x\x00", "\x1b[2Jy"])
def test_a_violation_shows_a_control_character_escaped(tmp_path, cell):
    """A cell holding a newline, a NUL or an escape gives one violation line
    that holds no control character."""
    schema = parse_schemas('relation R { a: int [0, 5]; s: string in {"x", "y"} }')["R"]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([("a", "s"), ("1", cell)])
    with pytest.raises(DataError) as loaded:
        load_csv(schema, write_csv(tmp_path, out.getvalue()))
    with pytest.raises(DataError) as built:
        Relation.from_rows(schema, [(1, cell)])
    for violations in (loaded.value.violations, built.value.violations):
        assert violations == [f"row 1: s = {cell!r} outside its domain"]
        assert "\n".join(violations).isprintable()


def test_a_violation_cuts_an_escaped_value_at_20_characters():
    schema = parse_schemas('relation R { s: string in {"x"} }')["R"]
    with pytest.raises(DataError) as built:
        Relation.from_rows(schema, [("\x1b" + "z" * 30,), ("z" * 30,)])
    assert built.value.violations == [
        f"row 1: s = {chr(27) + 'z' * 19!r}... outside its domain",
        f"row 2: s = {'z' * 20}... outside its domain",
    ]


# ---------------------------------------------------------------------------
# Generated source: only generated names, positions and fixed operators

HOSTILE_SCHEMA = r"""relation R {
  a: int [0, 9];
  s: string in {"it's", "back\\slash", "q\"uote", "__import__('os')"}
} check { s != "__import__('os')" or a <= 3 }"""

# every name a generated source may hold besides the constants k0, k1, ...
# and the loader's cells and the walk's loop variables c0, c1, ...
GENERATED_NAMES = {
    "def", "return", "lambda", "and", "or", "not", "in", "for", "if", "try", "except",
    "True", "False", "None", "_make", "_f", "v", "db", "rows", "out", "append",
    "enumerate", "label", "row", "int", "strip", "continue", "ValueError", "KeyError", "pass",
    "bad", "frozenset",
    "_", "seen", "set", "add", "point",
}
GENERATED_OPS = {"(", ")", "[", "]", "{", "}", ":", ",", ".", "=",
                 "==", "!=", "<=", ">=", "<", ">", "+", "-", "*"}


def _foreign_tokens(source: str) -> list[str]:
    """The tokens of a generated source that are not generated names, tuple
    positions or fixed operators."""
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            ok = tok.string in GENERATED_NAMES or re.fullmatch(r"[kc]\d+", tok.string)
        elif tok.type == tokenize.NUMBER:
            ok = tok.string.isdigit()
        elif tok.type == tokenize.OP:
            ok = tok.string in GENERATED_OPS
        else:
            ok = tok.type in (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER)
        if not ok:
            out.append(tok.string)
    return out


def test_no_schema_or_query_text_reaches_compile(tmp_path, monkeypatch):
    sources = []
    factory = constraints._factory
    monkeypatch.setattr(constraints, "_factory", lambda source: sources.append(source) or factory(source))
    schemas = parse_schemas(HOSTILE_SCHEMA)
    schema = schemas["R"]
    hostile = "__import__('os')"
    rows = [(a, s) for a in range(10) for s in schema.domain("s").members if s != hostile or a <= 3]

    def path_of(extra, name):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([("a", "s"), *rows, *extra])
        return write_csv(tmp_path, out.getvalue(), name)

    # the generated loop alone, and a row read again on its own for its "3.0"
    assert load_csv(schema, path_of([], "chunk.csv")).tuples == frozenset(rows)
    assert load_csv(schema, path_of([("3.0", hostile)], "rows.csv")).tuples == frozenset(rows)
    with pytest.raises(DataError) as refused:
        load_csv(schema, path_of([(5, hostile)], "bad.csv"))
    assert refused.value.violations == [f"row {len(rows) + 1}: violates the check constraint"]
    db = {"R": load_csv(schema, path_of([], "chunk.csv"))}
    query = parse_query("count of select s in {\"__import__('os')\", \"it's\"} or a * 2 > 15 from R")
    assert answer(validate(query, schemas), db) == 4 + 10 + 2 * 2
    assert any("enumerate(rows, 1)" in source for source in sources)  # the CSV loop
    assert any("(db) if" in source for source in sources)  # the restriction
    assert any("for _ in [()]" in source for source in sources)  # a grid walk, from validation
    assert [tok for source in sources for tok in _foreign_tokens(source)] == []


# ---------------------------------------------------------------------------
# End to end against plain Python over a seeded CSV

RELEASE_TEXT = """
relation People {
  Id: int [0, 9999];
  Name: string in {"Ann", "Bob", "Cy", "Dee"};
  Weight: int [0, 150];
  Height: int [0, 200]
} check { Weight <= Height }
relation Dept { DId: int [0, 99]; Budget: int [0, 1000] }
"""


def test_release_shapes_match_plain_python(tmp_path):
    rng = random.Random(4242)
    people = []
    for i in range(500):
        height = rng.randint(0, 200)
        people.append((i, rng.choice("Ann Bob Cy Dee".split()), rng.randint(0, min(150, height)),
                       height))
    dept = list(zip(rng.sample(range(100), 20), (rng.randint(0, 1000) for _ in range(20))))
    schemas = parse_schemas(RELEASE_TEXT)
    db = {
        "People": load_csv(schemas["People"], write_csv(
            tmp_path, "Id,Name,Weight,Height\n" + "".join(f"{i},{n},{w},{h}\n" for i, n, w, h in people),
            "people.csv")),
        "Dept": load_csv(schemas["Dept"], write_csv(
            tmp_path, "DId,Budget\n" + "".join(f"{d},{b}\n" for d, b in dept), "dept.csv")),
    }

    def avg(values):
        return Fraction(sum(values), len(values))

    by_name = {}
    for _, name, w, _ in people:
        by_name.setdefault(name, []).append(w)
    heavy = sum(1 for _, _, w, _ in people if w >= 120)
    expected = {
        "avg(Weight) of select Weight <= Height - 100 from People":
            avg([w for _, _, w, h in people if w <= h - 100]),
        "avg(avg_Weight) of group Name agg count, avg(Weight) from People":
            avg([avg(ws) for ws in by_name.values()]),
        'sum(Weight) of select Name in {"Ann", "Bob"} from People':
            Fraction(sum(w for _, n, w, _ in people if n in ("Ann", "Bob"))),
        "sum(Budget) of (select Weight >= 120 from People) productn 2 Dept":
            Fraction(heavy * sum(b for _, b in sorted(dept)[:2])),
        "avg(Weight) of People productagg max(Budget) Dept":
            avg([w for _, _, w, _ in people]),
    }
    for text, want in expected.items():
        got = run_answer(text, schemas, db)
        assert got == want and type(got) is Fraction, text

    as_fractions = [(Fraction(i), n, Fraction(w), Fraction(h)) for i, n, w, h in people]
    assert Relation.from_rows(schemas["People"], as_fractions).tuples == db["People"].tuples


def test_exponent_cells_past_the_digit_limit_are_refused_before_they_are_built(tmp_path):
    # 1e20000000 would take Fraction half a minute to build, and 1e5000 could
    # not be printed: the digits written plus the exponent's size are counted
    limit = sys.get_int_max_str_digits()
    schemas = parse_schemas("relation R { x: real [-inf, inf]; y: real [0, 10] }")
    cells = ["1e20000000", "1e5000", "-2.5E+9000", f"1e-{limit}", f"1e{limit - 1}", "0"]
    data = write_csv(tmp_path, "x,y\n" + "".join(f"{x},1\n" for x in cells) + "0,1e400\n0,11\n")
    with pytest.raises(DataError) as exc:
        load_csv(schemas["R"], data)
    assert exc.value.violations == [
        f"row {i}: x = {text!r}... has more than {limit} digits" for i, text in enumerate(cells[:4], 1)
    ] + [
        "row 7: y = 10000000000000000000... outside its domain",  # 401 digits, cut
        "row 8: y = 11 outside its domain",  # short values print whole
    ]
    data = write_csv(tmp_path, "x,y\n" + "".join(f"{x},1\n" for x in cells[4:]))
    assert load_csv(schemas["R"], data).tuples == {(10 ** (limit - 1), 1), (0, 1)}


def test_csv_cell_past_the_digit_limit_says_so_briefly(tmp_path):
    limit = sys.get_int_max_str_digits()
    schemas = parse_schemas("relation R { x: real [-inf, inf] }")
    data = write_csv(tmp_path, "x\n1" + "0" * limit + "\n")
    with pytest.raises(DataError) as exc:
        load_csv(schemas["R"], data)
    (line,) = exc.value.violations
    assert line.startswith("row 1: x = '1000") and line.endswith(f"has more than {limit} digits")
    assert len(line) < 80


# ---------------------------------------------------------------------------
# Memory: one str object per string value, hash tables sized once

NAMES_TEXT = """relation People {
  Id: int [0, 99999];
  Name: string in {"Ann", "Bob", "Cy", "Dee"};
  Weight: int [0, 150];
  Height: int [0, 200]
} check { Weight <= Height }
relation Dept { DId: int [0, 99]; Budget: int [0, 1000] }
"""


def people_csv(tmp_path, n: int, pads=("",)) -> str:
    """n distinct People rows, each Name cell wrapped in a pad drawn from `pads`."""
    rng = random.Random(n)
    lines = []
    for i in range(n):
        pad = rng.choice(pads)
        height = rng.randint(0, 200)
        lines.append(f"{i},{pad}{rng.choice('Ann Bob Cy Dee'.split())}{pad},"
                     f"{rng.randint(0, min(150, height))},{height}\n")
    return write_csv(tmp_path, "Id,Name,Weight,Height\n" + "".join(lines), "people.csv")


def test_loaded_string_cells_are_their_domains_member_objects(tmp_path):
    schema = parse_schemas(NAMES_TEXT)["People"]
    members = schema.domain("Name").members
    people = load_csv(schema, people_csv(tmp_path, 1000, pads=("", " ", "  ")))
    names = [t[1] for t in people.tuples]
    assert len(names) == 1000
    assert all(any(name is m for m in members) for name in names)
    assert len(set(map(id, names))) <= 4


def test_a_product_agg_output_keeps_a_hash_table_sized_once():
    schemas = parse_schemas(NAMES_TEXT)
    rows = [(i, "Ann", i % 151, 200) for i in range(20_000)]
    db = {
        "People": Relation(schemas["People"], frozenset(rows)),
        "Dept": Relation(schemas["Dept"], frozenset({(1, 5)})),
    }
    vq = validate(parse_query("avg(Weight) of People productagg max(Budget) Dept"), schemas)
    out = compile_plan(vq.query.body, vq)(db)
    assert len(out) == 20_000
    assert sys.getsizeof(out) == sys.getsizeof(frozenset(set(out)))


def test_load_csv_peaks_at_little_more_than_the_relation_it_keeps(tmp_path):
    schema = parse_schemas(NAMES_TEXT)["People"]
    path = people_csv(tmp_path, 20_000)
    load_csv(schema, path)  # the first load compiles the generated loop
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        people = load_csv(schema, path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(people) == 20_000
    assert peak - base <= 1.4 * (kept - base), (peak - base, kept - base)
