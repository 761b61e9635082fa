"""Evaluation semantics: the reference tables, CSV loading, identities."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from raqdp import engine
from raqdp.constraints import compile_constraint
from raqdp.engine import Relation, answer, apply_agg, eval_plan, load_csv
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


@pytest.mark.parametrize("before", [engine._CHUNK, 2 * engine._CHUNK + 300])
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


# ---------------------------------------------------------------------------
# Chunked CSV load against a plain row-by-row reference

CHUNK_SCHEMA = """relation R {
  k: int [0, 20];
  x: real [-5, 5];
  m: num in {0, 1/2, 3, 1000};
  s: string in {"a", "b", "c"}
} check { %s }"""
CHUNK_CHECKS = ["k >= x", "k != 7 and m <= 3", 's = "a" or k <= 10', "not (k = 3)", "true",
                "k - 2 * x >= m - 3 and s != \"c\""]


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
            ("long", "1"), ("long", "zz"), ("short", 1), ("short", 3)] + [("check", None)] * 3


def _chunked_csv_case(rng: random.Random, check: str, chunk: int, bad_rows=None):
    """A seeded CSV of two or more `chunk`-row chunks (two or three at the
    real chunk size) of valid rows, blank lines and duplicates. In about half
    the chunks, one row in twenty is spelled unusually or has a fraction for
    x or m, which keeps its column off the plain `int` path; the other rows
    hold ints, so that the other chunks take it. With `bad_rows`, an iterator
    over `BAD_ROWS`, each chunk holds one bad row, often its first or last,
    so that no other bad row hides it."""
    schema = parse_schemas(CHUNK_SCHEMA % check)["R"]
    satisfies = compile_constraint(schema.constraint, schema.attr_names())
    xs = [-5, Fraction(-5, 2), Fraction(-1, 4), 0, Fraction(1, 2), 3, 5]
    ms = [0, Fraction(1, 2), 3, 1000]
    pools = {(odd, valid): [] for odd in (False, True) for valid in (False, True)}
    for _ in range(400):
        values = (rng.randint(0, 20), rng.choice(xs), rng.choice(ms), rng.choice("abc"))
        valid = satisfies(values)
        pools[True, valid].append(values)
        if values[1].__class__ is int and values[2].__class__ is int:
            pools[False, valid].append(values)

    def row(valid: bool = True, odd: float = 0.0) -> list[str]:
        if rng.random() >= odd:
            return [str(v) for v in rng.choice(pools[False, valid] or pools[False, True])]
        values = rng.choice(pools[True, valid] or pools[True, True])
        texts = [rng.choice(_cell_texts(v)) for v in values[:3]]
        return texts + [rng.choice([values[3], f" {values[3]} ", f"\x1c{values[3]}"])]

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

    n = rng.randint(chunk + 1, 2 * chunk + 200)
    odd = [rng.choice([0.0, 0.05]) for _ in range(n // chunk + 1)]
    lines = [row(odd=odd[i // chunk]) for i in range(n)]
    for _ in range(rng.randint(0, 5)):
        lines[rng.randrange(n)] = list(rng.choice(lines))  # a duplicate row
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randrange(n), [])  # a blank line
    for first in range(0, len(lines), chunk) if bad_rows else ():
        last = min(len(lines), first + chunk) - 1
        lines[rng.choice([first, last, rng.randint(first, last)])] = bad(*next(bad_rows))
    bom = "\ufeff" if rng.random() < 0.3 else ""
    return schema, bom + "k,x,m,s\n" + "".join(",".join(t) + "\n" for t in lines)


def _load_outcome(load, schema, path):
    """The loaded tuples with each cell's type, or the DataError's text and rows."""
    try:
        return frozenset(tuple((type(v), v) for v in t) for t in load(schema, path))
    except DataError as e:
        return str(e), e.violations


@pytest.mark.parametrize("chunk, cases", [(engine._CHUNK, 48), (8, 48)])
def test_chunked_load_matches_the_row_by_row_reference(tmp_path, monkeypatch, chunk, cases):
    """At the real chunk size, and at 8 rows, where a file has many chunks."""
    from helpers import reference_load_csv

    monkeypatch.setattr(engine, "_CHUNK", chunk)
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


def test_csv_cell_past_the_digit_limit_says_so_briefly(tmp_path):
    limit = sys.get_int_max_str_digits()
    schemas = parse_schemas("relation R { x: real [-inf, inf] }")
    data = write_csv(tmp_path, "x\n1" + "0" * limit + "\n")
    with pytest.raises(DataError) as exc:
        load_csv(schemas["R"], data)
    (line,) = exc.value.violations
    assert line.startswith("row 1: x = '1000") and line.endswith(f"has more than {limit} digits")
    assert len(line) < 80
