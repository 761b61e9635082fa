"""Set-semantics evaluation of query plans over in-memory relations.

Relations are frozen sets of value tuples; every value is an exact rational
or a string, held as `constraints.held_value` holds it: an integral value is
an `int` (equal and hash-equal to its `Fraction`), as in the solution grids
of static analysis. Loading validates each row against the schema's domains
(`Domain.member_test`) and compiled check constraint, so evaluation can
assume constraint-valid inputs. Types are checked when a schema is built and
when a query is validated, never per row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union as TUnion

from .constraints import Bounds, ConstrainedSchema, compile_constraint, held_value
from .errors import DataError, EvalError
from .extmath import too_many_digits
from .query import (
    AggFn,
    Difference,
    GroupAggregate,
    Id,
    Intersection,
    Plan,
    Product,
    ProductAgg,
    ProductN,
    ProductOne,
    Projection,
    Restriction,
    TopQuery,
    Union,
    default_aggregate,
    op_name,
)

Value = TUnion[int, Fraction, str]


@dataclass(frozen=True)
class Relation:
    schema: ConstrainedSchema
    tuples: frozenset

    def __len__(self) -> int:
        return len(self.tuples)

    @classmethod
    def from_rows(cls, schema: ConstrainedSchema, rows: Iterable) -> "Relation":
        check = _row_checker(schema)
        out = set()
        violations: list[str] = []
        for i, row in enumerate(rows):
            cells = tuple(map(held_value, row))
            problem = check(i + 1, cells)
            if problem:
                violations.append(problem)
            else:
                out.add(cells)
        if violations:
            raise DataError(
                f"{len(violations)} invalid row(s) for relation {schema.name!r}", violations
            )
        return cls(schema, frozenset(out))


def _number_parser(attr: str):
    """A parser of the attribute's CSV cells into numbers as `held_value`
    holds them. It accepts what `Fraction(text)` accepts, trying `int` first."""

    def parse(text: str):
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return held_value(Fraction(text))
        except (ValueError, ZeroDivisionError):
            error = too_many_digits(text, f"{attr} = {text[:20]!r}...")
            raise error or ValueError(f"{attr} = {text!r} is not a number") from None

    return parse


def _row_checker(schema: ConstrainedSchema):
    """check(label, cells): the first violation of one row, or None.

    The cells are held as `held_value` holds them. The row is tested for its
    arity, then cell by cell against its domain, then against the schema's
    compiled check constraint.
    """
    names = schema.attr_names()
    columns = tuple((a, schema.domain(a).member_test()) for a in names)
    satisfies = compile_constraint(schema.constraint, names)

    def check(label, cells: tuple) -> str | None:
        if len(cells) != len(columns):
            return f"row {label}: expected {len(columns)} values, got {len(cells)}"
        for (a, test), v in zip(columns, cells):
            if not test(v):
                if v.__class__ not in (int, Fraction, str):
                    return f"row {label}: unsupported value {v!r} for {a}"
                return f"row {label}: {a} = {v} outside its domain"
        return None if satisfies(cells) else f"row {label}: violates the check constraint"

    return check


def load_csv(schema: ConstrainedSchema, path: str) -> Relation:
    """The relation in a CSV file whose header names the schema's attributes.

    Rows with a cell that is not a number where one is due are reported
    first; then rows with too many or too few fields, cells outside their
    domain and rows violating the check constraint, in file order.
    """
    names = schema.attr_names()
    parsers = [_number_parser(a) if schema.domain(a).is_numeric else str for a in names]
    check = _row_checker(schema)
    out = set()
    not_numbers: list[str] = []
    violations: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file", []) from None
        if [h.strip() for h in header] != list(names):
            raise DataError(
                f"{path}: header {header} does not match schema attributes {list(names)}", []
            )
        for i, row in enumerate(reader):
            if not row:
                continue
            try:
                cells = tuple([parse(text.strip()) for parse, text in zip(parsers, row)])
            except ValueError as e:
                not_numbers.append(f"row {i + 1}: {e}")
                continue
            if len(row) > len(names):
                cells = tuple(row)  # whole, so that the arity test refuses it
            problem = check(i + 1, cells)
            if problem:
                violations.append(problem)
            else:
                out.add(cells)
    violations = not_numbers + violations
    if violations:
        raise DataError(f"{path}: {len(violations)} invalid row(s)", violations)
    return Relation(schema, frozenset(out))


def value_key(v: Value):
    return (1, v) if isinstance(v, str) else (0, v)


def tuple_key(t: tuple):
    return tuple(value_key(v) for v in t)


# ---------------------------------------------------------------------------
# Aggregation


def apply_agg(fn: AggFn, relation: Relation, bounds: Bounds | None = None) -> Fraction:
    """Totalized aggregation: an empty input takes the default for the
    aggregated attribute's value range `bounds` (see `default_aggregate`)."""
    tuples = relation.tuples
    if not tuples:
        return default_aggregate(fn, bounds)
    if fn.kind == "count":
        return Fraction(len(tuples))
    idx = relation.schema.index(fn.attr)
    values = [t[idx] for t in tuples]
    # cells may be int: each result is made a Fraction once, at the end
    if fn.kind == "max":
        return Fraction(max(values))
    if fn.kind == "min":
        return Fraction(min(values))
    total = Fraction(sum(values))
    return total if fn.kind == "sum" else total / len(values)


# ---------------------------------------------------------------------------
# Plan evaluation


def eval_plan(
    plan: Plan,
    db: dict[str, Relation],
    node_schemas: dict,
    *,
    trace: list | None = None,
) -> Relation:
    """The plan's output over `db`; `node_schemas` is the map `validate` returns."""
    schema = node_schemas[plan]

    def rec(child):
        return eval_plan(child, db, node_schemas, trace=trace)

    if isinstance(plan, Id):
        if plan.relation not in db:
            raise EvalError(f"no data loaded for relation {plan.relation!r}")
        tuples = db[plan.relation].tuples
    elif isinstance(plan, Union):
        tuples = rec(plan.left).tuples | rec(plan.right).tuples
    elif isinstance(plan, Intersection):
        tuples = rec(plan.left).tuples & rec(plan.right).tuples
    elif isinstance(plan, Difference):
        tuples = rec(plan.left).tuples - rec(plan.right).tuples
    elif isinstance(plan, Restriction):
        source = rec(plan.source)
        test = compile_constraint(plan.predicate, source.schema.attr_names())
        tuples = frozenset(filter(test, source.tuples))
    elif isinstance(plan, Projection):
        source = rec(plan.source)
        idxs = [source.schema.index(a) for a in plan.attrs]
        tuples = frozenset(tuple(t[i] for i in idxs) for t in source.tuples)
    elif isinstance(plan, Product):
        tuples = _cross(rec(plan.left).tuples, rec(plan.right).tuples)
    elif isinstance(plan, ProductOne):
        single = rec(plan.single)
        if len(single) != 1:
            raise EvalError(
                f"one-sided product requires exactly one tuple, found {len(single)}"
            )
        tuples = _cross(single.tuples, rec(plan.source).tuples)
    elif isinstance(plan, ProductN):
        right = rec(plan.right)
        block = sorted(right.tuples, key=tuple_key)[: plan.n]
        tuples = _cross(rec(plan.left).tuples, block)
    elif isinstance(plan, ProductAgg):
        right = rec(plan.right)
        value = apply_agg(plan.fn, right, node_schemas[TopQuery(plan.fn, plan.right)])
        tuples = frozenset(l + (value,) for l in rec(plan.left).tuples)
    elif isinstance(plan, GroupAggregate):
        source = rec(plan.source)
        tuples = _group_rows(plan, source)
    else:
        raise TypeError(f"not a plan node: {plan!r}")

    out = Relation(schema, frozenset(tuples))
    if trace is not None:
        trace.append((op_name(plan), len(out)))
    return out


def _cross(left, right) -> frozenset:
    return frozenset(l + r for l in left for r in right)


def _group_rows(plan: GroupAggregate, source: Relation) -> frozenset:
    if not source.tuples:
        return frozenset()
    key_idx = [source.schema.index(a) for a in plan.group_attrs]
    groups: dict[tuple, list] = {}
    for t in source.tuples:
        groups.setdefault(tuple(t[i] for i in key_idx), []).append(t)
    rows = set()
    for key, members in groups.items():
        member_rel = Relation(source.schema, frozenset(members))
        aggs = tuple(apply_agg(f, member_rel) for f in plan.fns)
        rows.add(key + aggs)
    return frozenset(rows)


def answer(
    tq: TopQuery,
    db: dict[str, Relation],
    node_schemas: dict,
    *,
    trace: list | None = None,
) -> Fraction:
    """The exact value of the query's top-level aggregation."""
    body = eval_plan(tq.body, db, node_schemas, trace=trace)
    return apply_agg(tq.fn, body, node_schemas[tq])
