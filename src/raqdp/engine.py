"""Set-semantics evaluation of query plans over in-memory relations.

Relations are frozen sets of value tuples; every value is an exact rational
or a string, held as `constraints.held_value` holds it: an integral value is
an `int` (equal and hash-equal to its `Fraction`), as in the solution grids
of static analysis; so are the aggregate columns of product-agg and grouping.
Loading validates each row against the schema's domains (`Domain.member_test`)
and compiled check constraint, so evaluation can assume constraint-valid
inputs. A CSV file is read in chunks of rows, each tested a column at a time
in loops the interpreter runs in C; a chunk that fails that test is loaded
again row by row, the one path that words violations. Types are checked when
a schema is built and when a query is validated, never per row.

A plan is compiled once (`compile_plan`, `compile_query`) into a function of
databases; `eval_plan` and `answer` compile and run it once.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
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
    Union,
    ValidatedQuery,
    default_aggregate,
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


_CHUNK = 256  # rows per bulk test: its lists stay in cache and add little to peak memory


def load_csv(schema: ConstrainedSchema, path: str) -> Relation:
    """The relation in a CSV file whose header names the schema's attributes.

    Rows with a cell that is not a number where one is due are reported
    first; then rows with too many or too few fields, cells outside their
    domain and rows violating the check constraint, in file order. Row
    numbers count blank rows, which are skipped. A UTF-8 byte-order mark is
    skipped.

    The file is read `_CHUNK` rows at a time. A chunk is tested a column at a
    time, in loops the interpreter runs in C: each numeric column must parse
    by `int`, each column must lie in its domain (`Domain.column_test`), and
    then each row must satisfy the check constraint. A chunk that fails any
    of these, such as one with a cell like `3.0`, is loaded again row by row
    (`_row_checker`), the one path that words violations.
    """
    names = schema.attr_names()
    domains = [schema.domain(a) for a in names]
    parsers = [_number_parser(a) if d.is_numeric else str for a, d in zip(names, domains)]
    columns = [(d.is_numeric, d.column_test()) for d in domains]
    satisfies = compile_constraint(schema.constraint, names)
    check = _row_checker(schema)
    out = set()
    not_numbers: list[str] = []
    violations: list[str] = []

    def bulk(chunk: list) -> list | None:
        """The chunk's tuples when every row in it is valid, else None."""
        rows = list(filter(None, chunk))  # without blank rows
        if set(map(len, rows)) != {len(names)}:
            return None
        cols = []
        for (numeric, all_in), texts in zip(columns, zip(*rows)):
            values = list(map(str.strip, texts))
            if numeric:
                try:
                    values = list(map(int, values))
                except ValueError:
                    return None
            if not all_in(values):
                return None
            cols.append(values)
        tuples = list(zip(*cols))
        return tuples if all(map(satisfies, tuples)) else None

    def by_row(chunk: list, first: int) -> None:
        for label, row in enumerate(chunk, first):
            if not row:
                continue
            try:
                cells = tuple([parse(text.strip()) for parse, text in zip(parsers, row)])
            except ValueError as e:
                not_numbers.append(f"row {label}: {e}")
                continue
            if len(row) > len(names):
                cells = tuple(row)  # whole, so that the arity test refuses it
            problem = check(label, cells)
            if problem:
                violations.append(problem)
            else:
                out.add(cells)

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _csv_chunk(reader, path, 1)
        if not header:
            raise DataError(f"{path}: empty file", [])
        if [h.strip() for h in header[0]] != list(names):
            raise DataError(
                f"{path}: header {header[0]} does not match schema attributes {list(names)}", []
            )
        done = 0
        while chunk := _csv_chunk(reader, path, _CHUNK):
            tuples = bulk(chunk)
            if tuples is None:
                by_row(chunk, done + 1)
            else:
                out.update(tuples)
            done += len(chunk)
    violations = not_numbers + violations
    if violations:
        raise DataError(f"{path}: {len(violations)} invalid row(s)", violations)
    return Relation(schema, frozenset(out))


def _csv_chunk(reader, path: str, size: int) -> list:
    """The reader's next `size` rows (fewer at the end of the file); a row the
    csv module cannot read, such as one with a cell over its field size
    limit, is a DataError naming its line."""
    try:
        return list(islice(reader, size))
    except csv.Error as e:
        raise DataError(f"{path}: line {reader.line_num}: {e}", []) from None


def value_key(v: Value):
    return (1, v) if isinstance(v, str) else (0, v)


def tuple_key(t: tuple):
    return tuple(value_key(v) for v in t)


# ---------------------------------------------------------------------------
# Aggregation


def apply_agg(fn: AggFn, relation: Relation, bounds: Bounds | None = None) -> Fraction:
    """Totalized aggregation: an empty input takes the default for the
    aggregated attribute's value range `bounds` (see `default_aggregate`)."""
    return _compile_agg(fn, relation.schema, bounds)(relation.tuples)


def _compile_agg(fn: AggFn, schema: ConstrainedSchema, bounds: Bounds | None = None):
    """agg(tuples): `apply_agg` over tuples laid out as `schema`.

    Cells may be int: each result is made a Fraction once, at the end.
    """
    empty = default_aggregate(fn, bounds)
    if fn.kind == "count":
        return lambda tuples: Fraction(len(tuples)) if tuples else empty
    idx, kind = schema.index(fn.attr), fn.kind
    fold = {"max": max, "min": min, "sum": sum, "avg": sum}[kind]

    def agg(tuples) -> Fraction:
        if not tuples:
            return empty
        total = fold([t[idx] for t in tuples])
        return Fraction(total, len(tuples)) if kind == "avg" else Fraction(total)

    return agg


# ---------------------------------------------------------------------------
# Plan evaluation: a plan compiled once into a function of databases


def compile_plan(plan: Plan, vq: ValidatedQuery, trace: list | None = None):
    """run(db): the output tuples over `db`, a frozenset, of `plan`, a node
    of the validated query `vq`.

    Every lookup in `vq` is made here, once: each node's schema, projection
    indices, compiled predicate and aggregate range, so a run over one
    database is set operations only (the oracle runs one compiled plan per
    database). With `trace`, each node appends (operator, output rows) when
    it finishes: children before their parent, in the order the node
    evaluates them, which is left before right and `single` before
    `source`, but the right operand first for product-n and product-agg.
    """
    run = _compile_node(plan, vq, trace)
    if trace is None:
        return run
    name = vq.nodes[plan].op

    def traced(db) -> frozenset:
        out = run(db)
        trace.append((name, len(out)))
        return out

    return traced


def _compile_node(plan: Plan, vq: ValidatedQuery, trace: list | None):
    def sub(child):
        return compile_plan(child, vq, trace)

    if isinstance(plan, Id):
        name = plan.relation

        def read(db) -> frozenset:
            if name not in db:
                raise EvalError(f"no data loaded for relation {name!r}")
            return frozenset(db[name].tuples)

        return read
    if isinstance(plan, (Union, Intersection, Difference, Product)):
        left, right = sub(plan.left), sub(plan.right)
        op = _BINARY[type(plan)]
        return lambda db: op(left(db), right(db))
    if isinstance(plan, Restriction):
        source = sub(plan.source)
        test = compile_constraint(plan.predicate, vq.nodes[plan.source].schema.attr_names())
        return lambda db: frozenset(filter(test, source(db)))
    if isinstance(plan, Projection):
        source = sub(plan.source)
        cells = _cells(vq.nodes[plan.source].schema, plan.attrs)
        return lambda db: frozenset(map(cells, source(db)))
    if isinstance(plan, ProductOne):
        single, source = sub(plan.single), sub(plan.source)

        def product_one(db) -> frozenset:
            row = single(db)
            if len(row) != 1:
                raise EvalError(
                    f"one-sided product requires exactly one tuple, found {len(row)}"
                )
            return _cross(row, source(db))

        return product_one
    if isinstance(plan, ProductN):
        left, right, n = sub(plan.left), sub(plan.right), plan.n

        def product_n(db) -> frozenset:
            block = sorted(right(db), key=tuple_key)[:n]
            return _cross(left(db), block)

        return product_n
    if isinstance(plan, ProductAgg):
        left, right = sub(plan.left), sub(plan.right)
        agg = _compile_agg(plan.fn, vq.nodes[plan.right].schema, vq.nodes[plan].bounds)

        def product_agg(db) -> frozenset:
            value = (held_value(agg(right(db))),)
            return frozenset(l + value for l in left(db))

        return product_agg
    if isinstance(plan, GroupAggregate):
        source = sub(plan.source)
        schema = vq.nodes[plan.source].schema
        key = _cells(schema, plan.group_attrs)
        aggs = [_compile_agg(f, schema) for f in plan.fns]

        def group(db) -> frozenset:
            groups: dict[tuple, list] = {}
            for t in source(db):
                groups.setdefault(key(t), []).append(t)
            return frozenset(
                k + tuple(held_value(agg(ts)) for agg in aggs) for k, ts in groups.items()
            )

        return group
    raise TypeError(f"not a plan node: {plan!r}")


def _cells(schema: ConstrainedSchema, attrs: tuple[str, ...]):
    """t -> the tuple of t's cells for `attrs`, t laid out as `schema`."""
    idxs = [schema.index(a) for a in attrs]
    if len(idxs) == 1:
        i = idxs[0]
        return lambda t: (t[i],)
    return operator.itemgetter(*idxs) if idxs else lambda t: ()


def _cross(left, right) -> frozenset:
    return frozenset(l + r for l in left for r in right)


_BINARY = {
    Union: operator.or_,
    Intersection: operator.and_,
    Difference: operator.sub,
    Product: _cross,
}


def eval_plan(
    plan: Plan, db: dict[str, Relation], vq: ValidatedQuery, *, trace: list | None = None
) -> Relation:
    """The output over `db` of `plan`, a node of the validated query `vq`."""
    return Relation(vq.nodes[plan].schema, compile_plan(plan, vq, trace)(db))


def compile_query(vq: ValidatedQuery, trace: list | None = None):
    """value(db): the exact value of the query's top-level aggregation over `db`."""
    body = compile_plan(vq.query.body, vq, trace)
    agg = _compile_agg(vq.query.fn, vq.nodes[vq.query.body].schema, vq.bounds)
    return lambda db: agg(body(db))


def answer(vq: ValidatedQuery, db: dict[str, Relation], *, trace: list | None = None) -> Fraction:
    """The exact value of the query's top-level aggregation."""
    return compile_query(vq, trace)(db)
