"""Set-semantics evaluation of query plans over in-memory relations.

Relations are frozen sets of value tuples; every value is an exact rational
or a string, held as `constraints.held_value` holds it: an integral value is
an `int` (equal and hash-equal to its `Fraction`), as in the solution grids
of static analysis; so are the aggregate columns of product-agg and grouping,
and the value `compile_query` returns (`answer` and `apply_agg` make it a
`Fraction`). Loading validates each row against the schema's domains and check
constraint, so evaluation can assume constraint-valid inputs. A CSV file is
read in one pass, through one loop generated as Python source for the schema
(`constraints.Codegen`) that converts the cells and tests the domains and the
check constraint; the rows that fail it are read again by the row check of
`Relation.from_rows` (`_checked`), the one path that reads fractions and
words violations. A column whose domain is finite and small reads each cell
through a table of texts built for the load (`_cell_table`), which holds
each value's canonical text and learns each other in-domain spelling from
the first row that holds it, so the loop pays no conversion and no domain
test for it. The loop turns a string cell into its domain's own member
object, so a loaded relation holds one `str` per value, not one per cell; its
frozenset, like product-agg's output, is copied from a dict, so its hash
table is sized once (`_frozen`). Types are checked when a schema is
built and when a query is validated, never per row.

A plan is compiled once (`compile_plan`, `compile_query`) into a function of
databases; `eval_plan` and `answer` compile and run it once. Each restriction
is one generated comprehension over its source's tuples.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .constraints import (
    Bounds,
    Codegen,
    ConstrainedSchema,
    Domain,
    DomainKind,
    _held_number,
    _quotient,
    compile_constraint,
    held_value,
)
from .errors import DataError, EvalError
from .extmath import is_infinite, too_many_digits
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
    row_tree_relation,
)

@dataclass(frozen=True)
class Relation:
    schema: ConstrainedSchema
    tuples: frozenset

    def __len__(self) -> int:
        return len(self.tuples)

    @classmethod
    def from_rows(cls, schema: ConstrainedSchema, rows: Iterable) -> "Relation":
        """The relation of `rows`, numbered from 1; each invalid row is worded (`_checked`)."""
        cells = ((i, tuple(map(held_value, row))) for i, row in enumerate(rows, 1))
        tuples, violations = _checked(schema, cells)
        if violations:
            raise DataError(
                f"{len(violations)} invalid row(s) for relation {schema.name!r}", violations
            )
        return cls(schema, frozenset(tuples))


def _number_parser(attr: str):
    """A parser of the attribute's CSV cells into numbers as `held_value`
    holds them. It strips the cell, then accepts what `Fraction(text)`
    accepts, trying `int` first."""

    def parse(text: str):
        text = text.strip()
        try:
            return int(text)
        except ValueError:
            pass
        error = too_many_digits(text, f"{attr} = {text[:20]!r}...")
        if error:
            raise error
        try:
            return held_value(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{attr} = {text!r} is not a number") from None

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
                return f"row {label}: {a} = {_shown(v)} outside its domain"
        return None if satisfies(cells) else f"row {label}: violates the check constraint"

    return check


def _checked(schema: ConstrainedSchema, rows: Iterable) -> tuple[set, list[str]]:
    """The valid tuples of (label, cells) `rows` and the violation lines of
    the others (`_row_checker`), in row order."""
    check = _row_checker(schema)
    tuples, violations = set(), []
    for label, cells in rows:
        problem = check(label, cells)
        if problem:
            violations.append(problem)
        else:
            tuples.add(cells)
    return tuples, violations


def _shown(v) -> str:
    """A value as a violation echoes it: its first 20 characters and `...`
    when it is longer; characters that `str.isprintable` rejects, such as a
    newline or an escape, are shown as the `repr` of those 20."""
    text = str(v)
    shown = text[:20]
    if not shown.isprintable():
        shown = repr(shown)
    return shown if len(text) <= 20 else shown + "..."


# the most values a domain may have for its column to be read through a table
_TABLE_CAP = 256


def _cell_table(domain: Domain) -> dict | None:
    """A new table from each canonical cell text of a finite domain of at
    most `_TABLE_CAP` values to the value a relation holds for it (`str(v)`
    for a number, the member itself for a string), or None for a larger or
    infinite domain. A string member with spaces around it is left out, as
    a stripped cell never equals it."""
    if domain.kind is DomainKind.INT_RANGE:
        lo, hi = int(domain.lower), int(domain.upper)
        return {str(v): v for v in range(lo, hi + 1)} if hi - lo < _TABLE_CAP else None
    if not domain.members or len(domain.members) > _TABLE_CAP:
        return None
    if domain.is_numeric:
        return {str(v): v for v in map(held_value, domain.members)}
    return {m: m for m in domain.members if m == m.strip()}


def _cell_reader(attr: str, domain: Domain):
    """read(text): a CSV cell as the row check reads it, stripped: a number
    (`_number_parser`) for a numeric attribute, else the domain's own member
    object when the text is a member, else the text."""
    if domain.is_numeric:
        return _number_parser(attr)
    members = {m: m for m in domain.members}

    def read(text: str) -> str:
        text = text.strip()
        return members.get(text, text)

    return read


def _csv_loader(schema: ConstrainedSchema, readers: list, refused: list):
    """load(rows): the tuples of the valid rows among CSV `rows`, which are
    numbered from 1; blank rows are skipped, and every other row is appended
    to `refused` as (label, row).

    One generated loop (`Codegen`) unpacks each row into its cells and
    converts each cell. A column of a small finite domain reads its cell
    through its own new table (`_cell_table`), and a miss refuses the row;
    any other numeric cell goes through `int` and any other stripped string
    cell to its domain's member object (None outside the domain), then that
    column's domain test. The check constraint is tested last. A wrong
    number of fields, or a numeric cell that `int` does not read, refuses
    the row too.

    A refused row of the schema's arity teaches the tables: each cell that
    missed its table and that `readers` (`_cell_reader`, the row check's
    reading) turns into a value in its domain is added with that value, so
    a later row spelling a value the same way (` 50`, `050`, `3.0`, `1/2`)
    is read by the loop. A table grows only by texts the file holds.
    """
    names = schema.attr_names()
    cells = [f"c{i}" for i in range(len(names))]
    gen = Codegen(", ".join(cells), dict(zip(names, cells)))
    domains = [schema.domain(a) for a in names]
    tables = [_cell_table(d) for d in domains]
    tests = [_domain_test(gen, c, d) for c, d, t in zip(cells, domains, tables) if t is None]
    test = " and ".join([*tests, f"({gen.test(schema.constraint)})"])

    def converted(c: str, d: Domain, table: dict | None) -> str:
        if table is not None:
            return f"{gen.const(table)}[{c}]"
        if d.is_numeric:
            return f"int({c})"
        # the member's own object, so the relation holds one str per value
        return f"{gen.const({m: m for m in d.members}.get)}({c}.strip())"

    convert = "".join(
        f"\n            {c} = {converted(c, d, t)}" for c, d, t in zip(cells, domains, tables)
    )
    unpacked = ", ".join(cells) + ","
    load = gen.function(f"""def _f(rows, bad):
    out = []
    for label, row in enumerate(rows, 1):
        try:
            {unpacked} = row{convert}
            if {test}:
                out.append(({unpacked}))
                continue
        except (ValueError, KeyError):
            pass
        if row:
            bad((label, row))
    return out""")
    learned = [
        (i, table, readers[i], domains[i].member_test())
        for i, table in enumerate(tables)
        if table is not None
    ]
    arity = len(names)

    def bad(item: tuple) -> None:
        refused.append(item)
        row = item[1]
        if len(row) != arity:
            return
        for i, table, read, inside in learned:
            text = row[i]
            if text not in table:
                try:
                    value = read(text)
                except ValueError:
                    continue
                if inside(value):
                    table[text] = value

    return lambda rows: load(rows, bad)


def _domain_test(gen: Codegen, cell: str, domain: Domain) -> str:
    """The test that `cell`, an `int`, a string or None, lies in `domain`."""
    if domain.members:
        return f"{cell} in {gen.const(frozenset(map(held_value, domain.members)))}"
    lo = "" if is_infinite(domain.lower) else f"{gen.const(held_value(domain.lower))} <= "
    hi = "" if is_infinite(domain.upper) else f" <= {gen.const(held_value(domain.upper))}"
    return f"{lo}{cell}{hi}" if lo or hi else "True"


def load_csv(schema: ConstrainedSchema, path: str) -> Relation:
    """The relation in a CSV file whose header names the schema's attributes.

    Rows with a cell that is not a number where one is due are reported
    first; then rows with too many or too few fields, cells outside their
    domain and rows violating the check constraint, in file order. Row
    numbers count blank rows, which are skipped. A UTF-8 byte-order mark is
    skipped.

    Every data row goes through one loop generated for the schema
    (`_csv_loader`): the row must have the schema's arity, each cell of a
    small finite domain must be in its column's table of texts (each value's
    canonical text, and the other spellings of in-domain values that earlier
    rows of the file held), each other numeric cell must read as an `int`,
    and the cells must lie in their domains and satisfy the check
    constraint. The rows that fail any of these, such as one with a cell
    like `3.0` the first time the file spells a value so, are collected and
    read again: their cells are read as the row check reads them
    (`_cell_reader`: numbers parsed by `_number_parser`), then the row check
    of `Relation.from_rows` (`_checked`) words their violations. The rows
    gather in one list that the relation's frozenset is built from once
    (`_frozen`).
    """
    names = schema.attr_names()
    readers = [_cell_reader(a, schema.domain(a)) for a in names]
    refused: list[tuple[int, list]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)  # a blank header line is [], not None
            if header is None:
                raise DataError(f"{path}: empty file", [])
            if [h.strip() for h in header] != list(names):
                raise DataError(
                    f"{path}: header {header} does not match schema attributes {list(names)}", []
                )
            out = _csv_loader(schema, readers, refused)(reader)
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: {e}", []) from None
    violations: list[str] = []
    if refused:
        parsed = []
        for label, row in refused:
            try:
                cells = tuple([read(text) for read, text in zip(readers, row)])
            except ValueError as e:
                violations.append(f"row {label}: {e}")
                continue
            # a row too long is checked whole, so that the arity test refuses it
            parsed.append((label, tuple(row) if len(row) > len(names) else cells))
        tuples, problems = _checked(schema, parsed)
        out += tuples
        violations += problems
    if violations:
        raise DataError(f"{path}: {len(violations)} invalid row(s)", violations)
    return Relation(schema, _frozen(out))


def _frozen(rows) -> frozenset:
    # copied from a dict, the table is sized once for its length; grown, up to twice that
    return frozenset(dict.fromkeys(rows))


def tuple_key(t: tuple):
    return tuple((1, v) if isinstance(v, str) else (0, v) for v in t)


# ---------------------------------------------------------------------------
# Aggregation


def apply_agg(fn: AggFn, relation: Relation, bounds: Bounds | None = None) -> Fraction:
    """Totalized aggregation: an empty input takes the default for the
    aggregated attribute's value range `bounds` (see `default_aggregate`)."""
    return Fraction(_compile_agg(fn, relation.schema, bounds)(relation.tuples))


def _compile_agg(fn: AggFn, schema: ConstrainedSchema, bounds: Bounds | None = None):
    """agg(tuples): `apply_agg` over tuples laid out as `schema`, held as
    `held_value` holds a cell (an int when integral), as the cells are."""
    if fn.kind == "count":
        return len  # the default count of an empty input is 0 too
    empty = held_value(default_aggregate(fn, bounds))
    idx, kind = schema.index(fn.attr), fn.kind
    fold = {"max": max, "min": min, "sum": sum, "avg": sum}[kind]

    def agg(tuples):
        if not tuples:
            return empty
        total = fold([t[idx] for t in tuples])
        return _quotient(total, len(tuples)) if kind == "avg" else _held_number(total)

    return agg


# ---------------------------------------------------------------------------
# Plan evaluation: a plan compiled once into a function of databases


def compile_plan(
    plan: Plan, vq: ValidatedQuery, trace: list | None = None, *, kept: dict | None = None
):
    """run(db): the output tuples over `db`, a frozenset, of `plan`, a node
    of the validated query `vq`.

    Every lookup in `vq` is made here, once: each node's schema, projection
    indices, compiled predicate and aggregate range, so a run over one
    database is set operations only (the oracle runs one compiled plan per
    database). With `trace`, each node appends (operator, output rows) when
    it finishes: children before their parent, in the order the node
    evaluates them, which is left before right and `single` before
    `source`, but the right operand first for product-n and product-agg.

    `kept` maps row-filtering trees (`row_tree_relation`) to tuple sets. Such
    a tree over relation R, unless it is R's bare leaf, is not compiled: it
    reads db[R]'s tuples inside its set, one set intersection, which is its
    output whenever the set is its output over a superset of db[R] (the
    oracle's universe). Its subtree appends no trace.
    """
    run = _compile_node(plan, vq, trace, kept)
    if trace is None:
        return run
    name = vq.nodes[plan].op

    def traced(db) -> frozenset:
        out = run(db)
        trace.append((name, len(out)))
        return out

    return traced


def _compile_node(plan: Plan, vq: ValidatedQuery, trace: list | None, kept: dict | None):
    def sub(child):
        return compile_plan(child, vq, trace, kept=kept)

    if isinstance(plan, Id):
        name = plan.relation

        def read(db) -> frozenset:
            if name not in db:
                raise EvalError(f"no data loaded for relation {name!r}")
            return frozenset(db[name].tuples)

        return read
    if kept and plan in kept:
        name, rows = row_tree_relation(plan), kept[plan]
        return lambda db: db[name].tuples & rows
    if isinstance(plan, (Union, Intersection, Difference, Product)):
        left, right = sub(plan.left), sub(plan.right)
        op = _BINARY[type(plan)]
        return lambda db: op(left(db), right(db))
    if isinstance(plan, Restriction):
        gen = Codegen.row(vq.nodes[plan.source].schema.attr_names())
        test, source = gen.test(plan.predicate), gen.const(sub(plan.source))
        return gen.function(f"_f = lambda db: frozenset([v for v in {source}(db) if {test}])")
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
            value = (agg(right(db)),)
            return _frozen(l + value for l in left(db))

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
                k + tuple(agg(ts) for agg in aggs) for k, ts in groups.items()
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


def eval_plan(plan: Plan, db: dict[str, Relation], vq: ValidatedQuery) -> Relation:
    """The output over `db` of `plan`, a node of the validated query `vq`."""
    return Relation(vq.nodes[plan].schema, compile_plan(plan, vq)(db))


def compile_query(vq: ValidatedQuery, trace: list | None = None, *, kept: dict | None = None):
    """value(db): the exact value of the query's top-level aggregation over
    `db`, an int when it is integral, else a Fraction (`_compile_agg`);
    `kept` as in `compile_plan`."""
    body = compile_plan(vq.query.body, vq, trace, kept=kept)
    agg = _compile_agg(vq.query.fn, vq.nodes[vq.query.body].schema, vq.bounds)
    return lambda db: agg(body(db))


def answer(vq: ValidatedQuery, db: dict[str, Relation], *, trace: list | None = None) -> Fraction:
    """The exact value of the query's top-level aggregation."""
    return Fraction(compile_query(vq, trace)(db))
