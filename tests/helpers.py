"""Shared builders for the test suite: tiny schemas, random plans, oracles."""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import operator
import random
import re
import sqlite3
from fractions import Fraction
from functools import partial
from typing import Iterator

import numpy as np

from raqdp.constraints import (
    _NARROW_MAX_PASSES,
    DEFAULT_ENUM_CAP,
    And,
    Arith,
    Attr,
    BoolConst,
    Cmp,
    Codegen,
    ConstrainedSchema,
    Constraint,
    Domain,
    DomainKind,
    Iff,
    InSet,
    Lit,
    Not,
    Or,
    _finite_grid,
    _fmt_values,
    _prepared,
    _quotient,
    compile_constraint,
    format_term,
    held_value,
    solution_count,
    initial_constraint,
)
from raqdp.engine import Relation, _checked, _domain_test, _number_parser, answer, eval_plan
from raqdp.errors import DataError, ParseError, ValidationError
from raqdp.extmath import Ext, is_infinite, too_many_digits
from raqdp.oracle import (
    BruteResult,
    SensitiveRelation,
    Universe,
    enumerate_tuples,
)
from raqdp.parsing import KEYWORDS, parse_schemas
from raqdp.query import (
    AggFn,
    Difference,
    GroupAggregate,
    Id,
    Intersection,
    Product,
    ProductOne,
    Projection,
    Restriction,
    TopQuery,
    Union,
    ValidatedQuery,
    agg_attr_name,
    plan_children,
    validate,
)

AGG_KINDS = ("count", "sum", "max", "min", "avg")


def schema_of(text: str) -> dict[str, ConstrainedSchema]:
    return parse_schemas(text)


def holds(c, asg: dict) -> bool:
    """Whether the assignment (name -> value) satisfies the constraint."""
    return compile_constraint(c, tuple(asg))(tuple(asg.values()))


# ---------------------------------------------------------------------------
# Reference compiler: a constraint as a tree of closures, one call per
# operator per tested tuple (the compiler that generated source replaced)

_REFERENCE_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_REFERENCE_CMP = {
    "<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
    "=": operator.eq, "!=": operator.ne,
}


def reference_compile(c, names):
    """The constraint as a test of value tuples laid out as `names`: and/or
    short-circuit left to right, and an attribute missing from `names` raises
    KeyError when reached."""
    return _reference_test(c, {a: i for i, a in enumerate(names)})


def _reference_test(c, index):
    if isinstance(c, BoolConst):
        value = c.value
        return lambda v: value
    if isinstance(c, Cmp):
        return _reference_binary(
            _REFERENCE_CMP[c.op], _reference_term(c.left, index), _reference_term(c.right, index)
        )
    if isinstance(c, InSet):
        term, values = _reference_term(c.term, index), frozenset(map(held_value, c.values))
        if c.negated:
            return lambda v: term(v) not in values
        return lambda v: term(v) in values
    if isinstance(c, Not):
        arg = _reference_test(c.arg, index)
        return lambda v: not arg(v)
    if isinstance(c, (And, Or)):
        items = tuple(_reference_test(x, index) for x in c.items)
        if isinstance(c, And):

            def conj(v):
                for item in items:
                    if not item(v):
                        return False
                return True

            return conj

        def disj(v):
            for item in items:
                if item(v):
                    return True
            return False

        return disj
    if isinstance(c, Iff):
        left, right = _reference_test(c.left, index), _reference_test(c.right, index)
        return lambda v: left(v) == right(v)
    raise TypeError(f"not a constraint: {c!r}")


def _reference_term(t, index):
    if isinstance(t, Lit):
        value = held_value(t.value)
        return lambda v: value
    if isinstance(t, Attr):
        if t.name in index:
            return operator.itemgetter(index[t.name])
        name = t.name

        def missing(v):
            raise KeyError(name)

        return missing
    if isinstance(t, Arith):
        return _reference_binary(
            _REFERENCE_ARITH[t.op], _reference_term(t.left, index), _reference_term(t.right, index)
        )
    raise TypeError(f"not a term: {t!r}")


def _reference_binary(op, left, right):
    return lambda v: op(left(v), right(v))


def output_schema(plan, schemas: dict[str, ConstrainedSchema]) -> ConstrainedSchema:
    """The output schema of a bare plan, validated as the body of a count."""
    return validate(TopQuery(AggFn("count"), plan), schemas).nodes[plan].schema


# ---------------------------------------------------------------------------
# Random generation for the soundness sweep and the monotonicity property.
# Everything is driven by a seeded random.Random so failures replay exactly.


def random_domain(rng: random.Random, width: int) -> Domain:
    kind = rng.randrange(3)
    if kind == 0:
        lo = rng.randint(-3, 3)
        return Domain.int_range(Fraction(lo), Fraction(lo + width - 1))
    if kind == 1:
        values = rng.sample([-2, -1, 0, 1, 2, 3, 5], k=min(width, 7))
        return Domain.num_set(frozenset(Fraction(v) for v in values))
    names = rng.sample(["red", "blue", "green", "amber"], k=min(width, 4))
    return Domain.str_set(frozenset(names))


def random_schema(
    rng: random.Random, name: str = "R", max_solutions: int = 6
) -> ConstrainedSchema:
    """A schema whose admissible-tuple universe has 1..max_solutions members."""
    while True:
        n_attrs = rng.choice([1, 1, 2])
        widths = _split_budget(rng, max_solutions, n_attrs)
        attrs = tuple(
            (f"a{i}", random_domain(rng, w)) for i, w in enumerate(widths)
        )
        schema = ConstrainedSchema(name, attrs)
        n = solution_count(initial_constraint(schema), schema)
        if isinstance(n, int) and 1 <= n <= max_solutions:
            return schema


def _split_budget(rng: random.Random, budget: int, parts: int) -> list[int]:
    if parts == 1:
        return [rng.randint(2, budget)]
    first = rng.randint(2, max(2, budget // 2))
    return [first, max(2, budget // first)]


def random_atom(rng: random.Random, schema: ConstrainedSchema):
    """One satisfiable comparison or membership atom over the schema."""
    attr, domain = rng.choice(list(schema.attributes))
    if domain.is_numeric:
        if domain.members:
            value = rng.choice(domain.members)
        else:
            lo, hi = domain.interval()
            value = Fraction(rng.randint(int(lo), int(hi)))
        op = rng.choice(["<=", ">=", "="])
        return Cmp(op, Attr(attr), Lit(value))
    names = list(domain.members)
    chosen = rng.sample(names, k=rng.randint(1, len(names)))
    return InSet(Attr(attr), frozenset(chosen), negated=rng.random() < 0.3)


def random_plan(rng: random.Random, schema: ConstrainedSchema, depth: int):
    """A plan over Id(schema) and the fixed one-row helper relation K."""
    if depth <= 0 or rng.random() < 0.25:
        return Id(schema.name)
    kind = rng.choice(
        ["restriction", "projection", "union", "intersection",
         "difference", "product-one", "group-aggregate"]
    )
    child = random_plan(rng, schema, depth - 1)
    if kind == "restriction":
        return Restriction(random_atom(rng, schema), child)
    if kind == "projection":
        return Projection((schema.attr_names()[0],), child)
    if kind in ("union", "intersection", "difference"):
        other = random_plan(rng, schema, depth - 1)
        cls = {"union": Union, "intersection": Intersection, "difference": Difference}[kind]
        return cls(child, other)
    if kind == "product-one":
        return ProductOne(Id("K"), child)
    group = schema.attr_names()[0]
    fns = [AggFn("count")]
    numeric = [a for a, d in schema.attributes if d.is_numeric and a != group]
    if numeric and rng.random() < 0.5:
        fns.append(AggFn(rng.choice(["sum", "max", "min", "avg"]), numeric[0]))
    return GroupAggregate((group,), tuple(fns), child)


K_SCHEMA_TEXT = 'relation K { k: int [7, 7] }'


def random_case(rng: random.Random, max_solutions: int = 6, depth: int = 4):
    """A (query, schemas, universe) triple ready for both analyses.

    Rejection-samples until the plan validates and the top aggregation has a
    numeric attribute to work on.
    """
    while True:
        schema = random_schema(rng, max_solutions=max_solutions)
        k_schema = schema_of(K_SCHEMA_TEXT)["K"]
        schemas = {schema.name: schema, "K": k_schema}
        plan = random_plan(rng, schema, rng.randint(1, depth))
        try:
            out = output_schema(plan, schemas)
        except ValidationError:
            continue
        kind = rng.choice(AGG_KINDS)
        if kind == "count":
            fn = AggFn("count")
        else:
            numeric = [a for a in out.attr_names() if out.domain(a).is_numeric]
            if not numeric:
                fn = AggFn("count")
            else:
                fn = AggFn(kind, rng.choice(numeric))
        tq = TopQuery(fn, plan)
        try:
            validate(tq, schemas)
        except ValidationError:
            continue
        universe = Universe(
            (SensitiveRelation(schema.name, schema, enumerate_tuples(schema)),),
            (("K", Relation(k_schema, frozenset({(Fraction(7),)}))),),
        )
        return tq, schemas, universe


def _small_schema(rng: random.Random, name: str, attrs: tuple[str, ...], budget: int) -> ConstrainedSchema:
    """A schema over `attrs` whose universe has 1..budget tuples."""
    while True:
        widths = [rng.randint(1, budget) for _ in attrs]
        schema = ConstrainedSchema(name, tuple(
            (a, random_domain(rng, w)) for a, w in zip(attrs, widths)
        ))
        n = solution_count(initial_constraint(schema), schema)
        if isinstance(n, int) and 1 <= n <= budget:
            return schema


def multi_relation_case(rng: random.Random, max_tuples: int = 6):
    """A (query, schemas, universe) triple over two or three sensitive
    relations, at most `max_tuples` universe tuples in all, and the one-row
    context K.

    The body is a set operation over restrictions of relations that share
    their attributes, the product of two such (attributes renamed apart), or
    a one-sided product whose one-row side is K or a sensitive relation (which
    raises on a database without exactly one such tuple). A leaf may read
    none of its relation's tuples (R minus R). The aggregate is any kind.
    """
    k_schema = schema_of(K_SCHEMA_TEXT)["K"]
    context = (("K", Relation(k_schema, frozenset({(Fraction(7),)}))),)
    while True:
        names = ["R", "T", "U"][: rng.choice([2, 2, 3])]
        budget = max_tuples // len(names)
        shape = rng.choice(["set", "set", "set", "product", "product", "product-k", "product-one"])
        # names[:split] take attributes b0, b1, the others a0, a1
        split = {"product": rng.randrange(1, len(names)), "product-one": 1}.get(shape, 0)
        width = 2 if budget >= 4 and rng.random() < 0.3 else 1
        schemas = {
            n: _small_schema(rng, n, tuple(f"{'ab'[i < split]}{j}" for j in range(width)), budget)
            for i, n in enumerate(names)
        }

        def leaf(name):
            r = rng.random()
            if r < 0.1:
                return Difference(Id(name), Id(name))
            if r < 0.55:
                return Restriction(random_atom(rng, schemas[name]), Id(name))
            return Id(name)

        def combine(group):
            plan = leaf(group[0])
            for name in group[1:]:
                cls = rng.choice([Union, Intersection, Difference])
                plan = cls(plan, leaf(name)) if rng.random() < 0.5 else cls(leaf(name), plan)
            return plan

        if shape == "set":
            body = combine(names)
        elif shape == "product":
            body = Product(combine(names[:split]), combine(names[split:]))
        elif shape == "product-k":
            body = ProductOne(Id("K"), combine(names))
        else:
            body = ProductOne(leaf(names[0]), combine(names[1:]))
        schemas["K"] = k_schema
        try:
            out = output_schema(body, schemas)
        except ValidationError:
            continue
        kind = rng.choice(AGG_KINDS)
        numeric = [a for a in out.attr_names() if out.domain(a).is_numeric]
        fn = AggFn(kind, rng.choice(numeric)) if kind != "count" and numeric else AggFn("count")
        tq = TopQuery(fn, body)
        try:
            validate(tq, schemas)
        except ValidationError:
            continue
        sensitive = tuple(
            SensitiveRelation(n, schemas[n], enumerate_tuples(schemas[n])) for n in names
        )
        return tq, schemas, Universe(sensitive, context)


# ---------------------------------------------------------------------------
# Reference oracle: the adjacent-pair search in its plainest form, over every
# mask of every sensitive relation


def reference_databases(universe: Universe):
    """Every database over the whole universe with its bitmask vector, in
    increasing order of the vectors: every mask, whatever the query reads."""
    ranges = [range(1 << len(sr.universe)) for sr in universe.sensitive]
    for combo in itertools.product(*ranges):
        db = dict(universe.context)
        for sr, mask in zip(universe.sensitive, combo):
            db[sr.name] = Relation(sr.schema, frozenset(_members(sr, mask)))
        yield combo, db


def _members(sr: SensitiveRelation, mask: int) -> list:
    return [t for j, t in enumerate(sr.universe) if mask >> j & 1]


def _witness(universe: Universe, combo: tuple[int, ...]) -> dict:
    return {sr.name: _members(sr, mask) for sr, mask in zip(universe.sensitive, combo)}


def reference_brute_sensitivity(vq: ValidatedQuery, universe: Universe) -> BruteResult:
    """Worst |answer difference| over adjacent databases, in Fractions.

    Each database is evaluated with `answer`, and every ordered adjacent pair
    is compared (so each pair twice), in enumeration order; the first pair
    reaching the worst change is the witness.
    """
    values = {combo: answer(vq, db) for combo, db in reference_databases(universe)}
    best = Fraction(0)
    witness = None
    for combo, value in values.items():
        options = [
            [mask] + [mask ^ (1 << j) for j in range(len(sr.universe))]
            for sr, mask in zip(universe.sensitive, combo)
        ]
        for neighbor in itertools.product(*options):
            if neighbor == combo:
                continue
            diff = abs(value - values[neighbor])
            if diff > best:
                best = diff
                witness = (_witness(universe, combo), _witness(universe, neighbor))
    return BruteResult(best, witness)


def _reference_sup(values: dict, diff) -> Fraction:
    """sup over ordered pairs of distinct databases of diff / distance, in Fractions."""
    best = Fraction(0)
    for a, b in itertools.permutations(values, 2):
        distance = max(bin(x ^ y).count("1") for x, y in zip(a, b))
        best = max(best, Fraction(diff(values[a], values[b]), distance))
    return best


def reference_brute_ratio(vq: ValidatedQuery, universe: Universe) -> Fraction:
    """sup over every pair of databases of |answer difference| / distance."""
    values = {combo: answer(vq, db) for combo, db in reference_databases(universe)}
    return _reference_sup(values, lambda x, y: abs(x - y))


def reference_brute_lipschitz(plan, universe: Universe, vq: ValidatedQuery) -> Fraction:
    """sup over every pair of databases of |output symmetric difference| / distance."""
    outputs = {
        combo: eval_plan(plan, db, vq).tuples for combo, db in reference_databases(universe)
    }
    return _reference_sup(outputs, lambda x, y: len(x ^ y))


# ---------------------------------------------------------------------------
# Reference count: the whole-grid loop, one compiled test per grid point


def reference_solutions(c, grid: dict[str, list], visible) -> Iterator[tuple]:
    """Distinct visible solutions in grid order, from the whole-grid loop: every
    point of the unfiltered grid is tested by the whole constraint, compiled by
    `reference_compile`, and a seen-set over the visible positions drops the
    repeats."""
    names = tuple(grid)
    satisfies = reference_compile(c, names)
    positions = [names.index(a) for a in visible]
    seen: set[tuple] = set()
    for point in itertools.product(*grid.values()):
        if satisfies(point):
            tup = tuple([point[i] for i in positions])
            if tup not in seen:
                seen.add(tup)
                yield tup


def reference_solution_count(c, schema: ConstrainedSchema, cap: int = DEFAULT_ENUM_CAP) -> int | str:
    """Distinct visible solutions counted over the whole grid, 'exceeds-cap'
    or 'infinite': every grid point is tested, and the count stops at the
    first solution past the cap."""
    grid = _finite_grid(*_prepared(c, schema), schema, cap)
    if isinstance(grid, str):
        return grid
    found = itertools.islice(reference_solutions(c, grid, schema.attr_names()), cap + 1)
    count = sum(1 for _ in found)
    return "exceeds-cap" if count > cap else count


# ---------------------------------------------------------------------------
# Reference CSV load: one row at a time, from the documented semantics


def _reference_number(attr: str, text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{attr} = {text!r} is not a number") from None
    return value.numerator if value.denominator == 1 else value


def _reference_string(domain: Domain, text: str) -> str:
    """A string cell: the text as written when it is a member, else stripped."""
    return text if text in domain.members else text.strip()


def reference_load_csv(schema: ConstrainedSchema, path: str) -> frozenset:
    """The tuples of a CSV file as `engine.load_csv` documents them, or its
    DataError: a UTF-8 byte-order mark is skipped; rows are numbered from 1
    after the header, blank rows included, and blank rows are skipped; a
    string cell that is a member of its domain as written is that member,
    and every other cell is stripped; a numeric cell is read as `int` or
    `Fraction` reads it (an int when integral). A row's violation is its
    first cell that is not a number (among the schema's arity of cells),
    else a wrong number of fields, else its first cell outside its domain
    (`Domain.member_test`; a value longer than 20 characters is cut to its
    first 20 and `...`, and those 20 are shown as their `repr` when
    `str.isprintable` rejects them), else the check constraint;
    not-a-number rows are listed first. Cells past the digit limit are not
    covered."""
    names = schema.attr_names()
    domains = [schema.domain(a) for a in names]
    tests = [d.member_test() for d in domains]
    satisfies = reference_compile(schema.constraint, names)
    out, not_numbers, violations = set(), [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: {e}", []) from None
    if not rows:
        raise DataError(f"{path}: empty file", [])
    if [h.strip() for h in rows[0]] != list(names):
        raise DataError(f"{path}: header {rows[0]} does not match schema attributes {list(names)}", [])
    for i, row in enumerate(rows[1:], 1):
        if not row:
            continue
        try:
            cells = tuple(
                _reference_number(a, text.strip()) if d.is_numeric else _reference_string(d, text)
                for a, d, text in zip(names, domains, row)
            )
        except ValueError as e:
            not_numbers.append(f"row {i}: {e}")
            continue
        if len(row) != len(names):
            violations.append(f"row {i}: expected {len(names)} values, got {len(row)}")
            continue
        outside = [(a, v) for a, test, v in zip(names, tests, cells) if not test(v)]
        if outside:
            text = str(outside[0][1])
            shown = text[:20] if text[:20].isprintable() else repr(text[:20])
            shown = shown if len(text) <= 20 else shown + "..."
            violations.append(f"row {i}: {outside[0][0]} = {shown} outside its domain")
        elif not satisfies(cells):
            violations.append(f"row {i}: violates the check constraint")
        else:
            out.add(cells)
    violations = not_numbers + violations
    if violations:
        raise DataError(f"{path}: {len(violations)} invalid row(s)", violations)
    return frozenset(out)



# ---------------------------------------------------------------------------
# Reference loop: `engine.load_csv` as it was before cell tables, when the
# generated loop read every numeric cell with `int` and every string cell
# with its domain's `.get` on the stripped text, then tested each domain.
# The code is kept as it was, names prefixed, but for string cells, which
# are read as the engine documents them now (`_reference_string`: a member
# as written is kept); the row check it reads refused rows again with is
# the engine's own (`_checked`, `_number_parser`).


def _reference_csv_loader(schema: ConstrainedSchema):
    names = schema.attr_names()
    cells = [f"c{i}" for i in range(len(names))]
    gen = Codegen(", ".join(cells), dict(zip(names, cells)))
    domains = [schema.domain(a) for a in names]
    tests = [_domain_test(gen, c, d) for c, d in zip(cells, domains)]
    test = " and ".join([*tests, f"({gen.test(schema.constraint)})"])

    def converted(c: str, d: Domain) -> str:
        if d.is_numeric:
            return f"int({c})"
        members = {m: m for m in d.members}
        return f"{gen.const(lambda text: members.get(_reference_string(d, text)))}({c})"

    convert = "".join(f"\n            {c} = {converted(c, d)}" for c, d in zip(cells, domains))
    unpacked = ", ".join(cells) + ","
    return gen.function(f"""def _f(rows, bad):
    out = []
    for label, row in enumerate(rows, 1):
        try:
            {unpacked} = row{convert}
            if {test}:
                out.append(({unpacked}))
                continue
        except ValueError:
            pass
        if row:
            bad((label, row))
    return out""")


def reference_loop_load_csv(schema: ConstrainedSchema, path: str) -> frozenset:
    """The tuples of a CSV file, or its DataError, as the loop without cell
    tables loads them: every row it refuses is read again row by row."""
    names = schema.attr_names()
    refused: list[tuple[int, list]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file", [])
            if [h.strip() for h in header] != list(names):
                raise DataError(
                    f"{path}: header {header} does not match schema attributes {list(names)}", []
                )
            out = _reference_csv_loader(schema)(reader, refused.append)
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: {e}", []) from None
    violations: list[str] = []
    if refused:
        domains = [schema.domain(a) for a in names]
        parsers = [
            _number_parser(a) if d.is_numeric else partial(_reference_string, d)
            for a, d in zip(names, domains)
        ]
        parsed = []
        for label, row in refused:
            try:
                cells = tuple([parse(text) for parse, text in zip(parsers, row)])
            except ValueError as e:
                violations.append(f"row {label}: {e}")
                continue
            parsed.append((label, tuple(row) if len(row) > len(names) else cells))
        tuples, problems = _checked(schema, parsed)
        out += tuples
        violations += problems
    if violations:
        raise DataError(f"{path}: {len(violations)} invalid row(s)", violations)
    return frozenset(out)

# ---------------------------------------------------------------------------
# SQLite as an independent judge of evaluation: a plan translated to SQL over
# tables that hold the database's tuples. Set semantics come from DISTINCT and
# the compound operators; every value is an integer or a string, which SQLite
# compares and sums exactly. An average is compared as its SUM and COUNT.


def _sql_name(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _sql_value(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    v = held_value(v)
    if not isinstance(v, int):
        raise NotImplementedError(f"SQLite holds no exact rational like {v}")
    return str(v)


def _sql_term(t) -> str:
    if isinstance(t, Attr):
        return _sql_name(t.name)
    if isinstance(t, Lit):
        return _sql_value(t.value)
    return f"({_sql_term(t.left)} {t.op} {_sql_term(t.right)})"


def sql_test(c) -> str:
    """A constraint as an SQL condition."""
    if isinstance(c, BoolConst):
        return "1" if c.value else "0"
    if isinstance(c, Cmp):
        op = "<>" if c.op == "!=" else c.op
        return f"({_sql_term(c.left)} {op} {_sql_term(c.right)})"
    if isinstance(c, InSet):
        if not c.values:
            return "1" if c.negated else "0"
        values = ", ".join(map(_sql_value, c.values))
        return f"({_sql_term(c.term)} {'NOT IN' if c.negated else 'IN'} ({values}))"
    if isinstance(c, Not):
        return f"(NOT {sql_test(c.arg)})"
    if isinstance(c, (And, Or)):
        joiner = " AND " if isinstance(c, And) else " OR "
        return "(" + joiner.join(sql_test(x) for x in c.items) + ")"
    return f"({sql_test(c.left)} = {sql_test(c.right)})"  # Iff


def _sql_aggregate(kind: str, attr: str | None) -> str:
    return "COUNT(*)" if kind == "count" else f"{kind.upper()}({_sql_name(attr)})"


def plan_sql(plan, vq: ValidatedQuery) -> str:
    """A SELECT of the distinct output tuples of `plan`, a node of `vq`, with
    the columns of its output schema, over one table per base relation.
    Group-level `avg` raises NotImplementedError: its rational values are not
    exact in SQLite."""
    sub = lambda p: f"({plan_sql(p, vq)})"
    if isinstance(plan, Id):
        cols = ", ".join(map(_sql_name, vq.nodes[plan].schema.attr_names()))
        return f"SELECT DISTINCT {cols} FROM {_sql_name(plan.relation)}"
    if isinstance(plan, Restriction):
        return f"SELECT * FROM {sub(plan.source)} WHERE {sql_test(plan.predicate)}"
    if isinstance(plan, Projection):
        return f"SELECT DISTINCT {', '.join(map(_sql_name, plan.attrs))} FROM {sub(plan.source)}"
    if isinstance(plan, (Union, Intersection, Difference)):
        op = {Union: "UNION", Intersection: "INTERSECT", Difference: "EXCEPT"}[type(plan)]
        return f"SELECT * FROM {sub(plan.left)} {op} SELECT * FROM {sub(plan.right)}"
    if isinstance(plan, (Product, ProductOne)):
        left, right = plan_children(plan)
        return f"SELECT * FROM {sub(left)} CROSS JOIN {sub(right)}"
    if isinstance(plan, GroupAggregate):
        cols = [_sql_name(g) for g in plan.group_attrs]
        for fn in plan.fns:
            if fn.kind == "avg":
                raise NotImplementedError("group-level avg")
            cols.append(f"{_sql_aggregate(fn.kind, fn.attr)} AS {_sql_name(agg_attr_name(fn))}")
        groups = ", ".join(map(_sql_name, plan.group_attrs))
        return f"SELECT {', '.join(cols)} FROM {sub(plan.source)} GROUP BY {groups}"
    raise NotImplementedError(f"no SQL for {type(plan).__name__}")


def sqlite_database(db: dict[str, Relation]) -> sqlite3.Connection:
    """An in-memory SQLite database with one untyped table per relation, so
    that each value keeps its storage class (no type affinity)."""
    con = sqlite3.connect(":memory:")
    for name, rel in db.items():
        cols = rel.schema.attr_names()
        con.execute(f"CREATE TABLE {_sql_name(name)} ({', '.join(map(_sql_name, cols))})")
        marks = ", ".join("?" * len(cols))
        rows = [tuple(held_value(v) for v in t) for t in rel.tuples]
        con.executemany(f"INSERT INTO {_sql_name(name)} VALUES ({marks})", rows)
    return con


def sqlite_answer(vq: ValidatedQuery, db: dict[str, Relation]):
    """What SQLite says of the query over `db`: None when some one-sided
    product's one-row side holds other than one row, else the body's tuples
    and the top aggregate over them (the SUM for avg, None for count)."""
    with contextlib.closing(sqlite_database(db)) as con:
        for node in vq.nodes:
            if isinstance(node, ProductOne):
                (n,), = con.execute(f"SELECT COUNT(*) FROM ({plan_sql(node.single, vq)})")
                if n != 1:
                    return None
        body = plan_sql(vq.query.body, vq)
        fn = vq.query.fn
        kind = "sum" if fn.kind == "avg" else fn.kind
        (aggregate,), = con.execute(f"SELECT {_sql_aggregate(kind, fn.attr)} FROM ({body})")
        return set(con.execute(body)), None if kind == "count" else aggregate


# ---------------------------------------------------------------------------
# Reference tokenizer: one regex match per lexeme, whitespace and comments
# included, with the line and column carried from lexeme to lexeme

_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<num>\d+(?:\.\d+)?)
    | (?P<str>"(?:[^"\\\n]|\\.)*")
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|>=|!=|[{}()\[\],;:=<>+\-*/])
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[tuple]:
    """(kind, text, value, line, col) of every token, then of 'eof'; raises
    ParseError as `parsing.tokenize` documents it."""
    tokens: list[tuple] = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind == "num":
            try:
                value = Fraction(lexeme)
            except ValueError:  # the lexeme is digits: it is past Python's digit limit
                raise ParseError(str(too_many_digits(lexeme, "number")), line, col) from None
            tokens.append(("num", lexeme, value, line, col))
        elif kind == "str":
            tokens.append(("str", lexeme, re.sub(r"\\(.)", r"\1", lexeme[1:-1]), line, col))
        elif kind == "ident":
            tokens.append(("kw" if lexeme in KEYWORDS else "ident", lexeme, lexeme, line, col))
        elif kind == "op":
            tokens.append(("op", lexeme, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("eof", "", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# Reference narrowing: hull-consistency narrowing as it was before its exact
# shortcuts (a copy keeps its source's `moved` set, a one-attribute form
# tightens its attribute directly, sorted members are one bisect slice).
# The code is kept as it was, names prefixed; only the copy of the first box
# is made by the reference's `copy`, whatever box class the seed is.


class _ReferenceBox:
    """Per-attribute intervals (numeric) and allowed-value sets (string).

    Every endpoint and num-set member is held as `held_value` holds it, or is
    +-inf; `attribute_bounds` turns endpoints back into Fractions. `moved`
    holds the attributes whose interval narrowed since `integer_tighten`
    last ran; a copy starts with every numeric attribute in it."""

    __slots__ = ("nums", "strs", "numset_members", "int_attrs", "moved")

    def __init__(self, schema: ConstrainedSchema):
        self.nums: dict[str, list] = {}
        self.strs: dict[str, set] = {}
        self.numset_members: dict[str, tuple] = {}
        self.int_attrs: set[str] = set()
        self.moved: set[str] = set()
        for a, dom in schema.all_domains().items():
            if dom.kind is DomainKind.STR_SET:
                self.strs[a] = set(dom.members)
            else:
                self.nums[a] = [*map(held_value, dom.interval()), False, False]
                if dom.kind is DomainKind.NUM_SET:
                    self.numset_members[a] = tuple(map(held_value, dom.members))
                elif dom.kind is DomainKind.INT_RANGE:
                    self.int_attrs.add(a)

    def copy(self) -> "_ReferenceBox":
        out = object.__new__(_ReferenceBox)
        out.nums = {a: list(v) for a, v in self.nums.items()}
        out.strs = {a: set(v) for a, v in self.strs.items()}
        out.numset_members = self.numset_members
        out.int_attrs = self.int_attrs
        out.moved = set(self.nums)
        return out

    def is_empty(self) -> bool:
        for lo, hi, lo_open, hi_open in self.nums.values():
            if lo > hi or (lo == hi and (lo_open or hi_open)):
                return True
        return any(not s for s in self.strs.values())

    def tighten_upper(self, attr: str, value: Ext, strict: bool) -> bool:
        st = self.nums[attr]
        if value < st[1] or (value == st[1] and strict and not st[3]):
            st[1], st[3] = value, strict
            self.moved.add(attr)
            return True
        return False

    def tighten_lower(self, attr: str, value: Ext, strict: bool) -> bool:
        st = self.nums[attr]
        if value > st[0] or (value == st[0] and strict and not st[2]):
            st[0], st[2] = value, strict
            self.moved.add(attr)
            return True
        return False

    def integer_tighten(self) -> bool:
        """Round the ends of each int attribute inward and move those of each
        num-set attribute onto its members, for the attributes that moved
        since the last call only: tightening again an attribute that has not
        moved changes nothing."""
        attrs, self.moved = self.moved, set()
        changed = False
        for a in self.int_attrs.intersection(attrs):
            st = self.nums[a]
            lo, hi = st[0], st[1]
            if not is_infinite(lo):
                new_lo = math.floor(lo) + 1 if st[2] else math.ceil(lo)
                if new_lo != lo or st[2]:
                    st[0], st[2] = new_lo, False
                    changed = changed or new_lo != lo
            if not is_infinite(hi):
                new_hi = math.ceil(hi) - 1 if st[3] else math.floor(hi)
                if new_hi != hi or st[3]:
                    st[1], st[3] = new_hi, False
                    changed = changed or new_hi != hi
        for a in self.numset_members.keys() & attrs:
            members = self.numset_members[a]
            st = self.nums[a]
            kept = [v for v in members if _reference_within(v, *st)]
            if not kept:
                st[0], st[1] = 1, 0  # mark empty
                changed = True
            else:
                if kept[0] != st[0] or kept[-1] != st[1] or st[2] or st[3]:
                    changed = changed or kept[0] != st[0] or kept[-1] != st[1]
                    st[0], st[1], st[2], st[3] = kept[0], kept[-1], False, False
        return changed

    def intersect(self, other: "_ReferenceBox") -> None:
        for a, st in self.nums.items():
            o = other.nums[a]
            self.tighten_lower(a, o[0], o[2])
            self.tighten_upper(a, o[1], o[3])
        for a in self.strs:
            self.strs[a] &= other.strs[a]


def _reference_within(v, lo: Ext, hi: Ext, lo_open: bool, hi_open: bool) -> bool:
    """Whether v lies between lo and hi, each end open or closed as flagged."""
    return (v > lo or (v == lo and not lo_open)) and (v < hi or (v == hi and not hi_open))


def _reference_sum_extreme(coeffs: dict[str, int | Fraction], box: _ReferenceBox, skip: str, minimum: bool) -> tuple[Ext, bool] | None:
    """Min (or max) of sum(c_j * x_j) over the box, skipping one variable.

    Returns (value, any_open_endpoint_used) or None when unbounded.
    """
    total: Ext = 0
    used_open = False
    for a, c in coeffs.items():
        if a == skip:
            continue
        lo, hi, lo_open, hi_open = box.nums[a]
        want_low = (c > 0) == minimum
        end, is_open = (lo, lo_open) if want_low else (hi, hi_open)
        if is_infinite(end):
            return None
        total = total + c * end
        used_open = used_open or is_open
    return total, used_open


def _reference_apply_linear_le(box: _ReferenceBox, coeffs: dict[str, int | Fraction], bound: int | Fraction, strict: bool) -> bool | None:
    """Narrow the box with sum(c_i * x_i) <= bound (< if strict).

    Returns whether anything changed, or None when the atom is contradictory
    on a variable-free form.
    """
    if not coeffs:
        ok = 0 < bound if strict else 0 <= bound
        return None if not ok else False
    changed = False
    for a, c in coeffs.items():
        rest = _reference_sum_extreme(coeffs, box, skip=a, minimum=True)
        if rest is None:
            continue
        rest_min, rest_open = rest
        limit = _quotient(bound - rest_min, c)
        derived_strict = strict or rest_open
        if c > 0:
            changed = box.tighten_upper(a, limit, derived_strict) or changed
        else:
            changed = box.tighten_lower(a, limit, derived_strict) or changed
    return changed


def _reference_apply_atom(box: _ReferenceBox, atom: Constraint) -> bool | None:
    """Narrow with one atom; None signals a proven-empty box."""
    if isinstance(atom, BoolConst):
        return None if not atom.value else False
    if isinstance(atom, Cmp):
        return _reference_apply_cmp(box, atom)
    if isinstance(atom, InSet):
        return _reference_apply_inset(box, atom)
    raise TypeError(f"not an atom: {atom!r}")


def _reference_apply_cmp(box: _ReferenceBox, atom: Cmp) -> bool | None:
    """Narrow with one comparison. Its linear form and that form's negation
    are derived once per atom object (`Cmp._linear`, `Cmp._negated`), not on
    each pass of each `narrow` call."""
    linear = atom._linear
    # s = t over two string attributes has a linear form but is no arithmetic
    if linear is not None and box.strs.keys().isdisjoint(linear[0]):
        op = atom.op
        if op in ("<=", "<"):
            return _reference_apply_linear_le(box, *linear, op == "<")
        if op in (">=", ">"):
            return _reference_apply_linear_le(box, *atom._negated, op == ">")
        if op == "=":
            r1 = _reference_apply_linear_le(box, *linear, False)
            if r1 is None:
                return None
            r2 = _reference_apply_linear_le(box, *atom._negated, False)
            if r2 is None:
                return None
            return r1 or r2
        return False  # '!=' does not narrow intervals
    # string-typed or nonlinear comparisons
    return _reference_apply_string_cmp(box, atom)


def _reference_apply_string_cmp(box: _ReferenceBox, atom: Cmp) -> bool | None:
    left, right = atom.left, atom.right
    if atom.op not in ("=", "!="):
        return False
    if isinstance(left, Lit) and isinstance(right, Attr):
        left, right = right, left
    if isinstance(left, Attr) and left.name in box.strs and isinstance(right, Lit):
        return _reference_apply_inset(box, InSet(left, frozenset({right.value}), negated=atom.op == "!="))
    if (
        isinstance(left, Attr)
        and isinstance(right, Attr)
        and left.name in box.strs
        and right.name in box.strs
        and atom.op == "="
    ):
        common = box.strs[left.name] & box.strs[right.name]
        changed = common != box.strs[left.name] or common != box.strs[right.name]
        box.strs[left.name] = set(common)
        box.strs[right.name] = set(common)
        return changed
    return False


def _reference_apply_inset(box: _ReferenceBox, atom: InSet) -> bool | None:
    term = atom.term
    if isinstance(term, Attr) and term.name in box.strs:
        allowed = box.strs[term.name]
        # check_types has made the set's values strings, like the attribute's
        new = (allowed - atom.values) if atom.negated else (allowed & atom.values)
        if new != allowed:
            box.strs[term.name] = new
            return True
        return False
    if atom.negated:
        return False
    lf = atom._linear
    if lf is None or len(lf[0]) != 1:
        if lf is not None and not lf[0]:
            return None if lf[1] not in atom.values else False
        return False
    a, vals = atom._solved
    if a not in box.nums:
        return False
    if not vals:
        return None
    interval = box.nums[a]
    inside = [v for v in vals if _reference_within(v, *interval)]
    if not inside:
        box.nums[a][0], box.nums[a][1] = 1, 0
        return True
    changed = box.tighten_lower(a, inside[0], False)
    changed = box.tighten_upper(a, inside[-1], False) or changed
    return changed


def reference_narrow(atoms, schema: ConstrainedSchema, seed: _ReferenceBox | None = None) -> _ReferenceBox | None:
    """Hull-consistency fixpoint over a conjunction of atoms; None if empty.

    Each pass applies every atom, but an atom derives its linear form (or
    its sorted candidate values) once, on its first pass, and keeps it; after
    the first pass only attributes that moved are rounded to integers or
    members again. A schema's own constraint is narrowed at most once per
    node, and only when its domains' grid is too big to walk (`_grid`)."""
    box = _ReferenceBox.copy(seed if seed is not None else schema._box)
    box.integer_tighten()
    if box.is_empty():
        return None
    for _ in range(_NARROW_MAX_PASSES):
        changed = False
        for atom in atoms:
            result = _reference_apply_atom(box, atom)
            if result is None:
                return None
            changed = changed or result
        changed = box.integer_tighten() or changed
        if box.is_empty():
            return None
        if not changed:
            break
    return box


# ---------------------------------------------------------------------------
# Reference rendering: the recursion that renders every node of a
# constraint again each time it is asked for


def reference_format_constraint(c: Constraint) -> str:
    def wrap(child: Constraint, strength: int) -> str:
        # strength: 3 = need atom-level, 2 = inside and, 1 = inside or
        text = reference_format_constraint(child)
        rank = {Iff: 0, Or: 1, And: 2}.get(type(child), 3)
        return f"({text})" if rank < strength else text

    if isinstance(c, BoolConst):
        return "true" if c.value else "false"
    if isinstance(c, Cmp):
        if c.op == "!=":
            return f"not ({format_term(c.left)} = {format_term(c.right)})"
        return f"{format_term(c.left)} {c.op} {format_term(c.right)}"
    if isinstance(c, InSet):
        base = f"{format_term(c.term)} in {_fmt_values(c.values)}"
        return f"not ({base})" if c.negated else base
    if isinstance(c, Not):
        return f"not {wrap(c.arg, 3)}"
    if isinstance(c, And):
        return " and ".join(wrap(x, 2) for x in c.items)
    if isinstance(c, Or):
        return " or ".join(wrap(x, 1) for x in c.items)
    if isinstance(c, Iff):
        return f"{wrap(c.left, 1)} iff {wrap(c.right, 1)}"
    raise TypeError(f"not a constraint: {c!r}")


# ---------------------------------------------------------------------------
# Reference distribution for the noise tests


def laplace_cdf(x, scale: float):
    """Analytic CDF of Laplace(0, scale), for distribution tests."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.5 * np.exp(x / scale), 1 - 0.5 * np.exp(-x / scale))
