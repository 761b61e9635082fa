"""Shared builders for the test suite: tiny schemas, random plans, oracles."""

from __future__ import annotations

import csv
import itertools
import random
import re
from fractions import Fraction
from typing import Iterator

import numpy as np

from raqdp.constraints import (
    DEFAULT_ENUM_CAP,
    Attr,
    Cmp,
    ConstrainedSchema,
    Domain,
    InSet,
    Lit,
    _finite_grid,
    _prepared,
    compile_constraint,
    solution_count,
    initial_constraint,
)
from raqdp.engine import Relation, answer, eval_plan
from raqdp.errors import DataError, ParseError, ValidationError
from raqdp.extmath import too_many_digits
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
    validate,
)

AGG_KINDS = ("count", "sum", "max", "min", "avg")


def schema_of(text: str) -> dict[str, ConstrainedSchema]:
    return parse_schemas(text)


def holds(c, asg: dict) -> bool:
    """Whether the assignment (name -> value) satisfies the constraint."""
    return compile_constraint(c, tuple(asg))(tuple(asg.values()))


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
    point of the unfiltered grid is tested by the full compiled constraint, and
    a seen-set over the visible positions drops the repeats."""
    names = tuple(grid)
    satisfies = compile_constraint(c, names)
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


def reference_load_csv(schema: ConstrainedSchema, path: str) -> frozenset:
    """The tuples of a CSV file as `engine.load_csv` documents them, or its
    DataError: a UTF-8 byte-order mark is skipped; rows are numbered from 1
    after the header, blank rows included, and blank rows are skipped; cells
    are stripped, and a numeric cell is read as `int` or `Fraction` reads it
    (an int when integral). A row's violation is its first cell that is not a
    number (among the schema's arity of cells), else a wrong number of
    fields, else its first cell outside its domain (`Domain.member_test`),
    else the check constraint; not-a-number rows are listed first. Cells
    past the digit limit are not covered."""
    names = schema.attr_names()
    domains = [schema.domain(a) for a in names]
    tests = [d.member_test() for d in domains]
    satisfies = compile_constraint(schema.constraint, names)
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
                _reference_number(a, text.strip()) if d.is_numeric else text.strip()
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
            violations.append(f"row {i}: {outside[0][0]} = {outside[0][1]} outside its domain")
        elif not satisfies(cells):
            violations.append(f"row {i}: violates the check constraint")
        else:
            out.add(cells)
    violations = not_numbers + violations
    if violations:
        raise DataError(f"{path}: {len(violations)} invalid row(s)", violations)
    return frozenset(out)


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
# Reference distribution for the noise tests


def laplace_cdf(x, scale: float):
    """Analytic CDF of Laplace(0, scale), for distribution tests."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.5 * np.exp(x / scale), 1 - 0.5 * np.exp(-x / scale))
