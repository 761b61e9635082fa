"""Set-semantics evaluation of query plans over in-memory relations.

Relations are frozen sets of value tuples; every value is an exact rational
or a string. Loading validates each row against the schema's domains and
check constraint, so evaluation can assume constraint-valid inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union as TUnion

from .constraints import Bounds, ConstrainedSchema, DomainKind, evaluate
from .errors import DataError, EvalError
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

Value = TUnion[Fraction, str]


@dataclass(frozen=True)
class Relation:
    schema: ConstrainedSchema
    tuples: frozenset

    def __len__(self) -> int:
        return len(self.tuples)

    @classmethod
    def from_rows(
        cls,
        schema: ConstrainedSchema,
        rows: Iterable,
        labels: list[int] | None = None,
    ) -> "Relation":
        names = schema.attr_names()
        out = set()
        violations: list[str] = []
        for i, row in enumerate(rows):
            label = labels[i] if labels is not None else i + 1
            row = tuple(row)
            if len(row) != len(names):
                violations.append(f"row {label}: expected {len(names)} values, got {len(row)}")
                continue
            coerced = []
            bad = False
            for a, v in zip(names, row):
                if isinstance(v, bool) or not isinstance(v, (int, Fraction, str)):
                    violations.append(f"row {label}: unsupported value {v!r} for {a}")
                    bad = True
                    break
                v = v if isinstance(v, str) else Fraction(v)
                if not schema.domain(a).contains(v):
                    violations.append(f"row {label}: {a} = {v} outside its domain")
                    bad = True
                    break
                coerced.append(v)
            if bad:
                continue
            tup = tuple(coerced)
            if not evaluate(schema.constraint, dict(zip(names, tup))):
                violations.append(f"row {label}: violates the check constraint")
                continue
            out.add(tup)
        if violations:
            raise DataError(
                f"{len(violations)} invalid row(s) for relation {schema.name!r}", violations
            )
        return cls(schema, frozenset(out))


def load_csv(schema: ConstrainedSchema, path: str) -> Relation:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file", []) from None
        names = list(schema.attr_names())
        if [h.strip() for h in header] != names:
            raise DataError(
                f"{path}: header {header} does not match schema attributes {names}", []
            )
        rows = []
        labels = []
        violations = []
        for i, row in enumerate(reader):
            if not row:
                continue
            parsed = []
            for a, text in zip(names, row):
                text = text.strip()
                if schema.domain(a).kind is DomainKind.STR_SET:
                    parsed.append(text)
                else:
                    try:
                        parsed.append(Fraction(text))
                    except (ValueError, ZeroDivisionError):
                        violations.append(f"row {i + 1}: {a} = {text!r} is not a number")
                        parsed = None
                        break
            if parsed is not None:
                rows.append(parsed)
                labels.append(i + 1)
    try:
        relation = Relation.from_rows(schema, rows, labels=labels)
    except DataError as e:
        violations.extend(e.violations)
        relation = None
    if violations:
        raise DataError(f"{path}: {len(violations)} invalid row(s)", violations)
    return relation


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
    if fn.kind == "sum":
        return sum(values, Fraction(0))
    if fn.kind == "max":
        return max(values)
    if fn.kind == "min":
        return min(values)
    return sum(values, Fraction(0)) / len(values)


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
        names = source.schema.attr_names()
        tuples = frozenset(
            t for t in source.tuples if evaluate(plan.predicate, dict(zip(names, t)))
        )
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
