"""Relational-algebra query plans and their schema-level validation.

A plan is an operator tree over named base relations; a full query wraps a
plan with one top-level aggregation. Validation assigns every node an output
schema whose constraint describes all tuples the node can ever produce, then
derives in one bottom-up pass each node's operator factor, diameter and the
bound S on how many of its output tuples one changed input row can change —
the bridge between the evaluation engine and the sensitivity analyzer. Where
a node's constraint or factor rests on an assumption, its record says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union as TUnion

from .constraints import (
    DEFAULT_DNF_CAP,
    DEFAULT_ENUM_CAP,
    EXACT_GRID_BUDGET,
    FALSE,
    Attr,
    Bounds,
    Cmp,
    ConstrainedSchema,
    Constraint,
    Domain,
    DomainKind,
    Lit,
    Not,
    attribute_bounds,
    check_types,
    constraint_attrs,
    diameter,
    initial_constraint,
    make_and,
    make_or,
    rename_attrs,
)
from .errors import SchemaError, ValidationError
from .extmath import INF, Ext, ext_mul, is_infinite

AGG_KINDS = ("count", "sum", "max", "min", "avg")


@dataclass(frozen=True)
class AggFn:
    kind: str
    attr: str | None = None

    def __post_init__(self):
        if self.kind not in AGG_KINDS:
            raise ValidationError(f"unknown aggregation function {self.kind!r}")
        if (self.attr is None) != (self.kind == "count"):
            raise ValidationError("count takes no attribute; other aggregations need one")


def agg_attr_name(fn: AggFn) -> str:
    return "count" if fn.kind == "count" else f"{fn.kind}_{fn.attr}"


@dataclass(frozen=True)
class Id:
    relation: str


@dataclass(frozen=True)
class Union:
    left: "Plan"
    right: "Plan"


@dataclass(frozen=True)
class Intersection:
    left: "Plan"
    right: "Plan"


@dataclass(frozen=True)
class Difference:
    left: "Plan"
    right: "Plan"


@dataclass(frozen=True)
class Restriction:
    predicate: Constraint
    source: "Plan"


@dataclass(frozen=True)
class Projection:
    attrs: tuple[str, ...]
    source: "Plan"


@dataclass(frozen=True)
class Product:
    left: "Plan"
    right: "Plan"


@dataclass(frozen=True)
class ProductOne:
    """Cartesian product whose left operand must hold exactly one tuple."""

    single: "Plan"
    source: "Plan"


@dataclass(frozen=True)
class ProductN:
    """Cartesian product against the first n right-operand tuples in value order."""

    n: int
    left: "Plan"
    right: "Plan"


@dataclass(frozen=True)
class ProductAgg:
    """Cartesian product against the one-row aggregate of the right operand."""

    fn: AggFn
    left: "Plan"
    right: "Plan"


@dataclass(frozen=True)
class GroupAggregate:
    group_attrs: tuple[str, ...]
    fns: tuple[AggFn, ...]
    source: "Plan"


Plan = TUnion[
    Id,
    Union,
    Intersection,
    Difference,
    Restriction,
    Projection,
    Product,
    ProductOne,
    ProductN,
    ProductAgg,
    GroupAggregate,
]


@dataclass(frozen=True)
class TopQuery:
    fn: AggFn
    body: Plan


_OP_NAMES = {
    Id: "id",
    Union: "union",
    Intersection: "intersection",
    Difference: "difference",
    Restriction: "restriction",
    Projection: "projection",
    Product: "product",
    ProductOne: "product-one",
    ProductN: "product-n",
    ProductAgg: "product-agg",
    GroupAggregate: "group-aggregate",
}


_BASE_DELTAS: dict[str, Ext] = {
    "id": Fraction(1),
    "union": Fraction(2),
    "intersection": Fraction(2),
    "difference": Fraction(2),
    "restriction": Fraction(1),
    "projection": Fraction(1),
    "product": INF,
    "product-one": Fraction(1),
    "product-agg": Fraction(1),
    "group-aggregate": Fraction(2),
}


def operator_delta(kind: str, n: int | None = None) -> Ext:
    """The intrinsic per-operator amplification factor."""
    if kind == "product-n":
        if n is None or n < 1:
            raise ValidationError("block product factor needs its block size")
        return Fraction(n)
    if kind not in _BASE_DELTAS:
        raise ValidationError(f"unknown operator {kind!r}")
    return _BASE_DELTAS[kind]


def plan_children(plan: Plan) -> tuple[Plan, ...]:
    if isinstance(plan, Id):
        return ()
    if isinstance(plan, (Restriction, Projection, GroupAggregate)):
        return (plan.source,)
    if isinstance(plan, ProductOne):
        return (plan.single, plan.source)
    return (plan.left, plan.right)


def base_relations(plan: Plan) -> set[str]:
    if isinstance(plan, Id):
        return {plan.relation}
    out: set[str] = set()
    for child in plan_children(plan):
        out |= base_relations(child)
    return out


def row_tree_relation(plan: Plan) -> str | None:
    """The single base relation of a pure row-filtering tree, else None.

    Row-filtering trees (leaves, restrictions, and the set operators) have
    the property that membership of a tuple in the output is a function of
    its membership in the one underlying relation — the case in which the
    difference operator's negated-constraint refinement is sound.
    """
    if isinstance(plan, Id):
        return plan.relation
    if isinstance(plan, Restriction):
        return row_tree_relation(plan.source)
    if isinstance(plan, (Union, Intersection, Difference)):
        left = row_tree_relation(plan.left)
        if left is not None and left == row_tree_relation(plan.right):
            return left
    return None


def default_aggregate(fn: AggFn, bounds: Bounds | None) -> Fraction:
    """Aggregate value for an empty relation.

    count and sum default to 0; max/min/avg default to the low end, high
    end, and midpoint of the attribute's feasible interval. Unbounded or
    empty intervals fall back to 0.
    """
    if fn.kind in ("count", "sum"):
        return Fraction(0)
    if bounds is None or bounds.empty:
        return Fraction(0)
    lo, hi = bounds.lower, bounds.upper
    if fn.kind == "max":
        return Fraction(0) if is_infinite(lo) else lo
    if fn.kind == "min":
        return Fraction(0) if is_infinite(hi) else hi
    if is_infinite(lo) or is_infinite(hi):
        return Fraction(0)
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Output schemas


@dataclass(frozen=True)
class NodeFacts:
    """What validation derives for one plan node: its operator's name, its
    output schema, the aggregate's value range of an aggregating product
    (else `None`), the operator factor, the diameter (`inf` when unbounded
    or past its budget), S = min(delta times the children's largest S,
    diam), 1 at a leaf, and the node's structural warning, if any."""

    op: str
    schema: ConstrainedSchema
    bounds: Bounds | None
    delta: Ext
    diam: Ext
    s: Ext
    warning: str | None


@dataclass(frozen=True)
class ValidatedQuery:
    """A query checked against its schemas, with what validation derives.

    `nodes` maps each plan node to its `NodeFacts`, and `bounds` is the
    value range of the query's own aggregation over its body (`None` for
    count). Evaluation reads these ranges for the value an aggregate takes
    over an empty input; the analyzer reads each node's S and diameter.
    """

    query: TopQuery
    nodes: dict[Plan, NodeFacts]
    bounds: Bounds | None


# The structural warnings, each stated on the node whose record it qualifies.
_DIFFERENCE_FALLBACK = (
    "set difference over unrelated operands: the right-hand constraint "
    "cannot be negated soundly, so only the left constraint was kept"
)
_DERIVED_PINNED_SIDE = (
    "the pinned side of a restricted product is a derived subquery; "
    "the static factor assumes it does not vary with the database"
)


def validate(
    tq: TopQuery,
    schemas: dict[str, ConstrainedSchema],
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
    dnf_cap: int = DEFAULT_DNF_CAP,
) -> ValidatedQuery:
    """Check the query against `schemas` and derive what `ValidatedQuery`
    holds, under the given enumeration caps; raise ValidationError if the
    query is ill-formed. Every node is checked before any diameter is
    counted. Analysis, evaluation, release and the oracle all take the
    result, so a query is validated once."""
    builder = _SchemaBuilder(schemas, enum_cap, dnf_cap)
    bounds = builder._fn_bounds(tq.fn, builder.schema_of(tq.body), "the query")
    nodes: dict[Plan, NodeFacts] = {}
    for plan, schema in builder.memo.items():  # in post-order: children first
        op = _OP_NAMES[type(plan)]
        delta = operator_delta(op, getattr(plan, "n", None))
        inner = max((nodes[c].s for c in plan_children(plan)), default=None)
        structural = Fraction(1) if inner is None else ext_mul(delta, inner)
        # The diameter only matters below the structural bound, so there is
        # no point enumerating a big grid exactly; small grids still report
        # their exact size.
        budget = enum_cap
        if not is_infinite(structural):
            budget = min(budget, max(int(structural) + 1, EXACT_GRID_BUDGET))
        diam = diameter(schema.constraint, schema, budget)
        s = min(structural, diam)
        nodes[plan] = NodeFacts(
            op, schema, builder.agg_bounds.get(plan), delta, diam, s, builder.warnings.get(plan)
        )
    return ValidatedQuery(tq, nodes, bounds)


class _SchemaBuilder:
    def __init__(self, schemas: dict[str, ConstrainedSchema], enum_cap: int, dnf_cap: int):
        self.schemas = schemas
        self.enum_cap = enum_cap
        self.dnf_cap = dnf_cap
        self.memo: dict = {}  # plan -> output schema
        self.agg_bounds: dict = {}  # aggregating product -> its aggregate's range
        self.warnings: dict = {}  # plan -> its structural warning

    def schema_of(self, plan: Plan) -> ConstrainedSchema:
        if plan in self.memo:
            return self.memo[plan]
        out = self._build(plan)
        self.memo[plan] = out
        return out

    def _build(self, plan: Plan) -> ConstrainedSchema:
        if isinstance(plan, Id):
            if plan.relation not in self.schemas:
                raise ValidationError(f"unknown relation {plan.relation!r}")
            base = self.schemas[plan.relation]
            return ConstrainedSchema(
                base.name, base.attributes, initial_constraint(base)
            )
        if isinstance(plan, (Union, Intersection)):
            return self._set_op(plan)
        if isinstance(plan, Difference):
            return self._difference(plan)
        if isinstance(plan, Restriction):
            return self._restriction(plan)
        if isinstance(plan, Projection):
            return self._projection(plan)
        if isinstance(plan, (Product, ProductOne, ProductN)):
            return self._product(plan)
        if isinstance(plan, ProductAgg):
            return self._product_agg(plan)
        if isinstance(plan, GroupAggregate):
            return self._group_agg(plan)
        raise TypeError(f"not a plan node: {plan!r}")

    # -- binary set operators

    def _set_op(self, plan):
        sl = self.schema_of(plan.left)
        sr = self.schema_of(plan.right)
        _require_same_attrs(sl, sr)
        attrs = tuple(
            (a, _domain_join(da, db))
            for (a, da), (_, db) in zip(sl.attributes, sr.attributes)
        )
        if isinstance(plan, Union):
            # shared hidden names are sound under a disjunction (each side
            # quantifies its own witnesses), so no renaming here
            aux = _merge_aux(sl.aux, sr.aux)
            constraint = make_or([sl.constraint, sr.constraint])
            return ConstrainedSchema("union", attrs, constraint, aux)
        sr = _rename_aux_conflicts(sr, _aux_names(sl))
        constraint = make_and([sl.constraint, sr.constraint])
        return ConstrainedSchema("intersection", attrs, constraint, sl.aux + sr.aux)

    def _difference(self, plan: Difference):
        sl = self.schema_of(plan.left)
        sr = self.schema_of(plan.right)
        _require_same_attrs(sl, sr)
        if row_tree_relation(plan) is None:
            # Negating the right side's constraint is only sound when both
            # operands filter the same base relation; otherwise keep the
            # left constraint (a sound superset) and warn.
            self.warnings[plan] = _DIFFERENCE_FALLBACK
            return ConstrainedSchema("difference", sl.attributes, sl.constraint, sl.aux)
        constraint = make_and([sl.constraint, Not(sr.constraint)])
        return ConstrainedSchema("difference", sl.attributes, constraint, sl.aux)

    # -- unary operators

    def _restriction(self, plan: Restriction):
        ss = self.schema_of(plan.source)
        unknown = constraint_attrs(plan.predicate) - set(ss.attr_names())
        if unknown:
            raise ValidationError(
                f"restriction predicate references unknown attributes {sorted(unknown)}"
            )
        constraint = make_and([ss.constraint, plan.predicate])
        try:  # the schema type-checks the predicate, unless the FALSE source drops it
            if constraint == FALSE:
                check_types(plan.predicate, ss.all_domains())
            return ConstrainedSchema(ss.name, ss.attributes, constraint, ss.aux)
        except SchemaError as e:
            raise ValidationError(f"restriction predicate: {e}") from None

    def _projection(self, plan: Projection):
        ss = self.schema_of(plan.source)
        if not plan.attrs:
            raise ValidationError("projection needs at least one attribute")
        if len(set(plan.attrs)) != len(plan.attrs):
            raise ValidationError("duplicate attributes in projection")
        visible = set(ss.attr_names())
        unknown = [a for a in plan.attrs if a not in visible]
        if unknown:
            raise ValidationError(f"projection of unknown attributes {unknown}")
        attrs = tuple((a, ss.domain(a)) for a in plan.attrs)
        dropped = tuple((a, d) for a, d in ss.attributes if a not in plan.attrs)
        return ConstrainedSchema(ss.name, attrs, ss.constraint, ss.aux + dropped)

    # -- products

    def _product(self, plan):
        if isinstance(plan, ProductOne):
            if not isinstance(plan.single, (Id, ProductAgg)):
                raise ValidationError(
                    "the one-row side of a one-sided product must be a base relation "
                    "or an aggregating product"
                )
            left, right = plan.single, plan.source
            self._check_pinned(plan, plan.single)
        elif isinstance(plan, ProductN):
            if plan.n < 1:
                raise ValidationError("block size of a block product must be positive")
            left, right = plan.left, plan.right
            self._check_pinned(plan, plan.right)
        else:
            left, right = plan.left, plan.right
        sl, sr = self._operand_schemas(left, right)
        sl = _rename_aux_conflicts(sl, set(sr.attr_names()))
        sr = _rename_aux_conflicts(sr, set(sl.attr_names()) | _aux_names(sl))
        return ConstrainedSchema(
            "product",
            sl.attributes + sr.attributes,
            make_and([sl.constraint, sr.constraint]),
            sl.aux + sr.aux,
        )

    def _operand_schemas(self, left: Plan, right: Plan):
        """The schemas of a product's operands, which share no attribute."""
        sl, sr = self.schema_of(left), self.schema_of(right)
        overlap = set(sl.attr_names()) & set(sr.attr_names())
        if overlap:
            raise ValidationError(f"product operands share attributes {sorted(overlap)}")
        return sl, sr

    def _check_pinned(self, plan: Plan, pinned: Plan) -> None:
        """Warn when a restricted product's pinned side is not a base relation."""
        if not isinstance(pinned, Id):
            self.warnings[plan] = _DERIVED_PINNED_SIDE

    def _product_agg(self, plan: ProductAgg):
        self._check_pinned(plan, plan.right)
        sl, sr = self._operand_schemas(plan.left, plan.right)
        fn = plan.fn
        col = agg_attr_name(fn)
        if col in sl.attr_names():
            raise ValidationError(
                f"aggregate column {col!r} collides with a left-operand attribute"
            )
        bounds = self._fn_bounds(fn, sr)
        self.agg_bounds[plan] = bounds
        # the right operand's attributes become hidden witnesses
        taken = set(sl.attr_names()) | _aux_names(sl) | {col}
        right_pairs, mapping = _fresh_names(sr.attributes + sr.aux, taken)
        c_right = rename_attrs(sr.constraint, mapping)
        atoms = _agg_value_atoms(fn, bounds, col)
        default = default_aggregate(fn, bounds)
        # either the aggregate came from a non-empty operand (witness + range
        # atoms) or the operand was empty and the column holds the default
        value_c = make_or(
            [make_and([c_right] + atoms), Cmp("=", Attr(col), Lit(default))]
        )
        attrs = sl.attributes + ((col, _agg_domain(fn)),)
        return ConstrainedSchema(
            "product-agg", attrs, make_and([sl.constraint, value_c]), sl.aux + right_pairs
        )

    def _group_agg(self, plan: GroupAggregate):
        ss = self.schema_of(plan.source)
        if not plan.group_attrs:
            raise ValidationError("grouping needs at least one attribute")
        if len(set(plan.group_attrs)) != len(plan.group_attrs):
            raise ValidationError("duplicate grouping attributes")
        visible = set(ss.attr_names())
        unknown = [a for a in plan.group_attrs if a not in visible]
        if unknown:
            raise ValidationError(f"grouping by unknown attributes {unknown}")
        if not plan.fns:
            raise ValidationError("grouping needs at least one aggregation")
        cols = [agg_attr_name(f) for f in plan.fns]
        clashes = [c for c in cols if c in plan.group_attrs]
        if len(set(cols)) != len(cols) or clashes:
            raise ValidationError("aggregate column names must be unique")
        atoms: list[Constraint] = []
        agg_pairs = []
        for f, col in zip(plan.fns, cols):
            bounds = self._fn_bounds(f, ss)
            atoms.extend(_agg_value_atoms(f, bounds, col))
            agg_pairs.append((col, _agg_domain(f)))
        attrs = tuple((g, ss.domain(g)) for g in plan.group_attrs) + tuple(agg_pairs)
        dropped = tuple((a, d) for a, d in ss.attributes if a not in plan.group_attrs)
        aux, mapping = _fresh_names(ss.aux + dropped, set(a for a, _ in attrs))
        constraint = rename_attrs(make_and([ss.constraint] + atoms), mapping)
        return ConstrainedSchema("group-aggregate", attrs, constraint, aux)

    def _fn_bounds(
        self, fn: AggFn, operand: ConstrainedSchema, what: str = "the operand"
    ) -> Bounds | None:
        """Value range of the aggregated attribute over the operand; None for count.

        The attribute must be a visible numeric attribute of the operand.
        """
        if fn.kind == "count":
            return None
        if fn.attr not in operand.attr_names():
            raise ValidationError(f"aggregated attribute {fn.attr!r} is not produced by {what}")
        if not operand.domain(fn.attr).is_numeric:
            raise ValidationError(f"cannot {fn.kind} over string attribute {fn.attr!r}")
        return attribute_bounds(
            operand.constraint,
            operand,
            fn.attr,
            enum_cap=self.enum_cap,
            dnf_cap=self.dnf_cap,
        )


def _require_same_attrs(sl: ConstrainedSchema, sr: ConstrainedSchema) -> None:
    if sl.attr_names() != sr.attr_names():
        raise ValidationError(
            f"set operands have different attributes: {list(sl.attr_names())} "
            f"vs {list(sr.attr_names())}"
        )
    for (a, da), (_, db) in zip(sl.attributes, sr.attributes):
        if da.is_numeric != db.is_numeric:
            raise ValidationError(f"attribute {a!r} is numeric on one side only")


def _domain_join(a: Domain, b: Domain) -> Domain:
    if a == b:
        return a
    if a.kind is DomainKind.STR_SET and b.kind is DomainKind.STR_SET:
        return Domain.str_set(a.members + b.members)
    if a.kind is DomainKind.INT_RANGE and b.kind is DomainKind.INT_RANGE:
        return Domain.int_range(min(a.lower, b.lower), max(a.upper, b.upper))
    if a.kind is DomainKind.NUM_SET and b.kind is DomainKind.NUM_SET:
        return Domain.num_set(a.members + b.members)
    lo1, hi1 = a.interval()
    lo2, hi2 = b.interval()
    return Domain.real_range(min(lo1, lo2), max(hi1, hi2))


def _aux_names(schema: ConstrainedSchema) -> set[str]:
    return {a for a, _ in schema.aux}


def _fresh_names(pairs, taken: set[str]):
    """Rename the given (name, domain) pairs away from `taken`."""
    used = set(taken) | {a for a, _ in pairs}
    mapping: dict[str, str] = {}
    out = []
    for a, d in pairs:
        if a in taken:
            i = 2
            while f"{a}__{i}" in used:
                i += 1
            fresh = f"{a}__{i}"
            used.add(fresh)
            mapping[a] = fresh
            out.append((fresh, d))
        else:
            out.append((a, d))
    return tuple(out), mapping


def _rename_aux_conflicts(schema: ConstrainedSchema, taken: set[str]) -> ConstrainedSchema:
    aux, mapping = _fresh_names(schema.aux, taken)
    if not mapping:
        return schema
    return ConstrainedSchema(
        schema.name,
        schema.attributes,
        rename_attrs(schema.constraint, mapping),
        aux,
    )


def _merge_aux(left: tuple, right: tuple) -> tuple:
    out = list(left)
    names = {a for a, _ in left}
    for a, d in right:
        if a not in names:
            out.append((a, d))
            names.add(a)
        else:
            for i, (a0, d0) in enumerate(out):
                if a0 == a and d0 != d:
                    out[i] = (a0, _domain_join(d0, d))
    return tuple(out)


def _agg_domain(fn: AggFn) -> Domain:
    if fn.kind == "count":
        return Domain.real_range(Fraction(0), INF)
    return Domain.real_range()


def _agg_value_atoms(fn: AggFn, bounds: Bounds | None, col: str) -> list[Constraint]:
    """Range atoms the aggregate column provably satisfies (closed bounds)."""
    a = Attr(col)
    if fn.kind == "count":
        return [Cmp(">=", a, Lit(Fraction(0)))]
    if bounds is None or bounds.empty:
        return []
    lo, hi = bounds.lower, bounds.upper
    if fn.kind == "sum":
        if not is_infinite(lo) and lo >= 0:
            return [Cmp(">=", a, Lit(Fraction(0)))]
        if not is_infinite(hi) and hi <= 0:
            return [Cmp("<=", a, Lit(Fraction(0)))]
        return []
    atoms: list[Constraint] = []
    if not is_infinite(lo):
        atoms.append(Cmp(">=", a, Lit(lo)))
    if not is_infinite(hi):
        atoms.append(Cmp("<=", a, Lit(hi)))
    return atoms
