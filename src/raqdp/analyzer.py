"""Compositional sensitivity analysis of aggregation queries.

Every operator contributes an intrinsic amplification factor; the recursion
multiplies factors bottom-up and caps each intermediate result by the
diameter of the node's propagated constraint (an output can never change by
more tuples than can exist at all). The top-level aggregation converts the
tuple-level factor into a bound on the released number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constraints import Bounds, diameter, format_constraint
from .errors import ValidationError
from .extmath import Ext, INF, ext_mul, format_ext, is_infinite, to_double
from .query import (
    AggFn,
    Difference,
    Plan,
    ProductAgg,
    ProductN,
    ProductOne,
    ValidatedQuery,
    difference_uses_fallback,
    op_name,
    plan_children,
    product_pinned_leaf,
)

# Exact-diameter floor: grids at most this large are always counted exactly,
# keeping reports informative; beyond it the count is skipped whenever it
# cannot lower the sensitivity.
_DIAM_FLOOR = 4096

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


@dataclass(frozen=True)
class NodeRecord:
    op: str
    delta_op: Ext
    diam: Ext
    s: Ext
    constraint_text: str


@dataclass(frozen=True)
class TopRecord:
    fn: AggFn
    bounds: Bounds | None
    delta_f: Ext


def _exact(key: str, x: Ext) -> dict:
    """A number as exact text under `key` and as a double under `key`_float."""
    return {key: format_ext(x), f"{key}_float": to_double(x, key)}


@dataclass(frozen=True)
class SensitivityReport:
    gs: Ext
    top: TopRecord
    nodes: tuple[NodeRecord, ...]
    warnings: tuple[str, ...]

    def to_json_dict(self) -> dict:
        top: dict = {
            "fn": self.top.fn.kind,
            "attr": self.top.fn.attr,
            **_exact("delta", self.top.delta_f),
        }
        b = self.top.bounds
        if b is not None and not b.empty:
            top["bounds"] = {
                "lo": format_ext(b.lower),
                "hi": format_ext(b.upper),
                "lo_float": to_double(b.lower, "bounds.lo"),
                "hi_float": to_double(b.upper, "bounds.hi"),
            }
        else:
            top["bounds"] = None
        return {
            **_exact("gs", self.gs),
            "top": top,
            "nodes": [
                {
                    "op": r.op,
                    **_exact("s", r.s),
                    **_exact("delta_op", r.delta_op),
                    **_exact("diam", r.diam),
                    "constraint_text": r.constraint_text,
                }
                for r in self.nodes
            ],
            "warnings": list(self.warnings),
        }


class _Analysis:
    def __init__(self, vq: ValidatedQuery):
        self.vq = vq
        self.results: dict = {}  # plan -> (delta, diam, s)

    def s_of(self, plan: Plan) -> Ext:
        if plan in self.results:
            return self.results[plan][2]
        schema = self.vq.outputs[plan]
        n = plan.n if isinstance(plan, ProductN) else None
        delta = operator_delta(op_name(plan), n)
        children = plan_children(plan)
        if not children:
            structural = Fraction(1)
        else:
            inner = max(self.s_of(c) for c in children)
            structural = ext_mul(delta, inner)
        # The diameter only matters below the structural bound, so there is
        # no point enumerating a big grid exactly; keep a floor so small
        # grids still report their exact size.
        budget = self.vq.enum_cap
        if not is_infinite(structural):
            budget = min(budget, max(int(structural) + 1, _DIAM_FLOOR))
        diam = diameter(schema.constraint, schema, budget)
        s = min(structural, diam)
        self.results[plan] = (delta, diam, s)
        return s

    def records(self, plan: Plan) -> list[NodeRecord]:
        out: list[NodeRecord] = []
        for child in plan_children(plan):
            out.extend(self.records(child))
        delta, diam, s = self.results[plan]
        schema = self.vq.outputs[plan]
        out.append(
            NodeRecord(op_name(plan), delta, diam, s, format_constraint(schema.constraint))
        )
        return out


def intermediate_sensitivity(plan: Plan, vq: ValidatedQuery) -> Ext:
    """The bound S on how many output tuples of `plan`, a node of the
    validated query, one changed input row can change."""
    return _Analysis(vq).s_of(plan)


def aggregation_delta(fn: AggFn, bounds: Bounds | None) -> Ext:
    """Worst-case change of the aggregate when one tuple enters or leaves."""
    if fn.kind == "count":
        return Fraction(1)
    assert bounds is not None
    lo, hi = bounds.lower, bounds.upper
    if is_infinite(lo) or is_infinite(hi):
        return INF
    if fn.kind == "sum":
        return max(abs(lo), abs(hi))
    if fn.kind in ("max", "min"):
        return hi - lo
    return (hi - lo) / 2


def global_sensitivity(vq: ValidatedQuery) -> SensitivityReport:
    """The bound on how far the query's answer moves when one row changes."""
    tq = vq.query
    analysis = _Analysis(vq)
    s_root = analysis.s_of(tq.body)
    nodes = tuple(analysis.records(tq.body))
    warnings = list(_structural_warnings(tq.body))

    fn = tq.fn
    bounds = vq.bounds
    root_diam = nodes[-1].diam
    if root_diam == 0 or (bounds is not None and bounds.empty):
        warnings.append("query is statically empty: the propagated constraint is unsatisfiable")
        top = TopRecord(fn, bounds, Fraction(0))
        return SensitivityReport(Fraction(0), top, nodes, tuple(warnings))

    delta_f = aggregation_delta(fn, bounds)
    if is_infinite(delta_f) and bounds is not None:
        side = fn.attr
        warnings.append(
            f"attribute {side!r} has an unbounded feasible range; "
            "global sensitivity is infinite"
        )
    if fn.kind in ("max", "min"):
        gs = delta_f
    else:
        gs = ext_mul(delta_f, s_root)
    top = TopRecord(fn, bounds, delta_f)
    return SensitivityReport(gs, top, nodes, tuple(warnings))


def _structural_warnings(plan: Plan):
    if isinstance(plan, Difference) and difference_uses_fallback(plan):
        yield (
            "set difference over unrelated operands: the right-hand constraint "
            "cannot be negated soundly, so only the left constraint was kept"
        )
    if isinstance(plan, (ProductOne, ProductN, ProductAgg)) and not product_pinned_leaf(plan):
        yield (
            "the pinned side of a restricted product is a derived subquery; "
            "the static factor assumes it does not vary with the database"
        )
    for child in plan_children(plan):
        yield from _structural_warnings(child)
