"""Compositional sensitivity analysis of aggregation queries.

Every operator contributes an intrinsic amplification factor; validation
(`query.validate`) multiplies factors bottom-up, caps each intermediate
result by the diameter of the node's propagated constraint (an output can
never change by more tuples than can exist at all) and notes each node's
structural warning, all in one `NodeFacts` per node. The analyzer converts
the root's tuple-level bound into a bound on the released number through the
top-level aggregation, and reports it with those records, one per node
occurrence, as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constraints import Bounds, format_constraint
from .extmath import Ext, INF, ext_mul, format_ext, is_infinite, to_double
from .query import AggFn, NodeFacts, Plan, ValidatedQuery, plan_children


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
    nodes: tuple[NodeFacts, ...]
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
                    **_exact("delta_op", r.delta),
                    **_exact("diam", r.diam),
                    "constraint_text": format_constraint(r.schema.constraint),
                }
                for r in self.nodes
            ],
            "warnings": list(self.warnings),
        }


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
    root = vq.nodes[tq.body]
    nodes, warnings = _occurrences(tq.body, vq)

    fn = tq.fn
    bounds = vq.bounds
    if root.diam == 0 or (bounds is not None and bounds.empty):
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
        gs = ext_mul(delta_f, root.s)
    top = TopRecord(fn, bounds, delta_f)
    return SensitivityReport(gs, top, nodes, tuple(warnings))


def _occurrences(body: Plan, vq: ValidatedQuery) -> tuple[tuple[NodeFacts, ...], list[str]]:
    """The facts of every node occurrence of the plan tree, children first,
    and their warnings, parents first."""
    nodes: list[NodeFacts] = []
    warnings: list[str] = []
    stack = [(body, False)]
    while stack:
        plan, children_done = stack.pop()
        facts = vq.nodes[plan]
        if children_done:
            nodes.append(facts)
            continue
        if facts.warning is not None:
            warnings.append(facts.warning)
        stack.append((plan, True))
        stack.extend((child, False) for child in reversed(plan_children(plan)))
    return tuple(nodes), warnings
