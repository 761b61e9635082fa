"""Constrained schemas: attribute domains plus a logical constraint over them.

The constraint language is boolean structure (and/or/not/iff) over linear
comparison atoms and finite-set membership atoms. Everything downstream —
attribute bounds, solution counting, diameter — works on exact rationals,
held as `held_value` holds them (an integral value as int, any other as
Fraction) in narrowing boxes, linear forms and value grids alike; division
goes through `_quotient`, never through int / int, which gives a float.
Returned bounds and diameters are Fractions (or infinities).
Bounds for interval domains come from a hull-consistency narrowing fixpoint
applied per disjunctive branch; fully enumerable domains take an exact
enumeration path instead. Solution counts multiply over groups
of conjuncts with disjoint attributes; the enumeration cap is on the whole grid.
Enumeration is one generated walk per grid, which tests each top-level
conjunct as soon as its loops bind its attributes (`_solutions`); the caps
still bound the unfiltered grid.
Narrowing derives nothing twice: each comparison atom derives its linear form
(and that form's negation), and each numeric membership atom its attribute
and sorted candidate values, once, the first time it is applied, and keeps
them; each schema normalizes its own constraint once, and narrows it at most
once, only when its domains' grid is too big to walk (`_grid`); a node's
diameter and its aggregate's range share both.
Constraints are tested by generated Python source (`Codegen`): one
expression per constraint over a tuple layout, or one walk per grid,
compiled once per source text; a grid that no conjunct tests is
`itertools.product` over its lists.
Each constraint node renders its text once and keeps it (`format_constraint`).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Union

from .errors import SchemaError
from .extmath import Ext, INF, NEG_INF, format_ext, is_infinite

DEFAULT_ENUM_CAP = 1_000_000
DEFAULT_DNF_CAP = 64

# A grid of at most this many points is always enumerated exactly, for a
# value range or a diameter; past it a value range takes the (sound) interval
# path, and validation counts a diameter only when it can lower S.
EXACT_GRID_BUDGET = 4096
_NARROW_MAX_PASSES = 32


# ---------------------------------------------------------------------------
# Domains


class DomainKind(Enum):
    INT_RANGE = "int-range"
    REAL_RANGE = "real-range"
    NUM_SET = "num-set"
    STR_SET = "str-set"


@dataclass(frozen=True)
class Domain:
    """An attribute's value domain.

    Integer ranges have finite integer endpoints; real ranges may be
    unbounded on either side; finite sets are non-empty and homogeneous.
    """

    kind: DomainKind
    lower: Ext = NEG_INF
    upper: Ext = INF
    members: tuple = ()

    def __post_init__(self):
        if self.kind is DomainKind.INT_RANGE:
            if is_infinite(self.lower) or is_infinite(self.upper):
                raise SchemaError("integer ranges need finite endpoints")
            if self.lower.denominator != 1 or self.upper.denominator != 1:
                raise SchemaError("integer range endpoints must be integers")
        if self.kind in (DomainKind.INT_RANGE, DomainKind.REAL_RANGE):
            if self.lower > self.upper:
                raise SchemaError(f"empty range [{self.lower}, {self.upper}]")
        if self.kind in (DomainKind.NUM_SET, DomainKind.STR_SET):
            if not self.members:
                raise SchemaError("finite enumeration domains must be non-empty")

    @classmethod
    def int_range(cls, lower, upper) -> Domain:
        return cls(DomainKind.INT_RANGE, _fraction(lower), _fraction(upper))

    @classmethod
    def real_range(cls, lower=NEG_INF, upper=INF) -> Domain:
        return cls(DomainKind.REAL_RANGE, _fraction(lower), _fraction(upper))

    @classmethod
    def num_set(cls, values) -> Domain:
        members = tuple(sorted({v if v.__class__ is Fraction else Fraction(v) for v in values}))
        return cls(DomainKind.NUM_SET, members=members)

    @classmethod
    def str_set(cls, values) -> Domain:
        values = set(values)
        if not all(isinstance(v, str) for v in values):
            raise SchemaError("string enumerations may only contain strings")
        return cls(DomainKind.STR_SET, members=tuple(sorted(values)))

    @property
    def is_numeric(self) -> bool:
        return self.kind is not DomainKind.STR_SET

    def interval(self) -> tuple[Ext, Ext]:
        if self.kind is DomainKind.STR_SET:
            raise SchemaError("string domains have no numeric interval")
        if self.kind is DomainKind.NUM_SET:
            return self.members[0], self.members[-1]
        return self.lower, self.upper

    def member_test(self) -> Callable[[object], bool]:
        """The domain's membership test for values as `held_value` holds them."""
        if self.kind is DomainKind.STR_SET:
            members = frozenset(self.members)
            return lambda v: v.__class__ is str and v in members
        if self.kind is DomainKind.INT_RANGE:
            lo, hi = int(self.lower), int(self.upper)
            return lambda v: v.__class__ is int and lo <= v <= hi
        if self.kind is DomainKind.NUM_SET:
            members = frozenset(self.members)
            return lambda v: v.__class__ in _NUMBER_CLASSES and v in members
        lo, hi = self.lower, self.upper
        return lambda v: v.__class__ in _NUMBER_CLASSES and lo <= v <= hi

    def contains(self, value) -> bool:
        return self.member_test()(held_value(value))


_NUMBER_CLASSES = frozenset({int, Fraction})


def _fraction(x: Ext) -> Ext:
    """x as a Fraction, or +-inf; a Fraction is kept as it is (the parser
    makes each number one already)."""
    return x if x.__class__ is Fraction or is_infinite(x) else Fraction(x)


def held_value(v):
    """A value as relations and solution grids hold it: an integral number as
    int, any other rational as Fraction, a string as str. Any other value
    (a bool, a float) comes back unchanged, and no domain accepts it."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction, str)):
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else Fraction(v)
    return str(v) if isinstance(v, str) else int(v)


def _held_number(x):
    """An int or Fraction as `held_value` holds it, without its type checks."""
    return x.numerator if x.__class__ is not int and x.denominator == 1 else x


def _quotient(a, b):
    """a / b exactly, held as `held_value` holds it; b is not 0. Plain `/` on
    two ints would give a float."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return _held_number(a / b)  # one of them is a Fraction


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Attr:
    name: str


@dataclass(frozen=True)
class Lit:
    value: Union[Fraction, str]


@dataclass(frozen=True)
class Arith:
    op: str  # '+', '-', '*'
    left: "Term"
    right: "Term"


Term = Union[Attr, Lit, Arith]


def linear_form(term: Term) -> tuple[dict[str, int | Fraction], int | Fraction] | None:
    """Decompose into (coefficients, constant), each held as `held_value` holds
    it; None for string or nonlinear terms."""
    if isinstance(term, Lit):
        if isinstance(term.value, str):
            return None
        return {}, held_value(term.value)
    if isinstance(term, Attr):
        return {term.name: 1}, 0
    lf_l = linear_form(term.left)
    lf_r = linear_form(term.right)
    if lf_l is None or lf_r is None:
        return None
    cl, kl = lf_l
    cr, kr = lf_r
    if term.op in ("+", "-"):
        sign = 1 if term.op == "+" else -1
        coeffs = dict(cl)
        for a, c in cr.items():
            coeffs[a] = coeffs.get(a, 0) + sign * c
        return _held_form(coeffs, kl + sign * kr)
    # multiplication: at least one side must be constant
    if not cl:
        return _held_form({a: kl * c for a, c in cr.items()}, kl * kr)
    if not cr:
        return _held_form({a: kr * c for a, c in cl.items()}, kl * kr)
    return None


def _held_form(coeffs: dict, k) -> tuple[dict[str, int | Fraction], int | Fraction]:
    """A linear form without its zero coefficients, every number held as `held_value` holds it."""
    return {a: _held_number(c) for a, c in coeffs.items() if c != 0}, _held_number(k)


def term_attrs(term: Term) -> set[str]:
    if isinstance(term, Attr):
        return {term.name}
    if isinstance(term, Arith):
        return term_attrs(term.left) | term_attrs(term.right)
    return set()


# ---------------------------------------------------------------------------
# Constraints


class _Rendered:
    """A constraint node, whose text (`format_constraint`) is rendered the
    first time it is asked for and kept, as `Cmp._linear` keeps its form;
    == and hash stay the dataclass fields'."""

    @functools.cached_property
    def _text(self) -> str:
        return _render(self)


@dataclass(frozen=True)
class BoolConst(_Rendered):
    value: bool


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class Cmp(_Rendered):
    op: str  # '<=', '>=', '<', '>', '=', '!='
    left: Term
    right: Term

    # narrowing reads the form on every pass; a cached property keeps it on
    # the atom and leaves == and hash to the fields
    @functools.cached_property
    def _linear(self) -> tuple[dict[str, int | Fraction], int | Fraction] | None:
        """The comparison as sum(coeffs * x) OP k (`_cmp_linear`)."""
        return _cmp_linear(self)

    @functools.cached_property
    def _negated(self) -> tuple[dict[str, int | Fraction], int | Fraction]:
        """The linear form negated: -sum(coeffs * x) and -k."""
        coeffs, k = self._linear
        return {a: -c for a, c in coeffs.items()}, -k


@dataclass(frozen=True)
class InSet(_Rendered):
    term: Term
    values: frozenset
    negated: bool = False

    @functools.cached_property
    def _linear(self) -> tuple[dict[str, int | Fraction], int | Fraction] | None:
        """The term's linear form (`linear_form`), derived once."""
        return linear_form(self.term)

    @functools.cached_property
    def _solved(self) -> tuple[str, list]:
        """For a term c * x + k over one numeric attribute x: x, and the values
        x takes on the set, sorted; derived once."""
        (a, c), = self._linear[0].items()
        k = self._linear[1]
        return a, sorted(_quotient(held_value(v) - k, c) for v in self.values)


@dataclass(frozen=True)
class Not(_Rendered):
    arg: "Constraint"


@dataclass(frozen=True)
class And(_Rendered):
    items: tuple["Constraint", ...]


@dataclass(frozen=True)
class Or(_Rendered):
    items: tuple["Constraint", ...]


@dataclass(frozen=True)
class Iff(_Rendered):
    left: "Constraint"
    right: "Constraint"


Constraint = Union[BoolConst, Cmp, InSet, Not, And, Or, Iff]

_CMP_COMPLEMENT = {"<=": ">", ">=": "<", "<": ">=", ">": "<=", "=": "!=", "!=": "="}


def make_and(items) -> Constraint:
    return _flat(items, And, TRUE, FALSE)


def make_or(items) -> Constraint:
    return _flat(items, Or, FALSE, TRUE)


def _flat(items, cls, unit: BoolConst, zero: BoolConst) -> Constraint:
    """The `cls` (And or Or) of `items`, nested ones flattened: `unit` items
    are dropped, a `zero` item is the result, and one item stands alone."""
    flat: list[Constraint] = []
    for c in items:
        if c == unit:
            continue
        if c == zero:
            return zero
        if isinstance(c, cls):
            flat.extend(c.items)
        else:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat)) if flat else unit


def normalize(c: Constraint) -> Constraint:
    """Rewrite to negation normal form: iff expanded, not pushed onto atoms."""
    if isinstance(c, (BoolConst, Cmp, InSet)):
        return c
    if isinstance(c, Not):
        return _negate_nnf(c.arg)
    if isinstance(c, And):
        return make_and([normalize(x) for x in c.items])
    if isinstance(c, Or):
        return make_or([normalize(x) for x in c.items])
    if isinstance(c, Iff):
        a, b = c.left, c.right
        return normalize(make_or([make_and([a, b]), make_and([Not(a), Not(b)])]))
    raise TypeError(f"not a constraint: {c!r}")


def _negate_nnf(c: Constraint) -> Constraint:
    if isinstance(c, BoolConst):
        return FALSE if c.value else TRUE
    if isinstance(c, Cmp):
        return Cmp(_CMP_COMPLEMENT[c.op], c.left, c.right)
    if isinstance(c, InSet):
        return InSet(c.term, c.values, not c.negated)
    if isinstance(c, Not):
        return normalize(c.arg)
    if isinstance(c, And):
        return make_or([_negate_nnf(x) for x in c.items])
    if isinstance(c, Or):
        return make_and([_negate_nnf(x) for x in c.items])
    if isinstance(c, Iff):
        # not (a iff b)  ==  a iff not b
        return normalize(Iff(c.left, Not(c.right)))
    raise TypeError(f"not a constraint: {c!r}")


# ---------------------------------------------------------------------------
# Evaluation: constraints compiled to Python source

# Python precedence levels of generated expressions, loosest first (a name, a
# cell or a call binds tighter than all): an operand whose level is below what
# its place needs is parenthesized, so a left-associative chain such as
# a + b + c is emitted without parentheses.
_OR, _AND, _NOT, _COMPARE, _SUM, _PRODUCT = range(1, 7)
# every operator the generated source may hold, looked up by the
# constraint's own operator: no other operator text reaches `compile`
_COMPARISON_OPS = {"<=": "<=", ">=": ">=", "<": "<", ">": ">", "=": "==", "!=": "!="}
_TERM_OPS = {"+": (" + ", _SUM), "-": (" - ", _SUM), "*": (" * ", _PRODUCT)}
# The deepest expression one generated function holds: a subtree below it is
# a generated function of its own, which the outer source calls, so deep
# input never meets Python's parser limits (200 nested parentheses).
_MAX_DEPTH = 40


class Codegen:
    """One generated Python function: its source text and the constants the
    text names k0, k1, ... in the order they were bound.

    `params` is the parameter list of the generated tests (such as "v"), and
    `cells` the source text of each attribute over them (such as "v[2]").
    Attributes become those cells; every literal, value set and missing
    attribute's name is bound as a constant, never written into the source,
    so values stay exact and no schema or query text reaches `compile`.
    Sources are compiled once each (`_factory`), so constraints of one shape
    over one layout share one code object.
    """

    def __init__(self, params: str, cells: dict[str, str]):
        self.params = params
        self.cells = cells
        self.consts: list = []

    @classmethod
    def row(cls, names: tuple[str, ...]) -> "Codegen":
        """The layout of a value tuple `v` laid out as `names`."""
        return cls("v", _cells(names, "v[{}]"))

    def const(self, value) -> str:
        """The name that the source reads `value` by."""
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def test(self, c: Constraint) -> str:
        """The constraint as an expression over the layout, true exactly when
        the constraint holds. and/or short-circuit left to right; an
        attribute missing from the layout raises KeyError when reached."""
        return self._emit(c, 0, 0)

    def function(self, body: str):
        """What `body`, Python lines defining `_f`, binds `_f` to (a test, or
        a walk's generator), with the constants bound."""
        params = _constant_names(len(self.consts))
        lines = body.replace("\n", "\n    ")
        return _factory(f"def _make({params}):\n    {lines}\n    return _f\n")(*self.consts)

    def _emit(self, node, need: int, depth: int) -> str:
        """The node's expression, parenthesized when its level is below `need`;
        `depth` counts the operators that enclose it in this function."""
        kind = node.__class__
        if kind is Attr:
            cell = self.cells.get(node.name)
            return cell if cell is not None else f"{{}}[{self.const(node.name)}]"
        if kind is Lit:
            return self.const(held_value(node.value))
        if kind is BoolConst:
            return "True" if node.value else "False"
        if depth == _MAX_DEPTH:
            sub = Codegen(self.params, self.cells)
            test = sub.function(f"_f = lambda {self.params}: {sub._emit(node, 0, 0)}")
            return f"{self.const(test)}({self.params})"
        depth += 1
        if kind is Cmp:
            level, op = _COMPARE, _COMPARISON_OPS[node.op]
            left, right = self._emit(node.left, _SUM, depth), self._emit(node.right, _SUM, depth)
            text = f"{left} {op} {right}"
        elif kind is And or kind is Or:
            if not node.items:
                return "True" if kind is And else "False"
            op, level = (" and ", _AND) if kind is And else (" or ", _OR)
            text = op.join([self._emit(x, level + 1, depth) for x in node.items])
        elif kind is Arith:
            op, level = _TERM_OPS[node.op]
            left, right = self._emit(node.left, level, depth), self._emit(node.right, level + 1, depth)
            text = left + op + right
        elif kind is InSet:
            level = _COMPARE
            op = " not in " if node.negated else " in "
            values = self.const(frozenset(map(held_value, node.values)))
            text = self._emit(node.term, _SUM, depth) + op + values
        elif kind is Not:
            level = _NOT
            text = "not " + self._emit(node.arg, _NOT, depth)
        elif kind is Iff:
            level = _COMPARE  # == on two truth values; a comparison operand is parenthesized
            left, right = self._emit(node.left, _SUM, depth), self._emit(node.right, _SUM, depth)
            text = f"{left} == {right}"
        else:
            raise TypeError(f"not a constraint: {node!r}")
        return f"({text})" if level < need else text


@functools.lru_cache(maxsize=64)
def _cells(names: tuple[str, ...], form: str) -> dict[str, str]:
    """Each attribute's cell, `form` filled in with its position in `names`
    (read only): "v[{}]" for a value tuple `v`, "c{}" for a walk's loops."""
    return {a: form.format(i) for i, a in enumerate(names)}


@functools.lru_cache(maxsize=64)
def _constant_names(n: int) -> str:
    """The parameter list k0, ..., k(n-1)."""
    return ", ".join(f"k{i}" for i in range(n))


@functools.lru_cache(maxsize=256)
def _factory(source: str):
    """The function that a generated source defines, compiled once per source
    text. The cache holds code, not constants: those are the arguments."""
    namespace: dict = {}
    exec(compile(source, "<constraint>", "exec"), namespace)
    return namespace["_make"]


def compile_constraint(c: Constraint, names: tuple[str, ...]) -> Callable[[tuple], bool]:
    """The constraint as a test of value tuples laid out as `names` (`Codegen`).

    Types are not checked here: a constraint is type-checked (`check_types`)
    when its schema is built, when a predicate is validated and when a solver
    function takes it, so no comparison tests its operands for strings.
    """
    gen = Codegen.row(names)
    return gen.function(f"_f = lambda v: {gen.test(c)}")


def constraint_attrs(c: Constraint) -> set[str]:
    if isinstance(c, BoolConst):
        return set()
    if isinstance(c, Cmp):
        return term_attrs(c.left) | term_attrs(c.right)
    if isinstance(c, InSet):
        return term_attrs(c.term)
    if isinstance(c, Not):
        return constraint_attrs(c.arg)
    if isinstance(c, (And, Or)):
        return set().union(*(constraint_attrs(x) for x in c.items)) if c.items else set()
    if isinstance(c, Iff):
        return constraint_attrs(c.left) | constraint_attrs(c.right)
    raise TypeError(f"not a constraint: {c!r}")


def rename_attrs(c: Constraint, mapping: dict[str, str]) -> Constraint:
    def rt(t: Term) -> Term:
        if isinstance(t, Attr):
            return Attr(mapping.get(t.name, t.name))
        if isinstance(t, Arith):
            return Arith(t.op, rt(t.left), rt(t.right))
        return t

    if isinstance(c, BoolConst):
        return c
    if isinstance(c, Cmp):
        return Cmp(c.op, rt(c.left), rt(c.right))
    if isinstance(c, InSet):
        return InSet(rt(c.term), c.values, c.negated)
    if isinstance(c, Not):
        return Not(rename_attrs(c.arg, mapping))
    if isinstance(c, And):
        return And(tuple(rename_attrs(x, mapping) for x in c.items))
    if isinstance(c, Or):
        return Or(tuple(rename_attrs(x, mapping) for x in c.items))
    if isinstance(c, Iff):
        return Iff(rename_attrs(c.left, mapping), rename_attrs(c.right, mapping))
    raise TypeError(f"not a constraint: {c!r}")


def term_type(t: Term, domains: dict[str, Domain]) -> str:
    """'num' or 'str'; raises on unknown attributes and string arithmetic."""
    if isinstance(t, Lit):
        return "str" if isinstance(t.value, str) else "num"
    if isinstance(t, Attr):
        if t.name not in domains:
            raise SchemaError(f"unknown attribute {t.name!r}")
        return "num" if domains[t.name].is_numeric else "str"
    if term_type(t.left, domains) != "num" or term_type(t.right, domains) != "num":
        raise SchemaError("arithmetic requires numeric operands")
    return "num"


def check_types(c: Constraint, domains: dict[str, Domain]) -> None:
    """Validate attribute references and type discipline of a constraint."""
    if isinstance(c, BoolConst):
        return
    if isinstance(c, Cmp):
        lt = term_type(c.left, domains)
        rt = term_type(c.right, domains)
        if c.op in ("<", ">", "<=", ">="):
            if lt != "num" or rt != "num":
                raise SchemaError(f"ordered comparison {c.op} requires numeric operands")
        elif lt != rt:
            raise SchemaError("equality between a number and a string")
        return
    if isinstance(c, InSet):
        tt = term_type(c.term, domains)
        kinds = {("str" if isinstance(v, str) else "num") for v in c.values}
        if len(kinds) > 1:
            raise SchemaError("membership sets must be all-numeric or all-string")
        if kinds and kinds != {tt}:
            raise SchemaError("membership set type does not match the tested term")
        return
    if isinstance(c, Not):
        check_types(c.arg, domains)
        return
    if isinstance(c, (And, Or)):
        for x in c.items:
            check_types(x, domains)
        return
    if isinstance(c, Iff):
        check_types(c.left, domains)
        check_types(c.right, domains)
        return
    raise TypeError(f"not a constraint: {c!r}")


# ---------------------------------------------------------------------------
# Text rendering (matches the input grammar; see parsing.py)


def format_value(v) -> str:
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return format_ext(v)


def format_term(t: Term) -> str:
    if isinstance(t, Lit):
        return format_value(t.value)
    if isinstance(t, Attr):
        return t.name
    left = format_term(t.left)
    right = format_term(t.right)
    if isinstance(t.left, Arith) and t.op == "*" and t.left.op in ("+", "-"):
        left = f"({left})"
    if isinstance(t.right, Arith) and (t.op in ("-", "*") or t.right.op in ("+", "-")):
        right = f"({right})"
    return f"{left} {t.op} {right}"


def _fmt_values(values: frozenset) -> str:
    ordered = sorted(values, key=lambda v: (isinstance(v, str), v))
    return "{" + ", ".join(format_value(v) for v in ordered) + "}"


def format_constraint(c: Constraint) -> str:
    """The constraint in the input grammar. Each node renders its text once,
    from its children's kept texts, and keeps it (`_Rendered`): `make_and`
    splices a child's items into its parent, so a report that prints every
    node's constraint renders each atom once, not once per node above it."""
    if not isinstance(c, _Rendered):
        raise TypeError(f"not a constraint: {c!r}")
    return c._text


# how loosely each composite binds; an atom or a `not` binds tightest (3)
_BINDING = {Iff: 0, Or: 1, And: 2}


def _render(c: Constraint) -> str:
    """One node's text (`format_constraint`), from its children's kept texts.
    Each child is read in this frame, so rendering takes two frames per
    level of nesting."""
    if isinstance(c, BoolConst):
        return "true" if c.value else "false"
    if isinstance(c, Cmp):
        if c.op == "!=":
            return f"not ({format_term(c.left)} = {format_term(c.right)})"
        return f"{format_term(c.left)} {c.op} {format_term(c.right)}"
    if isinstance(c, InSet):
        base = f"{format_term(c.term)} in {_fmt_values(c.values)}"
        return f"not ({base})" if c.negated else base
    # strength: what a child's place needs, 3 an atom's, 2 inside and, 1 inside or
    if isinstance(c, Not):
        children, strength, sep = (c.arg,), 3, ""
    elif isinstance(c, And):
        children, strength, sep = c.items, 2, " and "
    elif isinstance(c, Or):
        children, strength, sep = c.items, 1, " or "
    else:  # Iff
        children, strength, sep = (c.left, c.right), 1, " iff "
    texts = []
    for child in children:
        if not isinstance(child, _Rendered):
            raise TypeError(f"not a constraint: {child!r}")
        text = child._text
        texts.append(f"({text})" if _BINDING.get(child.__class__, 3) < strength else text)
    return "not " + texts[0] if isinstance(c, Not) else sep.join(texts)


# ---------------------------------------------------------------------------
# Schemas


@dataclass(frozen=True)
class ConstrainedSchema:
    """Named, ordered attributes with domains, plus a constraint.

    `aux` holds attributes that were projected or aggregated away: the
    constraint may still mention them (they are existentially quantified),
    but they are not part of the relation's visible tuples. The constraint
    is type-checked here, once, so its compiled tests never check types.
    """

    name: str
    attributes: tuple[tuple[str, Domain], ...]
    constraint: Constraint = TRUE
    aux: tuple[tuple[str, Domain], ...] = ()

    def __post_init__(self):
        names = [a for a, _ in self.attributes] + [a for a, _ in self.aux]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema {self.name!r}")
        if not self.attributes:
            raise SchemaError(f"schema {self.name!r} has no attributes")
        check_types(self.constraint, self.all_domains())

    def attr_names(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.attributes)

    def all_domains(self) -> dict[str, Domain]:
        out = {a: d for a, d in self.attributes}
        out.update({a: d for a, d in self.aux})
        return out

    def domain(self, name: str) -> Domain:
        for a, d in itertools.chain(self.attributes, self.aux):
            if a == name:
                return d
        raise SchemaError(f"schema {self.name!r} has no attribute {name!r}")

    def index(self, name: str) -> int:
        for i, (a, _) in enumerate(self.attributes):
            if a == name:
                return i
        raise SchemaError(f"schema {self.name!r} has no visible attribute {name!r}")

    @functools.cached_property
    def _box(self) -> "_Box":
        """The domains' narrowing box, built once; narrowing works on copies of it."""
        return _Box(self)

    @functools.cached_property
    def _nnf(self) -> Constraint:
        """The constraint's NNF, built once and apart from its box."""
        return normalize(self.constraint)

    @functools.cached_property
    def _narrowed(self) -> tuple[Constraint, "_Box | None"]:
        """The constraint's NNF and its structural box (None when empty), built
        once, and only for a grid too big to walk from its domains (`_grid`).
        The box is shared, so it is read or copied, never changed in place;
        in particular it is never the first box given to `_hull`."""
        return self._nnf, _struct_box(self._nnf, self)


def initial_constraint(schema: ConstrainedSchema) -> Constraint:
    """Domain membership atoms conjoined with the schema's check constraint."""
    atoms: list[Constraint] = []
    for a, dom in schema.attributes:
        if dom.kind in (DomainKind.NUM_SET, DomainKind.STR_SET):
            atoms.append(InSet(Attr(a), frozenset(dom.members)))
        else:
            if not is_infinite(dom.lower):
                atoms.append(Cmp(">=", Attr(a), Lit(dom.lower)))
            if not is_infinite(dom.upper):
                atoms.append(Cmp("<=", Attr(a), Lit(dom.upper)))
    atoms.append(schema.constraint)
    return make_and(atoms)


# ---------------------------------------------------------------------------
# Bounds


@dataclass(frozen=True)
class Bounds:
    """A (possibly open, possibly infinite, possibly empty) numeric interval."""

    lower: Ext = NEG_INF
    upper: Ext = INF
    lower_open: bool = False
    upper_open: bool = False
    empty: bool = False

    @classmethod
    def make_empty(cls) -> Bounds:
        return cls(empty=True)


# ---------------------------------------------------------------------------
# Interval narrowing


class _Box:
    """Per-attribute intervals (numeric) and allowed-value sets (string).

    Every endpoint and num-set member is held as `held_value` holds it, or is
    +-inf; `attribute_bounds` turns endpoints back into Fractions. `moved`
    holds the attributes whose interval narrowed since `integer_tighten`
    last ran, and a copy keeps its source's: every box outside `narrow`'s
    loop (a schema's domain box, a narrowed box, a hull of narrowed boxes)
    has every attribute outside `moved` rounded already, so rounding those
    again would change nothing."""

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

    def copy(self) -> "_Box":
        out = object.__new__(_Box)
        out.nums = {a: list(v) for a, v in self.nums.items()}
        out.strs = {a: set(v) for a, v in self.strs.items()}
        out.numset_members = self.numset_members
        out.int_attrs = self.int_attrs
        out.moved = set(self.moved)
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
            st = self.nums[a]
            kept = _inside(self.numset_members[a], *st)
            if not kept:
                st[0], st[1] = 1, 0  # mark empty
                changed = True
            else:
                if kept[0] != st[0] or kept[-1] != st[1] or st[2] or st[3]:
                    changed = changed or kept[0] != st[0] or kept[-1] != st[1]
                    st[0], st[1], st[2], st[3] = kept[0], kept[-1], False, False
        return changed

    def intersect(self, other: "_Box") -> None:
        for a, st in self.nums.items():
            o = other.nums[a]
            self.tighten_lower(a, o[0], o[2])
            self.tighten_upper(a, o[1], o[3])
        for a in self.strs:
            self.strs[a] &= other.strs[a]


def _within(v, lo: Ext, hi: Ext, lo_open: bool, hi_open: bool) -> bool:
    """Whether v lies between lo and hi, each end open or closed as flagged."""
    return (v > lo or (v == lo and not lo_open)) and (v < hi or (v == hi and not hi_open))


def _inside(values, lo: Ext, hi: Ext, lo_open: bool, hi_open: bool):
    """The slice of sorted, distinct `values` that lies between lo and hi,
    each end open or closed as flagged (`_within`): one bisection per end."""
    start = (bisect.bisect_right if lo_open else bisect.bisect_left)(values, lo)
    stop = (bisect.bisect_left if hi_open else bisect.bisect_right)(values, hi)
    return values[start:stop]


def _sum_extreme(coeffs: dict[str, int | Fraction], box: _Box, skip: str, minimum: bool) -> tuple[Ext, bool] | None:
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


def _apply_linear_le(box: _Box, coeffs: dict[str, int | Fraction], bound: int | Fraction, strict: bool) -> bool | None:
    """Narrow the box with sum(c_i * x_i) <= bound (< if strict).

    Returns whether anything changed, or None when the atom is contradictory
    on a variable-free form.
    """
    if not coeffs:
        ok = 0 < bound if strict else 0 <= bound
        return None if not ok else False
    if len(coeffs) == 1:  # c * x <= bound: the other variables' least sum is 0, from no open end
        (a, c), = coeffs.items()
        limit = _quotient(bound, c)
        return box.tighten_upper(a, limit, strict) if c > 0 else box.tighten_lower(a, limit, strict)
    changed = False
    for a, c in coeffs.items():
        rest = _sum_extreme(coeffs, box, skip=a, minimum=True)
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


def _apply_atom(box: _Box, atom: Constraint) -> bool | None:
    """Narrow with one atom; None signals a proven-empty box."""
    if isinstance(atom, BoolConst):
        return None if not atom.value else False
    if isinstance(atom, Cmp):
        return _apply_cmp(box, atom)
    if isinstance(atom, InSet):
        return _apply_inset(box, atom)
    raise TypeError(f"not an atom: {atom!r}")


def _cmp_linear(atom: Cmp) -> tuple[dict[str, int | Fraction], int | Fraction] | None:
    """The comparison as sum(coeffs * x) OP k; None for string or nonlinear sides."""
    lf_l = linear_form(atom.left)
    lf_r = linear_form(atom.right)
    if lf_l is None or lf_r is None:
        return None
    coeffs = dict(lf_l[0])
    for a, c in lf_r[0].items():
        coeffs[a] = coeffs.get(a, 0) - c
    return _held_form(coeffs, lf_r[1] - lf_l[1])


def _apply_cmp(box: _Box, atom: Cmp) -> bool | None:
    """Narrow with one comparison. Its linear form and that form's negation
    are derived once per atom object (`Cmp._linear`, `Cmp._negated`), not on
    each pass of each `narrow` call."""
    linear = atom._linear
    # s = t over two string attributes has a linear form but is no arithmetic
    if linear is not None and box.strs.keys().isdisjoint(linear[0]):
        op = atom.op
        if op in ("<=", "<"):
            return _apply_linear_le(box, *linear, op == "<")
        if op in (">=", ">"):
            return _apply_linear_le(box, *atom._negated, op == ">")
        if op == "=":
            r1 = _apply_linear_le(box, *linear, False)
            if r1 is None:
                return None
            r2 = _apply_linear_le(box, *atom._negated, False)
            if r2 is None:
                return None
            return r1 or r2
        return False  # '!=' does not narrow intervals
    # string-typed or nonlinear comparisons
    return _apply_string_cmp(box, atom)


def _apply_string_cmp(box: _Box, atom: Cmp) -> bool | None:
    left, right = atom.left, atom.right
    if atom.op not in ("=", "!="):
        return False
    if isinstance(left, Lit) and isinstance(right, Attr):
        left, right = right, left
    if isinstance(left, Attr) and left.name in box.strs and isinstance(right, Lit):
        return _apply_inset(box, InSet(left, frozenset({right.value}), negated=atom.op == "!="))
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


def _apply_inset(box: _Box, atom: InSet) -> bool | None:
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
    inside = _inside(vals, *box.nums[a])
    if not inside:
        box.nums[a][0], box.nums[a][1] = 1, 0
        return True
    changed = box.tighten_lower(a, inside[0], False)
    changed = box.tighten_upper(a, inside[-1], False) or changed
    return changed


def narrow(atoms, schema: ConstrainedSchema, seed: _Box | None = None) -> _Box | None:
    """Hull-consistency fixpoint over a conjunction of atoms; None if empty.

    Each pass applies every atom, but an atom derives its linear form (or
    its sorted candidate values) once, on its first pass, and keeps it. A
    form over one attribute tightens it directly, and the sorted values
    inside an interval are one bisect slice (`_inside`). Only attributes
    that moved are rounded to integers or members: first those in the given
    box's `moved` set, then those each pass narrowed. A schema's own
    constraint is narrowed at most once per node, and only when its domains'
    grid is too big to walk (`_grid`)."""
    box = (seed if seed is not None else schema._box).copy()
    box.integer_tighten()
    if box.is_empty():
        return None
    for _ in range(_NARROW_MAX_PASSES):
        changed = False
        for atom in atoms:
            result = _apply_atom(box, atom)
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
# Disjunctive structure


def dnf_branches(nnf: Constraint, cap: int = DEFAULT_DNF_CAP) -> list[list[Constraint]] | None:
    """Branches of an NNF constraint's disjunctive normal form, or None past
    the branch cap."""

    def rec(node: Constraint) -> list[list[Constraint]] | None:
        if isinstance(node, BoolConst):
            return [[]] if node.value else []
        if isinstance(node, (Cmp, InSet)):
            return [[node]]
        if isinstance(node, Or):
            out: list[list[Constraint]] = []
            for child in node.items:
                sub = rec(child)
                if sub is None:
                    return None
                out.extend(sub)
                if len(out) > cap:
                    return None
            return out
        if isinstance(node, And):
            acc: list[list[Constraint]] = [[]]
            for child in node.items:
                sub = rec(child)
                if sub is None:
                    return None
                acc = [a + b for a in acc for b in sub]
                if len(acc) > cap:
                    return None
            return acc
        raise TypeError(f"expected negation normal form, found {node!r}")

    return rec(nnf)


def _struct_box(c: Constraint, schema: ConstrainedSchema) -> _Box | None:
    """Sound per-attribute box for an NNF constraint without full DNF expansion."""
    if isinstance(c, BoolConst):
        if not c.value:
            return None
        return narrow([], schema)
    if isinstance(c, (Cmp, InSet)):
        return narrow([c], schema)
    if isinstance(c, Or):
        return _hull(_struct_box(child, schema) for child in c.items)
    if isinstance(c, And):
        atoms = [x for x in c.items if isinstance(x, (Cmp, InSet, BoolConst))]
        complexes = [x for x in c.items if not isinstance(x, (Cmp, InSet, BoolConst))]
        box = schema._box.copy()
        for child in complexes:
            sub = _struct_box(child, schema)
            if sub is None:
                return None
            box.intersect(sub)
            if box.is_empty():
                return None
        return narrow(atoms, schema, box)
    raise TypeError(f"expected negation normal form, found {c!r}")


def _hull(boxes) -> _Box | None:
    """The smallest box holding every given box (None entries are empty boxes).

    The first box is widened in place and returned; None when all are empty.
    """
    boxes = [box for box in boxes if box is not None]
    if not boxes:
        return None
    target = boxes[0]
    for other in boxes[1:]:
        for a, st in target.nums.items():
            o = other.nums[a]
            if o[0] < st[0] or (o[0] == st[0] and not o[2]):
                st[0], st[2] = o[0], (o[2] and st[2]) if o[0] == st[0] else o[2]
            if o[1] > st[1] or (o[1] == st[1] and not o[3]):
                st[1], st[3] = o[1], (o[3] and st[3]) if o[1] == st[1] else o[3]
        for a in target.strs:
            target.strs[a] |= other.strs[a]
    return target


# ---------------------------------------------------------------------------
# Finite enumeration


def _pinned_values(c: Constraint, attr: str) -> frozenset | None:
    """A finite superset of the attribute's feasible values, or None."""
    if isinstance(c, BoolConst):
        return frozenset() if not c.value else None
    if isinstance(c, Cmp) and c.op == "=":
        linear = c._linear
        if linear is not None and set(linear[0]) == {attr}:
            coeffs, k = linear
            return frozenset({_quotient(k, coeffs[attr])})
        return None
    if isinstance(c, InSet) and not c.negated:
        lf = c._linear
        if lf is not None and set(lf[0]) == {attr}:
            return frozenset(c._solved[1])
        return None
    if isinstance(c, And):
        pin: frozenset | None = None
        for child in c.items:
            sub = _pinned_values(child, attr)
            if sub is not None:
                pin = sub if pin is None else (pin & sub)
        return pin
    if isinstance(c, Or):
        out: set = set()
        for child in c.items:
            sub = _pinned_values(child, attr)
            if sub is None:
                return None
            out |= sub
        return frozenset(out)
    return None


def _checked_nnf(c: Constraint, schema: ConstrainedSchema) -> Constraint:
    """The constraint's NNF, type-checked. The schema's own constraint was
    checked when the schema was built, and is normalized once
    (`ConstrainedSchema._nnf`); any other is normalized and checked on each call."""
    if c is schema.constraint:
        return schema._nnf
    nnf = normalize(c)
    check_types(nnf, schema.all_domains())
    return nnf


def _prepared(c: Constraint, schema: ConstrainedSchema) -> tuple[Constraint, _Box | None]:
    """The constraint's NNF, type-checked (`_checked_nnf`), and its structural
    box (None when empty), built only for a grid too big to walk from its
    domains (`_grid`); the schema's own is prepared once
    (`ConstrainedSchema._narrowed`), any other on each call."""
    if c is schema.constraint:
        return schema._narrowed
    nnf = _checked_nnf(c, schema)
    return nnf, _struct_box(nnf, schema)


def _domain_grid(schema: ConstrainedSchema, cap: int) -> dict[str, list] | None:
    """Every domain's own values, in the order `_finite_grid` lists a box's,
    when all domains are finite and their grid has at most `cap` points;
    else None. A `real` domain is never listed here."""
    domains = schema.all_domains()
    size = 1
    for dom in domains.values():
        if dom.kind is DomainKind.REAL_RANGE:
            return None
        size *= int(dom.upper - dom.lower) + 1 if dom.kind is DomainKind.INT_RANGE else len(dom.members)
    if size > cap:
        return None
    grid: dict[str, list] = {}
    for a, dom in domains.items():
        if dom.kind is DomainKind.INT_RANGE:
            grid[a] = list(range(int(dom.lower), int(dom.upper) + 1))
        else:  # members are sorted; a number is held as the box holds it
            grid[a] = list(dom.members if dom.kind is DomainKind.STR_SET else map(held_value, dom.members))
    return grid


def _grid(c: Constraint, schema: ConstrainedSchema, cap: int) -> tuple[Constraint, dict[str, list] | str]:
    """The constraint's NNF, type-checked, and the candidate lists that
    `solution_count`, `attribute_bounds` and `iter_solutions` walk (or
    `_finite_grid`'s reason there are none within `cap`).

    When the domains' own grid has at most min(cap, EXACT_GRID_BUDGET)
    points, the lists are the domains' (`_domain_grid`) and no box is built:
    narrowing only drops values that lie in no solution, and the walk tests
    every conjunct, so it finds the same solutions in the same order, and
    the narrowed grid would fit the cap too. Otherwise the lists come from
    the structural box (`_prepared`, `_finite_grid`)."""
    grid = _domain_grid(schema, min(cap, EXACT_GRID_BUDGET))
    if grid is not None:
        return _checked_nnf(c, schema), grid
    nnf, box = _prepared(c, schema)
    return nnf, _finite_grid(nnf, box, schema, cap)


def _finite_grid(
    nnf: Constraint, box: _Box | None, schema: ConstrainedSchema, cap: int
) -> dict[str, list] | str:
    """Candidate value lists per attribute, values held as `held_value` holds
    them, from a `_prepared` NNF and box (the box is only read), for a grid
    too big to walk from its domains (`_grid`). The grid
    covers all solutions; enumeration still filters by the constraint.

    When there is no grid of at most `cap` points, the reason instead:
    'infinite' if some attribute's values cannot be listed, else
    'exceeds-cap'. An empty box, or an attribute left with no candidate
    value, gives a grid of empty lists, whatever the attribute order.
    Each attribute's candidates are counted, and the grid tested against
    the cap, before any list is built.
    """
    domains = schema.all_domains()
    if box is None:
        return {a: [] for a in domains}
    candidates: dict[str, object] = {}  # a sized collection per attribute, listed at the end
    reason = None
    for a, dom in domains.items():
        if dom.kind is DomainKind.STR_SET:
            values = box.strs[a]
        elif dom.kind is DomainKind.NUM_SET:
            values = _inside(box.numset_members[a], *box.nums[a])
        elif dom.kind is DomainKind.INT_RANGE:
            lo, hi, _, _ = box.nums[a]
            lo_i, hi_i = math.ceil(lo), math.floor(hi)
            if hi_i - lo_i + 1 > cap:
                reason = reason or "exceeds-cap"
                continue
            values = range(lo_i, hi_i + 1)
        else:  # REAL_RANGE
            lo, hi, lo_open, hi_open = box.nums[a]
            if lo == hi and not lo_open and not hi_open:
                values = [lo]
            else:
                pinned = _pinned_values(nnf, a)
                if pinned is None:
                    reason = "infinite"
                    continue
                test = dom.member_test()
                values = sorted(
                    v
                    for v in pinned
                    if test(v) and _within(v, lo, hi, lo_open, hi_open)
                )
        if not values:
            return {a: [] for a in domains}
        candidates[a] = values
    if reason is None and math.prod(map(len, candidates.values())) > cap:
        reason = "exceeds-cap"
    if reason is not None:
        return reason
    return {a: sorted(v) if v.__class__ is set else list(v) for a, v in candidates.items()}


def _conjuncts(c: Constraint) -> list[tuple[Constraint, set[str]]]:
    """The constraint's top-level conjuncts, each with its attributes; `true`
    has none."""
    if isinstance(c, BoolConst) and c.value:
        return []
    return [(conj, constraint_attrs(conj)) for conj in (c.items if isinstance(c, And) else (c,))]


def _solutions(
    conjuncts: list[tuple[Constraint, set[str]]], grid: dict[str, list], visible: tuple
) -> Iterator[tuple]:
    """The grid's points that satisfy every conjunct (`_conjuncts`), projected
    onto the visible attributes (a subsequence of the grid's keys), each the
    first time it comes, in `itertools.product` order: one generated walk
    (`_walk_source`) that tests each conjunct as soon as its attributes are
    bound (Haralick and Elliott 1980). A value or partial point that fails a
    conjunct is in no solution, so the solutions are the whole grid's, and
    the caps were taken on the unfiltered grid. The walk checks no types:
    the constraint has passed `check_types` (`_prepared`).

    With no conjunct and no empty list, the solutions are `itertools.product`
    over the visible lists: every list holds distinct values, so the first
    time each projected point comes is the product's order.
    """
    if not conjuncts and all(grid.values()):
        return itertools.product(*[grid[a] for a in visible])
    names = tuple(grid)
    gen = Codegen("", _cells(names, "c{}"))
    gen.consts = list(grid.values())  # k0, k1, ... in grid order
    tests = []
    for conj, attrs in conjuncts:
        depth = max(map(names.index, attrs), default=-1)
        # `_emit` calls a subterm it splits off with the variables bound where it runs
        single = len(attrs) == 1
        gen.params = f"c{depth}" if single else ", ".join([f"c{i}" for i in range(depth + 1)])
        tests.append((depth, single, gen._emit(conj, _AND + 1, 0)))
    return gen.function(_walk_source(names, visible, tuple(tests)))


@functools.lru_cache(maxsize=256)
def _walk_source(names: tuple[str, ...], visible: tuple[str, ...], tests: tuple) -> str:
    """The source of a walk over candidate lists k0, k1, ... (`_solutions`),
    assembled once per shape. Each test is (its deepest attribute's position
    or -1, whether it mentions one attribute, its text). A single-attribute
    test filters its attribute's list when the walk is built (node
    consistency, Mackworth 1977); the walk is one generator expression, in
    which an attribute-free test or an emptied list ends it before the loops,
    and every other test runs in the shallowest loop that binds its attributes.
    """
    own: dict[int, list[str]] = {}
    deep: dict[int, list[str]] = {-1: []}
    for depth, single, text in tests:
        (own if single else deep).setdefault(depth, []).append(text)
    lines = [f"k{i} = [c{i} for c{i} in k{i} if {' and '.join(texts)}]" for i, texts in own.items()]
    deep[-1] += [f"k{i}" for i in own]
    clauses = []
    for i in range(-1, len(names)):
        clauses.append(f"for c{i} in k{i}" if i >= 0 else "for _ in [()]")
        if deep.get(i):
            clauses.append(f"if {' and '.join(deep[i])}")
    point = "(" + "".join([f"c{names.index(a)}, " for a in visible]) + ")"
    if len(visible) < len(names):  # a projection repeats points: keep each one's first time
        lines.append("seen = set()")
        clauses.append(f"for point in [{point}] if point not in seen and not seen.add(point)")
        point = "point"
    lines.append(f"_f = ({point} {' '.join(clauses)})")
    return "\n".join(lines)


def iter_solutions(
    c: Constraint, schema: ConstrainedSchema, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[tuple] | str:
    """Iterate the distinct visible solution tuples in grid order
    (`_solutions`); when the grid cannot be enumerated within the cap, the
    reason instead: 'infinite' or 'exceeds-cap' (`_grid`)."""
    grid = _grid(c, schema, cap)[1]
    return grid if isinstance(grid, str) else _solutions(_conjuncts(c), grid, schema.attr_names())


def _components(nnf: Constraint, names) -> list[tuple[list[str], list]]:
    """The NNF's top-level conjuncts in attribute-disjoint groups (a union-find),
    each as (its attributes in `names` order, its conjuncts as `_conjuncts`
    gives them). An attribute no conjunct mentions is a group alone, and so is
    a conjunct that mentions none; those come first, so a false one ends a
    count early."""
    root = {a: a for a in names}

    def find(a: str) -> str:
        while root[a] != a:
            a = root[a]
        return a

    conjuncts = _conjuncts(nnf)
    for _, attrs in conjuncts:
        heads = sorted({find(a) for a in attrs})
        for a in heads:
            root[a] = heads[0]
    groups: dict[object, tuple[list[str], list]] = {}
    for conj, attrs in conjuncts:
        groups.setdefault(find(min(attrs)) if attrs else conj, ([], []))[1].append((conj, attrs))
    for a in names:
        groups.setdefault(find(a), ([], []))[0].append(a)
    return sorted(groups.values(), key=lambda g: bool(g[0]))


def solution_count(
    c: Constraint, schema: ConstrainedSchema, cap: int = DEFAULT_ENUM_CAP
) -> int | str:
    """Exact count of distinct visible solutions, 'exceeds-cap', or 'infinite'.

    A grid within the cap (`_grid`: the domains' own when small, else a
    narrowed one) is counted per attribute-disjoint group of the NNF's
    conjuncts, by one walk (`_solutions`) over its own sub-grid, and the
    counts multiply: the solutions are the product of the groups'."""
    nnf, grid = _grid(c, schema, cap)
    if isinstance(grid, str):
        return grid
    total, visible = 1, set(schema.attr_names())
    for attrs, conjuncts in _components(nnf, grid):
        shown = tuple(a for a in attrs if a in visible)
        found = _solutions(conjuncts, {a: grid[a] for a in attrs}, shown)
        # a group with no visible attribute counts 1 once it has a solution
        count = sum(1 for _ in itertools.islice(found, None if shown else 1))
        if count == 0:
            return 0
        total *= count
    return total


def diameter(c: Constraint, schema: ConstrainedSchema, cap: int = DEFAULT_ENUM_CAP) -> Ext:
    """Adjacency-graph diameter over relations on the schema: |solutions|, else +inf
    (counted per attribute-disjoint group, with the cap on the whole grid)."""
    count = solution_count(c, schema, cap)
    if isinstance(count, int):
        return Fraction(count)
    return INF


def attribute_bounds(
    c: Constraint,
    schema: ConstrainedSchema,
    attr: str,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
    dnf_cap: int = DEFAULT_DNF_CAP,
) -> Bounds:
    """Sound interval for one numeric attribute over the constraint's solutions.

    Exact (closed) bounds via enumeration on small finite grids (`_grid`,
    which builds no box for a grid walked from its domains); otherwise a
    hull-consistency fixpoint per disjunctive branch, joined across branches,
    and past the branch cap the structural box.
    """
    dom = schema.domain(attr)
    if not dom.is_numeric:
        raise SchemaError(f"attribute {attr!r} is not numeric")
    nnf, grid = _grid(c, schema, min(enum_cap, EXACT_GRID_BUDGET))
    if not isinstance(grid, str):
        column = [v for v, in _solutions(_conjuncts(c), grid, (attr,))]
        if not column:
            return Bounds.make_empty()
        return Bounds(Fraction(min(column)), Fraction(max(column)))  # grid values may be int
    branches = dnf_branches(nnf, dnf_cap)
    if branches is None:
        box = _prepared(c, schema)[1]
    else:
        box = _hull(narrow(branch, schema) for branch in branches)
        if box is None:
            return Bounds.make_empty()
    lo, hi, lo_open, hi_open = box.nums[attr]
    return Bounds(_fraction(lo), _fraction(hi), lo_open, hi_open)
