"""Text formats: schema declarations, constraints, and queries.

Hand-rolled recursive descent over a regex tokenizer. `tokenize` takes one
regex match per token, the whitespace and comments before it included, and
gives plain (kind, text, value, line, col) tuples; the parser tests operators
and keywords by their text alone (`_Parser`). The only non-LL(1) spot is a
parenthesis that may open either a grouped constraint or a grouped
arithmetic term; a bounded backtrack disambiguates.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .constraints import (
    _negate_nnf,
    TRUE,
    FALSE,
    Arith,
    Attr,
    BoolConst,
    Cmp,
    ConstrainedSchema,
    Constraint,
    Domain,
    Iff,
    InSet,
    Lit,
    Not,
    format_constraint,
    make_and,
    make_or,
)
from .errors import ParseError
from .extmath import INF, NEG_INF, too_many_digits
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
)

KEYWORDS = frozenset(
    """relation check in and or not iff true false int real num string inf
    union intersect minus product product1 productn productagg
    select project group agg from of count sum max min avg""".split()
)

# aggregation names double as attribute names outside function position
FN_KEYWORDS = frozenset({"count", "sum", "max", "min", "avg"})

# One match per token: the whitespace and comments before it, then the token.
# Every position matches, because the last two alternatives take the end of
# the text and any other character.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:\#[^\n]*\s*)*
    (?:
      (?P<op><=|>=|!=|[{}()\[\],;:=<>+\-*/])
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<num>\d+(?:\.\d+)?)
    | (?P<str>"(?:[^"\\\n]|\\.)*")
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")

_COMPARISON_OPS = frozenset({"<=", ">=", "!=", "<", ">", "="})
# what may follow a parenthesized arithmetic term, but never a grouped constraint
_AFTER_TERM = frozenset({"+", "-", "*", "/", "in"}) | _COMPARISON_OPS


def tokenize(text: str) -> list[tuple]:
    """The text's tokens as (kind, text, value, line, col) tuples, then an
    'eof' token, one match of the token regex each. Kind is 'num', 'str',
    'ident', 'kw', 'op' or 'eof'; value is a number's Fraction (one per
    distinct lexeme), a string's unescaped text, or else the text itself.

    Whitespace and comments make no token. No token holds a newline, so the
    line and column come from a running index of the next newline."""
    tokens: list[tuple] = []
    numbers: dict[str, Fraction] = {}
    line, line_start = 1, 0
    next_newline = text.find("\n")
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        while 0 <= next_newline < start:
            line += 1
            line_start = next_newline + 1
            next_newline = text.find("\n", line_start)
        col = start - line_start + 1
        lexeme = m[kind]
        if kind == "op":
            tokens.append(("op", lexeme, lexeme, line, col))
        elif kind == "ident":
            tokens.append(("kw" if lexeme in KEYWORDS else "ident", lexeme, lexeme, line, col))
        elif kind == "num":
            value = numbers.get(lexeme)
            if value is None:
                try:
                    value = Fraction(lexeme) if "." in lexeme else Fraction(int(lexeme))
                except ValueError:  # the lexeme is digits: it is past Python's digit limit
                    raise ParseError(str(too_many_digits(lexeme, "number")), line, col) from None
                numbers[lexeme] = value
            tokens.append(("num", lexeme, value, line, col))
        elif kind == "str":
            tokens.append(("str", lexeme, _ESCAPE_RE.sub(r"\1", lexeme[1:-1]), line, col))
        elif kind == "eof":
            break
        else:
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
    tokens.append(("eof", "", None, line, col))
    return tokens


class _Parser:
    """Recursive descent over `tokenize`'s tuples. An operator's or keyword's
    text belongs to no other kind of token (an identifier with a keyword's
    text is a keyword, a string's text keeps its quotes), so operators and
    keywords are tested by text alone, in the parallel list `texts`."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.texts = [t[1] for t in self.tokens]
        self.i = 0

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def kind(self) -> str:
        return self.tokens[self.i][0]

    def advance(self) -> tuple:
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def error(self, message: str, tok: tuple | None = None):
        _, text, _, line, col = tok or self.peek()
        raise ParseError(f"{message} (found {text or 'end of input'!r})", line, col)

    def at_op(self, *texts: str) -> bool:
        return self.texts[self.i] in texts

    at_kw = at_op

    def accept_op(self, text: str) -> bool:
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    accept_kw = accept_op

    def expect_op(self, text: str) -> None:
        if not self.accept_op(text):
            self.error(f"expected {text!r}")

    expect_kw = expect_op

    def expect_ident(self, what: str) -> str:
        if self.kind() != "ident":
            self.error(f"expected {what}")
        return self.advance()[1]

    def _at_attr(self) -> bool:
        """Whether the next token names an attribute: an identifier, or an
        aggregation keyword outside function position."""
        return self.kind() == "ident" or self.texts[self.i] in FN_KEYWORDS

    def attr_name(self) -> str:
        if self._at_attr():
            return self.advance()[1]
        self.error("expected an attribute name")

    # ------------------------------------------------------------------
    # numbers

    def signed_number(self) -> Fraction:
        negative = self.accept_op("-")
        if self.kind() != "num":
            self.error("expected a number")
        value = self.rational()
        return -value if negative else value

    def rational(self) -> Fraction:
        """A number token, divided by a directly following `/ number` if any."""
        value = self.advance()[2]
        if self.at_op("/"):
            save = self.i
            self.advance()
            d = self.peek()
            if d[0] == "num":
                self.advance()
                if d[2] == 0:
                    self.error("zero denominator", d)
                value = value / d[2]
            else:
                self.i = save
        return value

    def real_bound(self) -> Fraction | float:
        if self.accept_kw("inf"):
            return INF
        if self.at_op("-"):
            save = self.i
            self.advance()
            if self.accept_kw("inf"):
                return NEG_INF
            self.i = save
        return self.signed_number()

    # ------------------------------------------------------------------
    # constraints

    def constraint(self) -> Constraint:
        left = self.or_expr()
        while self.accept_kw("iff"):
            left = Iff(left, self.or_expr())
        return left

    def or_expr(self) -> Constraint:
        items = [self.and_expr()]
        while self.accept_kw("or"):
            items.append(self.and_expr())
        return make_or(items) if len(items) > 1 else items[0]

    def and_expr(self) -> Constraint:
        items = [self.not_expr()]
        while self.accept_kw("and"):
            items.append(self.not_expr())
        return make_and(items) if len(items) > 1 else items[0]

    def not_expr(self) -> Constraint:
        if self.accept_kw("not"):
            inner = self.not_expr()
            # complement atoms right away so `not (a = b)` round-trips
            if isinstance(inner, (Cmp, InSet, BoolConst)):
                return _negate_nnf(inner)
            if isinstance(inner, Not):
                return inner.arg
            return Not(inner)
        return self.atom()

    def atom(self) -> Constraint:
        if self.accept_kw("true"):
            return TRUE
        if self.accept_kw("false"):
            return FALSE
        if self.at_op("("):
            save = self.i
            try:
                self.advance()
                inner = self.constraint()
                self.expect_op(")")
                if self.texts[self.i] not in _AFTER_TERM:
                    return inner
            except ParseError:
                pass
            self.i = save
        left = self.arith()
        if self.accept_kw("not"):
            self.expect_kw("in")
            return InSet(left, frozenset(self.value_set()), negated=True)
        if self.accept_kw("in"):
            return InSet(left, frozenset(self.value_set()))
        op = self.texts[self.i]
        if op in _COMPARISON_OPS:
            self.i += 1
            return Cmp(op, left, self.arith())
        self.error("expected a comparison operator or 'in'")

    def value_set(self) -> list:
        self.expect_op("{")
        values = [self.set_value()]
        while self.accept_op(","):
            values.append(self.set_value())
        self.expect_op("}")
        return values

    def set_value(self):
        if self.kind() == "str":
            return self.advance()[2]
        return self.signed_number()

    def arith(self):
        left = self.arith_term()
        while self.at_op("+", "-"):
            op = self.advance()[1]
            left = Arith(op, left, self.arith_term())
        return left

    def arith_term(self):
        left = self.factor()
        while self.at_op("*"):
            self.advance()
            left = Arith("*", left, self.factor())
        return left

    def factor(self):
        kind = self.kind()
        if kind == "num":
            return Lit(self.rational())
        if kind == "str":
            return Lit(self.advance()[2])
        if self.accept_op("-"):
            inner = self.factor()
            if isinstance(inner, Lit) and not isinstance(inner.value, str):
                return Lit(-inner.value)
            return Arith("-", Lit(Fraction(0)), inner)
        if self.accept_op("("):
            inner = self.arith()
            self.expect_op(")")
            return inner
        if self._at_attr():
            return Attr(self.advance()[1])
        self.error("expected a value, attribute, or parenthesized term")

    # ------------------------------------------------------------------
    # schema declarations

    def schema_file(self) -> dict[str, ConstrainedSchema]:
        schemas: dict[str, ConstrainedSchema] = {}
        while self.kind() != "eof":
            schema = self.relation_decl()
            if schema.name in schemas:
                self.error(f"relation {schema.name!r} declared twice")
            schemas[schema.name] = schema
        if not schemas:
            self.error("expected at least one relation declaration")
        return schemas

    def relation_decl(self) -> ConstrainedSchema:
        self.expect_kw("relation")
        name = self.expect_ident("a relation name")
        self.expect_op("{")
        attrs = [self.attr_decl()]
        while self.accept_op(";"):
            if self.at_op("}"):
                break
            attrs.append(self.attr_decl())
        self.expect_op("}")
        check = TRUE
        if self.accept_kw("check"):
            self.expect_op("{")
            check = self.constraint()
            self.expect_op("}")
        _, _, _, line, col = self.peek()
        try:
            return ConstrainedSchema(name, tuple(attrs), check)
        except Exception as exc:
            raise ParseError(str(exc), line, col) from exc

    def attr_decl(self) -> tuple[str, Domain]:
        name = self.attr_name()
        self.expect_op(":")
        return name, self.type_decl()

    def type_decl(self) -> Domain:
        tok = self.peek()
        if self.accept_kw("int"):
            self.expect_op("[")
            lo = self.signed_number()
            self.expect_op(",")
            hi = self.signed_number()
            self.expect_op("]")
            if lo.denominator != 1 or hi.denominator != 1 or lo > hi:
                self.error("integer range needs integer endpoints with low <= high", tok)
            return Domain.int_range(lo, hi)
        if self.accept_kw("real"):
            self.expect_op("[")
            lo = self.real_bound()
            self.expect_op(",")
            hi = self.real_bound()
            self.expect_op("]")
            if lo > hi:
                self.error("real range needs low <= high", tok)
            if lo == INF or hi == NEG_INF:
                self.error(f"real range [{lo}, {hi}] holds no real number", tok)
            return Domain.real_range(lo, hi)
        if self.accept_kw("num"):
            self.expect_kw("in")
            values = self.value_set()
            if any(isinstance(v, str) for v in values):
                self.error("numeric enumeration may not contain strings", tok)
            return Domain.num_set(values)
        if self.accept_kw("string"):
            self.expect_kw("in")
            values = self.value_set()
            if not all(isinstance(v, str) for v in values):
                self.error("string enumeration may only contain strings", tok)
            return Domain.str_set(values)
        self.error("expected a type (int, real, num, string)")

    # ------------------------------------------------------------------
    # queries

    def query(self) -> TopQuery:
        fn = self.fn_spec()
        self.expect_kw("of")
        body = self.plan()
        if self.kind() != "eof":
            self.error("trailing input after the query")
        return TopQuery(fn, body)

    def fn_spec(self) -> AggFn:
        if self.accept_kw("count"):
            return AggFn("count")
        for kind in ("sum", "max", "min", "avg"):
            if self.accept_kw(kind):
                self.expect_op("(")
                attr = self.attr_name()
                self.expect_op(")")
                return AggFn(kind, attr)
        self.error("expected an aggregation (count, sum, max, min, avg)")

    def plan(self) -> Plan:
        left = self.unary_plan()
        while True:
            if self.accept_kw("union"):
                left = Union(left, self.unary_plan())
            elif self.accept_kw("intersect"):
                left = Intersection(left, self.unary_plan())
            elif self.accept_kw("minus"):
                left = Difference(left, self.unary_plan())
            elif self.accept_kw("product"):
                left = Product(left, self.unary_plan())
            elif self.accept_kw("product1"):
                left = ProductOne(left, self.unary_plan())
            elif self.accept_kw("productn"):
                kind, _, n, _, _ = self.peek()
                if kind != "num" or n.denominator != 1 or n < 1:
                    self.error("expected a positive block size")
                self.advance()
                left = ProductN(int(n), left, self.unary_plan())
            elif self.accept_kw("productagg"):
                fn = self.fn_spec()
                left = ProductAgg(fn, left, self.unary_plan())
            else:
                return left

    def unary_plan(self) -> Plan:
        if self.accept_kw("select"):
            predicate = self.constraint()
            self.expect_kw("from")
            return Restriction(predicate, self.unary_plan())
        if self.accept_kw("project"):
            attrs = [self.attr_name()]
            while self.accept_op(","):
                attrs.append(self.attr_name())
            self.expect_kw("from")
            return Projection(tuple(attrs), self.unary_plan())
        if self.accept_kw("group"):
            attrs = [self.attr_name()]
            while self.accept_op(","):
                attrs.append(self.attr_name())
            self.expect_kw("agg")
            fns = [self.fn_spec()]
            while self.accept_op(","):
                fns.append(self.fn_spec())
            self.expect_kw("from")
            return GroupAggregate(tuple(attrs), tuple(fns), self.unary_plan())
        if self.accept_op("("):
            inner = self.plan()
            self.expect_op(")")
            return inner
        if self.kind() == "ident":
            return Id(self.advance()[1])
        self.error("expected a relation or a select/project/group form")


# ---------------------------------------------------------------------------
# Public entry points


def parse_schemas(text: str) -> dict[str, ConstrainedSchema]:
    return _Parser(text).schema_file()


def parse_constraint(text: str) -> Constraint:
    parser = _Parser(text)
    out = parser.constraint()
    if parser.kind() != "eof":
        parser.error("trailing input after the constraint")
    return out


def parse_query(text: str) -> TopQuery:
    return _Parser(text).query()


# ---------------------------------------------------------------------------
# Printing (inverse of the grammar above)


def format_fn(fn: AggFn) -> str:
    return "count" if fn.kind == "count" else f"{fn.kind}({fn.attr})"


def format_plan(plan: Plan) -> str:
    def operand(p: Plan) -> str:
        text = format_plan(p)
        if isinstance(p, (Union, Intersection, Difference, Product, ProductOne, ProductN, ProductAgg)):
            return f"({text})"
        return text

    if isinstance(plan, Id):
        return plan.relation
    if isinstance(plan, Union):
        return f"{operand(plan.left)} union {operand(plan.right)}"
    if isinstance(plan, Intersection):
        return f"{operand(plan.left)} intersect {operand(plan.right)}"
    if isinstance(plan, Difference):
        return f"{operand(plan.left)} minus {operand(plan.right)}"
    if isinstance(plan, Product):
        return f"{operand(plan.left)} product {operand(plan.right)}"
    if isinstance(plan, ProductOne):
        return f"{operand(plan.single)} product1 {operand(plan.source)}"
    if isinstance(plan, ProductN):
        return f"{operand(plan.left)} productn {plan.n} {operand(plan.right)}"
    if isinstance(plan, ProductAgg):
        return f"{operand(plan.left)} productagg {format_fn(plan.fn)} {operand(plan.right)}"
    if isinstance(plan, Restriction):
        return f"select {format_constraint(plan.predicate)} from {operand(plan.source)}"
    if isinstance(plan, Projection):
        return f"project {', '.join(plan.attrs)} from {operand(plan.source)}"
    if isinstance(plan, GroupAggregate):
        attrs = ", ".join(plan.group_attrs)
        fns = ", ".join(format_fn(f) for f in plan.fns)
        return f"group {attrs} agg {fns} from {operand(plan.source)}"
    raise TypeError(f"not a plan node: {plan!r}")


def format_query(tq: TopQuery) -> str:
    return f"{format_fn(tq.fn)} of {format_plan(tq.body)}"
