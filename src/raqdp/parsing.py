"""Text formats: schema declarations, constraints, and queries.

Hand-rolled recursive descent over a regex tokenizer. The only
non-LL(1) spot is a parenthesis that may open either a grouped constraint
or a grouped arithmetic term; a bounded backtrack disambiguates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

_TOKEN_RE = re.compile(
    r"""
      (?P<skip>(?:\s+|\#[^\n]*)+)
    | (?P<num>\d+(?:\.\d+)?)
    | (?P<str>"(?:[^"\\\n]|\\.)*")
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|>=|!=|[{}()\[\],;:=<>+\-*/])
    | (?P<bad>[\s\S])
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")


@dataclass(slots=True)
class Token:
    kind: str  # 'num', 'str', 'ident', 'kw', 'op', 'eof'
    text: str
    value: object
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """The text's tokens, then an 'eof' token, in one pass of the token regex.

    Whitespace and comments make no token; they only move the line count
    and the start of the current line, from which each column is taken."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        lexeme = m.group()
        start = m.start()
        if kind == "skip":
            last = lexeme.rfind("\n")
            if last >= 0:
                line += lexeme.count("\n")
                line_start = start + last + 1
            continue
        col = start - line_start + 1
        if kind == "ident":
            tokens.append(Token("kw" if lexeme in KEYWORDS else "ident", lexeme, lexeme, line, col))
        elif kind == "op":
            tokens.append(Token("op", lexeme, lexeme, line, col))
        elif kind == "num":
            try:
                value = Fraction(lexeme) if "." in lexeme else Fraction(int(lexeme))
            except ValueError:  # the lexeme is digits: it is past Python's digit limit
                raise ParseError(str(too_many_digits(lexeme, "number")), line, col) from None
            tokens.append(Token("num", lexeme, value, line, col))
        elif kind == "str":
            tokens.append(Token("str", lexeme, _ESCAPE_RE.sub(r"\1", lexeme[1:-1]), line, col))
        else:
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
    tokens.append(Token("eof", "", None, line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        shown = tok.text or "end of input"
        raise ParseError(f"{message} (found {shown!r})", tok.line, tok.col)

    def at_op(self, *texts: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text in texts

    def at_kw(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.text in words

    def accept_op(self, text: str) -> bool:
        if self.at_op(text):
            self.advance()
            return True
        return False

    def accept_kw(self, word: str) -> bool:
        if self.at_kw(word):
            self.advance()
            return True
        return False

    def expect_op(self, text: str) -> None:
        if not self.accept_op(text):
            self.error(f"expected {text!r}")

    def expect_kw(self, word: str) -> None:
        if not self.accept_kw(word):
            self.error(f"expected {word!r}")

    def expect_ident(self, what: str) -> str:
        t = self.peek()
        if t.kind != "ident":
            self.error(f"expected {what}")
        self.advance()
        return t.text

    def attr_name(self) -> str:
        t = self.peek()
        if t.kind == "ident" or (t.kind == "kw" and t.text in FN_KEYWORDS):
            self.advance()
            return t.text
        self.error("expected an attribute name")

    # ------------------------------------------------------------------
    # numbers

    def signed_number(self) -> Fraction:
        negative = self.accept_op("-")
        if self.peek().kind != "num":
            self.error("expected a number")
        value = self.rational()
        return -value if negative else value

    def rational(self) -> Fraction:
        """A number token, divided by a directly following `/ number` if any."""
        value = self.advance().value
        if self.at_op("/"):
            save = self.i
            self.advance()
            d = self.peek()
            if d.kind == "num":
                self.advance()
                if d.value == 0:
                    self.error("zero denominator", d)
                value = value / d.value
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
                if not self.at_op("+", "-", "*", "/", "<=", ">=", "<", ">", "=", "!=") and not self.at_kw("in"):
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
        for op in ("<=", ">=", "!=", "<", ">", "="):
            if self.accept_op(op):
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
        t = self.peek()
        if t.kind == "str":
            self.advance()
            return t.value
        return self.signed_number()

    def arith(self):
        left = self.arith_term()
        while self.at_op("+", "-"):
            op = self.advance().text
            left = Arith(op, left, self.arith_term())
        return left

    def arith_term(self):
        left = self.factor()
        while self.at_op("*"):
            self.advance()
            left = Arith("*", left, self.factor())
        return left

    def factor(self):
        t = self.peek()
        if t.kind == "num":
            return Lit(self.rational())
        if t.kind == "str":
            self.advance()
            return Lit(t.value)
        if self.accept_op("-"):
            inner = self.factor()
            if isinstance(inner, Lit) and not isinstance(inner.value, str):
                return Lit(-inner.value)
            return Arith("-", Lit(Fraction(0)), inner)
        if self.accept_op("("):
            inner = self.arith()
            self.expect_op(")")
            return inner
        if t.kind == "ident" or (t.kind == "kw" and t.text in FN_KEYWORDS):
            self.advance()
            return Attr(t.text)
        self.error("expected a value, attribute, or parenthesized term")

    # ------------------------------------------------------------------
    # schema declarations

    def schema_file(self) -> dict[str, ConstrainedSchema]:
        schemas: dict[str, ConstrainedSchema] = {}
        while self.peek().kind != "eof":
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
        tok = self.peek()
        try:
            return ConstrainedSchema(name, tuple(attrs), check)
        except Exception as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc

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
        if self.peek().kind != "eof":
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
                t = self.peek()
                if t.kind != "num" or t.value.denominator != 1 or t.value < 1:
                    self.error("expected a positive block size")
                self.advance()
                left = ProductN(int(t.value), left, self.unary_plan())
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
        if self.peek().kind == "ident":
            return Id(self.advance().text)
        self.error("expected a relation or a select/project/group form")


# ---------------------------------------------------------------------------
# Public entry points


def parse_schemas(text: str) -> dict[str, ConstrainedSchema]:
    return _Parser(text).schema_file()


def parse_constraint(text: str) -> Constraint:
    parser = _Parser(text)
    out = parser.constraint()
    if parser.peek().kind != "eof":
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
