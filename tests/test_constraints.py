"""Constraint language: solving, bounds, diameters, satisfiability."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raqdp import constraints
from raqdp.analyzer import global_sensitivity
from raqdp.constraints import (
    DEFAULT_ENUM_CAP,
    EXACT_GRID_BUDGET,
    Attr,
    Bounds,
    Cmp,
    ConstrainedSchema,
    Domain,
    Lit,
    TRUE,
    FALSE,
    And,
    Arith,
    Constraint,
    Iff,
    InSet,
    Not,
    attribute_bounds,
    constraint_attrs,
    diameter,
    format_constraint,
    initial_constraint,
    iter_solutions,
    make_and,
    make_or,
    normalize,
    rename_attrs,
    solution_count,
)
from raqdp.errors import ParseError, SchemaError, ValidationError
from raqdp.extmath import INF, NEG_INF
from raqdp.parsing import parse_constraint, parse_query, parse_schemas
from raqdp.query import validate

from helpers import holds, reference_solution_count, reference_solutions


def ints(name, lo, hi):
    return (name, Domain.int_range(lo, hi))


def small_schema():
    return ConstrainedSchema("R", (ints("a", 0, 3), ints("b", 0, 2)))


# ---------------------------------------------------------------------------
# Domains


def test_int_range_rejects_infinite_endpoints():
    with pytest.raises(SchemaError):
        Domain(kind=Domain.int_range(0, 1).kind, lower=NEG_INF, upper=Fraction(3))


def test_empty_range_rejected():
    with pytest.raises(SchemaError):
        Domain.int_range(5, 4)


def test_str_set_rejects_numbers():
    with pytest.raises(SchemaError):
        Domain.str_set({"a", 3})


def test_contains():
    d = Domain.int_range(0, 5)
    assert d.contains(3)
    assert not d.contains(Fraction(1, 2))
    assert not d.contains("x")
    s = Domain.str_set({"x", "y"})
    assert s.contains("x") and not s.contains(0)
    n = Domain.num_set({1, Fraction(5, 2)})
    assert n.contains(Fraction(5, 2)) and not n.contains(2)


def test_schema_rejects_duplicate_and_unknown():
    with pytest.raises(SchemaError):
        ConstrainedSchema("R", (ints("a", 0, 1), ints("a", 0, 1)))
    with pytest.raises(SchemaError):
        ConstrainedSchema("R", (ints("a", 0, 1),), Cmp("<=", Attr("zz"), Lit(Fraction(0))))


# ---------------------------------------------------------------------------
# Enumeration against a hand-rolled oracle


def brute_solutions(schema, constraint):
    """Every grid point of the domains that satisfies the constraint."""
    axes = []
    for _, dom in schema.attributes:
        if dom.members:
            axes.append(list(dom.members))
        else:
            lo, hi = dom.interval()
            axes.append([Fraction(v) for v in range(int(lo), int(hi) + 1)])
    names = schema.attr_names()
    out = set()
    for point in itertools.product(*axes):
        if holds(constraint, dict(zip(names, point))):
            out.add(point)
    return out


def test_iter_solutions_matches_brute():
    schema = small_schema()
    c = parse_constraint("a + b <= 3 and not (a = 2)")
    got = set(iter_solutions(make_and([initial_constraint(schema), c]), schema))
    want = brute_solutions(schema, c)
    assert got == want
    assert solution_count(make_and([initial_constraint(schema), c]), schema) == len(want)


def test_solution_count_exceeds_cap():
    schema = ConstrainedSchema("R", (ints("a", 0, 100),))
    n = solution_count(initial_constraint(schema), schema, cap=10)
    assert n == "exceeds-cap"


def test_solution_count_infinite_for_real_interval():
    schema = ConstrainedSchema("R", (("x", Domain.real_range(0, 1)),))
    assert solution_count(initial_constraint(schema), schema) == "infinite"


def test_solution_count_real_pinned_is_finite():
    schema = ConstrainedSchema("R", (("x", Domain.real_range(0, 10)),))
    c = make_and([initial_constraint(schema), Cmp("=", Attr("x"), Lit(Fraction(4)))])
    assert solution_count(c, schema) == 1


def test_unsatisfiable_counts_zero():
    schema = small_schema()
    c = make_and([initial_constraint(schema), parse_constraint("a > 99")])
    assert solution_count(c, schema) == 0
    assert diameter(c, schema) == 0


# ---------------------------------------------------------------------------
# Diameter


def test_diameter_equals_solution_cardinality():
    schema = small_schema()
    c = initial_constraint(schema)
    assert diameter(c, schema) == 12  # 4 * 3 grid points
    narrowed = make_and([c, parse_constraint("a <= 0 and b <= 1")])
    assert diameter(narrowed, schema) == 2


def test_diameter_infinite_cases():
    real = ConstrainedSchema("R", (("x", Domain.real_range(0, 1)),))
    assert diameter(initial_constraint(real), real) == INF
    big = ConstrainedSchema("R", (ints("a", 0, 10**7),))
    assert diameter(initial_constraint(big), big, cap=1000) == INF


# ---------------------------------------------------------------------------
# Bounds


def test_bounds_exact_on_enumerable_grid():
    schema = small_schema()
    c = make_and([initial_constraint(schema), parse_constraint("a + b <= 2")])
    b = attribute_bounds(c, schema, "a")
    assert (b.lower, b.upper) == (0, 2)


def test_bounds_through_linear_narrowing():
    text = """
    relation Items {
      Cost: real [0, 10000];
      Price: real [0, 10000]
    } check { Cost <= Price and Price <= 1000 }
    """
    schema = parse_schemas(text)["Items"]
    c = initial_constraint(schema)
    assert attribute_bounds(c, schema, "Cost").upper == 1000
    assert attribute_bounds(c, schema, "Price").upper == 1000


def test_bounds_empty_flag():
    schema = small_schema()
    c = make_and([initial_constraint(schema), parse_constraint("a > 99")])
    assert attribute_bounds(c, schema, "a").empty


def test_bounds_disjunction_union():
    schema = ConstrainedSchema("R", (ints("a", 0, 100),))
    c = make_and(
        [initial_constraint(schema), parse_constraint("a <= 3 or a >= 97")]
    )
    b = attribute_bounds(c, schema, "a")
    assert (b.lower, b.upper) == (0, 100)
    narrowed = make_and([c, parse_constraint("a <= 50")])
    b2 = attribute_bounds(narrowed, schema, "a")
    assert (b2.lower, b2.upper) == (0, 3)


def test_bounds_open_endpoints_on_reals():
    schema = ConstrainedSchema("R", (("x", Domain.real_range(0, 10)),))
    c = make_and([initial_constraint(schema), parse_constraint("x < 5")])
    b = attribute_bounds(c, schema, "x")
    assert b.upper == 5 and b.upper_open
    assert b.lower == 0 and not b.lower_open


def test_aux_attributes_constrain_visible_ones():
    # b was projected away but still ties down a through a <= b <= 1.
    schema = ConstrainedSchema(
        "R",
        (ints("a", 0, 9),),
        make_and([parse_constraint("a <= b and b <= 1")]),
        aux=(ints("b", 0, 9),),
    )
    c = make_and([initial_constraint(schema)])
    b = attribute_bounds(c, schema, "a")
    assert b.upper == 1


STRING_CASES = """
relation R { s: string in {"a", "b", "c"}; x: int [0, 9] }
check { s = "a" and x <= 2 or s = "b" and x >= 4 and x <= 6 or s = "c" and x >= 8 }
"""


@pytest.mark.parametrize(
    "form, twin, want",
    [
        ('s = "b"', 's in {"b"}', Bounds(4, 6)),
        ('"b" = s', 's in {"b"}', Bounds(4, 6)),
        ('s != "c"', 's not in {"c"}', Bounds(0, 6)),
        ('s = "a" and s != "a"', 's in {"a"} and s not in {"a"}', Bounds(empty=True)),
    ],
)
def test_string_comparison_narrows_like_its_membership_twin(form, twin, want):
    # enum_cap=1 keeps the 30-point grid from being enumerated, so each
    # branch is narrowed and the string atoms narrow the set of s
    schema = parse_schemas(STRING_CASES)["R"]
    base = initial_constraint(schema)
    got = [
        attribute_bounds(make_and([base, parse_constraint(text)]), schema, "x", enum_cap=1)
        for text in (form, twin)
    ]
    assert got == [want, want]


# ---------------------------------------------------------------------------
# Normalization properties


@st.composite
def constraint_texts(draw):
    """Random boolean combinations of simple atoms over a and b."""
    atoms = [
        "a <= 1", "a >= 2", "b = 0", "a + b <= 3", "a - b >= 1",
        "a in {0, 2}", "b > 1", "a < 3", "true", "false",
    ]
    def expr(depth):
        if depth == 0:
            return draw(st.sampled_from(atoms))
        form = draw(st.sampled_from(["and", "or", "not", "iff", "atom"]))
        if form == "atom":
            return draw(st.sampled_from(atoms))
        if form == "not":
            return f"not ({expr(depth - 1)})"
        return f"({expr(depth - 1)}) {form} ({expr(depth - 1)})"
    return expr(draw(st.integers(min_value=0, max_value=3)))


@given(constraint_texts())
@settings(max_examples=200, deadline=None)
def test_normalize_preserves_solution_set(text):
    schema = small_schema()
    c = parse_constraint(text)
    n = normalize(c)
    for point in itertools.product(range(4), range(3)):
        env = dict(zip(("a", "b"), (Fraction(v) for v in point)))
        assert holds(c, env) == holds(n, env)


@given(constraint_texts())
@settings(max_examples=100, deadline=None)
def test_format_parse_round_trip_preserves_meaning(text):
    c = parse_constraint(text)
    again = parse_constraint(format_constraint(c))
    for point in itertools.product(range(4), range(3)):
        env = dict(zip(("a", "b"), (Fraction(v) for v in point)))
        assert holds(c, env) == holds(again, env)


def test_make_and_or_flattening():
    a = Cmp("<=", Attr("a"), Lit(Fraction(1)))
    b = Cmp(">=", Attr("b"), Lit(Fraction(1)))
    c = make_and([a, make_and([b, TRUE])])
    assert isinstance(c, And) and len(c.items) == 2
    assert make_and([a, FALSE]) is FALSE
    assert make_or([a, TRUE]) is TRUE
    assert make_or([]) is FALSE
    assert make_and([]) is TRUE


def test_constraint_attrs():
    c = parse_constraint("a + b <= 3 and c in {1}")
    assert constraint_attrs(c) == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# One value form: grids hold integral values as int, as data does


def test_solutions_hold_integral_values_as_int():
    from raqdp.oracle import enumerate_tuples

    schema = parse_schemas(
        "relation R { a: int [0, 2]; n: num in {1, 5/2}; x: real [0, 10]; y: real [0, 10] }"
        " check { y = 4 and (x = 3 or x = 7/2) }"
    )["R"]
    solutions = list(iter_solutions(initial_constraint(schema), schema))
    assert solutions and enumerate_tuples(schema) == tuple(solutions)
    assert {t[1] for t in solutions} == {1, Fraction(5, 2)}
    assert {t[2] for t in solutions} == {3, Fraction(7, 2)}
    assert {t[3] for t in solutions} == {4}
    for t in solutions:
        for v in t:
            assert type(v) is (int if v.denominator == 1 else Fraction), t


def test_attribute_bounds_endpoints_are_fractions():
    small = small_schema()  # a 4 x 3 grid: exact enumeration
    wide = ConstrainedSchema("W", (ints("a", 0, 10**6),))  # past the budget: narrowing
    exact = attribute_bounds(initial_constraint(small), small, "a")
    narrowed = attribute_bounds(initial_constraint(wide), wide, "a")
    assert (exact.lower, exact.upper) == (0, 3)
    assert (narrowed.lower, narrowed.upper) == (0, 10**6)
    for b in (exact, narrowed):
        assert type(b.lower) is Fraction and type(b.upper) is Fraction


def _is_bounds_endpoint(v) -> bool:
    return type(v) is Fraction or (type(v) is float and v in (INF, NEG_INF))


# A real x beside a two-valued y: every grid has at least two points, so
# enum_cap=1 makes attribute_bounds narrow instead of enumerate.
@pytest.mark.parametrize(
    "text, values, bounds",
    [
        ("x = 3", [3], (Fraction(3), Fraction(3))),
        ("2 * x = 7", [Fraction(7, 2)], (Fraction(7, 2), Fraction(7, 2))),
        ("x in {3, 7/2}", [3, Fraction(7, 2)], (Fraction(3), Fraction(7, 2))),
        ("3 * x <= 7", None, (NEG_INF, Fraction(7, 3))),
    ],
)
def test_narrowing_divides_without_floats(text, values, bounds):
    schema = ConstrainedSchema("R", (("x", Domain.real_range()), ints("y", 0, 1)))
    c = make_and([initial_constraint(schema), parse_constraint(text)])
    solutions = iter_solutions(c, schema)
    if values is None:
        assert solutions is None
    else:
        solutions = list(solutions)
        assert solutions == [(v, y) for v in values for y in (0, 1)]
        for x, _ in solutions:
            assert type(x) is (int if x.denominator == 1 else Fraction), solutions
    for cap in (1, DEFAULT_ENUM_CAP):
        b = attribute_bounds(c, schema, "x", enum_cap=cap)
        assert (b.lower, b.upper, b.lower_open, b.upper_open) == (*bounds, False, False)
        assert _is_bounds_endpoint(b.lower) and _is_bounds_endpoint(b.upper), (cap, b)


def _containment_case(rng: random.Random) -> tuple[ConstrainedSchema, Constraint]:
    """Up to three attributes over int, num-set and pinned real domains, and a
    random constraint of linear comparisons, memberships, or, and not."""
    domains, pins = [], []
    for i in range(rng.randint(1, 3)):
        a, kind = f"a{i}", rng.choice(["int", "num", "real"])
        if kind == "int":
            lo = rng.randint(-3, 3)
            domains.append((a, Domain.int_range(lo, lo + rng.randint(0, 5))))
        elif kind == "num":
            members = rng.sample([-2, -1, 0, Fraction(1, 2), 2, Fraction(7, 3), 4], rng.randint(1, 4))
            domains.append((a, Domain.num_set(members)))
        else:
            domains.append((a, Domain.real_range(rng.choice([NEG_INF, -2]), rng.choice([3, INF]))))
            values = rng.sample([-2, Fraction(-1, 2), 0, Fraction(5, 3), 3], rng.randint(1, 3))
            pins.append(InSet(Attr(a), frozenset(map(Fraction, values))))
    names = [a for a, _ in domains]

    def term():
        coeff = rng.choice([1, 1, -1, 2, 3, Fraction(1, 2)])
        t = Attr(rng.choice(names))
        t = t if coeff == 1 else Arith("*", Lit(Fraction(coeff)), t)
        if rng.random() < 0.4:
            t = Arith(rng.choice("+-"), t, Attr(rng.choice(names)))
        return t

    def atom():
        if rng.random() < 0.2:
            values = frozenset(Fraction(rng.randint(-4, 8), rng.choice([1, 1, 2])) for _ in range(3))
            return InSet(term(), values, rng.random() < 0.2)
        op = rng.choice(["<=", "<", ">=", ">", "=", "!="])
        return Cmp(op, term(), Lit(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))))

    def formula(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            return atom()
        if roll < 0.6:
            return Not(formula(depth - 1))
        make = make_or if roll < 0.8 else make_and
        return make([formula(depth - 1), formula(depth - 1)])

    schema = ConstrainedSchema("R", tuple(domains))
    return schema, make_and([initial_constraint(schema), *pins, formula(2), formula(1)])


def test_narrowing_contains_the_exact_range():
    """The narrowing interval (enum_cap=1) holds every value the exact
    enumeration finds, and its endpoints are Fractions or infinities."""
    rng = random.Random("narrowing-containment")
    nonempty = 0
    for _ in range(600):
        schema, c = _containment_case(rng)
        solutions = list(iter_solutions(c, schema))
        nonempty += bool(solutions)
        for i, a in enumerate(schema.attr_names()):
            b = attribute_bounds(c, schema, a, enum_cap=1)
            assert _is_bounds_endpoint(b.lower) and _is_bounds_endpoint(b.upper), b
            if not solutions:
                continue
            lo, hi = min(t[i] for t in solutions), max(t[i] for t in solutions)
            assert not b.empty, (format_constraint(c), a)
            assert b.lower < lo or b.lower == lo and not b.lower_open, (format_constraint(c), a, b)
            assert b.upper > hi or b.upper == hi and not b.upper_open, (format_constraint(c), a, b)
    assert nonempty > 180


# ---------------------------------------------------------------------------
# One type check: when a schema is built, a predicate validated or a solver called


def strings_schema(constraint=TRUE):
    return ConstrainedSchema("S", (("s", Domain.str_set({"a", "b"})), ints("k", 0, 3)), constraint)


@pytest.mark.parametrize("text", ['s < "b"', 's + s = "aa"', "s + k = 1", 'k = "a"', "k in {\"a\"}"])
def test_schema_with_ill_typed_check_is_refused_when_built(text):
    with pytest.raises(SchemaError):
        strings_schema(parse_constraint(text))


def test_solver_functions_check_types_once_per_call():
    schema = strings_schema()
    c = parse_constraint('s + s = "aa"')
    with pytest.raises(SchemaError):
        iter_solutions(c, schema)
    for call in (solution_count, diameter):
        with pytest.raises(SchemaError):
            call(c, schema)
    with pytest.raises(SchemaError):
        attribute_bounds(c, schema, "k")


def test_contains_agrees_with_from_rows():
    from raqdp.engine import Relation
    from raqdp.errors import DataError

    domains = [
        Domain.int_range(0, 5),
        Domain.real_range(0, 5),
        Domain.num_set({3, Fraction(1, 2)}),
        Domain.str_set({"x"}),
    ]
    values = (3, Fraction(3), Fraction(1, 2), 0.5, True, "x")
    accepted = [
        (True, True, False, False, False, False),
        (True, True, True, False, False, False),
        (True, True, True, False, False, False),
        (False, False, False, False, False, True),
    ]
    for dom, want in zip(domains, accepted):
        schema = ConstrainedSchema("R", (("v", dom),))
        loads = []
        for value in values:
            try:
                Relation.from_rows(schema, [(value,)])
                loads.append(True)
            except DataError:
                loads.append(False)
        assert tuple(dom.contains(v) for v in values) == tuple(loads) == want, dom.kind


def test_equality_between_string_attributes_narrows_as_strings():
    schema = parse_schemas(
        'relation R { a: string in {"x", "y"}; b: string in {"x", "y", "z"}; k: int [0, 2] }'
        " check { a = b and k <= 1 }"
    )["R"]
    c = initial_constraint(schema)
    assert sorted(iter_solutions(c, schema)) == [
        ("x", "x", 0), ("x", "x", 1), ("y", "y", 0), ("y", "y", 1)
    ]
    # enum_cap 1 takes the narrowing path, which read a = b as linear arithmetic
    assert attribute_bounds(c, schema, "k", enum_cap=1) == Bounds(Fraction(0), Fraction(1))
    pinned = make_and([c, parse_constraint('b = "z"')])
    assert attribute_bounds(pinned, schema, "k", enum_cap=1).empty


def test_past_the_dnf_cap_bounds_come_from_the_structural_box():
    schemas = parse_schemas("relation R { a: int [0, 9] }")
    tq = parse_query("max(a) of select (a <= 2 or a >= 7) and a >= 3 and a <= 5 from R")
    out = validate(tq, schemas).nodes[tq.body].schema
    # each branch narrows to empty; one box over both keeps the conjuncts' [3, 5]
    assert attribute_bounds(out.constraint, out, "a", enum_cap=1).empty
    assert attribute_bounds(out.constraint, out, "a", enum_cap=1, dnf_cap=0) == Bounds(
        Fraction(3), Fraction(5)
    )


# ---------------------------------------------------------------------------
# Counting per attribute-disjoint group, against the whole-grid loop


def _random_relation(rng: random.Random, name: str, features: set) -> tuple[str, dict]:
    """A relation of one or two attributes, as schema text, and its attribute types."""
    decls, checks, types = [], [], {}
    for i in range(rng.choice([1, 2, 2])):
        a = f"{name.lower()}{i}"
        kind = rng.choice(["int", "num", "string", "real"])
        if kind == "int":
            lo = rng.randint(-2, 2)
            decls.append(f"{a}: int [{lo}, {lo + rng.randint(0, 4)}]")
        elif kind == "num":
            values = rng.sample(["-1", "0", "1/2", "2", "3"], rng.randint(1, 4))
            decls.append(f"{a}: num in {{{', '.join(values)}}}")
            features.add("num set")
        elif kind == "string":
            values = rng.sample(["x", "y", "z"], rng.randint(1, 3))
            members = ", ".join(f'"{v}"' for v in values)
            decls.append(f"{a}: string in {{{members}}}")
            if rng.random() < 0.3:
                checks.append(f'{a} not in {{"{values[0]}"}}')
            features.add("string set")
        else:
            decls.append(f"{a}: real [0, 3]")
            if rng.random() < 0.85:  # otherwise the grid is infinite
                pins = rng.sample(["0", "1/2", "2", "3", "7"], rng.randint(1, 3))
                checks.append(f"{a} in {{{', '.join(pins)}}}" if len(pins) > 1 else f"{a} = {pins[0]}")
                features.add("pinned real")
        types[a] = "str" if kind == "string" else "num"
    nums = [a for a, t in types.items() if t == "num"]
    roll = rng.random()
    if roll < 0.15:
        checks.append(f"{rng.choice(list(types))} != {rng.choice(list(types))}")
    elif roll < 0.3:
        checks.append(rng.choice(["1 = 2", "1 = 1", "1 <= 2"]))
        features.add("attribute-free atom")
    elif roll < 0.5 and len(nums) == 2:
        checks.append(rng.choice([f"{nums[0]} <= {nums[1]}", f"{nums[0]} = 2 or {nums[1]} < 1"]))
    check = f" check {{ {' and '.join(checks)} }}" if checks else ""
    return f"relation {name} {{ {'; '.join(decls)} }}{check}", types


def _random_product_case(rng: random.Random, features: set) -> tuple[str, str]:
    """Schema text and a count over 2-3 relations joined by `product`, with
    projections that hide attributes and restrictions that link the relations."""
    texts, operands, visible = [], [], []
    for name in ["R", "S", "T"][: rng.choice([2, 3])]:
        text, types = _random_relation(rng, name, features)
        texts.append(text)
        kept = list(types)
        if len(kept) == 2 and rng.random() < 0.3:
            kept = [rng.choice(kept)]
            operands.append(f"(project {kept[0]} from {name})")
            features.add("aux")
        else:
            operands.append(name)
        visible.append({a: types[a] for a in kept})
    plan = " product ".join(operands[:2])
    if len(operands) == 3:
        plan = f"({plan}) product {operands[2]}"
    left, right = rng.sample(visible, 2)
    pairs = [(a, b) for a in left for b in right if left[a] == right[b]]
    if pairs and rng.random() < 0.6:
        a, b = rng.choice(pairs)
        if left[a] == "num":
            link = rng.choice([f"{a} = {b}", f"{a} + {b} <= 2", f"{a} < {b} or 1 = 2"])
        else:
            link = rng.choice([f"{a} = {b}", f"{a} != {b}"])
        plan = f"select {link} from ({plan})"
        features.add("link")
    names = [a for attrs in visible for a in attrs]
    if len(names) > 1 and rng.random() < 0.4:
        plan = f"project {', '.join(rng.sample(names, rng.randint(1, len(names) - 1)))} from ({plan})"
        features.add("aux")
    return "\n".join(texts), f"count of {plan}"


def test_component_count_matches_the_whole_grid_loop():
    rng = random.Random(8)
    features: set = set()
    checked = empty = 0
    while checked < 240:
        schema_text, query_text = _random_product_case(rng, features)
        try:
            vq = validate(parse_query(query_text), parse_schemas(schema_text))
        except (ParseError, SchemaError, ValidationError):  # a check comparing a number with a string
            continue
        for node, schema in [(p, facts.schema) for p, facts in vq.nodes.items()]:
            c = schema.constraint
            want = reference_solution_count(c, schema)
            assert solution_count(c, schema) == want, (schema_text, query_text, node)
            grid = constraints._finite_grid(*constraints._prepared(c, schema), schema, DEFAULT_ENUM_CAP)
            if isinstance(grid, dict) and all(grid.values()):
                size = math.prod(len(values) for values in grid.values())
                assert solution_count(c, schema, size) == want
                assert solution_count(c, schema, size - 1) == "exceeds-cap"
                assert reference_solution_count(c, schema, size - 1) == "exceeds-cap"
            empty += want == 0
            checked += 1
    assert empty > 0
    assert features == {
        "num set", "string set", "pinned real", "attribute-free atom", "aux", "link"
    }


def _one_attribute_conjunct(rng: random.Random, attr: str, values: list, features: set) -> Constraint:
    """A random conjunct over one attribute, drawn from its candidate values,
    or one over no attribute."""
    kind = rng.choice(["in", "not in", "!=", "not", "iff", "no attribute"])
    features.add(kind)
    pick = [Lit(v if isinstance(v, str) else Fraction(v)) for v in values]
    some = frozenset(lit.value for lit in rng.sample(pick, rng.randint(1, len(pick))))
    a = Attr(attr)
    if kind in ("in", "not in"):
        return InSet(a, some, negated=kind == "not in")
    if kind == "!=":
        return Cmp("!=", a, rng.choice(pick))
    ordered = "<=" if not isinstance(values[0], str) else "="
    if kind == "not":
        return Not(Cmp(rng.choice([ordered, "="]), a, rng.choice(pick)))
    if kind == "iff":
        return Iff(Cmp(ordered, a, rng.choice(pick)), Cmp("=", a, rng.choice(pick)))
    return Cmp(rng.choice(["<=", "="]), Lit(Fraction(rng.randint(0, 2))), Lit(Fraction(1)))


def test_solutions_match_the_whole_grid_loop():
    """iter_solutions yields what the whole-grid loop yields, in its order (the
    oracle's tuple order, and so its printed witness), solution_count is its
    length, and attribute_bounds its exact range on grids within the budget."""
    rng = random.Random(17)
    features: set = set()
    checked = ranged = 0
    while checked < 400:
        schema_text, query_text = _random_product_case(rng, features)
        try:
            schemas = parse_schemas(schema_text)
            tq = parse_query(query_text)
            vq = validate(tq, schemas)
            if rng.random() < 0.4:
                by = rng.choice(vq.nodes[tq.body].schema.attr_names())
                # the count column is a real from 0 up, so the pin makes its grid finite
                grouped = f"group {by} agg count from ({query_text[len('count of '):]})"
                vq = validate(parse_query(f"count of select count in {{1, 2}} from ({grouped})"), schemas)
        except (ParseError, SchemaError, ValidationError):  # a check comparing a number with a string
            continue
        for schema in [facts.schema for facts in vq.nodes.values()]:
            grid = constraints._finite_grid(*constraints._prepared(schema.constraint, schema), schema, DEFAULT_ENUM_CAP)
            if isinstance(grid, str) or not all(grid.values()):
                continue
            if schema.name == "group-aggregate" and schema.aux:
                features.add("aux from grouping")
            extra = [
                _one_attribute_conjunct(rng, a, grid[a], features)
                for a in rng.sample(list(grid), rng.randint(0, len(grid)))
            ]
            numeric = [a for a, values in grid.items() if not isinstance(values[0], str)]
            if numeric and rng.random() < 0.1:
                # 'not in' leaves the box as it is, so the grid keeps the values
                a = rng.choice(numeric)
                extra.append(InSet(Attr(a), frozenset(map(Fraction, grid[a])), negated=True))
                features.add("emptied list")
            c = make_and([schema.constraint, *extra])
            grid = constraints._finite_grid(*constraints._prepared(c, schema), schema, DEFAULT_ENUM_CAP)
            ok = isinstance(grid, dict) and all(grid.values())
            want = list(reference_solutions(c, grid, schema.attr_names())) if ok else []
            assert list(iter_solutions(c, schema)) == want, (schema_text, query_text, c)
            assert solution_count(c, schema) == len(want)
            if ok and math.prod(map(len, grid.values())) <= EXACT_GRID_BUDGET:
                for i, (a, dom) in enumerate(schema.attributes):
                    if dom.is_numeric:
                        column = [t[i] for t in want]
                        exact = Bounds(Fraction(min(column)), Fraction(max(column))) if column else Bounds.make_empty()
                        assert attribute_bounds(c, schema, a) == exact, (schema_text, query_text, c, a)
                        ranged += 1
            checked += 1
    assert ranged > 0
    assert features >= {
        "in", "not in", "!=", "not", "iff", "no attribute", "attribute-free atom", "aux",
        "aux from grouping", "num set", "string set", "pinned real", "emptied list",
    }


def test_a_schemas_shared_box_gives_what_a_fresh_copy_gives():
    """A schema's own constraint is normalized and boxed once, and that box
    is shared by every diameter and range taken from it. At every node the
    shared path must give what a structurally equal copy of the constraint
    (`rename_attrs(c, {})`, prepared afresh on each call) gives, whichever
    is called first and on a second round. The diameter is also counted
    under a cap equal to the grid's size, so a widened shared box, whose
    grid is larger, would read past the cap."""
    rng = random.Random(29)
    checked = 0
    while checked < 150:
        schema_text, query_text = _random_product_case(rng, set())
        try:
            vq = validate(parse_query(query_text), parse_schemas(schema_text))
        except (ParseError, SchemaError, ValidationError):  # a check comparing a number with a string
            continue
        for node in vq.nodes.values():
            built = node.schema
            copy = rename_attrs(built.constraint, {})
            assert copy == built.constraint and copy is not built.constraint
            grid = constraints._finite_grid(*constraints._prepared(copy, built), built, DEFAULT_ENUM_CAP)
            ok = isinstance(grid, dict) and all(grid.values())
            caps = [DEFAULT_ENUM_CAP] + ([math.prod(map(len, grid.values()))] if ok else [])
            calls = [lambda c, s, cap=cap: diameter(c, s, cap) for cap in caps] + [
                lambda c, s, a=a, e=e, d=d: attribute_bounds(c, s, a, enum_cap=e, dnf_cap=d)
                for a, dom in built.attributes if dom.is_numeric
                for e, d in [(DEFAULT_ENUM_CAP, 64), (1, 64), (1, 1)]
            ]
            want = [call(copy, built) for call in calls]
            for order in (calls, calls[::-1]):
                # a new schema object, so nothing is prepared before the first call
                schema = ConstrainedSchema(built.name, built.attributes, built.constraint, built.aux)
                for _ in range(2):
                    got = [call(schema.constraint, schema) for call in order]
                    assert got == (want if order is calls else want[::-1]), (schema_text, query_text)
            checked += 1


def test_each_atom_derives_its_linear_form_once(monkeypatch):
    """Narrowing applies an atom on every pass of every `narrow` call, and
    the atom derives its linear form the first time only; a difference
    negates its right side once, in the node's one NNF."""
    schemas = parse_schemas(
        'relation R { a: int [-6, 50]; b: num in {-1, 2, 9, 11, 19, 26}; '
        'c: string in {"amber", "teal", "red", "green"}; d: int [0, 9999] } '
        'check { a >= b or c = "amber" }'
    )
    tq = parse_query('avg(b) of (select a <= 33 from R) minus (select c in {"green"} or a >= 19 from R)')
    derived: dict[int, list] = {}
    applied: dict[int, int] = {}

    def counting(derive):
        def wrapper(atom):
            derived.setdefault(id(atom), [atom, 0])[1] += 1  # the list keeps the atom, so ids stay unique
            return derive(atom)

        return wrapper

    apply_atom = constraints._apply_atom

    def counting_apply(box, atom):
        applied[id(atom)] = applied.get(id(atom), 0) + 1
        return apply_atom(box, atom)

    monkeypatch.setattr(constraints, "_cmp_linear", counting(constraints._cmp_linear))
    monkeypatch.setattr(InSet.__dict__["_linear"], "func", counting(InSet.__dict__["_linear"].func))
    monkeypatch.setattr(constraints, "_apply_atom", counting_apply)
    validate(tq, schemas)
    counts = [count for _, count in derived.values()]
    assert counts and max(counts) == 1
    kinds = {type(atom) for atom, _ in derived.values()}
    assert kinds == {Cmp, InSet}
    # atoms are applied many times over, but each derived its form once
    assert max(applied[i] for i in derived if i in applied) > 1
    assert sum(applied.values()) > 3 * len(derived)


def test_product_diameter_counts_each_operand_alone(monkeypatch):
    schemas = parse_schemas("relation A { a: int [0, 999] }\nrelation B { c: int [0, 999] }")
    compile_ = constraints._compile
    depth = runs = 0

    def counting(c, index):
        # counts the runs of each outermost compiled test, not of its parts
        nonlocal depth
        depth += 1
        try:
            test = compile_(c, index)
        finally:
            depth -= 1
        if depth:
            return test

        def run(values):
            nonlocal runs
            runs += 1
            return test(values)

        return run

    monkeypatch.setattr(constraints, "_compile", counting)
    # validation counts every node's diameter, so it runs under the counter
    report = global_sensitivity(validate(parse_query("count of A product B"), schemas))
    assert [r.diam for r in report.nodes] == [1000, 1000, 1_000_000]
    assert report.gs == 1_000_000
    # both operands' grids once for their own nodes and once for the product:
    # the whole product grid is 10^6 points
    assert runs <= 4_000
