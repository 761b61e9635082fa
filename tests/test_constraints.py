"""Constraint language: solving, bounds, diameters, satisfiability."""

import collections
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
    Or,
    attribute_bounds,
    compile_constraint,
    constraint_attrs,
    diameter,
    format_constraint,
    initial_constraint,
    iter_solutions,
    make_and,
    make_or,
    narrow,
    normalize,
    rename_attrs,
    solution_count,
)
from raqdp.errors import ParseError, SchemaError, ValidationError
from raqdp.extmath import INF, NEG_INF
from raqdp.parsing import parse_constraint, parse_query, parse_schemas
from raqdp.query import validate

from helpers import (
    holds,
    multi_relation_case,
    random_case,
    reference_compile,
    reference_format_constraint,
    reference_narrow,
    reference_solution_count,
    reference_solutions,
)


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


def test_a_domain_holds_the_fractions_it_is_built_from():
    lo, hi, half, three = Fraction(0), Fraction(9), Fraction(1, 2), Fraction(3)
    d = Domain.int_range(lo, hi)
    assert d.lower is lo and d.upper is hi
    r = Domain.real_range(half, three)
    assert r.lower is half and r.upper is three
    n = Domain.num_set([three, half])
    assert n.members[0] is half and n.members[1] is three
    # numbers of any other type are still made Fractions
    assert [type(x) for x in (*Domain.int_range(0, 9).interval(), *Domain.num_set([1]).members)] == [Fraction] * 3
    parsed = parse_schemas("relation R { a: int [0, 9]; m: num in {1/2, 3} }")["R"]
    assert all(x.__class__ is Fraction for x in (*parsed.domain("a").interval(), *parsed.domain("m").members))


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


# ---------------------------------------------------------------------------
# Generated tests against the closure compiler they replaced


def _outcome(test, point):
    """A test's value on a point, or the class and arguments of what it raised."""
    try:
        return test(point)
    except Exception as e:  # compared, not handled
        return type(e), e.args


@st.composite
def term_texts(draw, depth=3):
    """Random arithmetic over a and b, parenthesized at random."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(["a", "b", "2", "1/2", "3"]))
    left, right = draw(term_texts(depth - 1)), draw(term_texts(depth - 1))
    op = draw(st.sampled_from(["+", "-", "*"]))
    wrap = draw(st.sampled_from(["{}", "({})"]))
    return f"{wrap.format(left)} {op} {wrap.format(right)}"


@st.composite
def atom_constraint_texts(draw):
    """Boolean combinations that also hold comparisons of random terms."""
    atoms = [draw(constraint_texts())]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        op = draw(st.sampled_from(["<=", ">=", "<", ">", "=", "!="]))
        atoms.append(f"{draw(term_texts())} {op} {draw(term_texts())}")
    atoms.append(f"{draw(term_texts())} in {{0, 1/2, 2}}")
    joins = [draw(st.sampled_from([" and ", " or ", " iff "])) for _ in atoms[1:]]
    return "(" + atoms[0] + ")" + "".join(f"{j}({a})" for j, a in zip(joins, atoms[1:]))


@given(
    st.one_of(constraint_texts(), atom_constraint_texts()),
    st.sampled_from([("a", "b"), ("b", "a"), ("a",), ("b",), ()]),
)
@settings(max_examples=300, deadline=None)
def test_generated_tests_match_the_closure_compiler(text, names):
    # the same truth values, and the same exceptions: KeyError for an
    # attribute missing from the layout only when the test reaches it
    c = parse_constraint(text)
    points = list(itertools.product([0, Fraction(1, 2), 2, 3], repeat=len(names)))
    for form in (c, normalize(c)):
        got, want = compile_constraint(form, names), reference_compile(form, names)
        assert [_outcome(got, p) for p in points] == [_outcome(want, p) for p in points]


def test_generated_tests_and_solutions_match_the_closure_compiler_on_random_grids():
    rng = random.Random(2212)
    for case in range(60):
        tq, schemas, _ = random_case(rng, max_solutions=8, depth=3)
        vq = validate(tq, schemas)
        for node, facts in vq.nodes.items():
            schema = facts.schema
            c = schema.constraint
            grid = constraints._finite_grid(*constraints._prepared(c, schema), schema, 64)
            if isinstance(grid, str):
                continue
            names = tuple(grid)
            points = list(itertools.product(*grid.values()))
            # the node's constraint, and a restriction's predicate over its grid
            for form in [c, getattr(node, "predicate", c)]:
                got, want = compile_constraint(form, names), reference_compile(form, names)
                outcomes = [_outcome(got, p) for p in points]
                assert outcomes == [_outcome(want, p) for p in points], (case, node)
            visible = schema.attr_names()
            assert list(iter_solutions(c, schema)) == list(reference_solutions(c, grid, visible))


def test_constraints_of_one_shape_share_one_code_object():
    names = ("a", "b")
    three, seven = (compile_constraint(parse_constraint(f"a <= {k}"), names) for k in (3, 7))
    assert three.__code__ is seven.__code__
    assert (three((3, 0)), three((4, 0)), seven((7, 0)), seven((8, 0))) == (True, False, True, False)
    # each literal is a constant of its own, even when two are equal
    twice = compile_constraint(parse_constraint("a <= 3 and b <= 3"), names)
    other = compile_constraint(parse_constraint("a <= 1 and b <= 2"), names)
    assert twice.__code__ is other.__code__
    # the cache of compiled sources is bounded
    assert constraints._factory.cache_info().maxsize is not None


def test_deep_terms_are_split_into_generated_functions(monkeypatch):
    sources = []
    factory = constraints._factory
    monkeypatch.setattr(constraints, "_factory", lambda source: sources.append(source) or factory(source))
    chain = " + ".join(["a"] * 400)
    deep = "a"
    for _ in range(199):
        deep = f"a - ({deep})"
    tests = [compile_constraint(parse_constraint(t), ("a",)) for t in (f"{chain} <= 2000", f"{deep} <= 0")]
    assert [t((5,)) for t in tests] == [True, True]
    assert [t((6,)) for t in tests] == [False, True]
    # no source nests more than the parser allows; the chain is emitted flat
    assert max(source.count("(") for source in sources) < 100
    assert any("v[0] + v[0] + v[0]" in source for source in sources)


def _exact_ranges(schema, solutions) -> dict:
    """Each numeric attribute's exact range over the solutions."""
    out = {}
    for i, (a, dom) in enumerate(schema.attributes):
        if dom.is_numeric:
            column = [t[i] for t in solutions]
            out[a] = Bounds(Fraction(min(column)), Fraction(max(column))) if column else Bounds.make_empty()
    return out


def _check_against_the_whole_grid_loop(schema):
    """iter_solutions, solution_count and attribute_bounds against the
    whole-grid loop; returns the solutions."""
    c = schema.constraint
    grid = constraints._finite_grid(*constraints._prepared(c, schema), schema, DEFAULT_ENUM_CAP)
    want = list(reference_solutions(c, grid, schema.attr_names()))
    assert list(iter_solutions(c, schema)) == want
    assert solution_count(c, schema) == len(want)
    assert {a: attribute_bounds(c, schema, a) for a in _exact_ranges(schema, want)} == _exact_ranges(schema, want)
    return want


def test_deep_terms_inside_a_walk_match_the_whole_grid_loop():
    # each conjunct holds a term deep enough to be split into generated
    # functions of its own, which the walk calls with the loop variables bound
    # where the conjunct is tested: a's own filter, the loop that binds b, and
    # the loop that binds d
    one, two = "a", "b"
    for i in range(199):
        one = f"a - ({one})"  # 0
        two = f"{'ab'[i % 2]} - ({two})"  # 100 * (a - b)
    chain = " + ".join(["a", "b", "d", "b"] * 100)
    check = f"{one} + a != 1 and {two} != 0 and {chain} <= 900"
    schema = parse_schemas(f"relation R {{ a: int [0, 3]; b: int [0, 3]; d: int [0, 4] }} check {{ {check} }}")["R"]
    want = _check_against_the_whole_grid_loop(schema)
    assert want == [
        (a, b, d)
        for a, b, d in itertools.product(range(4), range(4), range(5))
        if a != 1 and a != b and 100 * a + 200 * b + 100 * d <= 900
    ]


def test_a_walk_over_more_attributes_than_python_nests_loops():
    # a walk over 24 attributes, each linked to the next two: one nested for
    # statement per attribute would pass the 20 blocks Python compiles
    decls = "; ".join(f"a{i}: int [0, {i % 2}]" for i in range(24))
    chain = " and ".join(f"a{i} <= a{i + 1} + a{i + 2}" for i in range(22))
    schema = parse_schemas(f"relation R {{ {decls} }} check {{ {chain} and a0 + a23 >= 1 }}")["R"]
    assert len(_check_against_the_whole_grid_loop(schema)) > 1


def test_a_walk_is_built_once(monkeypatch):
    # single-attribute conjuncts filter inside the one generated walk, rather
    # than each in a function of its own
    schema = parse_schemas(
        "relation R { a: int [0, 3]; b: int [0, 3]; d: int [0, 4]; e: int [0, 2] }"
        " check { a <= b and a != 1 and b >= 1 and d != 2 }"
    )["R"]
    c = schema.constraint
    function = constraints.Codegen.function
    builds = 0

    def counting(gen, body):
        nonlocal builds
        builds += 1
        return function(gen, body)

    monkeypatch.setattr(constraints.Codegen, "function", counting)
    assert len(list(iter_solutions(c, schema))) == 6 * 4 * 3
    assert builds == 1
    # one walk per attribute-disjoint group that a conjunct tests, {a, b} and
    # {d}; {e}, which no conjunct tests, is itertools.product and no walk
    assert solution_count(c, schema) == 6 * 4 * 3
    assert builds == 1 + 2
    assert attribute_bounds(c, schema, "a") == Bounds(Fraction(0), Fraction(3))
    assert builds == 1 + 2 + 1


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
        assert solutions == "infinite"
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


def _narrowed_walk(c: Constraint, schema: ConstrainedSchema, cap: int) -> list | str:
    """The visible solutions, in order, of the grid narrowed to the
    constraint's structural box (`_finite_grid` over `_prepared`), or the
    reason it does not fit the cap: what every solver function walked
    before small grids were taken straight from their domains."""
    grid = constraints._finite_grid(*constraints._prepared(c, schema), schema, cap)
    if isinstance(grid, str):
        return grid
    return list(constraints._solutions(constraints._conjuncts(c), grid, schema.attr_names()))


def _assert_walks_agree(c: Constraint, schema: ConstrainedSchema, cap: int) -> bool:
    """iter_solutions, solution_count and attribute_bounds under `cap` give
    what the narrowed grid gives; True when the ranges were exact."""
    want = _narrowed_walk(c, schema, cap)
    got = iter_solutions(c, schema, cap)
    assert (got if isinstance(got, str) else list(got)) == want
    assert solution_count(c, schema, cap) == (want if isinstance(want, str) else len(want))
    exact = _narrowed_walk(c, schema, min(cap, EXACT_GRID_BUDGET))
    if isinstance(exact, str):
        return False
    for i, (a, dom) in enumerate(schema.attributes):
        if dom.is_numeric:
            column = [t[i] for t in exact]
            bounds = Bounds(Fraction(min(column)), Fraction(max(column))) if column else Bounds.make_empty()
            assert attribute_bounds(c, schema, a, enum_cap=cap) == bounds
    return True


def test_small_grids_walked_from_their_domains_give_what_the_narrowed_grid_gives():
    """A grid of at most EXACT_GRID_BUDGET points is walked straight from its
    domains, and only a bigger one is narrowed first. Narrowing drops only
    values that lie in no solution, so over the schemas of random cases and
    every node schema of their plans, for the schema's own constraint and an
    equal copy, each solver function gives what the narrowed grid gives:
    under the default cap, under a cap below the domains' grid but not
    below the narrowed grid, which must not read as past the cap, and under
    one just below the narrowed grid, which must."""
    rng = random.Random(31)
    pruned = capped = ranged = 0
    for draw in range(80):
        tq, schemas, _ = (random_case if draw % 2 else multi_relation_case)(rng)
        vq = validate(tq, schemas)
        for schema in [*schemas.values(), *(facts.schema for facts in vq.nodes.values())]:
            domains = constraints._domain_grid(schema, DEFAULT_ENUM_CAP)
            for c in (schema.constraint, rename_attrs(schema.constraint, {})):
                caps = [DEFAULT_ENUM_CAP]
                grid = constraints._finite_grid(*constraints._prepared(c, schema), schema, DEFAULT_ENUM_CAP)
                if domains is not None and isinstance(grid, dict):
                    size = math.prod(map(len, grid.values()))
                    whole = math.prod(map(len, domains.values()))
                    pruned += size < whole <= EXACT_GRID_BUDGET
                    if 0 < size < whole:
                        caps += [rng.randint(size, whole - 1), size - 1]
                        capped += 1
                for cap in caps:
                    ranged += _assert_walks_agree(c, schema, cap)
    assert min(pruned, capped, ranged) > 50


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
    walk = constraints._solutions
    runs = 0

    def counting(c, grid, visible):
        # counts the unfiltered grid points each walk is given
        nonlocal runs
        runs += math.prod(map(len, grid.values()))
        return walk(c, grid, visible)

    monkeypatch.setattr(constraints, "_solutions", counting)
    # validation counts every node's diameter, so it runs under the counter
    report = global_sensitivity(validate(parse_query("count of A product B"), schemas))
    assert [r.diam for r in report.nodes] == [1000, 1000, 1_000_000]
    assert report.gs == 1_000_000
    # both operands' grids once for their own nodes and once for the product:
    # the whole product grid is 10^6 points
    assert runs <= 4_000


def test_a_count_derives_each_conjuncts_attributes_once(monkeypatch):
    schema = parse_schemas("relation R { a0: num in {1, 3/2, 4, 7} } check { a0 <= 4 }")["R"]
    derive = constraints.constraint_attrs
    calls = 0

    def counting(c):
        nonlocal calls
        calls += 1
        return derive(c)

    monkeypatch.setattr(constraints, "constraint_attrs", counting)
    # the grouping (`_components`) derives them, and the walk reuses them
    assert {solution_count(schema.constraint, schema) for _ in range(20_000)} == {3}
    assert calls == 20_000


# ---------------------------------------------------------------------------
# Narrowing and rendering against the code their shortcuts replaced


def _box_state(box):
    """What a narrowing box holds, each number with its class; None for no box."""
    if box is None:
        return None
    nums = {a: [(type(x), x) for x in st] for a, st in box.nums.items()}
    return nums, box.strs, box.moved


_REALS = ((NEG_INF, INF), (0, INF), (NEG_INF, 3), (-2, Fraction(5, 2)))


def _narrowing_schema(rng: random.Random) -> ConstrainedSchema:
    """One to three attributes, each an int range, a num set, a string set
    or a real range open at one end, both or neither."""
    attrs = []
    for i in range(rng.randint(1, 3)):
        kind = rng.choice(["int", "num", "str", "real"])
        if kind == "int":
            lo = rng.randint(-5, 5)
            dom = Domain.int_range(lo, lo + rng.randint(0, 12))
        elif kind == "num":
            dom = Domain.num_set(rng.sample([-3, Fraction(-1, 2), 0, 1, Fraction(5, 3), 2, 4, 7], rng.randint(1, 5)))
        elif kind == "str":
            dom = Domain.str_set(rng.sample(["p", "q", "r", "s"], rng.randint(1, 4)))
        else:
            dom = Domain.real_range(*rng.choice(_REALS))
        attrs.append((f"x{i}", dom))
    return ConstrainedSchema("R", tuple(attrs))


def _narrowing_atom(rng: random.Random, schema: ConstrainedSchema):
    """A well-typed atom: a string membership or (in)equality, or a linear
    comparison or membership over one to three numeric attributes, now and
    then nonlinear."""
    nums = [a for a, d in schema.attributes if d.is_numeric]
    strs = [a for a, d in schema.attributes if not d.is_numeric]
    if strs and (not nums or rng.random() < 0.3):
        a = rng.choice(strs)
        values = rng.sample(["p", "q", "r", "s", "t"], rng.randint(1, 3))
        form = rng.randrange(3)
        if form == 0:
            return InSet(Attr(a), frozenset(values), negated=rng.random() < 0.4)
        right = Lit(values[0]) if form == 1 else Attr(rng.choice(strs))
        return Cmp(rng.choice(["=", "!="]), Attr(a), right)
    if rng.random() < 0.05:
        return Cmp("<=", Arith("*", Attr(rng.choice(nums)), Attr(rng.choice(nums))), Lit(Fraction(3)))
    term = None
    for a in rng.sample(nums, rng.randint(1, min(3, len(nums)))):
        c = rng.choice([1, 1, -1, 2, -3, Fraction(1, 2)])
        part = Attr(a) if c == 1 else Arith("*", Lit(Fraction(c)), Attr(a))
        term = part if term is None else Arith(rng.choice("+-"), term, part)
    if rng.random() < 0.2:
        values = {Fraction(rng.randint(-4, 8), rng.choice([1, 2])) for _ in range(rng.randint(1, 4))}
        return InSet(term, frozenset(values))
    right = Lit(Fraction(rng.randint(-6, 10), rng.choice([1, 1, 3])))
    if rng.random() < 0.3:
        right = Arith("+", Attr(rng.choice(nums)), right)
    return Cmp(rng.choice(["<=", "<", ">=", ">", "=", "!="]), term, right)


def _narrowing_seeds(rng: random.Random, schema: ConstrainedSchema) -> list:
    """No seed; the domains' box with one end moved to an open fraction,
    which `moved` records and the first rounding must tighten; the
    structural box of a random disjunction (`_struct_box`); and that box
    intersected into the domains' box, as `_struct_box` seeds a conjunction."""
    seeds = [None]
    nums = [a for a, d in schema.attributes if d.is_numeric]
    if nums:
        moved = schema._box.copy()
        end = Fraction(rng.randint(-8, 16), 3)
        (moved.tighten_upper if rng.random() < 0.5 else moved.tighten_lower)(rng.choice(nums), end, rng.random() < 0.5)
        seeds.append(moved)
    branches = [make_and([_narrowing_atom(rng, schema) for _ in range(rng.randint(1, 3))]) for _ in range(2)]
    sub = constraints._struct_box(normalize(make_or(branches)), schema)
    if sub is None:
        return seeds
    mixed = schema._box.copy()
    mixed.intersect(sub)
    return seeds + [sub] + ([] if mixed.is_empty() else [mixed])


def test_narrow_matches_the_reference():
    """`narrow` gives the box, or None, that it gave before its shortcuts
    (`reference_narrow`), from the domains' box and from `_struct_box` seeds."""
    rng = random.Random(3217)
    outcomes = collections.Counter()
    kinds = collections.Counter()
    for _ in range(1500):
        schema = _narrowing_schema(rng)
        atoms = [_narrowing_atom(rng, schema) for _ in range(rng.randint(0, 5))]
        for seed in _narrowing_seeds(rng, schema):
            got = narrow(atoms, schema, seed)
            assert _box_state(got) == _box_state(reference_narrow(atoms, schema, seed)), (schema, atoms)
            outcomes["empty" if got is None else "seeded" if seed is not None else "box"] += 1
        kinds.update(dom.kind for _, dom in schema.attributes)
        kinds.update(a.op if isinstance(a, Cmp) else "in" for a in atoms)
        kinds.update(len(a._linear[0]) for a in atoms if isinstance(a, Cmp) and a._linear is not None)
    assert min(outcomes.values()) > 200, outcomes
    assert min(kinds.values()) > 100, kinds


def test_narrow_stops_at_the_pass_cap_as_the_reference_does():
    # each pass moves every end by one, so 32 passes end short of proving the box empty
    schema = ConstrainedSchema("R", (ints("x", 0, 1000), ints("y", 0, 1000)))
    atoms = [parse_constraint("x >= y + 1"), parse_constraint("y >= x")]
    box = narrow(atoms, schema)
    assert _box_state(box) == _box_state(reference_narrow(atoms, schema))
    assert box.nums == {"x": [32, 968, False, False], "y": [32, 968, False, False]}
    again = narrow(atoms, schema, box)
    assert _box_state(again) == _box_state(reference_narrow(atoms, schema, box))
    assert again.nums["x"] == [64, 936, False, False]


def _constraint_nodes(c):
    """Every node of a constraint, parents before their children."""
    stack = [c]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (And, Or)):
            stack.extend(reversed(node.items))
        elif isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, Iff):
            stack += [node.right, node.left]


def test_format_constraint_matches_the_reference_recursion():
    """Every node of every plan node's constraint, over `random_case` and
    `multi_relation_case` draws and a few nested texts, renders as the
    recursion that kept no text did: parents first, and on a fresh copy
    children first."""
    rng = random.Random(4417)
    found = [parse_constraint(text) for text in (
        "a <= 1 iff not (b = 2 or a in {1, 2})",
        '(a = 1 or b != 2) and not (c in {"x", "y"} iff a < 0)',
        "not (a <= 1 and (b >= 2 or a = b)) or (a > 0 iff b < 1) iff true",
    )]
    for draw in [random_case] * 150 + [multi_relation_case] * 100:
        tq, schemas, _ = draw(rng)
        found += [facts.schema.constraint for facts in validate(tq, schemas).nodes.values()]
    kinds = collections.Counter()
    for c in found:
        for order in (list, lambda nodes: nodes[::-1]):
            for node in order(list(_constraint_nodes(rename_attrs(c, {})))):
                assert format_constraint(node) == reference_format_constraint(node)
                kinds[type(node).__name__] += 1
    assert min(kinds[k] for k in ("Cmp", "InSet", "Not", "And", "Or", "Iff", "BoolConst")) > 0, kinds
    assert kinds["And"] > 200 and kinds["Or"] > 50 and kinds["Not"] > 50, kinds


def test_a_report_renders_each_atom_once(monkeypatch, capsys):
    # each restriction's constraint splices its source's atoms (`make_and`),
    # so the 41 nodes share 45 atoms (four domain bounds, the check and the
    # 40 predicates), and each node joins its atoms' kept texts
    from raqdp.cli import _print_report

    schemas = parse_schemas("relation R { a: int [0, 100]; b: int [0, 100] } check { a <= b }")
    query = "count of " + "".join(f"select a <= b + {i} from " for i in range(40)) + "R"
    report = global_sensitivity(validate(parse_query(query), schemas))
    render = constraints._render
    rendered = []
    monkeypatch.setattr(constraints, "_render", lambda c: rendered.append(c) or render(c))
    for fmt in ("table", "json"):
        _print_report(report, fmt)
    out = capsys.readouterr().out
    # the innermost predicate is in every restriction's constraint, the outermost in the top's
    assert (out.count("a <= b + 39"), out.count("a <= b + 0"), out.count("a <= b")) == (80, 2, 2 * 41 + 2 * 40 * 41 // 2)
    assert len({id(c) for c in rendered}) == len(rendered) == 45 + 41
    assert sum(isinstance(c, Cmp) for c in rendered) == 45


@pytest.mark.parametrize("visible", [("a", "b", "c"), ("a", "c"), ("b",), ()])
def test_a_walk_with_no_conjunct_is_the_product_of_the_visible_lists(visible):
    full = {"a": [1, Fraction(3, 2)], "b": ["x", "y", "z"], "c": [0, 5]}
    want = list(reference_solutions(TRUE, full, visible))
    walk = constraints._solutions([], full, visible)
    assert isinstance(walk, itertools.product) and list(walk) == want
    # an empty list, visible or not, leaves no point
    for a in full:
        emptied = dict(full, **{a: []})
        assert list(constraints._solutions([], emptied, visible)) == [] == list(reference_solutions(TRUE, emptied, visible))
    # an unconstrained schema is walked the same way
    schema = ConstrainedSchema("R", (ints("a", 0, 5), ints("b", 1, 2)))
    assert list(iter_solutions(TRUE, schema)) == list(itertools.product(range(6), range(1, 3)))


def _grid_box(schema: ConstrainedSchema, **ends):
    """The schema's domains' box with some attributes' ends replaced."""
    box = schema._box.copy()
    for a, (lo, hi) in ends.items():
        box.nums[a][:2] = [lo, hi]
    return box


@pytest.mark.parametrize(
    "ends, cap, want",
    [
        pytest.param({}, 4096, "exceeds-cap", id="product-over-cap"),
        pytest.param({"x": (0, 64)}, 4096, "exceeds-cap", id="product-one-over"),
        pytest.param({"x": (0, 3)}, 4096, None, id="within-cap"),
        pytest.param({}, 999, "infinite", id="infinite-wins-over-the-cap"),
        pytest.param({"y": (5, 4)}, 999, "empty", id="empty-after-an-attribute-over-the-cap"),
    ],
)
def test_finite_grid_counts_before_it_lists(ends, cap, want):
    reals = cap == 999
    attrs = (ints("x", 0, 999), ints("y", 0, 63)) + ((("r", Domain.real_range()),) if reals else ())
    schema = ConstrainedSchema("R", attrs)
    grid = constraints._finite_grid(TRUE, _grid_box(schema, **ends), schema, cap)
    if want == "empty":
        assert grid == {a: [] for a in schema.all_domains()}
    elif want is None:
        assert grid == {"x": [0, 1, 2, 3], "y": list(range(64))}
    else:
        assert grid == want
