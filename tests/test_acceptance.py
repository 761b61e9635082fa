"""Acceptance checks for the whole package.

Each test prints one verdict line (written to the real stdout so it shows up
even under capture) and pins its tolerances inline.
"""

import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import scipy.stats

from helpers import (
    K_SCHEMA_TEXT,
    laplace_cdf,
    random_atom,
    random_case,
    random_plan,
    schema_of,
)
from raqdp.analyzer import global_sensitivity
from raqdp.constraints import ConstrainedSchema, make_and
from raqdp.dp import DpParams, laplace_samples, make_rng, sample_answers
from raqdp.engine import Relation, eval_plan
from raqdp.errors import ValidationError
from raqdp.extmath import INF
from raqdp.oracle import brute_lipschitz, brute_sensitivity, build_universe
from raqdp.parsing import format_plan, parse_query
from raqdp.query import AggFn, TopQuery, operator_delta, validate


VERDICTS: list[str] = []  # re-printed after the run by the conftest summary


def _verdict(number: int, word: str, label: str) -> None:
    line = f"acceptance {number} {word}: {label}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        _verdict(number, "FAIL", label)
        raise
    _verdict(number, "PASS", label)


# ---------------------------------------------------------------------------
# 1. Worked example: exact rational sensitivities, under a second


def test_worked_example_sensitivities():
    with criterion(1, "worked example yields 75 unrestricted, 50 restricted"):
        t0 = time.perf_counter()
        schemas = schema_of(
            "relation People { Weight: int [0, 150]; Height: int [0, 200] }"
        )
        plain = parse_query("avg(Weight) of People")
        restricted = parse_query(
            "avg(Weight) of select Weight <= Height - 100 from People"
        )
        assert global_sensitivity(validate(plain, schemas)).gs == Fraction(75)
        assert global_sensitivity(validate(restricted, schemas)).gs == Fraction(50)
        assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. Per-operator amplification constants, exact


def test_operator_factor_table():
    with criterion(2, "operator amplification constants match"):
        assert operator_delta("union") == Fraction(2)
        assert operator_delta("intersection") == Fraction(2)
        assert operator_delta("difference") == Fraction(2)
        assert operator_delta("restriction") == Fraction(1)
        assert operator_delta("projection") == Fraction(1)
        assert operator_delta("product-one") == Fraction(1)
        for n in (1, 2, 5):
            assert operator_delta("product-n", n) == Fraction(n)
        assert operator_delta("product") == INF


# ---------------------------------------------------------------------------
# 3. Reference tables, exact set equality


def _rows(schemas, name, rows):
    conv = [
        tuple(v if isinstance(v, str) else Fraction(v) for v in row) for row in rows
    ]
    return Relation.from_rows(schemas[name], conv)


def _table(query_text, schemas, db):
    tq = parse_query(query_text)
    return eval_plan(tq.body, db, validate(tq, schemas)).tuples


def test_reference_tables():
    with criterion(3, "restriction/projection/join/grouping tables are exact"):
        people = schema_of(
            'relation People {\n'
            '  Name: string in {"John", "Tim", "Alice", "Natalie"};\n'
            '  Age: int [0, 120];\n'
            '  Height: int [0, 220]\n'
            '}'
        )
        db = {
            "People": _rows(
                people,
                "People",
                [("John", 30, 180), ("Tim", 10, 100), ("Alice", 45, 160),
                 ("Natalie", 20, 175)],
            )
        }
        got = _table(
            "count of select Age >= 20 and Height < 180 from People", people, db
        )
        assert got == {("Alice", Fraction(45), Fraction(160)),
                       ("Natalie", Fraction(20), Fraction(175))}

        owners = schema_of(
            'relation Owners {\n'
            '  Name: string in {"John", "Alice"};\n'
            '  Age: int [0, 120];\n'
            '  Car: string in {"Ford", "Renault", "Fiat"}\n'
            '}'
        )
        db = {
            "Owners": _rows(
                owners,
                "Owners",
                [("John", 30, "Ford"), ("John", 30, "Renault"),
                 ("Alice", 45, "Fiat")],
            )
        }
        got = _table("count of project Name, Age from Owners", owners, db)
        assert got == {("John", Fraction(30)), ("Alice", Fraction(45))}

        pair = schema_of(
            "relation R { a: int [0, 5]; u: int [0, 9] }\n"
            "relation T { b: int [0, 5]; w: int [0, 9] }"
        )
        db = {
            "R": _rows(pair, "R", [(1, 7), (2, 8)]),
            "T": _rows(pair, "T", [(1, 3), (4, 5)]),
        }
        assert len(_table("count of R product T", pair, db)) == 4
        got = _table("count of select a = b from (R product T)", pair, db)
        assert got == {(Fraction(1), Fraction(7), Fraction(1), Fraction(3))}

        drivers = schema_of(
            'relation Drivers {\n'
            '  Name: string in {"John", "Tim", "Alice", "Natalie"};\n'
            '  Height: int [0, 220];\n'
            '  Car: string in {"Ford", "Fiat", "Renault"}\n'
            '}'
        )
        db = {
            "Drivers": _rows(
                drivers,
                "Drivers",
                [("John", 150, "Ford"), ("Tim", 180, "Ford"),
                 ("Alice", 180, "Fiat"), ("Natalie", 165, "Renault")],
            )
        }
        got = _table(
            "max(avg_Height) of group Car agg count, avg(Height) from Drivers",
            drivers,
            db,
        )
        assert got == {("Ford", Fraction(2), Fraction(165)),
                       ("Fiat", Fraction(1), Fraction(180)),
                       ("Renault", Fraction(1), Fraction(165))}


# ---------------------------------------------------------------------------
# 4. Randomized soundness sweep: the brute-force oracle never beats the bound


def test_random_soundness_sweep():
    with criterion(4, "brute-force sensitivity <= static bound on 200 random cases"):
        t0 = time.perf_counter()
        rng = random.Random(20240816)
        for _ in range(200):
            tq, schemas, universe = random_case(rng, max_solutions=10, depth=4)
            vq = validate(tq, schemas)
            report = global_sensitivity(vq)
            brute = brute_sensitivity(vq, universe)
            assert brute.value <= report.gs
        assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 5. Strictness suite: curated cases where the bound is met exactly


_K_ROW = 'relation K { k: int [7, 7] }\n'
_SINGLE = "relation R { a: num in {0, 10} }"
_SINGLE_PM = "relation R { a: num in {-5, 5} }"
_TWO = _SINGLE + "\nrelation T { a: num in {0, 10} }"
_TWO_PM = _SINGLE_PM + "\nrelation T { a: num in {-5, 5} }"
_WIDE = 'relation R { a: num in {0, 10}; b: string in {"u"} }'
_WIDE_PM = 'relation R { a: num in {-5, 5}; b: string in {"u"} }'
_GA_PIN = 'relation R { g: string in {"x"}; a: int [3, 3] }'
_GA_WIDE = 'relation R { g: string in {"x"}; a: num in {0, 10} }'

# (operator label, schema text, query text, expected exact sensitivity)
STRICT_CASES = [
    ("id", _SINGLE, "count of R", 1),
    ("id", _SINGLE_PM, "sum(a) of R", 5),
    ("id", _SINGLE, "max(a) of R", 10),
    ("id", _SINGLE, "min(a) of R", 10),
    ("id", _SINGLE, "avg(a) of R", 5),
    ("restriction", _SINGLE, "count of select a >= 0 from R", 1),
    ("restriction", _SINGLE_PM, "sum(a) of select a >= -5 from R", 5),
    ("restriction", _SINGLE, "max(a) of select a >= 0 from R", 10),
    ("restriction", _SINGLE, "min(a) of select a >= 0 from R", 10),
    ("restriction", _SINGLE, "avg(a) of select a >= 0 from R", 5),
    ("projection", _WIDE, "count of project a from R", 1),
    ("projection", _WIDE_PM, "sum(a) of project a from R", 5),
    ("projection", _WIDE, "max(a) of project a from R", 10),
    ("projection", _WIDE, "min(a) of project a from R", 10),
    ("projection", _WIDE, "avg(a) of project a from R", 5),
    ("union", _TWO, "count of R union T", 2),
    ("union", _TWO_PM, "sum(a) of R union T", 10),
    ("union", _TWO, "max(a) of R union T", 10),
    ("union", _TWO, "min(a) of R union T", 10),
    ("union", _TWO, "avg(a) of R union T", 10),
    ("intersection", _TWO, "count of R intersect T", 2),
    ("intersection", _TWO_PM, "sum(a) of R intersect T", 10),
    ("intersection", _TWO, "max(a) of R intersect T", 10),
    ("intersection", _TWO, "min(a) of R intersect T", 10),
    ("intersection", _TWO, "avg(a) of R intersect T", 10),
    ("difference", _TWO, "count of R minus T", 2),
    ("difference", _TWO_PM, "sum(a) of R minus T", 10),
    ("difference", _TWO, "max(a) of R minus T", 10),
    ("difference", _TWO, "min(a) of R minus T", 10),
    ("difference", _TWO, "avg(a) of R minus T", 10),
    ("product-one", _K_ROW + _SINGLE, "count of K product1 R", 1),
    ("product-one", _K_ROW + _SINGLE_PM, "sum(a) of K product1 R", 5),
    ("product-one", _K_ROW + _SINGLE, "max(a) of K product1 R", 10),
    ("product-one", _K_ROW + _SINGLE, "min(a) of K product1 R", 10),
    ("product-one", _K_ROW + _SINGLE, "avg(a) of K product1 R", 5),
    ("group-aggregate", _GA_PIN, "count of group g agg avg(a) from R", 1),
    ("group-aggregate", _GA_PIN, "sum(avg_a) of group g agg avg(a) from R", 3),
    ("group-aggregate", _GA_WIDE, "max(avg_a) of group g agg avg(a) from R", 10),
    ("group-aggregate", _GA_WIDE, "min(avg_a) of group g agg avg(a) from R", 10),
    ("group-aggregate", _GA_WIDE, "avg(min_a) of group g agg min(a) from R", 10),
]


def test_strictness_suite():
    with criterion(5, "40 curated cases meet the bound exactly, witnesses recorded"):
        seen_ops = set()
        for op, schema_text, query_text, expected in STRICT_CASES:
            schemas = schema_of(schema_text)
            tq = parse_query(query_text)
            vq = validate(tq, schemas)
            report = global_sensitivity(vq)
            context = None
            if "K" in schemas:
                context = {
                    "K": Relation(schemas["K"], frozenset({(Fraction(7),)}))
                }
            universe = build_universe(vq, context)
            brute = brute_sensitivity(vq, universe)
            label = f"{op} / {query_text}"
            assert report.gs == Fraction(expected), label
            assert brute.value == Fraction(expected), label
            assert brute.witness is not None, label
            seen_ops.add(op)
        assert len(STRICT_CASES) >= 20
        assert seen_ops == {
            "id", "restriction", "projection", "union", "intersection",
            "difference", "product-one", "group-aggregate",
        }


# ---------------------------------------------------------------------------
# 6. Diameter cap: a k-solution schema caps every plan's amplification at k


def test_diameter_caps_amplification():
    with criterion(6, "plan amplification stays within the 6-tuple diameter"):
        rng = random.Random(7)
        schemas = schema_of("relation R { a: int [0, 5] }\n" + K_SCHEMA_TEXT)
        context = {"K": Relation(schemas["K"], frozenset({(Fraction(7),)}))}
        checked = 0
        while checked < 30:
            plan = random_plan(rng, schemas["R"], rng.randint(1, 3))
            if "group" in format_plan(plan):
                continue  # grouping output lives outside the base tuple space
            tq = TopQuery(AggFn("count"), plan)
            try:
                memo = validate(tq, schemas)
            except ValidationError:
                continue
            s = memo.nodes[plan].s
            assert s <= 6, format_plan(plan)
            universe = build_universe(memo, context)
            assert brute_lipschitz(plan, universe, memo) <= s, format_plan(plan)
            checked += 1

        # unrestricted product: infinite factor, yet capped by the solution grid
        pair = schema_of(
            "relation R { a: int [0, 5] }\nrelation T { b: int [0, 1] }"
        )
        tq = parse_query("count of R product T")
        memo = validate(tq, pair)
        s = memo.nodes[tq.body].s
        assert s == Fraction(12)  # min(inf, 6 * 2 solutions)
        universe = build_universe(memo)
        assert brute_lipschitz(tq.body, universe, memo) <= s


# ---------------------------------------------------------------------------
# 7. Empirical privacy: histogram ratio test on adjacent databases


def test_empirical_privacy_histogram():
    with criterion(7, "noisy count histograms respect the e^eps ratio, 3-sigma slack"):
        t0 = time.perf_counter()
        eps = math.log(2)
        schemas = schema_of("relation R { a: int [0, 3] }")
        tq = parse_query("count of R")
        db_small = {"R": _rows(schemas, "R", [(0,), (1,)])}
        db_big = {"R": _rows(schemas, "R", [(0,), (1,), (2,)])}

        n = 10**6
        vq = validate(tq, schemas)
        a = np.asarray(sample_answers(vq, db_small, DpParams(Fraction(eps), 101), n))
        b = np.asarray(sample_answers(vq, db_big, DpParams(Fraction(eps), 202), n))

        scale = 1.0 / eps
        lo, hi = 2 - 5 * scale, 3 + 5 * scale
        edges = np.linspace(lo, hi, 21)  # 20 bins; tails clipped into end bins
        count_a, _ = np.histogram(np.clip(a, lo, hi), bins=edges)
        count_b, _ = np.histogram(np.clip(b, lo, hi), bins=edges)

        ratio = math.exp(eps)
        for na, nb in zip(count_a.tolist(), count_b.tolist()):
            slack = 3.0 * (math.sqrt(na + ratio**2 * nb) + 1.0)
            assert na <= ratio * nb + slack
            slack = 3.0 * (math.sqrt(nb + ratio**2 * na) + 1.0)
            assert nb <= ratio * na + slack
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 8. Noise distribution: moments and KS against the analytic CDF


def test_laplace_distribution():
    with criterion(8, "noise mean/variance/KS within pinned tolerances"):
        x = np.asarray(laplace_samples(make_rng(20240816), 1.0, 10**6))
        assert abs(float(x.mean())) < 0.01
        assert abs(float(x.var()) - 2.0) < 0.05
        stat = scipy.stats.kstest(x, lambda t: laplace_cdf(t, 1.0))
        assert stat.pvalue > 0.01


# ---------------------------------------------------------------------------
# 9. Monotonicity: a tighter schema constraint never worsens the bound


def test_constraint_monotonicity():
    with criterion(9, "conjoining a satisfiable atom never raises the bound"):
        rng = random.Random(4242)
        for _ in range(100):
            tq, schemas, _ = random_case(rng, max_solutions=6, depth=3)
            base = schemas["R"]
            atom = random_atom(rng, base)
            tightened = ConstrainedSchema(
                base.name,
                base.attributes,
                make_and((base.constraint, atom)),
                base.aux,
            )
            loose = global_sensitivity(validate(tq, schemas)).gs
            tight = global_sensitivity(validate(tq, {**schemas, "R": tightened})).gs
            assert tight <= loose
