"""Seeded inputs for the three benchmark workloads, with their reference checks.

Each generator writes its input files into a work directory and returns the
ordered list of CLI operations to run. Every operation carries a check that
compares what the CLI printed against values this module works out on its
own: plain-Python `Fraction` arithmetic over the generated rows, gs values
derived by hand in the comments below, and repeat-equality for outputs that
must be reproducible. The program under test is never asked what the right
answer is.

The seed changes data values, constants and attribute choices, never the
amount of work: row counts, grid sizes, universe sizes and plan shapes follow
fixed ladders, so that runs with different seeds measure the same workload.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# A check returns (label, observed, expected) triples; an operation is correct
# when every observed value equals its expected value.
Check = Callable[[int, str], list]


@dataclass
class Op:
    argv: list[str]
    check: Check
    units: int = 0  # rows loaded (release), databases enumerated (validate), 1 (analyze)
    heavy: bool = False  # the expensive group of a bimodal mix


@dataclass
class Workload:
    ops: list[Op]  # cycled in order by the timed loop
    round_size: int  # ops per round: each round repeats the mix; the timed loop stops only between rounds
    probes: list[Op] = field(default_factory=list)  # run once, traced run only


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _ext(text) -> Fraction | str:
    """Parse the CLI's exact 'p/q' / 'inf' rendering."""
    if text in ("inf", "-inf"):
        return text
    return Fraction(text)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _quoted(values) -> str:
    return ", ".join(f'"{v}"' for v in values)


# ---------------------------------------------------------------------------
# release: dp-run over a 20,000-row People table and a 50-row Dept table

N_PEOPLE = 20_000
N_DEPT = 50
NAMES = ("Ann", "Bob", "Cy", "Dee")

RELEASE_SCHEMA = """relation People {
  Id: int [0, 99999];
  Name: string in {"Ann", "Bob", "Cy", "Dee"};
  Weight: int [0, 150];
  Height: int [0, 200]
} check { Weight <= Height }
relation Dept { DId: int [0, 99]; Budget: int [0, 1000] }
"""

# (name, query, hand-derived gs)
RELEASE_QUERIES = (
    # Weight <= Height - 100 <= 100, so avg moves by at most (100 - 0) / 2
    ("restrict_avg", "avg(Weight) of select Weight <= Height - 100 from People", 50),
    # avg_Weight lies in [0, 150]: delta_f 75, times the grouping factor 2
    ("group_agg", "avg(avg_Weight) of group Name agg count, avg(Weight) from People", 150),
    # |Weight| <= 150, restriction factor 1
    ("sum_in", 'sum(Weight) of select Name in {"Ann", "Bob"} from People', 150),
    # |Budget| <= 1000, block-product factor 2
    ("productn", "sum(Budget) of (select Weight >= 145 from People) productn 2 Dept", 2000),
    # avg over Weight in [0, 150]: 75, product-agg factor 1
    ("productagg", "avg(Weight) of People productagg max(Budget) Dept", 75),
)


def _release_references(people, dept) -> dict:
    """Exact answer and top-node row count of each query, by plain Python."""
    out = {}
    sel = [w for _, _, w, h in people if w <= h - 100]
    out["restrict_avg"] = (Fraction(sum(sel), len(sel)), len(sel))
    groups: dict[str, list[int]] = {}
    for _, name, w, _ in people:
        groups.setdefault(name, []).append(w)
    avgs = [Fraction(sum(ws), len(ws)) for ws in groups.values()]
    out["group_agg"] = (sum(avgs, Fraction(0)) / len(avgs), len(avgs))
    sel = [w for _, name, w, _ in people if name in ("Ann", "Bob")]
    out["sum_in"] = (Fraction(sum(sel)), len(sel))
    left = sum(1 for _, _, w, _ in people if w >= 145)
    block = sorted(dept)[:2]
    out["productn"] = (Fraction(left * sum(b for _, b in block)), left * len(block))
    out["productagg"] = (Fraction(sum(w for _, _, w, _ in people), len(people)), len(people))
    return out


def build_release(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"release:{seed}")
    people = []
    for i in range(N_PEOPLE):
        height = rng.randint(0, 200)
        people.append((i, rng.choice(NAMES), rng.randint(0, min(150, height)), height))
    dept = list(zip(rng.sample(range(100), N_DEPT), (rng.randint(0, 1000) for _ in range(N_DEPT))))
    people_csv = _write(
        os.path.join(workdir, "people.csv"),
        "Id,Name,Weight,Height\n" + "".join(f"{i},{n},{w},{h}\n" for i, n, w, h in people),
    )
    dept_csv = _write(
        os.path.join(workdir, "dept.csv"),
        "DId,Budget\n" + "".join(f"{d},{b}\n" for d, b in dept),
    )
    schema = _write(os.path.join(workdir, "release.schema"), RELEASE_SCHEMA)
    data = ["--data", f"People={people_csv}", "--data", f"Dept={dept_csv}"]
    rows = N_PEOPLE + N_DEPT
    refs = _release_references(people, dept)
    repeats: dict = {}  # key -> first output: what every repeat must print
    ops, probes = [], []
    for name, text, gs in RELEASE_QUERIES:
        qfile = _write(os.path.join(workdir, f"{name}.raq"), text + "\n")
        dp_seed = rng.getrandbits(63)
        ops.append(Op(
            ["dp-run", schema, qfile, *data, "--epsilon", "1/2", "--seed", str(dp_seed),
             "--format", "json"],
            _dp_run_check(name, gs, dp_seed, repeats),
            units=rows,
        ))
        probes.append(Op(
            ["run", schema, qfile, *data, "--trace", "--format", "json"],
            _run_check(*refs[name]),
            units=rows,
        ))
    return Workload(ops, len(ops), probes)


def _dp_run_check(name: str, gs: int, dp_seed: int, repeats: dict) -> Check:
    def check(rc: int, out: str) -> list:
        got = _json(out) if rc == 0 else None
        if got is None:
            return [("exit code", rc, 0), ("json", None, "release record")]
        return [
            ("exit code", rc, 0),
            ("gs_used", got.get("gs_used"), float(gs)),
            ("epsilon", got.get("epsilon"), 0.5),
            ("seed", got.get("seed"), dp_seed),
            ("withheld", got.get("true_value_withheld"), True),
            ("same release on repeat", got.get("noisy_value"),
             repeats.setdefault(name, got.get("noisy_value"))),
        ]

    return check


def _run_check(value: Fraction, top_rows: int) -> Check:
    def check(rc: int, out: str) -> list:
        got = _json(out) if rc == 0 else None
        if got is None or not got.get("trace"):
            return [("exit code", rc, 0), ("json", None, "answer with trace")]
        return [
            ("exit code", rc, 0),
            ("answer", _ext(got.get("answer")), value),
            ("top node rows", got["trace"][-1].get("rows"), top_rows),
        ]

    return check


def trace_rows(out: str) -> int:
    """Rows reported by a `run --trace --format json` output, summed over nodes."""
    got = _json(out) or {}
    return sum(step.get("rows", 0) for step in got.get("trace", ()))


# ---------------------------------------------------------------------------
# analyze: a few hundred queries, three light ones to one heavy product

# A round: the three named queries, each light template twice and the six
# heavy products, 25 queries. Over whole rounds the median call falls inside
# the block of one light template (the sixth cheapest of eleven) and the p90
# call inside the heavy products of size 30, not on a step between two costs.
ANALYZE_ROUND = 25
ANALYZE_QUERIES = 8 * ANALYZE_ROUND

WORKED_SCHEMA = "relation People { Weight: int [0, 150]; Height: int [0, 200] }\n"
# 10^6 grid points; the analyzer may only ever prove bounds on it by narrowing
GRID_SCHEMA = "relation Grid { x: int [0, 999]; y: int [0, 999] } check { x <= y }\n"

# B's size m and the aggregate of the heavy products, one pair per heavy slot
# of a round: A has 1,000 grid points, so the product grid has 1,000 * m
# points, 10^4 to 5 * 10^4. Half the sizes are 30: the p90 latency falls at
# about the 50th percentile of the heavy group, inside that plateau rather
# than on a step between two sizes. The seed picks B's offset, not the size
# or the aggregate, so every round and every seed does the same work.
PRODUCTS = ((10, "count"), (30, "sum(c)"), (20, "avg(a)"), (30, "max(b)"), (50, "min(c)"),
            (30, "avg(a)"))

# A: a in [0, 99], b in [0, 9], a >= b, so |A| = sum over b of (100 - b) = 955
A_SOLUTIONS = 955


def _product_case(rng: random.Random, m: int, fn: str):
    """One heavy query: `fn of A product B`, with its hand-derived gs."""
    lo = rng.randint(-20, 20)
    schema = (
        "relation A { a: int [0, 99]; b: int [0, 9] } check { a >= b }\n"
        f"relation B {{ c: int [{lo}, {lo + m - 1}] }}\n"
    )
    # An unrestricted product has an infinite factor, so the product node's
    # diameter 955 * m is its tuple-level sensitivity.
    diam = A_SOLUTIONS * m
    gs = {
        "count": Fraction(diam),
        "sum(c)": max(abs(lo), abs(lo + m - 1)) * Fraction(diam),
        "avg(a)": Fraction(99, 2) * diam,
        "max(b)": Fraction(9),  # max/min ignore the tuple factor: the value range
        "min(c)": Fraction(m - 1),
    }[fn]
    return schema, f"{fn} of A product B", gs


def _gen_schema(rng: random.Random) -> tuple[str, dict]:
    """Relations R and T (same attributes) for the generated light plans.

    No query restricts d, so every grid stays above the 4,096 points up to
    which the analyzer enumerates: light queries take the narrowing path and
    cost milliseconds whatever constants the seed picks.
    """
    lo = rng.randint(-10, 10)
    width = rng.randint(20, 60)
    nums = sorted(rng.sample(range(-5, 30), 6))
    strs = rng.sample(["red", "blue", "green", "amber", "teal"], 4)
    attrs = (
        f"a: int [{lo}, {lo + width}]; b: num in {{{', '.join(map(str, nums))}}}; "
        f"c: string in {{{_quoted(strs)}}}; d: int [0, 9999]"
    )
    text = (
        f"relation R {{ {attrs} }} check {{ a >= b or c = \"{strs[0]}\" }}\n"
        f"relation T {{ {attrs} }}\n" + GRID_SCHEMA
    )
    return text, {"lo": lo, "hi": lo + width, "nums": nums, "strs": strs}


def _light_query(rng: random.Random, k: int, dom: dict) -> str:
    """The k-th light template, filled with seeded constants."""
    a1, a2 = sorted(rng.sample(range(dom["lo"], dom["hi"] + 1), 2))
    b = rng.choice(dom["nums"])
    s1, s2 = rng.sample(dom["strs"], 2)
    g = rng.randint(0, 900)
    templates = (
        f'sum(a) of select (a <= {a1} or b = {b}) and c in {{"{s1}", "{s2}"}} from R',
        f'count of (select a >= {a2} or c = "{s1}" from R) union (select b <= {b} from R)',
        f'avg(b) of (select a <= {a2} from R) minus (select c in {{"{s2}"}} or a >= {a1} from R)',
        f"max(a) of project a, b from select not (a = {a1}) or b >= {b} from R",
        f"avg(count) of group c agg count, sum(a) from select a <= {a1} or a >= {a2} from R",
        f"sum(a) of (select a >= {a1} from R) intersect (select b = {b} or a <= {a2} from T)",
        f"sum(y) of select x >= {g} or y <= {g // 10} from Grid",
        f"min(b) of (select a <= {a2} from R) productn 3 (select y >= {g} from Grid)",
    )
    return templates[k]


# Named queries with hand-derived gs, once per round: the worked example (Weight in [0, 150] gives 150 / 2; the
# restriction proves Weight <= 100, giving 100 / 2) and the 10^6-point grid,
# where x <= 100 gives 100 / 2.
ANALYZE_NAMED = (
    ("worked", "avg(Weight) of People", Fraction(75)),
    ("worked", "avg(Weight) of select Weight <= Height - 100 from People", Fraction(50)),
    ("grid", "avg(x) of select x <= 100 from Grid", Fraction(50)),
)


def build_analyze(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"analyze:{seed}")
    gen_text, dom = _gen_schema(rng)
    files = {
        "worked": _write(os.path.join(workdir, "worked.schema"), WORKED_SCHEMA),
        "grid": _write(os.path.join(workdir, "grid.schema"), GRID_SCHEMA),
        "gen": _write(os.path.join(workdir, "gen.schema"), gen_text),
    }
    repeats: dict = {}  # key -> first output: what every repeat must print
    ops = []
    light = heavy = 0
    for i in range(ANALYZE_QUERIES):
        qfile = os.path.join(workdir, f"q{i}.raq")
        pos = i % ANALYZE_ROUND  # the heavy ones spread evenly over the round
        if pos == 0:
            light = 0
        is_heavy = (pos + 1) * len(PRODUCTS) // ANALYZE_ROUND > pos * len(PRODUCTS) // ANALYZE_ROUND
        if is_heavy:
            schema_text, text, gs = _product_case(rng, *PRODUCTS[heavy % len(PRODUCTS)])
            heavy += 1
            schema = _write(os.path.join(workdir, f"p{i}.schema"), schema_text)
            check = _analyze_check(i, gs, repeats)
        elif light < len(ANALYZE_NAMED):
            key, text, gs = ANALYZE_NAMED[light]
            schema, check = files[key], _analyze_check(i, gs, repeats)
            light += 1
        else:
            text = _light_query(rng, (light - len(ANALYZE_NAMED)) % 8, dom)
            schema, check = files["gen"], _analyze_check(i, None, repeats)
            light += 1
        _write(qfile, text + "\n")
        ops.append(Op(["analyze", schema, qfile, "--format", "json"], check, 1, heavy=is_heavy))
    return Workload(ops, ANALYZE_ROUND)


def _analyze_check(key, gs: Fraction | None, repeats: dict) -> Check:
    """Hand-derived gs where given; otherwise exit 0 or 3 and a stable report."""

    def check(rc: int, out: str) -> list:
        got = _json(out) if rc in (0, 3) else None
        if got is None:
            return [("exit code", rc, 0 if gs is not None else "0 or 3"), ("json", None, "report")]
        pairs = [("same report on repeat", out, repeats.setdefault(key, out))]
        if gs is None:
            pairs.append(("exit code matches gs", rc, 3 if got.get("gs") == "inf" else 0))
        else:
            pairs += [("exit code", rc, 0), ("gs", _ext(got.get("gs")), gs)]
        return pairs

    return check


# ---------------------------------------------------------------------------
# validate: sweep-style cases, many with 1-6 tuples and some with 10-12

# A group is one big case, then four tiny ones; a round is six groups, one per
# big case below. The named cases stand in for the first group.
VALIDATE_GROUPS = 60

# The big cases, one per slot of a round: R's attributes (kind, domain size),
# whose sizes multiply to the 10-12 tuples of the universe; the plan; its atoms
# as (attribute, operator, position k in the domain); and the aggregate. An
# atom compares with the k-th domain value (`in` takes the first k values),
# so it keeps the same tuples whatever values the seed gives the domain, and
# the oracle does the same work for every seed.
BIG_CASES = (
    ((("int", 12),), "select {0} from R", (("a0", "<=", 7),), "sum(a0)"),
    ((("str", 2), ("int", 5)), "(select {0} from R) union (select {1} from R)",
     (("a1", ">=", 2), ("a0", "in", 1)), "count"),
    ((("num", 12),), "K product1 (select {0} from R)", (("a0", ">=", 4),), "avg(a0)"),
    ((("int", 11),), "(select {0} from R) minus (select {1} from R)",
     (("a0", "<=", 8), ("a0", "=", 3)), "max(a0)"),
    ((("int", 3), ("str", 4)), "group a0 agg count from (select {0} from R)",
     (("a1", "not in", 2),), "max(count)"),
    ((("num", 4), ("int", 3)), "(select {0} from R) intersect (select {1} from R)",
     (("a0", ">=", 1), ("a1", "<=", 1)), "min(a0)"),
)
K_SCHEMA = "relation K { k: int [7, 7] }\n"

# Named cases with hand-derived oracle values (gs too where it must be tight).
VALIDATE_NAMED = (
    # one tuple in each of R and T may change: both enter a union, count moves 2
    ("relation R { a: int [0, 1] }\nrelation T { a: int [0, 1] }\n",
     "count of R union T", 2, 2, 4),
    # 12 tuples, 4,096 databases: {1} -> {6} by removing 1 from R while T
    # gains 6 moves the average from 1 to 6; the bound is 2 * (6 - 1) / 2
    ("relation R { a: int [1, 6] }\nrelation T { a: int [1, 6] }\n",
     "avg(a) of R union T", 5, 5, 12),
    # K is fixed context with one row, so the output has |R| rows
    ("relation R { a0: int [0, 3] }\n" + K_SCHEMA, "count of K product1 R", 1, 1, 4),
    # adding the tuple 5 to an R that lacks it
    ("relation R { a: int [0, 5] }\n", "sum(a) of select a >= 2 from R", 5, 5, 6),
    # every group holds one row, and an empty output defaults to count's
    # minimum 0, so the oracle finds 1; the static bound may be looser
    ("relation R { a0: int [0, 5] }\n", "max(count) of group a0 agg count from R", None, 1, 6),
)


@dataclass(frozen=True)
class _Attr:
    name: str
    kind: str  # "int", "num" or "str"
    values: tuple

    def decl(self) -> str:
        if self.kind == "int":
            return f"{self.name}: int [{self.values[0]}, {self.values[-1]}]"
        if self.kind == "num":
            return f"{self.name}: num in {{{', '.join(map(str, self.values))}}}"
        return f"{self.name}: string in {{{_quoted(self.values)}}}"


def _domain(rng: random.Random, name: str, size: int, kind: str) -> _Attr:
    if kind == "int":
        lo = rng.randint(-3, 3)
        return _Attr(name, kind, tuple(range(lo, lo + size)))
    if kind == "num":
        return _Attr(name, kind, tuple(sorted(rng.sample(range(-4, 9), size))))
    return _Attr(name, kind, tuple(sorted(rng.sample(["red", "blue", "green", "amber", "teal", "plum"], size))))


def _sweep_schema(shape: random.Random, rng: random.Random, size: int) -> tuple[str, list[_Attr], int]:
    """Relation R (and the one-row K) with one attribute of `size` values."""
    attrs = [_domain(rng, "a0", size, shape.choice(("int", "num")))]
    return f"relation R {{ {attrs[0].decl()} }}\n" + K_SCHEMA, attrs, size


def _atom(rng: random.Random, attrs: list[_Attr]) -> str:
    """A comparison with a domain value picked by position, so that which
    tuples it keeps does not depend on the values the seed gave the domain."""
    a = rng.choice(attrs)
    return f"{a.name} {rng.choice(('<=', '>=', '='))} {a.values[rng.randrange(len(a.values))]}"


def _sweep_plan(rng: random.Random, attrs: list[_Attr], depth: int) -> tuple[str, list[_Attr], bool]:
    """A random plan over R and the one-row K: its text, output attributes, and
    whether it ends in a grouping (nothing is stacked on one)."""
    if depth == 0:
        return "R", attrs, False
    text, out, grouped = _sweep_plan(rng, attrs, depth - 1)
    if grouped:
        return text, out, True
    kind = rng.choice(("select", "select", "project", "union", "intersect", "minus", "product1", "group"))
    has_k = any(a.name == "k" for a in out)
    if kind == "project":
        return f"project {out[0].name} from {_paren(text)}", out[:1], False
    if kind in ("union", "intersect", "minus") and not has_k:
        other = f"select {_atom(rng, attrs)} from R"
        if out is not attrs:  # a projection: give the other side the same attributes
            other = f"project {', '.join(a.name for a in out)} from {other}"
        return f"{_paren(text)} {kind} {_paren(other)}", out, False
    if kind == "product1" and not has_k:
        return f"K product1 {_paren(text)}", [_Attr("k", "int", (7,))] + out, False
    if kind == "group":
        fns = ["count"]
        numeric = [a for a in out[1:] if a.kind != "str"]
        if numeric and rng.random() < 0.5:
            fns.append(f"{rng.choice(('sum', 'max', 'min', 'avg'))}({numeric[0].name})")
        cols = [out[0]] + [_Attr(f.replace("(", "_").rstrip(")"), "num", ()) for f in fns]
        return f"group {out[0].name} agg {', '.join(fns)} from {_paren(text)}", cols, True
    return f"select {_atom(rng, out)} from {_paren(text)}", out, False


def _paren(text: str) -> str:
    return text if text.isidentifier() else f"({text})"


def build_validate(seed: int, workdir: str) -> Workload:
    """The seed gives the domains their values; the plans, domain kinds and
    aggregates come from `shape`, the same for every seed, so every seed
    makes the oracle do the same work."""
    rng = random.Random(f"validate:{seed}")
    shape = random.Random("validate:shapes")
    k_csv = _write(os.path.join(workdir, "k.csv"), "k\n7\n")
    ops = []
    for i, (schema_text, query, gs, oracle, universe) in enumerate(VALIDATE_NAMED):
        ops.append(_validate_op(workdir, f"n{i}", schema_text, query, k_csv, universe,
                                _validate_check(gs, oracle), heavy=universe >= 10))
    tiny_sizes = itertools.cycle((1, 2, 3, 4, 5, 6))
    depths = itertools.cycle((1, 2, 3, 4))
    for r in range(1, VALIDATE_GROUPS):
        for j in range(5):
            if j == 0:
                schema_text, query, universe = _big_case(rng, *BIG_CASES[r % len(BIG_CASES)])
            else:
                schema_text, attrs, universe = _sweep_schema(shape, rng, next(tiny_sizes))
                plan, out, _ = _sweep_plan(shape, attrs, next(depths))
                numeric = [a.name for a in out if a.kind != "str"]
                kind = shape.choice(("count", "sum", "max", "min", "avg"))
                fn = "count" if kind == "count" or not numeric else f"{kind}({shape.choice(numeric)})"
                query = f"{fn} of {plan}"
            ops.append(_validate_op(workdir, f"r{r}_{j}", schema_text, query, k_csv,
                                    universe, _validate_check(None, None), heavy=j == 0))
    return Workload(ops, 5 * len(BIG_CASES))


def _big_case(rng: random.Random, domains, plan: str, atoms, fn: str) -> tuple[str, str, int]:
    """Schema text, query and universe size of one big case (see BIG_CASES)."""
    attrs = {f"a{i}": _domain(rng, f"a{i}", size, kind) for i, (kind, size) in enumerate(domains)}
    text = f"relation R {{ {'; '.join(a.decl() for a in attrs.values())} }}\n" + K_SCHEMA
    rendered = []
    for name, op, k in atoms:
        a = attrs[name]
        if op in ("in", "not in"):  # the parser takes `not (a in {...})`, not `a not in {...}`
            atom = f"{name} in {{{_quoted(a.values[:k])}}}"
            rendered.append(atom if op == "in" else f"not ({atom})")
        else:
            rendered.append(f"{name} {op} {a.values[k]}")
    universe = 1
    for _, size in domains:
        universe *= size
    return text, f"{fn} of {plan.format(*rendered)}", universe


def _validate_op(workdir, tag, schema_text, query, k_csv, universe, check, heavy) -> Op:
    schema = _write(os.path.join(workdir, f"{tag}.schema"), schema_text)
    qfile = _write(os.path.join(workdir, f"{tag}.raq"), query + "\n")
    argv = ["validate", schema, qfile, "--format", "json"]
    if "relation K" in schema_text:
        argv += ["--data", f"K={k_csv}"]
    # one sensitive relation (or R and T in the named union cases): 2^universe databases
    return Op(argv, check, units=2 ** universe, heavy=heavy)


def _validate_check(gs: int | None, oracle: int | None) -> Check:
    def check(rc: int, out: str) -> list:
        got = _json(out) if rc == 0 else None
        if got is None:
            return [("exit code", rc, 0), ("json", None, "verdict")]
        bound, seen = _ext(got.get("gs")), _ext(got.get("oracle"))
        sound = bound == "inf" or (isinstance(seen, Fraction) and seen <= bound)
        pairs = [
            ("exit code", rc, 0),
            ("no violation", got.get("verdict") != "VIOLATION", True),
            ("oracle <= gs", sound, True),
        ]
        if oracle is not None:
            pairs.append(("oracle", seen, Fraction(oracle)))
        if gs is not None:
            pairs.append(("gs", bound, Fraction(gs)))
        return pairs

    return check


GENERATORS = {"release": build_release, "analyze": build_analyze, "validate": build_validate}
