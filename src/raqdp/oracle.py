"""Exhaustive sensitivity computation on small finite universes.

The ground truth the static analyzer is judged against: consider every
database over the admissible tuple universes, evaluate the query exactly,
and take the worst change across adjacent databases. An adjacency step may
add or remove at most one tuple in each sensitive relation (at least one
relation changes); fixed context relations never change. Everything is
read from the validated query: a sensitive relation's universe is the
solutions of its leaf's schema, which validation has already normalized
and narrowed (`build_universe`).

Only the universe tuples the query can read are enumerated (`_read_bits`):
the tuples that its row-filtering trees keep, all of them where a relation
is read unfiltered. The query is compiled once (`engine.compile_query`) and
run once per database: N = 2^k runs when k of the universe's tuples can be
read, k_i of them in sensitive relation i. A database's value is that of its
projection onto those tuples, so the worst change and its witness are those
of the full enumeration.

The exact values, ints where integral (`engine.compile_query`), are put
over one common denominator into a flat list of integers indexed by the
packed read bits (`_databases`); when every value is an int, the list is
theirs as it is. A database's closed
neighbourhood is the product of one closed neighbourhood per relation, so
`brute_sensitivity` takes every database's neighbourhood max and min in one
pass per relation, a slice copy per read bit: N * sum(k_i + 1) comparisons
instead of one per adjacent pair, N * prod(k_i + 1). `brute_lipschitz`,
whose symmetric difference does not split per relation, walks the adjacent
pairs of the same table (`_steps`). The combined universe is capped at
`DEFAULT_UNIVERSE_CAP` = 12 tuples unless the caller asks for more.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .constraints import ConstrainedSchema, iter_solutions
from .engine import Relation, compile_plan, compile_query
from .errors import OracleError
from .query import Id, Plan, ValidatedQuery, base_relations, plan_children, row_tree_relation

DEFAULT_UNIVERSE_CAP = 12


@dataclass(frozen=True)
class SensitiveRelation:
    name: str
    schema: ConstrainedSchema
    universe: tuple  # all admissible tuples, in a fixed order


@dataclass(frozen=True)
class Universe:
    sensitive: tuple[SensitiveRelation, ...]
    context: tuple[tuple[str, Relation], ...] = ()


def enumerate_tuples(schema: ConstrainedSchema, cap: int = DEFAULT_UNIVERSE_CAP) -> tuple:
    """All tuples admissible under the schema's constraint, in grid order, from
    one walk (`iter_solutions`) over a grid of at most max(64 * cap, 4096)
    points; when there is none, its reason picks the error. The domains bound
    that grid. `build_universe` passes a query leaf's schema, which
    validation has already prepared."""
    budget = max(cap * 64, 4096)
    solutions = iter_solutions(schema.constraint, schema, cap=budget)
    if solutions == "infinite":
        raise OracleError(f"relation {schema.name!r} has a non-enumerable tuple universe")
    if isinstance(solutions, str):
        raise OracleError(
            f"relation {schema.name!r} has more than {budget} grid points to search; "
            "raise --universe-cap"
        )
    out = tuple(itertools.islice(solutions, cap + 1))
    if len(out) > cap:
        raise OracleError(f"relation {schema.name!r} has more than {cap} admissible tuples")
    return out


def build_universe(
    vq: ValidatedQuery,
    context: dict[str, Relation] | None = None,
    cap: int = DEFAULT_UNIVERSE_CAP,
) -> Universe:
    """Universe for the validated query: data-backed relations are fixed
    context, and every other relation it reads is enumerated from its leaf."""
    context = context or {}
    sensitive = []
    total = 0
    for name in sorted(base_relations(vq.query.body) - set(context)):
        schema = vq.nodes[Id(name)].schema
        tuples = enumerate_tuples(schema, cap)
        total += len(tuples)
        if total > cap:
            raise OracleError(
                f"combined tuple universe exceeds the cap of {cap}; "
                "fix more relations as context data"
            )
        sensitive.append(SensitiveRelation(name, schema, tuples))
    return Universe(tuple(sensitive), tuple(sorted(context.items())))


@dataclass(frozen=True)
class BruteResult:
    value: Fraction
    witness: tuple[dict, dict] | None  # worst adjacent pair, name -> tuple list


def _read_bits(plan: Plan, vq: ValidatedQuery, universe: Universe) -> tuple[int, ...]:
    """One bitmask per sensitive relation: the universe tuples that `plan`'s
    output can depend on.

    A row-filtering tree over a sensitive relation R (`row_tree_relation`)
    outputs S ∩ tree(U) over any subset S of R's universe U, so it reads the
    tuples it keeps over U, found by running it once. A row tree over a
    context relation reads nothing; any other node reads what its children
    read. Every node is a deterministic function of its children's outputs,
    so a database's value, or the error it raises, is that of its
    projection onto the read bits.
    """
    index = {sr.name: i for i, sr in enumerate(universe.sensitive)}
    bits = [0] * len(universe.sensitive)

    def visit(node: Plan) -> None:
        name = row_tree_relation(node)
        if name is None:
            for child in plan_children(node):
                visit(child)
        elif name in index:
            sr = universe.sensitive[index[name]]
            kept = compile_plan(node, vq)({name: Relation(sr.schema, frozenset(sr.universe))})
            bits[index[name]] |= sum(1 << j for j, t in enumerate(sr.universe) if t in kept)

    visit(plan)
    return tuple(bits)


def _read_tuples(universe: Universe, bits: tuple[int, ...]) -> list[list]:
    """Each sensitive relation's universe tuples inside its read bits, in
    universe order."""
    return [
        [t for j, t in enumerate(sr.universe) if read >> j & 1]
        for sr, read in zip(universe.sensitive, bits)
    ]


def _databases(universe: Universe, kept: list[list]):
    """Every admissible database inside the read tuples `kept`, in increasing
    order of its packed index: the i-th database yielded has index i.

    A packed index holds one bit per read tuple. Relation i's mask over its
    read tuples sits in its bits, relation 0 in the most significant ones, so
    the order is that of the masks' product. Each relation is built once per
    mask, its tuple sets by doubling: the sets with bit j are those without
    it, each with tuple j added, appended in mask order.
    """
    names = [sr.name for sr in universe.sensitive]
    options = []
    for sr, tuples in zip(universe.sensitive, kept):
        sets = [frozenset()]
        for t in tuples:
            sets += [s | {t} for s in sets]
        options.append([Relation(sr.schema, s) for s in sets])
    base = dict(universe.context)
    for chosen in itertools.product(*options):
        db = dict(zip(names, chosen))
        db.update(base)
        yield db


def _flips(kept: list[list]) -> list[list[int]]:
    """Each relation's read tuples as single bits of the packed index, lowest
    first; the last relation holds the lowest bits."""
    flips, offset = [], 0
    for tuples in reversed(kept):
        flips.append([1 << (offset + j) for j in range(len(tuples))])
        offset += len(tuples)
    return flips[::-1]


def _steps(flips: list[list[int]]) -> list[int]:
    """The masks that move a packed index x one adjacency step: toggle at most
    one read bit per relation, and at least one in all.

    They follow the product of each relation's options (keep its mask, then
    toggle its read bits, lowest first), which is the order `_databases`
    yields the neighbours in; x ^ step > x picks those yielded after x.
    """
    return [sum(step) for step in itertools.product(*([0, *bits] for bits in flips))][1:]


def _flipped(values: list, bit: int) -> list:
    """values[x ^ bit] at every index x of `values`, whose length is a
    multiple of 2 * bit, by slice copies: 2 * bit strided slices when those
    are few, else len / bit blocks."""
    n, span = len(values), 2 * bit
    out = [None] * n
    if bit * span <= n:
        for low in range(bit):
            out[low::span] = values[low + bit::span]
            out[low + bit::span] = values[low::span]
    else:
        for start in range(0, n, span):
            out[start:start + bit] = values[start + bit:start + span]
            out[start + bit:start + span] = values[start:start + bit]
    return out


def _witness(universe: Universe, kept: list[list], flips: list[list[int]], index: int) -> dict:
    """The database at packed index `index`, as each sensitive relation's tuple list."""
    return {
        sr.name: [t for t, bit in zip(tuples, bits) if index & bit]
        for sr, tuples, bits in zip(universe.sensitive, kept, flips)
    }


def brute_sensitivity(vq: ValidatedQuery, universe: Universe) -> BruteResult:
    """Worst |answer difference| over adjacent databases, by enumeration of
    the databases inside the query's read bits.

    The values are put over their common denominator in a list indexed by
    the packed read bits. A database's closed neighbourhood is the product of
    one closed neighbourhood per relation, so one pass per relation, each
    taking the max (and min) over that relation's toggled bits, gives every
    database's neighbourhood max (min): N * sum(k_i + 1) comparisons for N
    databases, not N * prod(k_i + 1). The worst change is the largest gap
    between a value and its neighbourhood's extremes.

    The witness is the first adjacent pair, in `_databases` order, that
    reaches the worst change: c, the first database with a gap that large,
    and c's first later neighbour that far from it (no earlier one is, or it
    would precede c). It is the witness of the full enumeration too:
    projecting a pair onto the read bits keeps its values and moves its
    earlier database no later, and neighbours that differ only in unread
    bits differ by 0.
    """
    kept = _read_tuples(universe, _read_bits(vq.query.body, vq, universe))
    exact = list(map(compile_query(vq), _databases(universe, kept)))
    scale = math.lcm(*(v.denominator for v in exact if v.__class__ is not int))
    values = exact if scale == 1 else [v.numerator * (scale // v.denominator) for v in exact]
    flips = _flips(kept)
    hi = lo = values
    for bits in filter(None, flips):
        hi = list(map(max, hi, *(_flipped(hi, bit) for bit in bits)))
        lo = list(map(min, lo, *(_flipped(lo, bit) for bit in bits)))
    gaps = list(map(max, map(operator.sub, hi, values), map(operator.sub, values, lo)))
    best = max(gaps)
    witness = None
    if best:
        c = gaps.index(best)
        n = next(c ^ s for s in _steps(flips) if c ^ s > c and abs(values[c] - values[c ^ s]) == best)
        witness = _witness(universe, kept, flips, c), _witness(universe, kept, flips, n)
    return BruteResult(Fraction(best, scale), witness)


def brute_lipschitz(plan: Plan, universe: Universe, vq: ValidatedQuery) -> int:
    """Largest output symmetric difference over adjacent databases, for
    `plan`, a node of the validated query `vq`.

    This int equals the supremum over all database pairs of (output symmetric
    difference) / distance: a pair's distance is the length of a shortest
    path of adjacent steps, along which symmetric difference obeys the
    triangle inequality. A pair projected onto the read bits keeps its
    outputs and stays adjacent or equal, so the pairs inside them suffice.
    Symmetric difference does not split per relation, so each adjacent pair
    is compared once, from its earlier database.
    """
    run = compile_plan(plan, vq)
    kept = _read_tuples(universe, _read_bits(plan, vq, universe))
    outputs = list(map(run, _databases(universe, kept)))
    steps = _steps(_flips(kept))
    return max(
        (len(out ^ outputs[x ^ s]) for x, out in enumerate(outputs) for s in steps if x ^ s > x),
        default=0,
    )
