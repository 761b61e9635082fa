"""Exhaustive sensitivity computation on small finite universes.

The ground truth the static analyzer is judged against: enumerate every
database over the admissible tuple universes, evaluate the query exactly,
and take the worst change across adjacent databases. An adjacency step may
add or remove at most one tuple in each sensitive relation (at least one
relation changes); fixed context relations never change.

The query is compiled once (`engine.compile_query`) and run once per
database: 2^n runs over a universe of n tuples. The exact values are then
put over one common denominator, so each adjacent pair costs one integer
comparison. The combined universe is capped at `DEFAULT_UNIVERSE_CAP` = 12
tuples unless the caller asks for more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .constraints import ConstrainedSchema, initial_constraint, iter_solutions
from .engine import Relation, compile_plan, compile_query
from .errors import OracleError
from .query import Plan, TopQuery, ValidatedQuery, base_relations

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

    def schemas(self) -> dict[str, ConstrainedSchema]:
        out = {sr.name: sr.schema for sr in self.sensitive}
        out.update({name: rel.schema for name, rel in self.context})
        return out

    def context_db(self) -> dict[str, Relation]:
        return {name: rel for name, rel in self.context}


def enumerate_tuples(schema: ConstrainedSchema, cap: int = DEFAULT_UNIVERSE_CAP) -> tuple:
    """All tuples admissible under the schema's domains and check constraint."""
    solutions = iter_solutions(initial_constraint(schema), schema, cap=max(cap * 64, 4096))
    if solutions is None:
        raise OracleError(
            f"relation {schema.name!r} has a non-enumerable tuple universe"
        )
    out = []
    for tup in solutions:
        out.append(tup)
        if len(out) > cap:
            raise OracleError(
                f"relation {schema.name!r} has more than {cap} admissible tuples"
            )
    return tuple(out)


def build_universe(
    tq: TopQuery,
    schemas: dict[str, ConstrainedSchema],
    context: dict[str, Relation] | None = None,
    cap: int = DEFAULT_UNIVERSE_CAP,
) -> Universe:
    """Universe for the query: data-backed relations are fixed context."""
    context = context or {}
    names = sorted(base_relations(tq.body))
    sensitive = []
    total = 0
    for name in names:
        if name in context:
            continue
        if name not in schemas:
            raise OracleError(f"no schema for relation {name!r}")
        tuples = enumerate_tuples(schemas[name], cap)
        total += len(tuples)
        if total > cap:
            raise OracleError(
                f"combined tuple universe exceeds the cap of {cap}; "
                "fix more relations as context data"
            )
        sensitive.append(SensitiveRelation(name, schemas[name], tuples))
    return Universe(tuple(sensitive), tuple(sorted(context.items())))


@dataclass(frozen=True)
class BruteResult:
    value: Fraction
    witness: tuple[dict, dict] | None  # worst adjacent pair, name -> tuple list


def _databases(universe: Universe):
    """Every admissible database with its bitmask vector.

    Bit j of the i-th mask says whether tuple j of sensitive relation i is present.
    """
    base = universe.context_db()
    mask_ranges = [range(1 << len(sr.universe)) for sr in universe.sensitive]
    for combo in itertools.product(*mask_ranges):
        db = dict(base)
        for sr, mask in zip(universe.sensitive, combo):
            db[sr.name] = Relation(sr.schema, frozenset(_members(sr, mask)))
        yield combo, db


def _members(sr: SensitiveRelation, mask: int) -> list:
    return [t for j, t in enumerate(sr.universe) if mask >> j & 1]


def _database_values(vq: ValidatedQuery, universe: Universe) -> dict:
    """Exact query value for every admissible database, keyed by bitmask vector."""
    value = compile_query(vq)
    return {combo: value(db) for combo, db in _databases(universe)}


def _scaled(values: dict) -> tuple[dict, int]:
    """The values over their least common denominator: (numerators, denominator)."""
    scale = math.lcm(*(v.denominator for v in values.values()))
    return {combo: v.numerator * (scale // v.denominator) for combo, v in values.items()}, scale


def _later_neighbors(combo: tuple[int, ...], universe: Universe) -> list:
    """The databases one step away (toggle at most one tuple per relation)
    that `_databases` yields after `combo`.

    With one relation these are the masks with one more bit set. With more,
    they keep the order of the product of each relation's options: keep the
    mask, then toggle bit 0, 1, ... of it. The product yields the same list
    for one relation too, but building it directly is measurably faster
    (`BENCH_oracle.json`, "one_relation_branch").
    """
    if len(combo) == 1:
        (mask,) = combo
        bits = (1 << j for j in range(len(universe.sensitive[0].universe)))
        return [(mask | bit,) for bit in bits if not mask & bit]
    options = [
        [mask] + [mask ^ (1 << j) for j in range(len(sr.universe))]
        for sr, mask in zip(universe.sensitive, combo)
    ]
    return [neighbor for neighbor in itertools.product(*options) if neighbor > combo]


def _witness(universe: Universe, combo: tuple[int, ...]) -> dict:
    return {sr.name: _members(sr, mask) for sr, mask in zip(universe.sensitive, combo)}


def brute_sensitivity(vq: ValidatedQuery, universe: Universe) -> BruteResult:
    """Worst |answer difference| over adjacent databases, by full enumeration.

    Each adjacent pair is compared once, from its earlier database in
    `_databases` order, in integers over the values' common denominator. The
    witness is the first pair, in that order, that reaches the worst change.
    """
    values, scale = _scaled(_database_values(vq, universe))
    best = 0
    worst = None
    for combo, value in values.items():
        for neighbor in _later_neighbors(combo, universe):
            diff = abs(value - values[neighbor])
            if diff > best:
                best = diff
                worst = combo, neighbor
    witness = None if worst is None else tuple(_witness(universe, c) for c in worst)
    return BruteResult(Fraction(best, scale), witness)


def _pair_distance(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Database distance: the largest per-relation symmetric difference."""
    return max((x ^ y).bit_count() for x, y in zip(a, b))


def _pairwise_sup(values: dict, diff) -> Fraction:
    """sup over pairs of distinct databases of diff(their values) / their distance.

    `diff` returns an int. The keys are distinct mask vectors, so every
    distance is at least 1; ratios are compared by cross-multiplying.
    """
    combos = list(values)
    best, best_distance = 0, 1
    for i, a in enumerate(combos):
        va = values[a]
        for b in combos[i + 1 :]:
            d, distance = diff(va, values[b]), _pair_distance(a, b)
            if d * best_distance > best * distance:
                best, best_distance = d, distance
    return Fraction(best, best_distance)


def brute_sensitivity_ratio(vq: ValidatedQuery, universe: Universe) -> Fraction:
    """sup over all database pairs of |answer difference| / distance.

    Equals brute_sensitivity when the adjacency steps generate the distance —
    checked as a property test. Quadratic in the database count.
    """
    values, scale = _scaled(_database_values(vq, universe))
    return _pairwise_sup(values, lambda x, y: abs(x - y)) / scale


def brute_lipschitz(plan: Plan, universe: Universe, vq: ValidatedQuery) -> Fraction:
    """sup over database pairs of (output symmetric difference) / distance,
    for `plan`, a node of the validated query `vq`."""
    run = compile_plan(plan, vq)
    outputs = {combo: run(db) for combo, db in _databases(universe)}
    return _pairwise_sup(outputs, lambda x, y: len(x ^ y))
