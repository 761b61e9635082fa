"""Exhaustive sensitivity computation on small finite universes.

The ground truth the static analyzer is judged against: consider every
database over the admissible tuple universes, evaluate the query exactly,
and take the worst change across adjacent databases. An adjacency step may
add or remove at most one tuple in each sensitive relation (at least one
relation changes); fixed context relations never change.

Only the universe tuples the query can read are enumerated (`_read_bits`):
the tuples that its row-filtering trees keep, all of them where a relation
is read unfiltered. The query is compiled once (`engine.compile_query`) and
run once per database: 2^k runs when k of the universe's tuples can be read.
A database's value is that of its projection onto those tuples, so the
worst change and its witness are those of the full enumeration. The exact
values are then put over one common denominator, so each adjacent pair
costs one integer comparison. `brute_lipschitz` takes a node's largest
output change over the same adjacent pairs (`_steps`). The combined
universe is capped at `DEFAULT_UNIVERSE_CAP` = 12 tuples unless the caller
asks for more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .constraints import ConstrainedSchema, initial_constraint, iter_solutions, solution_count
from .engine import Relation, compile_plan, compile_query
from .errors import OracleError
from .query import Plan, TopQuery, ValidatedQuery, base_relations, plan_children, row_tree_relation

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
    """All tuples admissible under the schema's domains and check constraint,
    searched for over a grid of at most max(64 * cap, 4096) points."""
    constraint, budget = initial_constraint(schema), max(cap * 64, 4096)
    solutions = iter_solutions(constraint, schema, cap=budget)
    if solutions is None:
        if solution_count(constraint, schema, cap=budget) == "infinite":
            raise OracleError(f"relation {schema.name!r} has a non-enumerable tuple universe")
        raise OracleError(
            f"relation {schema.name!r} has more than {budget} grid points to search; "
            "raise --universe-cap"
        )
    out = tuple(itertools.islice(solutions, cap + 1))
    if len(out) > cap:
        raise OracleError(f"relation {schema.name!r} has more than {cap} admissible tuples")
    return out


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


def _submasks(bits: int):
    """Every mask inside `bits`, in increasing order."""
    mask = 0
    yield mask
    while mask != bits:
        mask = (mask - bits) & bits
        yield mask


def _databases(universe: Universe, bits: tuple[int, ...]):
    """Every admissible database inside the read bits `bits`, with its bitmask
    vector, in increasing order of the vectors.

    Bit j of the i-th mask says whether tuple j of sensitive relation i is
    present. Each relation is built once per mask: the first relation's mask
    changes only between blocks of the product, so each of its relations is
    built when reached; the others recur in every block, so their lists are
    built once.
    """
    base = universe.context_db()
    if not universe.sensitive:  # every relation is context: one database
        yield (), base
        return
    names = [sr.name for sr in universe.sensitive]
    first, *rest = [_relations(sr, read) for sr, read in zip(universe.sensitive, bits)]
    rest = [list(option) for option in rest]
    for head in first:
        for tail in itertools.product(*rest):
            chosen = (head, *tail)
            db = dict(base)
            db.update((name, relation) for name, (_, relation) in zip(names, chosen))
            yield tuple(mask for mask, _ in chosen), db


def _relations(sr: SensitiveRelation, read: int):
    """(mask, relation) for every mask inside `read`, in increasing order."""
    for mask in _submasks(read):
        yield mask, Relation(sr.schema, frozenset(_members(sr, mask)))


def _members(sr: SensitiveRelation, mask: int) -> list:
    return [t for j, t in enumerate(sr.universe) if mask >> j & 1]


def _database_values(vq: ValidatedQuery, universe: Universe, bits: tuple[int, ...]) -> dict:
    """Exact query value for every database inside `bits`, keyed by bitmask vector."""
    value = compile_query(vq)
    return {combo: value(db) for combo, db in _databases(universe, bits)}


def _scaled(values: dict) -> tuple[dict, int]:
    """The values over their least common denominator: (numerators, denominator)."""
    scale = math.lcm(*(v.denominator for v in values.values()))
    return {combo: v.numerator * (scale // v.denominator) for combo, v in values.items()}, scale


def _later_neighbors(combo: tuple[int, ...], flips: list[list[int]]) -> list:
    """The databases one step away (toggle at most one read bit per relation)
    that `_databases` yields after `combo`; `flips` holds each relation's
    read bits as single-bit masks, lowest first.

    With one relation these are the masks with one more read bit set. With
    more, they keep the order of the product of each relation's options:
    keep the mask, then toggle its read bits, lowest first. The product
    yields the same list for one relation too, but building it directly is
    measurably faster (`BENCH_oracle.json`, "one_relation_branch").
    """
    if len(combo) == 1:
        (mask,) = combo
        return [(mask | bit,) for bit in flips[0] if not mask & bit]
    options = [[mask] + [mask ^ bit for bit in bits] for mask, bits in zip(combo, flips)]
    return [neighbor for neighbor in itertools.product(*options) if neighbor > combo]


def _witness(universe: Universe, combo: tuple[int, ...]) -> dict:
    return {sr.name: _members(sr, mask) for sr, mask in zip(universe.sensitive, combo)}


def _steps(outputs: dict, bits: tuple[int, ...]):
    """(combo, output, later neighbours) for each database of `outputs`, keyed
    by bitmask vector in `_databases` order, so each adjacent pair inside the
    read bits `bits` is reached once, from its earlier database."""
    flips = [[1 << j for j in range(read.bit_length()) if read >> j & 1] for read in bits]
    for combo, output in outputs.items():
        yield combo, output, _later_neighbors(combo, flips)


def brute_sensitivity(vq: ValidatedQuery, universe: Universe) -> BruteResult:
    """Worst |answer difference| over adjacent databases, by enumeration of
    the databases inside the query's read bits.

    Each adjacent pair is compared once, from its earlier database in
    `_databases` order, in integers over the values' common denominator. The
    witness is the first pair, in that order, that reaches the worst change.
    It is the witness of the full enumeration too: projecting a pair onto
    the read bits keeps its values and moves its earlier database no later,
    and neighbours that differ only in unread bits differ by 0.
    """
    bits = _read_bits(vq.query.body, vq, universe)
    values, scale = _scaled(_database_values(vq, universe, bits))
    best = 0
    worst = None
    for combo, value, neighbors in _steps(values, bits):
        for neighbor in neighbors:
            diff = abs(value - values[neighbor])
            if diff > best:
                best = diff
                worst = combo, neighbor
    witness = None if worst is None else tuple(_witness(universe, c) for c in worst)
    return BruteResult(Fraction(best, scale), witness)


def brute_lipschitz(plan: Plan, universe: Universe, vq: ValidatedQuery) -> int:
    """Largest output symmetric difference over adjacent databases, for
    `plan`, a node of the validated query `vq`.

    This int equals the supremum over all database pairs of (output symmetric
    difference) / distance: a pair's distance is the length of a shortest
    path of adjacent steps, along which symmetric difference obeys the
    triangle inequality. A pair projected onto the read bits keeps its
    outputs and stays adjacent or equal, so the pairs inside them suffice.
    """
    run = compile_plan(plan, vq)
    bits = _read_bits(plan, vq, universe)
    outputs = {combo: run(db) for combo, db in _databases(universe, bits)}
    steps = _steps(outputs, bits)
    return max((len(out ^ outputs[n]) for _, out, near in steps for n in near), default=0)
