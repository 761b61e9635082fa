"""Static sensitivity analysis and differentially private execution for
relational algebra queries over constrained schemas.

The pipeline: parse a schema file and a query, propagate each relation's
check-constraint through the operator tree, bound how much the query's
answer can move between adjacent databases, and calibrate Laplace noise to
that bound. A brute-force oracle cross-checks the static bound on small
finite universes.
"""

from .analyzer import (
    SensitivityReport,
    TopRecord,
    aggregation_delta,
    global_sensitivity,
)
from .constraints import (
    Attr,
    Bounds,
    ConstrainedSchema,
    Domain,
    attribute_bounds,
    diameter,
    initial_constraint,
    iter_solutions,
    solution_count,
)
from .dp import DpAnswer, DpParams, dp_answer, laplace_sample, laplace_samples, make_rng
from .engine import Relation, answer, apply_agg, eval_plan, load_csv
from .errors import (
    DataError,
    EvalError,
    OracleError,
    ParseError,
    RaqdpError,
    SchemaError,
    UnboundedSensitivityError,
    ValidationError,
)
from .oracle import (
    BruteResult,
    Universe,
    brute_lipschitz,
    brute_sensitivity,
    build_universe,
)
from .parsing import (
    format_constraint,
    format_query,
    parse_constraint,
    parse_query,
    parse_schemas,
)
from .query import (
    AggFn,
    Difference,
    GroupAggregate,
    Id,
    Intersection,
    NodeFacts,
    Product,
    ProductAgg,
    ProductN,
    ProductOne,
    Projection,
    Restriction,
    TopQuery,
    Union,
    ValidatedQuery,
    operator_delta,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AggFn",
    "Attr",
    "Bounds",
    "BruteResult",
    "ConstrainedSchema",
    "DataError",
    "Difference",
    "Domain",
    "DpAnswer",
    "DpParams",
    "EvalError",
    "GroupAggregate",
    "Id",
    "Intersection",
    "NodeFacts",
    "OracleError",
    "ParseError",
    "Product",
    "ProductAgg",
    "ProductN",
    "ProductOne",
    "Projection",
    "RaqdpError",
    "Relation",
    "Restriction",
    "SchemaError",
    "SensitivityReport",
    "TopQuery",
    "TopRecord",
    "UnboundedSensitivityError",
    "Union",
    "Universe",
    "ValidatedQuery",
    "ValidationError",
    "aggregation_delta",
    "answer",
    "apply_agg",
    "attribute_bounds",
    "brute_lipschitz",
    "brute_sensitivity",
    "build_universe",
    "diameter",
    "dp_answer",
    "eval_plan",
    "format_constraint",
    "format_query",
    "global_sensitivity",
    "initial_constraint",
    "iter_solutions",
    "laplace_sample",
    "laplace_samples",
    "load_csv",
    "make_rng",
    "operator_delta",
    "parse_constraint",
    "parse_query",
    "parse_schemas",
    "solution_count",
    "validate",
]
