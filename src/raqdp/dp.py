"""Laplace mechanism calibrated by the static sensitivity bound.

Noise is drawn through the inverse CDF: for u uniform on (0, 1),

    z = -b * sign(u - 1/2) * ln(1 - 2|u - 1/2|)

has the Laplace density (1/(2b)) * exp(-|z|/b). Sampling uses numpy's
seedable PCG64 generator so every run is reproducible from its seed. numpy
is imported by the functions that draw noise, not by this module, so a
process that only analyses, evaluates or validates never loads it. This is
a floating-point mechanism - not hardened against bit-level leakage; the
answer record carries that note verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .analyzer import SensitivityReport, global_sensitivity
from .engine import Relation, answer
from .errors import UnboundedSensitivityError
from .extmath import Ext, is_infinite, to_double
from .query import ValidatedQuery

if TYPE_CHECKING:
    import numpy as np

RNG_NAME = "pcg64"
MECHANISM_NOTE = "floating-point mechanism - not hardened"


@dataclass(frozen=True)
class DpParams:
    epsilon: Fraction
    seed: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if to_double(self.epsilon, "epsilon") == 0.0:
            raise ValueError("epsilon is too small: it rounds to 0 in double precision")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class DpAnswer:
    noisy_value: float
    gs_used: Ext
    epsilon: Fraction
    seed: int
    rng_name: str = RNG_NAME
    note: str = MECHANISM_NOTE
    true_value_withheld: bool = True
    warnings: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "noisy_value": self.noisy_value,
            "true_value_withheld": self.true_value_withheld,
            "gs_used": to_double(self.gs_used, "gs_used"),
            "epsilon": to_double(self.epsilon, "epsilon"),
            "seed": self.seed,
            "rng": self.rng_name,
            "note": self.note,
            "warnings": list(self.warnings),
        }


def make_rng(seed: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.PCG64(seed))


def laplace_sample(rng: np.random.Generator, scale: float) -> float:
    """One Laplace(0, scale) draw via the inverse CDF."""
    u = rng.random()
    while u == 0.0:  # keep u in the open interval (0, 1)
        u = rng.random()
    half = u - 0.5
    # log1p keeps precision when u is near 1/2 (1 - 2|half| near 1)
    return -scale * math.copysign(1.0, half) * math.log1p(-2.0 * abs(half))


def laplace_samples(rng: np.random.Generator, scale: float, n: int) -> np.ndarray:
    """n independent Laplace(0, scale) draws from one stream."""
    import numpy as np

    u = rng.random(n)
    zero = u == 0.0
    while zero.any():
        u[zero] = rng.random(int(zero.sum()))
        zero = u == 0.0
    half = u - 0.5
    return -scale * np.sign(half) * np.log1p(-2.0 * np.abs(half))


def _release(
    vq: ValidatedQuery, db: dict[str, Relation], params: DpParams
) -> tuple[SensitivityReport, float, float | None]:
    """The report, the exact answer and the noise scale (None when gs is 0)."""
    report = global_sensitivity(vq)
    if is_infinite(report.gs):
        raise UnboundedSensitivityError(
            "unbounded sensitivity: refusing to release a noisy answer"
        )
    true_value = to_double(answer(vq, db), "answer")
    if report.gs == 0:
        return report, true_value, None
    scale = to_double(report.gs, "gs") / to_double(params.epsilon, "epsilon")
    if math.isinf(scale):
        raise ValueError("the noise scale gs/epsilon is too large for double precision")
    return report, true_value, scale


def dp_answer(vq: ValidatedQuery, db: dict[str, Relation], params: DpParams) -> DpAnswer:
    """Evaluate the validated query exactly, then release it with calibrated noise."""
    report, true_value, scale = _release(vq, db, params)
    warnings = list(report.warnings)
    if scale is None:
        warnings.append(
            "sensitivity is zero; the exact answer is released without noise"
        )
        noisy = true_value
    else:
        noisy = true_value + laplace_sample(make_rng(params.seed), scale)
    return DpAnswer(
        noisy_value=noisy,
        gs_used=report.gs,
        epsilon=params.epsilon,
        seed=params.seed,
        warnings=tuple(warnings),
    )


def sample_answers(
    vq: ValidatedQuery, db: dict[str, Relation], params: DpParams, n: int
) -> np.ndarray:
    """n noisy releases from one seeded stream, for distribution checks."""
    _, true_value, scale = _release(vq, db, params)
    if scale is None:
        import numpy as np

        return np.full(n, true_value)
    return true_value + laplace_samples(make_rng(params.seed), scale, n)
