"""Laplace mechanism calibrated by the static sensitivity bound.

Noise is drawn through the inverse CDF: for u uniform on (0, 1),

    z = -b * sign(u - 1/2) * ln(1 - 2|u - 1/2|)

has the Laplace density (1/(2b)) * exp(-|z|/b). u is a 53-bit double from
the standard library's `random`. Without a seed it comes from
`random.SystemRandom`, which reads the operating system's source
(`os.urandom`), so no reader of a release record can recompute the noise
(Garfinkel and Leclerc, WPES 2020); the record carries no seed. With a seed
it comes from `random.Random(seed)`, MT19937 (Matsumoto and Nishimura,
1998), whose `random()` sequence for a given seed Python keeps the same
across versions, so the release can be replayed; the record names the seed
and warns that anyone who knows it can take the noise back out. A release
and a run of `--samples` are drawn by one loop (`_release`), so the first
of n draws is the release at the same seed. This is a floating-point
mechanism - not hardened against bit-level leakage; the answer record
carries that note verbatim.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .analyzer import SensitivityReport, global_sensitivity
from .engine import Relation, answer
from .errors import UnboundedSensitivityError
from .extmath import Ext, is_infinite, to_double
from .query import ValidatedQuery

RNG_NAME = "mt19937"
SYSTEM_RNG_NAME = "os.urandom"
MECHANISM_NOTE = "floating-point mechanism - not hardened"


@dataclass(frozen=True)
class DpParams:
    epsilon: Fraction
    seed: int | None = None  # None: noise from the operating system

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if to_double(self.epsilon, "epsilon") == 0.0:
            raise ValueError("epsilon is too small: it rounds to 0 in double precision")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class DpAnswer:
    noisy_value: float
    gs_used: Ext
    epsilon: Fraction
    seed: int | None
    warnings: tuple = ()
    note = MECHANISM_NOTE
    true_value_withheld = True

    @property
    def rng_name(self) -> str:
        return SYSTEM_RNG_NAME if self.seed is None else RNG_NAME

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


def make_rng(seed: int | None) -> random.Random:
    """The noise stream: MT19937 seeded by `seed` (a non-negative integer), or
    the operating system's random source when `seed` is None."""
    if seed is None:
        return random.SystemRandom()
    if seed < 0:  # random.Random would seed with abs(seed)
        raise ValueError("seed must be non-negative")
    return random.Random(seed)


def laplace_sample(rng: random.Random, scale: float) -> float:
    """One Laplace(0, scale) draw via the inverse CDF."""
    u = rng.random()
    while u == 0.0:  # keep u in the open interval (0, 1)
        u = rng.random()
    half = u - 0.5
    # log1p keeps precision when u is near 1/2 (1 - 2|half| near 1)
    return -scale * math.copysign(1.0, half) * math.log1p(-2.0 * abs(half))


def laplace_samples(rng: random.Random, scale: float, n: int) -> list[float]:
    """n independent Laplace(0, scale) draws from one stream."""
    return [laplace_sample(rng, scale) for _ in range(n)]


def _release(
    vq: ValidatedQuery, db: dict[str, Relation], params: DpParams, n: int
) -> tuple[SensitivityReport, list[float]]:
    """The report and n releases from one stream (no noise when gs is 0), in
    a list allocated before the first draw, so a count too large to hold
    fails at once (MemoryError, or OverflowError past the index range)."""
    report = global_sensitivity(vq)
    if is_infinite(report.gs):
        raise UnboundedSensitivityError(
            "unbounded sensitivity: refusing to release a noisy answer"
        )
    true_value = to_double(answer(vq, db), "answer")
    if report.gs == 0:
        return report, [true_value] * n
    scale = to_double(report.gs, "gs") / to_double(params.epsilon, "epsilon")
    if math.isinf(scale):
        raise ValueError("the noise scale gs/epsilon is too large for double precision")
    draws = [true_value] * n
    rng = make_rng(params.seed)
    for i in range(n):
        draws[i] += laplace_sample(rng, scale)
    return report, draws


def dp_answer(vq: ValidatedQuery, db: dict[str, Relation], params: DpParams) -> DpAnswer:
    """Evaluate the validated query exactly, then release it with calibrated noise."""
    report, (noisy,) = _release(vq, db, params, 1)
    warnings = list(report.warnings)
    if report.gs == 0:
        warnings.append(
            "sensitivity is zero; the exact answer is released without noise"
        )
    elif params.seed is not None:
        warnings.append(
            "the noise can be recomputed from the seed, so the release is private"
            " only while the seed stays secret"
        )
    return DpAnswer(
        noisy_value=noisy,
        gs_used=report.gs,
        epsilon=params.epsilon,
        seed=params.seed,
        warnings=tuple(warnings),
    )


def sample_answers(
    vq: ValidatedQuery, db: dict[str, Relation], params: DpParams, n: int
) -> list[float]:
    """n noisy releases from one stream, for distribution checks; the
    first is `dp_answer`'s release at the same seed."""
    return _release(vq, db, params, n)[1]
