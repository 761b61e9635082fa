"""Laplace mechanism calibrated by the static sensitivity bound.

Noise is drawn through the inverse CDF: for u uniform on (0, 1),

    z = -b * sign(u - 1/2) * ln(1 - 2|u - 1/2|)

has the Laplace density (1/(2b)) * exp(-|z|/b). u comes from a seeded
PCG64 stream (O'Neill 2014: a 128-bit linear congruential generator whose
output permutation is XSL-RR), written here in Python integers so that a
release loads only the standard library. The stream reproduces numpy's
`Generator(PCG64(seed)).random()` bit for bit, seeding included
(`SeedSequence`), so every run is reproducible from its seed and a
release record names its generator "pcg64". A release and a run of
`--samples` are drawn by one loop (`_release`), so the first of n draws is
the release at the same seed. This is a floating-point
mechanism - not hardened against bit-level leakage; the answer record
carries that note verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analyzer import SensitivityReport, global_sensitivity
from .engine import Relation, answer
from .errors import UnboundedSensitivityError
from .extmath import Ext, is_infinite, to_double
from .query import ValidatedQuery

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
    warnings: tuple = ()
    rng_name = RNG_NAME
    note = MECHANISM_NOTE
    true_value_withheld = True

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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _seed_pool(seed: int) -> list[int]:
    """numpy's `SeedSequence(seed).pool`: the seed's 32-bit words, lowest
    first, hash-mixed into four 32-bit words."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:  # a seed of 2^128 or more
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pool_state(pool: list[int]) -> list[int]:
    """numpy's `SeedSequence.generate_state(4, np.uint64)`: eight hashed
    32-bit words, paired into 64-bit words low half first."""
    hash_const, out = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class _Pcg64:
    """numpy's PCG64 bit generator, seeded as `PCG64(seed)` seeds it, with
    `random()` returning what `numpy.random.Generator.random()` returns."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        w0, w1, w2, w3 = _pool_state(_seed_pool(seed))
        self.inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        # PCG's srandom: from state 0 take a step (giving inc), add the
        # initial state, take another step
        self.state = ((self.inc + (w0 << 64 | w1)) * _PCG_MULT + self.inc) & _M128

    def random(self) -> float:
        """A double uniform on [0, 1): the top 53 bits of the next output."""
        self.state = state = (self.state * _PCG_MULT + self.inc) & _M128
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        return (((x >> rot | x << 64 - rot) & _M64) >> 11) * 2.0**-53


def make_rng(seed: int) -> _Pcg64:
    """The noise stream seeded by `seed` (a non-negative integer)."""
    return _Pcg64(seed)


def laplace_sample(rng: _Pcg64, scale: float) -> float:
    """One Laplace(0, scale) draw via the inverse CDF."""
    u = rng.random()
    while u == 0.0:  # keep u in the open interval (0, 1)
        u = rng.random()
    half = u - 0.5
    # log1p keeps precision when u is near 1/2 (1 - 2|half| near 1)
    return -scale * math.copysign(1.0, half) * math.log1p(-2.0 * abs(half))


def laplace_samples(rng: _Pcg64, scale: float, n: int) -> list[float]:
    """n independent Laplace(0, scale) draws from one stream."""
    return [laplace_sample(rng, scale) for _ in range(n)]


def _release(
    vq: ValidatedQuery, db: dict[str, Relation], params: DpParams, n: int
) -> tuple[SensitivityReport, list[float]]:
    """The report and n releases from one seeded stream (no noise when gs is
    0), in a list allocated before the first draw, so a count too large to
    hold fails at once (MemoryError, or OverflowError past the index range)."""
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
    """n noisy releases from one seeded stream, for distribution checks; the
    first is `dp_answer`'s release at the same seed."""
    return _release(vq, db, params, n)[1]
