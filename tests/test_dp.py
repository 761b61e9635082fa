"""Noise mechanism: sampler statistics, determinism, release policy."""

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import laplace_cdf
from raqdp.dp import (
    DpParams,
    dp_answer,
    laplace_sample,
    laplace_samples,
    make_rng,
    sample_answers,
)
from raqdp.engine import Relation
from raqdp.errors import UnboundedSensitivityError
from raqdp.parsing import parse_query, parse_schemas
from raqdp.query import validate


def fixture_db():
    schemas = parse_schemas("relation R { a: int [0, 2] }")
    db = {"R": Relation.from_rows(schemas["R"], [[Fraction(1)], [Fraction(2)]])}
    return schemas, db


# ---------------------------------------------------------------------------
# Parameters


def test_params_validate():
    DpParams(Fraction(1, 2), 0)
    assert DpParams(Fraction(1, 2)).seed is None
    with pytest.raises(ValueError):
        DpParams(Fraction(0), 0)
    with pytest.raises(ValueError):
        DpParams(Fraction(-1), 0)
    with pytest.raises(ValueError):
        DpParams(Fraction(1), -1)
    with pytest.raises(ValueError):
        DpParams(Fraction(1), 2**64)


def test_params_reject_epsilon_that_rounds_to_zero():
    with pytest.raises(ValueError, match="epsilon"):
        DpParams(Fraction(1, 10**400), 0)


# ---------------------------------------------------------------------------
# Sampler


def test_sampler_deterministic_per_seed():
    a = [laplace_sample(make_rng(9), 1.0) for _ in range(1)]
    b = [laplace_sample(make_rng(9), 1.0) for _ in range(1)]
    assert a == b
    xs = np.asarray(laplace_samples(make_rng(11), 2.5, 1000))
    ys = np.asarray(laplace_samples(make_rng(11), 2.5, 1000))
    assert np.array_equal(xs, ys)
    zs = np.asarray(laplace_samples(make_rng(12), 2.5, 1000))
    assert not np.array_equal(xs, zs)


def test_scalar_and_vector_samplers_share_the_stream_shape():
    # same inverse-CDF transform: both produce median 0 and scale-linear tails
    xs = np.asarray(laplace_samples(make_rng(21), 1.0, 200_000))
    ys = 3.0 * xs
    zs = np.asarray(laplace_samples(make_rng(21), 3.0, 200_000))
    assert np.allclose(ys, zs)


def test_sample_moments():
    xs = np.asarray(laplace_samples(make_rng(314), 1.0, 400_000))
    assert abs(xs.mean()) < 0.02
    assert abs(xs.var() - 2.0) < 0.05


# ---------------------------------------------------------------------------
# The seeded stream is random.Random's MT19937, whose random() sequence
# Python keeps the same for a given seed across versions


def test_seeded_stream_values_are_pinned():
    want = {
        0: [0.8444218515250481, 0.7579544029403025, 0.420571580830845],
        2**64 - 1: [0.021825695401270107, 0.3380953268613758, 0.21196748656082065],
        2**200: [0.5691790390193565, 0.5657868448031985, 0.6720304443284328],
    }
    for seed, values in want.items():
        rng = make_rng(seed)
        assert [rng.random() for _ in range(3)] == values, seed
    with pytest.raises(ValueError):
        make_rng(-1)  # random.Random would seed it as 1


def test_cdf_values():
    assert laplace_cdf(0.0, 1.0) == pytest.approx(0.5)
    assert laplace_cdf(-1.0, 1.0) == pytest.approx(0.5 * math.exp(-1))
    assert laplace_cdf(1.0, 1.0) == pytest.approx(1 - 0.5 * math.exp(-1))
    b = 2.0
    assert laplace_cdf(3.0, b) == pytest.approx(1 - 0.5 * math.exp(-1.5))


def test_empirical_cdf_tracks_analytic():
    xs = np.sort(np.asarray(laplace_samples(make_rng(55), 1.0, 100_000)))
    grid = np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
    for x in grid:
        empirical = np.searchsorted(xs, x) / len(xs)
        assert abs(empirical - float(laplace_cdf(x, 1.0))) < 0.01


# ---------------------------------------------------------------------------
# Release policy


def test_release_is_deterministic_given_seed():
    schemas, db = fixture_db()
    vq = validate(parse_query("count of R"), schemas)
    params = DpParams(Fraction(1), 99)
    a = dp_answer(vq, db, params)
    b = dp_answer(vq, db, params)
    assert a.noisy_value == b.noisy_value
    c = dp_answer(vq, db, DpParams(Fraction(1), 100))
    assert c.noisy_value != a.noisy_value


def test_release_record_fields():
    schemas, db = fixture_db()
    tq = parse_query("count of R")
    ans = dp_answer(validate(tq, schemas), db, DpParams(Fraction(1, 2), 7))
    assert ans.true_value_withheld
    assert ans.gs_used == 1
    assert ans.epsilon == Fraction(1, 2)
    assert ans.rng_name == "mt19937"
    assert "not hardened" in ans.note
    assert math.isfinite(ans.noisy_value)
    assert any("recomputed from the seed" in w for w in ans.warnings)
    d = ans.to_json_dict()
    assert d["gs_used"] == 1.0 and d["seed"] == 7 and d["rng"] == "mt19937"


def test_unbounded_sensitivity_refused():
    schemas = parse_schemas("relation U { x: real [0, inf] }")
    db = {"U": Relation(schemas["U"], frozenset())}
    with pytest.raises(UnboundedSensitivityError):
        dp_answer(validate(parse_query("sum(x) of U"), schemas), db, DpParams(Fraction(1), 0))


def test_zero_sensitivity_short_circuits_with_warning():
    schemas = parse_schemas("relation Z { a: int [0, 5] } check { a > 9 }")
    db = {"Z": Relation(schemas["Z"], frozenset())}
    ans = dp_answer(validate(parse_query("count of Z"), schemas), db, DpParams(Fraction(1), 0))
    assert ans.noisy_value == 0.0
    assert any("zero" in w for w in ans.warnings)
    assert not any("seed" in w for w in ans.warnings)  # no noise to recompute


def test_sample_answers_centered_on_truth():
    schemas, db = fixture_db()
    tq = parse_query("count of R")  # true value 2, gs 1
    xs = np.asarray(sample_answers(validate(tq, schemas), db, DpParams(Fraction(1), 5), 200_000))
    assert abs(xs.mean() - 2.0) < 0.02
    assert abs(xs.var() - 2.0) < 0.06  # variance 2 b^2 with b = gs/eps = 1


def test_noise_scale_follows_gs_over_epsilon():
    schemas, db = fixture_db()
    tq = parse_query("sum(a) of R")  # gs = 2
    xs = np.asarray(
        sample_answers(validate(tq, schemas), db, DpParams(Fraction(1, 2), 5), 200_000)
    )
    b = 2 / 0.5
    assert abs(xs.var() - 2 * b * b) < 0.8


def test_first_sample_is_the_release_at_the_same_seed():
    # the samples and the release share one scalar sampler, so they agree in
    # every bit (a vectorised log1p can differ from math.log1p in the last)
    schemas, db = fixture_db()
    vq = validate(parse_query("count of R"), schemas)
    for seed in range(300):
        params = DpParams(Fraction(1), seed)
        assert sample_answers(vq, db, params, 3)[0] == dp_answer(vq, db, params).noisy_value, seed
