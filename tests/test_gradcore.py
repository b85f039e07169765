import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravac.gradcore import GradientVector, SeededRng, ewma_lambda_from_workers, squared_l2_norm
from gravac.metrics import GainTracker


class TestGradientVector:
    def test_basic_construction(self):
        g = GradientVector([1.0, 2.0, 3.0])
        assert g.length == 3
        assert g.values.dtype == np.float32

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GradientVector([])


class TestSquaredL2Norm:
    def test_small_example(self):
        assert squared_l2_norm(GradientVector([1, 2, 2]).values) == 9.0

    def test_all_zeros(self):
        assert squared_l2_norm(GradientVector(np.zeros(10)).values) == 0.0

    def test_matches_64bit_summation_oracle(self):
        # independent oracle: exact compensated summation of float64 squares
        values = SeededRng(7).generator.standard_normal(1000).astype(np.float32)
        expected = math.fsum(float(v) ** 2 for v in values)
        got = squared_l2_norm(GradientVector(values).values)
        assert abs(got - expected) <= 1e-6 * expected

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            squared_l2_norm(np.array([]))

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal(rng.integers(1, 200)).astype(np.float32)
            b = rng.standard_normal(rng.integers(1, 200)).astype(np.float32)
            whole = squared_l2_norm(np.concatenate([a, b]))
            parts = squared_l2_norm(a) + squared_l2_norm(b)
            np.testing.assert_allclose(whole, parts, rtol=1e-12)


class TestEwma:
    """The gain EWMA, s <- lam*x + (1-lam)*s, kept per CF by GainTracker."""

    CF = 10.0

    def test_first_observation_assigned(self):
        t = GainTracker(0.5)
        assert t.observe(self.CF, 0.8) == 0.8

    def test_two_observations(self):
        t = GainTracker(0.5)
        t.observe(self.CF, 1.0)
        assert t.observe(self.CF, 0.0) == 0.5

    def test_three_step_recurrence_oracle(self):
        # hand-rolled recurrence, kept independent of the tracker
        lam, xs = 0.32, [0.9, 0.8, 0.95]
        s = xs[0]
        for x in xs[1:]:
            s = lam * x + (1 - lam) * s
        t = GainTracker(lam)
        for x in xs:
            t.observe(self.CF, x)
        np.testing.assert_allclose(t.get(self.CF), s, rtol=1e-15)

    def test_read_before_observation_errors(self):
        t = GainTracker(0.5)
        assert t.get(self.CF) is None

    def test_non_finite_rejected(self):
        t = GainTracker(0.5)
        with pytest.raises(ValueError):
            t.observe(self.CF, float("nan"))
        with pytest.raises(ValueError):
            t.observe(self.CF, float("inf"))

    def test_bad_lambda_rejected(self):
        for lam in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                GainTracker(lam)

    @given(st.floats(min_value=0.01, max_value=1.0),
           st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_convex_combination(self, lam, xs):
        # the tracker smooths the observations clamped to at most 1
        t = GainTracker(lam)
        for x in xs:
            t.observe(self.CF, x)
        clamped = [min(1.0, x) for x in xs]
        low, high = min(clamped), max(clamped)
        assert low - 1e-9 * (1 + abs(low)) <= t.get(self.CF)
        assert t.get(self.CF) <= high + 1e-9 * (1 + abs(high))


class TestLambdaFromWorkers:
    def test_paper_rule(self):
        assert ewma_lambda_from_workers(32) == pytest.approx(0.32)

    def test_clamp_upper(self):
        assert ewma_lambda_from_workers(200) == 1.0

    def test_clamp_lower(self):
        assert ewma_lambda_from_workers(1) == 0.01

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            ewma_lambda_from_workers(0)


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        a = SeededRng(1234).generator.random(1_000_000)
        b = SeededRng(1234).generator.random(1_000_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeededRng(1).generator.random(100)
        b = SeededRng(2).generator.random(100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**53, 2**63, 2**64])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SeededRng(seed)

    def test_largest_seeds_keep_distinct_substreams(self):
        # numpy reads the Philox key as float64 when the stream is >= 2**63;
        # 2**53 and 2**53 + 1 collided there, the two largest valid seeds do not
        a, b = SeededRng(2**53 - 1), SeededRng(2**53 - 2)
        high = [p for p in range(32) if a.split(p).stream >= 2**63]
        assert high
        for p in high:
            assert a.split(p).generator.random() != b.split(p).generator.random()

    def test_split_is_deterministic_and_disjoint(self):
        root = SeededRng(99)
        a1 = SeededRng(99).split(3, 4).generator.random(100)
        a2 = root.split(3, 4).generator.random(100)
        b = root.split(4, 3).generator.random(100)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
