"""Tests for utility helpers."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.util.rng import RngFactory, StreamPool, make_rng, spawn_rngs
from repro.util.stats import (
    geometric_mean,
    summarize,
    t_critical,
    weighted_average,
)
from repro.util.tables import format_table
from repro.util.validation import require, require_in_range, require_positive


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_spawn_rngs_independent_streams(self):
        children = spawn_rngs(0, 3)
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3

    def test_spawn_rngs_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_stream_pool_hands_out_the_seeds_streams_on_reused_objects(self):
        def draws(streams):
            return [g.integers(0, 1 << 30, size=4).tolist() for g in streams]

        pool = StreamPool()
        first = pool.take(7, 3)
        assert draws(first) == draws([make_rng(7), *spawn_rngs(7, 3)])
        pool.give_back(7, first)
        second = pool.take(7, 3)  # reset, not rebuilt
        assert {id(g) for g in second} == {id(g) for g in first}
        assert draws(second) == draws([make_rng(7), *spawn_rngs(7, 3)])
        assert {id(g) for g in pool.take(7, 3)}.isdisjoint(
            id(g) for g in second
        )

    def test_stream_pool_never_adopts_a_callers_generator(self):
        pool = StreamPool()
        gen = np.random.default_rng(1)
        streams = pool.take(gen, 2)
        assert streams[0] is gen
        pool.give_back(gen, streams)
        assert all(g is not gen for g in pool.take(1, 2))

    def test_factory_same_name_same_stream(self):
        factory = RngFactory(42)
        a = factory.get("steal").random(4)
        b = factory.get("steal").random(4)
        assert np.array_equal(a, b)

    def test_factory_different_names_differ(self):
        factory = RngFactory(42)
        assert factory.get("a").random() != factory.get("b").random()

    def test_factory_seed_changes_streams(self):
        assert RngFactory(1).get("x").random() != RngFactory(2).get("x").random()


class TestStats:
    def test_weighted_average_paper_rule(self):
        # updated = (4*old + new) / 5
        assert weighted_average(10.0, 20.0, 1, 5) == pytest.approx(12.0)

    def test_weighted_average_full_weight_replaces(self):
        assert weighted_average(10.0, 20.0, 5, 5) == pytest.approx(20.0)

    def test_weighted_average_validates(self):
        with pytest.raises(ValueError):
            weighted_average(1.0, 2.0, 0, 5)
        with pytest.raises(ValueError):
            weighted_average(1.0, 2.0, 6, 5)

    def test_weighted_average_converges_after_three_updates(self):
        # The paper's resilience claim: after a regime change, at least
        # three samples are needed before the value is closer to the new
        # regime than the old one.
        value = 1.0
        history = []
        for _ in range(5):
            value = weighted_average(value, 2.0, 1, 5)
            history.append(value)
        assert history[0] < 1.5 and history[1] < 1.5
        assert history[2] > 1.48  # roughly at the midpoint after 3 samples

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.stdev == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestTCritical:
    """``t_critical`` is cached per ``(confidence, df)``."""

    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    def test_cached_equals_uncached_bisection(self, confidence):
        for df in range(1, 13):
            expected = t_critical.__wrapped__(confidence, df)
            assert t_critical(confidence, df) == expected
            assert t_critical(confidence, df) == expected

    def test_repeated_calls_return_the_same_float(self):
        first = t_critical(0.95, 7)
        assert t_critical(0.95, 7) is first

    @pytest.mark.parametrize(
        "confidence, df", [(0.0, 5), (1.0, 5), (-0.5, 5), (0.95, 0)]
    )
    def test_bad_arguments_raise(self, confidence, df):
        for _ in range(2):
            with pytest.raises(ValueError):
                t_critical(confidence, df)


class TestTables:
    def test_alignment_and_title(self):
        out = format_table(["A", "Blong"], [[1, 2.5], ["xx", 10000.0]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Blong" in lines[1]
        assert len(lines) == 5

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["A"], [[1, 2]])

    def test_float_rendering(self):
        out = format_table(["v"], [[0.123456]])
        assert "0.123" in out


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ConfigurationError, match="broken"):
            require(False, "broken")

    def test_require_positive(self):
        assert require_positive(2.0, "x") == 2.0
        with pytest.raises(ConfigurationError):
            require_positive(0.0, "x")

    def test_require_in_range(self):
        assert require_in_range(0.5, 0, 1, "x") == 0.5
        with pytest.raises(ConfigurationError):
            require_in_range(1.5, 0, 1, "x")
