"""Tests for the Performance Trace Table (§4.1.1)."""

import pytest

from repro.core.ptt import PerformanceTraceTable, PttStore
from repro.errors import ConfigurationError
from repro.machine.presets import jetson_tx2
from repro.machine.topology import ExecutionPlace


@pytest.fixture
def tx2():
    return jetson_tx2()


@pytest.fixture
def ptt(tx2):
    return PerformanceTraceTable(tx2)


class TestInitialization:
    def test_entries_start_at_zero(self, ptt, tx2):
        for place in tx2.places:
            assert ptt.predict(place) == 0.0
            assert ptt.samples(place) == 0
        assert ptt.explored_fraction() == 0.0

    def test_one_entry_per_place(self, ptt, tx2):
        assert len(list(ptt.entries())) == len(tx2.places)

    def test_invalid_weights_rejected(self, tx2):
        with pytest.raises(ConfigurationError):
            PerformanceTraceTable(tx2, new_weight=0)
        with pytest.raises(ConfigurationError):
            PerformanceTraceTable(tx2, new_weight=6, total_weight=5)

    def test_illegal_place_rejected(self, ptt):
        with pytest.raises(ConfigurationError):
            ptt.predict(ExecutionPlace(3, 2))


class TestUpdates:
    def test_first_sample_replaces_zero(self, ptt):
        place = ExecutionPlace(0, 1)
        assert ptt.update(place, 10.0) == 10.0
        assert ptt.predict(place) == 10.0

    def test_weighted_update_paper_rule(self, ptt):
        """updated = (4*old + new) / 5 — §4.1.1."""
        place = ExecutionPlace(0, 1)
        ptt.update(place, 10.0)
        assert ptt.update(place, 20.0) == pytest.approx(12.0)
        assert ptt.update(place, 20.0) == pytest.approx(13.6)

    def test_three_samples_to_cross_midpoint(self, ptt):
        """The paper's resilience property: after a performance change, at
        least three measurements are needed before the entry is closer to
        the new regime than the old."""
        place = ExecutionPlace(0, 1)
        for _ in range(10):
            ptt.update(place, 10.0)
        old = ptt.predict(place)
        values = [ptt.update(place, 30.0) for _ in range(4)]
        midpoint = (old + 30.0) / 2
        # Three samples still sit on the old regime's side...
        assert values[0] < midpoint
        assert values[1] < midpoint
        assert values[2] < midpoint
        # ...only the fourth crosses the midpoint.
        assert values[3] >= midpoint

    def test_heavier_weight_adapts_faster(self, tx2):
        slow = PerformanceTraceTable(tx2, new_weight=1, total_weight=5)
        fast = PerformanceTraceTable(tx2, new_weight=4, total_weight=5)
        place = ExecutionPlace(0, 1)
        for table in (slow, fast):
            table.update(place, 10.0)
            table.update(place, 30.0)
        assert fast.predict(place) > slow.predict(place)

    def test_negative_observation_rejected(self, ptt):
        with pytest.raises(ConfigurationError):
            ptt.update(ExecutionPlace(0, 1), -1.0)

    def test_samples_counted(self, ptt):
        place = ExecutionPlace(2, 4)
        for i in range(5):
            ptt.update(place, 1.0)
        assert ptt.samples(place) == 5
        assert ptt.explored_fraction() == pytest.approx(1 / 10)

    def test_fixed_point(self, ptt):
        """Updating with the current value leaves it unchanged."""
        place = ExecutionPlace(4, 2)
        ptt.update(place, 7.0)
        for _ in range(3):
            assert ptt.update(place, 7.0) == pytest.approx(7.0)

    def test_value_bounded_by_sample_range(self, ptt):
        place = ExecutionPlace(0, 2)
        samples = [5.0, 1.0, 9.0, 3.0, 7.0]
        for s in samples:
            ptt.update(place, s)
        assert min(samples) <= ptt.predict(place) <= max(samples)


class TestPttStore:
    def test_one_table_per_type(self, tx2):
        store = PttStore(tx2)
        a = store.table("matmul")
        b = store.table("copy")
        assert a is not b
        assert store.table("matmul") is a
        assert len(store) == 2
        assert set(store.known_types()) == {"matmul", "copy"}

    def test_store_propagates_weights(self, tx2):
        store = PttStore(tx2, new_weight=2, total_weight=5)
        table = store.table("x")
        place = ExecutionPlace(0, 1)
        table.update(place, 10.0)
        assert table.update(place, 20.0) == pytest.approx(14.0)
