"""Tests of the adaptive sweep executor (replication, CI, dispatch).

Contracts under test:

* ``Welford`` reproduces batch statistics and exact one-sample values.
* Replicate 0 of any cell *is* the cell; derived replicate seeds are
  deterministic and do not move the cost key.
* ``run_adaptive`` with ``min_seeds == max_seeds == 1`` is bit-identical
  to a plain ``run`` once the reserved ``"adaptive"`` key is stripped.
* Dispatch order — whatever the cost model predicts — never changes any
  metric value, only submission order.
"""

import json
import statistics

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSettings
from repro.experiments.fig4_corunner import fig4_spec
from repro.sweep import (
    ADAPTIVE_KEY,
    AdaptivePolicy,
    CostModel,
    RunSpec,
    SweepRunner,
    aggregate_replicates,
    replicate_spec,
)
from repro.util.stats import Welford, t_critical

finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


def _specs():
    """A tiny fig4 slice — real runs, small enough for property tests."""
    settings = ExperimentSettings(scale=0.01)
    return [
        fig4_spec(settings, "matmul", 2, sched)
        for sched in ("rws", "fa", "dam-c")
    ]


def _strip(results):
    return [
        {k: v for k, v in row.items() if k != ADAPTIVE_KEY} for row in results
    ]


class TestWelford:
    @given(st.lists(finite, min_size=2, max_size=40))
    def test_matches_batch_statistics(self, values):
        acc = Welford()
        for v in values:
            acc.add(v)
        assert acc.count == len(values)
        assert acc.mean == pytest.approx(statistics.fmean(values), abs=1e-6)
        assert acc.variance == pytest.approx(
            statistics.variance(values), rel=1e-9, abs=1e-6
        )

    def test_single_sample_is_exact(self):
        acc = Welford()
        acc.add(0.1)
        assert acc.mean == 0.1  # bit-for-bit, no arithmetic detour
        assert acc.variance == 0.0
        assert acc.ci_halfwidth() == float("inf")

    def test_zero_variance_converges(self):
        acc = Welford()
        for _ in range(3):
            acc.add(5.0)
        assert acc.ci_halfwidth() == 0.0
        assert acc.relative_ci() == 0.0

    def test_t_critical_reference_values(self):
        assert t_critical(0.95, 9) == pytest.approx(2.2622, abs=1e-3)
        assert t_critical(0.95, 1) == pytest.approx(12.706, abs=1e-2)
        assert t_critical(0.99, 30) == pytest.approx(2.750, abs=1e-3)

    def test_halfwidth_shrinks_with_samples(self):
        small, large = Welford(), Welford()
        values = [1.0, 2.0, 3.0, 1.5, 2.5]
        for v in values:
            small.add(v)
        for v in values * 4:
            large.add(v)
        assert large.ci_halfwidth() < small.ci_halfwidth()


class TestReplicateSpec:
    def test_replicate_zero_is_the_cell(self):
        spec = _specs()[0]
        assert replicate_spec(spec, 0) is spec

    def test_derived_seeds_deterministic_and_distinct(self):
        spec = _specs()[0]
        reps = [replicate_spec(spec, i) for i in range(4)]
        again = [replicate_spec(spec, i) for i in range(4)]
        assert [r.seed for r in reps] == [r.seed for r in again]
        assert len({r.seed for r in reps}) == 4
        assert [r.key() for r in reps] == [r.key() for r in again]

    def test_replicates_share_cost_key_not_cache_key(self):
        spec = _specs()[0]
        rep = replicate_spec(spec, 2)
        assert rep.cost_key() == spec.cost_key()
        assert rep.key() != spec.key()
        assert rep.tags["replicate"] == 2

    def test_negative_replicate_rejected(self):
        with pytest.raises(ConfigurationError):
            replicate_spec(_specs()[0], -1)


class TestAggregation:
    @given(
        st.dictionaries(
            st.sampled_from(["throughput", "makespan", "tasks"]),
            finite,
            min_size=1,
        )
    )
    def test_single_replicate_identity(self, metrics):
        policy = AdaptivePolicy(ci=0.0, min_seeds=1, max_seeds=1)
        out = aggregate_replicates([dict(metrics)], policy)
        assert {k: v for k, v in out.items() if k != ADAPTIVE_KEY} == metrics
        assert out[ADAPTIVE_KEY]["replicates"] == 1

    def test_single_replicate_preserves_int_type(self):
        policy = AdaptivePolicy(ci=0.0, min_seeds=1, max_seeds=1)
        out = aggregate_replicates([{"tasks_completed": 1500}], policy)
        assert out["tasks_completed"] == 1500
        assert isinstance(out["tasks_completed"], int)

    @given(st.lists(finite, min_size=2, max_size=12))
    def test_scalar_mean_over_replicates(self, values):
        policy = AdaptivePolicy(ci=0.0, min_seeds=1, max_seeds=len(values))
        out = aggregate_replicates([{"m": v} for v in values], policy)
        assert out["m"] == pytest.approx(statistics.fmean(values), abs=1e-6)

    def test_non_scalar_keeps_replicate_zero(self):
        policy = AdaptivePolicy(ci=0.5, min_seeds=1, max_seeds=3)
        rows = [
            {"throughput": 10.0, "hist": [1, 2], "name": "a"},
            {"throughput": 12.0, "hist": [3, 4], "name": "b"},
        ]
        out = aggregate_replicates(rows, policy)
        assert out["throughput"] == pytest.approx(11.0)
        assert out["hist"] == [1, 2]
        assert out["name"] == "a"

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptivePolicy(ci=-0.1)
        with pytest.raises(ConfigurationError):
            AdaptivePolicy(min_seeds=0)
        with pytest.raises(ConfigurationError):
            AdaptivePolicy(min_seeds=5, max_seeds=3)
        with pytest.raises(ConfigurationError):
            AdaptivePolicy(confidence=1.0)


class TestCostModel:
    def _spec(self, sched):
        return _specs()[("rws", "fa", "dam-c").index(sched)]

    def test_order_unknown_first_then_longest(self):
        model = CostModel()
        fast, mid, slow = (self._spec(s) for s in ("rws", "fa", "dam-c"))
        for _ in range(3):
            model.observe(fast, 1.0)
            model.observe(slow, 9.0)
        pending = [
            (fast.key(), fast), (slow.key(), slow), (mid.key(), mid)
        ]
        ordered = model.order(pending)
        # mid has a family ("single") estimate, so nothing is unknown;
        # slow's 9 s beats every blended estimate.
        assert ordered[0][0] == slow.key()
        assert {k for k, _ in ordered} == {k for k, _ in pending}

    def test_unknown_kind_leads(self):
        model = CostModel()
        known = self._spec("rws")
        model.observe(known, 2.0)
        unknown = RunSpec(kind="table1", params={}, metrics=("x",))
        ordered = model.order([(known.key(), known), ("u", unknown)])
        assert ordered[0][0] == "u"

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "model.json"
        model = CostModel(path)
        spec = self._spec("rws")
        model.observe(spec, 3.0)
        model.save()
        reloaded = CostModel(path)
        assert reloaded.predict(spec) == pytest.approx(3.0)

    def test_corrupt_model_file_ignored(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{broken")
        model = CostModel(path)
        assert model.predict(self._spec("rws")) is None
        path.write_text(json.dumps([1, 2, 3]))
        assert CostModel(path).predict(self._spec("rws")) is None

    def test_ewma_update_rule_pinned(self):
        # Regression pin of the exact fold: first observation seeds the
        # estimate at (seconds, 1); each later one blends at alpha=0.3.
        model = CostModel()
        spec = self._spec("rws")
        model.observe(spec, 2.0)
        assert model._exact[spec.cost_key()] == (2.0, 1)
        model.observe(spec, 4.0)
        mean, samples = model._exact[spec.cost_key()]
        assert mean == pytest.approx(0.7 * 2.0 + 0.3 * 4.0)
        assert samples == 2

    def test_batch_marginal_trains_batch_key_only(self):
        from repro.core.batched import make_batch_spec
        from repro.sweep.cost import BATCH_KEY_PREFIX

        model = CostModel()
        member = self._spec("dam-c")
        members = [replicate_spec(member, rep) for rep in range(4)]
        pseudo = make_batch_spec(members)

        # A batch can be cheaper per replicate than a scalar run;
        # observing its wall must not drag down the scalar estimate.
        model.observe(member, 10.0)
        model.observe(pseudo, 8.0)  # marginal 2.0 << scalar 10.0
        assert model._exact[member.cost_key()] == (10.0, 1)
        key = BATCH_KEY_PREFIX + member.cost_key()
        assert model._exact[key] == (2.0, 1)
        # Batch pricing uses the batched marginal once it exists...
        assert model.predict(pseudo) == pytest.approx(2.0 * 4)
        # ...and the batched marginal folds by the same pinned EWMA.
        model.observe(pseudo, 4.0)  # marginal 1.0
        mean, samples = model._exact[key]
        assert mean == pytest.approx(0.7 * 2.0 + 0.3 * 1.0)
        assert samples == 2
        # Scalar prediction still reflects only scalar observations.
        assert model.predict(member) == pytest.approx(10.0)

    def test_unseen_batch_prices_at_member_estimate(self):
        from repro.core.batched import make_batch_spec

        model = CostModel()
        member = self._spec("dam-c")
        members = [replicate_spec(member, rep) for rep in range(3)]
        pseudo = make_batch_spec(members)
        assert model.predict(pseudo) is None
        model.observe(member, 6.0)
        # No batch observed yet: the scalar marginal stands in.
        assert model.predict(pseudo) == pytest.approx(6.0 * 3)
        # Batch observations never touch the per-kind family fallback.
        assert model._family["single"] == (6.0, 1)
        model.observe(pseudo, 3.0)
        assert model._family["single"] == (6.0, 1)


class TestAdaptiveEngine:
    @pytest.fixture(scope="class")
    def baseline(self):
        """Plain-sweep results of the tiny slice, computed once."""
        return SweepRunner(jobs=1, use_cache=False, progress=False).run(
            _specs()
        )

    def test_policy_none_is_plain_run(self, baseline):
        runner = SweepRunner(jobs=1, use_cache=False, progress=False)
        assert runner.run_adaptive(_specs(), None) == baseline

    def test_single_seed_adaptive_bit_identical(self, baseline):
        runner = SweepRunner(jobs=1, use_cache=False, progress=False)
        policy = AdaptivePolicy(ci=0.0, min_seeds=1, max_seeds=1)
        out = runner.run_adaptive(_specs(), policy)
        assert _strip(out) == baseline  # exact equality, input order

    @given(ci=st.floats(min_value=0.0, max_value=0.5), seeds=st.integers(1, 3))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_min_equals_max_matches_fixed_replication(self, ci, seeds):
        """With min==max the CI target is irrelevant: every cell runs
        exactly ``seeds`` replicates, whatever ``ci`` says."""
        specs = _specs()[:2]
        policy = AdaptivePolicy(ci=ci, min_seeds=seeds, max_seeds=seeds)
        runner = SweepRunner(jobs=1, use_cache=False, progress=False)
        out = runner.run_adaptive(specs, policy)
        fixed = [
            replicate_spec(spec, rep)
            for spec in specs
            for rep in range(seeds)
        ]
        rows = SweepRunner(jobs=1, use_cache=False, progress=False).run(fixed)
        expected = [
            aggregate_replicates(rows[i * seeds:(i + 1) * seeds], policy)
            for i in range(len(specs))
        ]
        assert _strip(out) == _strip(expected)
        assert all(row[ADAPTIVE_KEY]["replicates"] == seeds for row in out)

    @given(
        costs=st.lists(
            st.floats(min_value=0.001, max_value=100.0), min_size=3, max_size=3
        )
    )
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_dispatch_order_never_affects_metrics(self, baseline, costs):
        """Arbitrary cost-model state permutes submission order only."""
        specs = _specs()
        runner = SweepRunner(jobs=1, use_cache=False, progress=False)
        for spec, cost in zip(specs, costs):
            runner.cost_model.observe(spec, cost)
        assert runner.run(specs) == baseline

    def test_dispatch_order_parallel_matches_serial(self, baseline):
        runner = SweepRunner(jobs=3, use_cache=False, progress=False)
        for spec, cost in zip(_specs(), (50.0, 0.1, 7.0)):
            runner.cost_model.observe(spec, cost)
        assert runner.run(_specs()) == baseline

    def test_zero_variance_cell_stops_at_min_seeds(self, tmp_path):
        # scale 0.01 runs are deterministic per seed but vary across
        # seeds; with a generous CI target the loop must stop early.
        specs = _specs()[:1]
        policy = AdaptivePolicy(ci=10.0, min_seeds=2, max_seeds=8)
        runner = SweepRunner(
            jobs=1, cache_dir=tmp_path, use_cache=True, progress=False
        )
        out = runner.run_adaptive(specs, policy)
        assert out[0][ADAPTIVE_KEY]["replicates"] == 2
        assert out[0][ADAPTIVE_KEY]["converged"]
        assert runner.last_stats.seeds_saved == 6
        assert runner.last_stats.seeds_added == 0
        assert runner.last_stats.cells == 1

    def test_adaptive_shares_cache_with_plain_sweeps(self, tmp_path):
        specs = _specs()[:1]
        SweepRunner(
            jobs=1, cache_dir=tmp_path, use_cache=True, progress=False
        ).run(specs)
        runner = SweepRunner(
            jobs=1, cache_dir=tmp_path, use_cache=True, progress=False
        )
        policy = AdaptivePolicy(ci=0.0, min_seeds=1, max_seeds=1)
        runner.run_adaptive(specs, policy)
        # Replicate 0 is the base spec: its plain-sweep entry must hit.
        assert runner.last_stats.hits == 1
        assert runner.last_stats.executed == 0

    def test_manifest_carries_stats_and_replicates(self, tmp_path):
        specs = _specs()[:2]
        runner = SweepRunner(
            jobs=1,
            cache_dir=tmp_path / "cache",
            use_cache=True,
            progress=False,
            manifest_dir=tmp_path,
        )
        policy = AdaptivePolicy(ci=0.0, min_seeds=2, max_seeds=2)
        runner.run_adaptive(specs, policy)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        stats = manifest["stats"]
        assert stats["cells"] == 2
        assert stats["executed"] == 4
        assert stats["hit_rate"] == 0.0
        assert len(manifest["runs"]) == 4
        replicates = sorted(
            run["tags"].get("replicate", 0) for run in manifest["runs"]
        )
        assert replicates == [0, 0, 1, 1]

    def test_plain_manifest_carries_stats(self, tmp_path):
        specs = _specs()[:1]
        runner = SweepRunner(
            jobs=1,
            cache_dir=tmp_path / "cache",
            use_cache=True,
            progress=False,
            manifest_dir=tmp_path,
        )
        runner.run(specs)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["stats"]["executed"] == 1
        assert manifest["stats"]["cells"] == 0
