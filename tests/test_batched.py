"""Tests of batched replicate execution (``repro.core.batched``).

Contracts under test:

* ``execute_batch`` returns metrics bit-identical (``==``, not approx)
  to scalar ``execute_spec`` per replicate, for random cells, every
  scheduler, widths 1..8 and a divergent-seed steal storm, and a
  replicate failing at construction or mid-run never aborts its
  batchmates.
* ``run_adaptive`` with ``batch_runs="auto"`` returns exactly the
  results of ``batch_runs="off"``, with per-replicate cache entries and
  per-replicate ``seeds_added`` accounting.
* Fallback triggers: fault scenarios, seeded-RNG (unkeyable) kernels,
  traced runs and non-``single`` executors are rejected by
  :func:`can_batch` (with a specific :func:`batch_ineligible_reason`)
  and take the scalar path end to end.
* The manifest's structured ``batched`` entry carries the width for
  batched replicates and the fallback reason for scalar ones, and the
  CLI/settings knob validates its inputs.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batched import (
    batch_group_key,
    batch_ineligible_reason,
    can_batch,
    execute_batch,
    make_batch_spec,
    parse_batch_spec,
)
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSettings
from repro.experiments.fig4_corunner import fig4_spec
from repro.sweep import AdaptivePolicy, RunSpec, SweepRunner, replicate_spec
from repro.sweep.engine import _parse_batch_runs
from repro.sweep.registry import execute_spec

TINY = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _cell(scheduler="dam-c", kernel="matmul", parallelism=2, seed=0):
    return fig4_spec(
        ExperimentSettings(scale=0.01, seed=seed), kernel, parallelism,
        scheduler,
    )


def _replicates(spec, n):
    return [replicate_spec(spec, rep) for rep in range(n)]


# ----------------------------------------------------------------------
# eligibility and pseudo-specs
# ----------------------------------------------------------------------

class TestEligibility:
    def test_plain_cell_is_batchable(self):
        assert can_batch(_cell())

    def test_fault_scenario_is_not(self):
        spec = _cell()
        params = dict(spec.params)
        params["scenario"] = {"name": "faults", "rate": 0.1}
        assert not can_batch(RunSpec(kind="single", params=params))
        # ... also nested inside a composite.
        params["scenario"] = {
            "name": "composite",
            "scenarios": [
                {"name": "tx2_corunner", "kernel": "matmul"},
                {"name": "faults", "rate": 0.1},
            ],
        }
        assert not can_batch(RunSpec(kind="single", params=params))

    def test_traced_and_foreign_kinds_are_not(self):
        spec = _cell()
        params = dict(spec.params)
        params["trace"] = {"out_dir": "x", "label": "y"}
        assert not can_batch(RunSpec(kind="single", params=params))
        assert not can_batch(RunSpec(kind="heat_cluster", params={}))

    def test_unkeyable_kernel_falls_back(self, monkeypatch):
        import repro.core.batched as batched_mod

        monkeypatch.setattr(
            "repro.core.batched.can_batch", batched_mod.can_batch
        )
        monkeypatch.setattr(
            "repro.graph.templates.kernel_cache_key", lambda kernel: None
        )
        assert not can_batch(_cell())

    def test_batch_group_key_ignores_seed_only(self):
        a, b = _cell(seed=0), _cell(seed=99)
        assert batch_group_key(a) == batch_group_key(b)
        other = _cell(scheduler="rws")
        assert batch_group_key(a) != batch_group_key(other)

    def test_make_parse_roundtrip(self):
        members = _replicates(_cell(), 3)
        pseudo = make_batch_spec(members)
        assert pseudo.tags["batch"] == 3
        # Tags are bookkeeping and deliberately dropped; everything that
        # defines the runs' outcomes round-trips exactly.
        assert [m.identity() for m in parse_batch_spec(pseudo)] == [
            m.identity() for m in members
        ]

    def test_make_batch_spec_rejects_mixed_cells(self):
        with pytest.raises(ConfigurationError):
            make_batch_spec([_cell(), _cell(scheduler="rws")])
        with pytest.raises(ConfigurationError):
            make_batch_spec([_cell()])

    def test_ineligible_reasons_are_specific(self):
        assert batch_ineligible_reason(_cell()) is None
        spec = _cell()
        params = dict(spec.params)
        params["trace"] = {"out_dir": "x", "label": "y"}
        assert batch_ineligible_reason(
            RunSpec(kind="single", params=params)
        ) == "traced"
        params = dict(spec.params)
        params["scenario"] = {"name": "faults", "rate": 0.1}
        assert batch_ineligible_reason(
            RunSpec(kind="single", params=params)
        ) == "faults"
        assert batch_ineligible_reason(
            RunSpec(kind="heat_cluster", params={})
        ) == "executor:heat_cluster"


# ----------------------------------------------------------------------
# bit-identity of batched execution
# ----------------------------------------------------------------------

class TestExecuteBatch:
    @given(
        scheduler=st.sampled_from(["rws", "fa", "fam-c", "da", "dam-c"]),
        parallelism=st.integers(min_value=2, max_value=4),
        width=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @TINY
    def test_bit_identical_to_scalar_per_replicate(
        self, scheduler, parallelism, width, seed
    ):
        cell = _cell(scheduler=scheduler, parallelism=parallelism, seed=seed)
        members = _replicates(cell, width)
        scalar = [execute_spec(spec) for spec in members]
        batched = execute_batch(members)
        assert [p["ok"] for p in batched] == scalar

    def test_run_batch_spec_executor_roundtrip(self):
        members = _replicates(_cell(), 3)
        payload = execute_spec(make_batch_spec(members))
        assert [p["ok"] for p in payload["replicates"]] == [
            execute_spec(spec) for spec in members
        ]

    def test_broken_replicate_does_not_abort_batchmates(self, monkeypatch):
        members = _replicates(_cell(), 3)
        from repro.sweep import registry

        real = registry.build_workload
        calls = {"n": 0}

        def flaky(workload):
            calls["n"] += 1
            if calls["n"] == 2:  # second replicate only
                raise RuntimeError("boom")
            return real(workload)

        monkeypatch.setattr("repro.sweep.registry.build_workload", flaky)
        payloads = execute_batch(members)
        assert "ok" in payloads[0] and "ok" in payloads[2]
        assert payloads[1]["err"]["type"] == "RuntimeError"

    def test_mid_run_failure_never_aborts_batchmates(self, monkeypatch):
        members = _replicates(_cell(scheduler="dam-c"), 4)
        scalar = [execute_spec(spec) for spec in members]
        from repro.core.policies import registry as policy_registry

        real = policy_registry.make_scheduler
        built = {"n": 0}

        def flaky(name, **kwargs):
            policy = real(name, **kwargs)
            built["n"] += 1
            if built["n"] == 2:  # the second replicate's policy
                orig = policy.choose_place
                calls = {"n": 0}

                def boom(task, core):
                    calls["n"] += 1
                    if calls["n"] > 5:  # deep into the run
                        raise RuntimeError("replicate 1 exploded")
                    return orig(task, core)

                policy.choose_place = boom
            return policy

        monkeypatch.setattr(
            "repro.core.policies.registry.make_scheduler", flaky
        )
        payloads = execute_batch(members)
        assert payloads[1]["err"]["type"] == "RuntimeError"
        assert [payloads[i]["ok"] for i in (0, 2, 3)] == [
            scalar[i] for i in (0, 2, 3)
        ]

    def test_rejects_unbatchable_and_mixed(self):
        spec = _cell()
        params = dict(spec.params)
        params["scenario"] = {"name": "faults", "rate": 0.1}
        bad = RunSpec(kind="single", params=params)
        with pytest.raises(ConfigurationError):
            execute_batch([bad, bad])
        with pytest.raises(ConfigurationError):
            execute_batch([_cell(), _cell(scheduler="rws")])
        assert execute_batch([]) == []


class TestLockstep:
    """Wide and divergent batches against scalar ``execute_spec``.

    The class is named after the lockstep co-advance driver that once
    ran batches; the batch path now runs each replicate to completion in
    turn, and these inputs pin it to the scalar path for every
    scheduler, widths 1..8 and a divergent-seed steal storm.
    """

    @given(
        scheduler=st.sampled_from(
            ["rws", "fa", "fam-c", "da", "dam-c", "dam-p"]
        ),
        width=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @TINY
    def test_lockstep_bit_identical_to_scalar(self, scheduler, width, seed):
        members = _replicates(_cell(scheduler=scheduler, seed=seed), width)
        scalar = [execute_spec(spec) for spec in members]
        batched = execute_batch(members)
        assert [p["ok"] for p in batched] == scalar

    def test_steal_storm_with_divergent_seeds(self):
        # High parallelism on the small machine forces heavy stealing;
        # the six seeds diverge at their first steal-victim draw.
        members = _replicates(
            _cell(scheduler="da", parallelism=8, seed=7), 6
        )
        scalar = [execute_spec(spec) for spec in members]
        batched = execute_batch(members)
        assert all("ok" in p for p in batched)
        assert [p["ok"] for p in batched] == scalar


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------

def _adaptive(specs, tmp_path=None, **kwargs):
    policy = AdaptivePolicy(ci=0.02, min_seeds=3, max_seeds=5)
    runner = SweepRunner(jobs=1, use_cache=False, **kwargs)
    return runner.run_adaptive(specs, policy), runner.last_stats


class TestEngineIntegration:
    def test_auto_equals_off_bit_identical(self):
        specs = [_cell(scheduler=s) for s in ("rws", "fa", "dam-c")]
        off, _ = _adaptive(specs, batch_runs="off")
        on, stats = _adaptive(specs, batch_runs="auto")
        assert on == off
        assert stats.batches == 3
        assert stats.batched_runs == 9  # min_seeds x 3 cells, round 1
        assert "batched: 9 replicates in 3 batches" in stats.summary()

    def test_width_cap_chunks_batches(self):
        specs = [_cell(scheduler="dam-c")]
        off, _ = _adaptive(specs, batch_runs="off")
        on, stats = _adaptive(specs, batch_runs="2")
        assert on == off
        # 3 initial replicates under a width-2 cap: one batch of 2 plus
        # one scalar leftover.
        assert stats.batches == 1
        assert stats.batched_runs == 2

    def test_fault_cells_take_scalar_path(self):
        spec = _cell()
        params = dict(spec.params)
        params["scenario"] = {
            "name": "faults", "mtbf": 5.0, "mttr": 1.0, "cores": [0],
        }
        faulty = RunSpec(
            kind="single", params=params, seed=0, metrics=("throughput",)
        )
        results, stats = _adaptive([faulty], batch_runs="auto")
        assert stats.batches == 0 and stats.batched_runs == 0
        assert results and "throughput" in results[0]

    def test_seeds_added_counts_replicates_not_batches(self):
        specs = [_cell(scheduler=s) for s in ("rws", "dam-c")]
        _, off_stats = _adaptive(specs, batch_runs="off")
        _, on_stats = _adaptive(specs, batch_runs="auto")
        assert on_stats.seeds_added == off_stats.seeds_added
        assert on_stats.executed == off_stats.executed
        assert on_stats.as_dict()["batched_runs"] == on_stats.batched_runs

    def test_cache_entries_are_per_replicate(self, tmp_path):
        specs = [_cell(scheduler="dam-c")]
        policy = AdaptivePolicy(ci=0.02, min_seeds=3, max_seeds=5)
        warm = SweepRunner(
            jobs=1, cache_dir=tmp_path, use_cache=True, batch_runs="auto"
        )
        first = warm.run_adaptive(specs, policy)
        replay = SweepRunner(
            jobs=1, cache_dir=tmp_path, use_cache=True, batch_runs="off"
        )
        second = replay.run_adaptive(specs, policy)
        assert second == first
        assert replay.last_stats.executed == 0
        assert replay.last_stats.hits == replay.last_stats.unique

    def test_manifest_marks_batched_runs(self, tmp_path):
        specs = [_cell(scheduler="dam-c")]
        policy = AdaptivePolicy(ci=0.02, min_seeds=3, max_seeds=5)
        runner = SweepRunner(
            jobs=1, use_cache=False, manifest_dir=tmp_path,
            batch_runs="auto",
        )
        runner.run_adaptive(specs, policy)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        batched = [
            r for r in manifest["runs"] if r["batched"]["batched"]
        ]
        assert batched
        for r in batched:
            assert r["batched"] == {"batched": True, "width": 3}
            assert r["batch"] == 3  # legacy width field kept
        assert manifest["stats"]["batches"] >= 1
        scalars = [
            r for r in manifest["runs"] if not r["batched"]["batched"]
        ]
        for r in scalars:
            assert "batch" not in r
            assert r["batched"]["reason"]

    def test_manifest_records_ineligibility_reason(self, tmp_path):
        spec = _cell()
        params = dict(spec.params)
        params["scenario"] = {
            "name": "faults", "mtbf": 5.0, "mttr": 1.0, "cores": [0],
        }
        faulty = RunSpec(
            kind="single", params=params, seed=0, metrics=("throughput",)
        )
        policy = AdaptivePolicy(ci=0.02, min_seeds=2, max_seeds=2)
        runner = SweepRunner(
            jobs=1, use_cache=False, manifest_dir=tmp_path,
            batch_runs="auto",
        )
        runner.run_adaptive([faulty], policy)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["runs"]
        for r in manifest["runs"]:
            assert r["batched"] == {"batched": False, "reason": "faults"}

    def test_batch_harness_failure_falls_back_to_scalar(self, monkeypatch):
        specs = [_cell(scheduler="dam-c")]
        off, _ = _adaptive(specs, batch_runs="off")

        def broken(spec):
            raise RuntimeError("batch harness down")

        monkeypatch.setattr("repro.core.batched.run_batch_spec", broken)
        on, stats = _adaptive(specs, batch_runs="auto")
        assert on == off
        assert stats.batched_runs == 0
        assert stats.failures == 0


class TestKnobParsing:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, None), ("off", None), ("OFF", None), (1, None), ("1", None),
            ("auto", 0), (" AUTO ", 0), (2, 2), ("8", 8),
        ],
    )
    def test_parse(self, value, expected):
        assert _parse_batch_runs(value) == expected

    @pytest.mark.parametrize("value", ["nope", 0, -3, 2.5, True])
    def test_parse_rejects(self, value):
        with pytest.raises(ConfigurationError):
            _parse_batch_runs(value)

    def test_settings_validation(self):
        assert ExperimentSettings(batch_runs="auto").batch_runs == "auto"
        assert ExperimentSettings(batch_runs="4").batch_runs == "4"
        with pytest.raises(ConfigurationError):
            ExperimentSettings(batch_runs="sometimes")
        with pytest.raises(ConfigurationError):
            ExperimentSettings(batch_runs="0")

    def test_cli_flag_reaches_settings(self, monkeypatch):
        from repro.experiments import runner as cli

        captured = {}

        class _Result:
            def report(self):
                return "ok"

        def fake_harness(settings):
            captured["batch_runs"] = settings.batch_runs
            return _Result()

        monkeypatch.setitem(cli._HARNESSES, "fig4", fake_harness)
        assert cli.main(["fig4", "--batch-runs", "off", "--no-cache"]) == 0
        assert captured["batch_runs"] == "off"
