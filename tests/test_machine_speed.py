"""Tests for the speed model's work integration and contention."""

import pytest

from repro.errors import ConfigurationError
from repro.machine.presets import jetson_tx2, symmetric_machine
from repro.machine.speed import SpeedModel
from repro.sim.environment import Environment


def finish_times(env, *works):
    """Attach completion recorders; returns a list filled at completion."""
    out = []
    for work in works:
        work.done.callbacks.append(
            lambda e, w=work: out.append((w.work_id, env.now, e.value))
        )
    return out


class TestBasicIntegration:
    def test_constant_rate(self, env, speed):
        work = speed.begin_work([1], work=4.0)  # Denver core, speed 2
        out = finish_times(env, work)
        env.run()
        assert out == [(work.work_id, 2.0, 2.0)]

    def test_rate_change_mid_flight(self, env, speed):
        work = speed.begin_work([0], work=4.0)  # speed 2
        out = finish_times(env, work)

        def scenario():
            yield env.timeout(1.0)          # 2 units done
            speed.set_cpu_share([0], 0.5)   # rate 1 -> 2 more units in 2 s
        env.process(scenario())
        env.run()
        assert out[0][1] == pytest.approx(3.0)

    def test_rate_recovery(self, env, speed):
        speed.set_cpu_share([0], 0.5)
        work = speed.begin_work([0], work=4.0)  # rate 1
        out = finish_times(env, work)

        def scenario():
            yield env.timeout(1.0)          # 1 unit done
            speed.set_cpu_share([0], 1.0)   # rate 2 -> 3 units in 1.5 s
        env.process(scenario())
        env.run()
        assert out[0][1] == pytest.approx(2.5)

    def test_zero_work_completes_instantly(self, env, speed):
        work = speed.begin_work([0], work=0.0)
        assert work.done.triggered
        assert work.done.value == 0.0

    def test_assembly_runs_at_slowest_member(self, env, speed):
        # Denver core 0 (speed 2) + under co-runner share 0.5 -> rate 1.
        speed.set_cpu_share([0], 0.5)
        work = speed.begin_work([0, 1], work=3.0)
        out = finish_times(env, work)
        env.run()
        assert out[0][1] == pytest.approx(3.0)

    def test_multiple_independent_works(self, env, speed):
        w1 = speed.begin_work([0], work=2.0)  # 1 s at rate 2
        w2 = speed.begin_work([2], work=2.0)  # 2 s at rate 1 (A57)
        out = finish_times(env, w1, w2)
        env.run()
        assert {(t, v) for _i, t, v in out} == {(1.0, 1.0), (2.0, 2.0)}


class TestValidation:
    def test_empty_cores_rejected(self, speed):
        with pytest.raises(ConfigurationError):
            speed.begin_work([], work=1.0)

    def test_negative_work_rejected(self, speed):
        with pytest.raises(ConfigurationError):
            speed.begin_work([0], work=-1.0)

    def test_cross_domain_work_rejected(self):
        env = Environment()
        machine = symmetric_machine(2, 4)
        model = SpeedModel(env, machine)
        with pytest.raises(ConfigurationError):
            model.begin_work([0, 4], work=1.0)  # socket0 + socket1

    def test_bad_share_rejected(self, speed):
        with pytest.raises(ConfigurationError):
            speed.set_cpu_share([0], 0.0)
        with pytest.raises(ConfigurationError):
            speed.set_cpu_share([0], 1.5)

    def test_bad_freq_rejected(self, speed):
        with pytest.raises(ConfigurationError):
            speed.set_freq_scale([0], 0.0)

    def test_unknown_domain_demand_rejected(self, speed):
        with pytest.raises(ConfigurationError):
            speed.add_external_demand("nope", 1.0)

    def test_negative_demand_rejected(self, speed):
        with pytest.raises(ConfigurationError):
            speed.add_external_demand("dram", -1.0)

    def test_demand_underflow_rejected(self, speed):
        speed.add_external_demand("dram", 1.0)
        from repro.errors import RuntimeStateError
        with pytest.raises(RuntimeStateError):
            speed.remove_external_demand("dram", 2.0)


class TestMemoryContention:
    def test_oversubscribed_domain_slows_memory_bound_work(self, env, tx2):
        speed = SpeedModel(env, tx2)  # dram capacity 4.0
        # Fully memory-bound work with demand saturating the domain twice.
        work = speed.begin_work([2], work=1.0, memory_intensity=1.0, demand=8.0)
        out = finish_times(env, work)
        env.run()
        # factor = 4/8 = 0.5 -> rate = 1 * 0.5 -> 2 s instead of 1 s.
        assert out[0][1] == pytest.approx(2.0)

    def test_compute_bound_work_ignores_contention(self, env, tx2):
        speed = SpeedModel(env, tx2)
        speed.add_external_demand("dram", 100.0)
        work = speed.begin_work([2], work=1.0, memory_intensity=0.0)
        out = finish_times(env, work)
        env.run()
        assert out[0][1] == pytest.approx(1.0)

    def test_departing_work_releases_bandwidth(self, env, tx2):
        speed = SpeedModel(env, tx2)
        # First work holds demand 4 (saturates); second is memory-bound.
        w1 = speed.begin_work([2], work=1.0, memory_intensity=1.0, demand=4.0)
        w2 = speed.begin_work([3], work=2.0, memory_intensity=1.0, demand=4.0)
        out = finish_times(env, w1, w2)
        env.run()
        # While both run: total demand 8 > 4, each at factor 0.5.
        # w1 finishes at t=2 (1 unit at rate 0.5); w2 then has 1 unit left
        # at factor 1 -> finishes at t=3.
        times = {i: t for i, t, _v in out}
        assert times[w1.work_id] == pytest.approx(2.0)
        assert times[w2.work_id] == pytest.approx(3.0)

    def test_start_as_equal_demand_item_finishes_is_timed(self, env, tx2):
        # Near capacity, starting w2 looks like a bandwidth-factor change,
        # but w1 (equal demand) runs out at the same instant and restores
        # the factor, so the domain is not re-timed; w2 must still get a
        # rate and a completion check.
        speed = SpeedModel(env, tx2)  # dram capacity 4.0
        start = env.timeout(1.0)  # queued ahead of w1's completion check
        w1 = speed.begin_work([2], work=1.0, memory_intensity=1.0, demand=3.0)
        started = []

        def scenario():
            yield start
            started.append(
                speed.begin_work([3], work=1.0, memory_intensity=1.0, demand=3.0)
            )

        env.process(scenario())
        env.run()
        (w2,) = started
        assert w1.done.value == pytest.approx(1.0)
        # w2 runs alone once w1 is gone: factor 1, rate 1, one second.
        assert w2.done.triggered
        assert w2.done.value == pytest.approx(1.0)
        assert speed.active_count() == 0

    def test_fig4_fa_copy_p2_seed3_completes(self):
        # This fig4 cell deadlocked when the rule above was broken.
        from repro.experiments.common import ExperimentSettings
        from repro.experiments.fig4_corunner import fig4_spec
        from repro.sweep.registry import execute_spec

        spec = fig4_spec(ExperimentSettings(scale=0.002, seed=3), "copy", 2, "fa")
        assert execute_spec(spec)["throughput"] > 0

    def test_external_demand_add_remove_roundtrip(self, env, tx2):
        speed = SpeedModel(env, tx2)
        speed.add_external_demand("dram", 2.5)
        speed.remove_external_demand("dram", 2.5)
        assert speed.external_demand("dram") == pytest.approx(0.0)


class TestWorkConservation:
    def test_total_work_conserved_under_many_changes(self, env, tx2):
        """Whatever the rate schedule, integrated work equals the input."""
        speed = SpeedModel(env, tx2)
        work = speed.begin_work([0], work=5.0)
        out = finish_times(env, work)

        def choppy():
            shares = [0.3, 0.7, 0.5, 1.0, 0.2, 0.9]
            for share in shares:
                yield env.timeout(0.4)
                speed.set_cpu_share([0], share)

        env.process(choppy())
        env.run()
        # Reconstruct the integral from the known schedule.
        finish = out[0][1]
        schedule = [(0.0, 2.0)] + [
            (0.4 * (i + 1), 2.0 * s)
            for i, s in enumerate([0.3, 0.7, 0.5, 1.0, 0.2, 0.9])
        ]
        total = 0.0
        for (t0, r), (t1, _r2) in zip(schedule, schedule[1:] + [(finish, 0)]):
            total += r * (max(0.0, min(finish, t1) - t0))
        assert total == pytest.approx(5.0, rel=1e-6)


class TestBatchedTransitions:
    """The ``batch()`` context: one grouped re-timing pass per burst."""

    @staticmethod
    def _drive(tx2, batched):
        """Run three works through two transition bursts; returns
        ``(index, finish_time, integrated_work)`` per work."""
        env = Environment()
        speed = SpeedModel(env, tx2)
        works = [
            speed.begin_work([0], work=4.0),
            speed.begin_work([2], work=3.0, memory_intensity=1.0,
                             demand=2.0),
            speed.begin_work([3], work=2.0, memory_intensity=0.5,
                             demand=1.0),
        ]
        out = []
        for index, work in enumerate(works):
            work.done.callbacks.append(
                lambda e, i=index: out.append((i, env.now, e.value))
            )

        def burst(apply):
            if batched:
                with speed.batch():
                    apply()
            else:
                apply()

        def scenario():
            yield env.timeout(0.5)

            def degrade():
                speed.set_cpu_share([0, 2], 0.5)
                speed.add_external_demand("dram", 3.0)
                speed.set_freq_scale([3], 0.8)
            burst(degrade)
            yield env.timeout(0.7)

            def restore():
                speed.set_cpu_share([0, 2], 1.0)
                speed.remove_external_demand("dram", 3.0)
                speed.set_freq_scale([3], 1.0)
            burst(restore)

        env.process(scenario())
        env.run()
        return sorted(out)

    def test_batch_matches_sequential_transitions(self, tx2):
        """A batched burst lands every in-flight work at the same times
        as the same transitions applied one by one."""
        sequential = self._drive(tx2, batched=False)
        batched = self._drive(tx2, batched=True)
        assert len(batched) == len(sequential) == 3
        for (i_a, t_a, v_a), (i_b, t_b, v_b) in zip(batched, sequential):
            assert i_a == i_b
            assert t_a == pytest.approx(t_b, rel=1e-12)
            assert v_a == pytest.approx(v_b, rel=1e-12)

    def test_net_zero_batch_changes_nothing(self, env, tx2):
        """Set-then-restore inside one batch must not re-time anyone."""
        speed = SpeedModel(env, tx2)
        work = speed.begin_work([0], work=4.0)
        out = finish_times(env, work)

        def scenario():
            yield env.timeout(0.5)
            with speed.batch():
                speed.set_cpu_share([0], 0.25)
                speed.add_external_demand("dram", 5.0)
                speed.remove_external_demand("dram", 5.0)
                speed.set_cpu_share([0], 1.0)

        env.process(scenario())
        env.run()
        assert out[0][1] == pytest.approx(2.0)  # 4 units at rate 2

    def test_nested_batches_flush_once_at_outermost(self, env, tx2):
        speed = SpeedModel(env, tx2)
        work = speed.begin_work([0], work=4.0)
        out = finish_times(env, work)

        def scenario():
            yield env.timeout(1.0)
            with speed.batch():
                with speed.batch():
                    speed.set_cpu_share([0], 0.5)
                # Tables mutate immediately; only the re-timing of the
                # in-flight work waits for the outermost batch to close.
                assert speed.core_rate(0) == pytest.approx(1.0)

        env.process(scenario())
        env.run()
        # 2 units by t=1 at rate 2, then 2 more at rate 1 -> t=3.
        assert out[0][1] == pytest.approx(3.0)

    def test_transition_on_idle_cores_skips_retiming(self, env, tx2):
        """Rate changes on cores with no in-flight work are bookkeeping
        only — in-flight work elsewhere keeps its completion time."""
        speed = SpeedModel(env, tx2)
        work = speed.begin_work([0], work=4.0)
        out = finish_times(env, work)

        def scenario():
            yield env.timeout(0.5)
            speed.set_cpu_share([4, 5], 0.3)  # idle A57 cores
            speed.set_freq_scale([2, 3], 0.7)

        env.process(scenario())
        env.run()
        assert out[0][1] == pytest.approx(2.0)
        assert speed.core_rate(4) == pytest.approx(0.3)
