"""Time-varying core speeds and exact work integration.

Dynamic asymmetry enters the simulation here.  Each core's effective rate is

``rate(c, t) = base_speed(c) * freq_scale(c, t) * cpu_share(c, t)``

where ``freq_scale`` models DVFS and ``cpu_share`` models time-sharing with
co-running processes.  Rates are piecewise constant: they change only at
discrete events (a governor toggling frequency, a co-runner arriving or
leaving).

Work executes through :meth:`SpeedModel.begin_work`: an *assembly* spanning a
set of cores advances at the rate of its slowest member (members synchronize
like an SPMD region — the paper's moldable tasks), further scaled by memory
bandwidth contention on the assembly's domain.  Whenever any rate or demand
changes, all in-flight work is re-timed: remaining work is advanced under the
old rate and the completion is re-scheduled under the new one.  Task
durations therefore respond to interference exactly when it happens, which
is what the runtime's Performance Trace Table observes.

Batched replicate execution (:mod:`repro.core.batched`) gives every
replicate its own plain :class:`SpeedModel`: a transition re-times only the
work in flight at that replicate's own simulated time, and replicates
diverge in which work is in flight and how much of it remains, so there is
no cross-run retime to share.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, RuntimeStateError
from repro.machine.topology import Machine
from repro.profile.phases import active_phases
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.trace.events import SpeedEvent
from repro.trace.tracer import NULL_TRACER, Tracer

_EPS = 1e-9

#: The per-core rate-input tables a transition can write, by the ``kind``
#: tag flowing through :meth:`SpeedModel._transition_cores` (and into
#: :class:`~repro.trace.events.SpeedEvent`).
TRANSITION_KINDS = ("freq_scale", "cpu_share", "fault_scale")


class ActiveWork:
    """A unit of in-flight work registered with the :class:`SpeedModel`.

    Attributes
    ----------
    done:
        Event succeeding (with the elapsed wall time) when the work
        completes.
    cores:
        Member core ids; the work advances at the slowest member's rate.
    remaining:
        Work units still to execute (updated lazily at re-time points).
    memory_intensity:
        Fraction in [0, 1] of the work that is memory-bandwidth bound.
    demand:
        Bandwidth demand registered on the domain while running.
    """

    _ids = itertools.count()

    __slots__ = (
        "work_id",
        "cores",
        "remaining",
        "memory_intensity",
        "demand",
        "domain",
        "done",
        "started_at",
        "_rate",
        "_version",
        "_marker",
    )

    def __init__(
        self,
        env: Environment,
        cores: Tuple[int, ...],
        work: float,
        memory_intensity: float,
        demand: float,
        domain: str,
    ) -> None:
        self.work_id = next(ActiveWork._ids)
        self.cores = cores
        self.remaining = work
        self.memory_intensity = memory_intensity
        self.demand = demand
        self.domain = domain
        self.done: Event = Event(env)
        self.started_at = env.now
        self._rate = 0.0
        self._version = 0
        #: The pending completion-check event, cancelled on re-time.
        self._marker: Optional[Event] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ActiveWork #{self.work_id} cores={self.cores} "
            f"remaining={self.remaining:.3g} rate={self._rate:.3g}>"
        )


class SpeedModel:
    """Tracks dynamic core rates and integrates work over them.

    An enabled ``tracer`` turns every dynamic-asymmetry transition (DVFS
    frequency scale, co-runner CPU share, external bandwidth demand) into
    a :class:`~repro.trace.events.SpeedEvent`.  The attribute may also be
    attached after construction (the runtime does this when it carries a
    tracer and shares an existing speed model).
    """

    def __init__(
        self, env: Environment, machine: Machine, tracer: Tracer = NULL_TRACER
    ) -> None:
        self.env = env
        self.machine = machine
        self.tracer = tracer
        n = machine.num_cores
        self._freq_scale: List[float] = [1.0] * n
        self._cpu_share: List[float] = [1.0] * n
        #: Fault-injection rate multiplier per core: 1 healthy, in (0, 1)
        #: for a straggler window, 0 for a crashed core.  ``_faulted``
        #: stays False until the first injection so the fault-free hot
        #: path never reads the table (bit-identity with a fault-free
        #: build is structural, not numerical).
        self._fault_scale: List[float] = [1.0] * n
        self._faulted = False
        #: Persistent bandwidth demand per domain from interference sources.
        self._external_demand: Dict[str, float] = {
            d: 0.0 for d in machine.memory_bandwidth
        }
        self._active: Dict[int, ActiveWork] = {}
        #: In-flight work items per core, keyed by work id.  One runtime
        #: never oversubscribes a core (a worker runs one assembly at a
        #: time), but two runtimes sharing this model — a live co-runner —
        #: do; the OS then time-slices, giving each work 1/k of the core.
        #: The index lets a transition touching a few cores re-time only
        #: the items actually running there.
        self._core_items: List[Dict[int, ActiveWork]] = [{} for _ in range(n)]
        #: In-flight work items per memory domain (same role as the
        #: per-core index, for bandwidth-factor changes), and the total
        #: demand (external + active items) per domain — maintained
        #: incrementally so rate changes that cannot touch any in-flight
        #: item are detected (and skipped) in O(1).
        self._domain_items: Dict[str, Dict[int, ActiveWork]] = {
            d: {} for d in machine.memory_bandwidth
        }
        self._demand_totals: Dict[str, float] = {
            d: 0.0 for d in machine.memory_bandwidth
        }
        self._last_update = env.now
        #: Memoized single-domain check per cores tuple: places are a
        #: small fixed set and their core tuples are interned by the
        #: machine, so ``begin_work`` validates each distinct place once.
        self._domain_cache: Dict[Tuple[int, ...], str] = {}
        #: Whether any in-flight item may have run out of work since the
        #: last :meth:`_complete_finished` sweep.  Items only finish by
        #: being advanced across zero, so the flag is set in
        #: :meth:`_advance` and lets every other path skip its O(active)
        #: finished-item scan.
        self._maybe_finished = False
        # Batched-transition state (see :meth:`batch`): while a batch is
        # open, transitions accumulate affected cores and pre-mutation
        # domain factors here instead of re-timing immediately.
        self._batch_depth = 0
        self._batch_dirty = False
        self._batch_cores: set = set()
        self._batch_factors: Dict[str, float] = {}
        #: Active profiling phase timer (None when unprofiled).
        self._phases = active_phases()

    # ------------------------------------------------------------------
    # dynamic state
    # ------------------------------------------------------------------
    def core_rate(self, core_id: int) -> float:
        """Effective rate of ``core_id`` for one work item (work units/s).

        Includes OS time-slicing when several in-flight work items share
        the core (live co-runners).
        """
        spec = self.machine.cores[core_id]
        timeshare = 1.0 / max(1, len(self._core_items[core_id]))
        rate = (
            spec.base_speed
            * self._freq_scale[core_id]
            * self._cpu_share[core_id]
            * timeshare
        )
        if self._faulted:
            rate *= self._fault_scale[core_id]
        return rate

    def active_on_core(self, core_id: int) -> int:
        """Number of in-flight work items occupying ``core_id``."""
        return len(self._core_items[core_id])

    def freq_scale(self, core_id: int) -> float:
        return self._freq_scale[core_id]

    def cpu_share(self, core_id: int) -> float:
        return self._cpu_share[core_id]

    def domain_factor(self, domain: str) -> float:
        """Current bandwidth share factor of ``domain`` (1 = no pressure)."""
        return self._domain_factor(domain)

    def estimate_time(
        self, cores: Sequence[int], work: float, memory_intensity: float = 0.0
    ) -> float:
        """Idealized wall time for ``work`` on ``cores`` at *current* rates.

        Assumes rates and bandwidth pressure stay frozen and ignores
        queueing — the instantaneous oracle the tracing layer compares
        scheduler decisions against.  Returns ``inf`` for a zero rate.
        """
        compute_rate = min(self.core_rate(c) for c in cores)
        factor = self._domain_factor(self.machine.domain_of(cores[0]))
        m = memory_intensity
        rate = compute_rate * ((1.0 - m) + m * factor)
        if rate <= 0:
            return float("inf")
        return work / rate

    @contextmanager
    def batch(self):
        """Coalesce several transitions into one grouped re-timing pass.

        An interference transition often mutates several knobs at once —
        a co-runner arriving changes the CPU share of N cores *and* adds
        bandwidth demand to their domain.  Applied naively, each call
        re-times the affected in-flight work separately.  Inside a
        ``with speed.batch():`` block the mutations apply immediately
        (state reads stay consistent) but the re-timing is deferred and
        performed once, over the union of affected cores and domains,
        when the outermost batch closes.  A batch must not span simulated
        time (no yields inside the block).
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                cores = self._batch_cores
                factors = self._batch_factors
                dirty = self._batch_dirty
                self._batch_cores = set()
                self._batch_factors = {}
                self._batch_dirty = False
                if dirty:
                    self._retime_affected(cores, factors)

    def _after_transition(
        self,
        cores: Sequence[int] = (),
        factors_before: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Re-time after a transition, or defer it to the open batch.

        ``cores`` are the cores whose per-core rate inputs changed while
        hosting in-flight work; ``factors_before`` maps each mutated
        domain to its bandwidth factor *before* the mutation.
        """
        if self._batch_depth:
            self._batch_cores.update(cores)
            if factors_before:
                for domain, factor in factors_before.items():
                    # Keep the earliest pre-mutation snapshot: a batch
                    # whose net demand change is zero needs no re-time.
                    self._batch_factors.setdefault(domain, factor)
            self._batch_dirty = True
        else:
            self._retime_affected(cores, factors_before or {})

    def _transition_cores(
        self, table: List[float], core_ids: Iterable[int], value: float, kind: str
    ) -> None:
        """Apply a per-core rate-input change and re-time what it touched."""
        if kind not in TRANSITION_KINDS:
            raise ConfigurationError(
                f"unknown rate-input kind {kind!r}; known kinds: "
                f"{', '.join(TRANSITION_KINDS)}"
            )
        core_ids = list(core_ids)
        for cid in core_ids:
            self.machine._check_core(cid)
        # Only cores that host in-flight work *and* actually change value
        # can alter an active rate; everything else is a pure table write.
        affected = [
            cid for cid in core_ids
            if self._core_items[cid] and table[cid] != value
        ]
        if affected:
            self._advance()
        for cid in core_ids:
            table[cid] = value
        if self.tracer.enabled:
            self.tracer.emit(
                SpeedEvent(
                    t=self.env.now, kind=kind,
                    cores=tuple(core_ids), domain="", value=value,
                )
            )
        if affected:
            self._after_transition(cores=affected)

    def set_freq_scale(self, core_ids: Iterable[int], scale: float) -> None:
        """Set the DVFS frequency scale of ``core_ids`` to ``scale`` in (0, 1]."""
        if not (0 < scale <= 1.0):
            raise ConfigurationError(f"freq scale must be in (0, 1], got {scale}")
        self._transition_cores(self._freq_scale, core_ids, scale, "freq_scale")

    def set_cpu_share(self, core_ids: Iterable[int], share: float) -> None:
        """Set the CPU time share available to the runtime on ``core_ids``.

        A co-running process of equal OS priority on a core leaves the
        runtime a share of about 0.5 there.
        """
        if not (0 < share <= 1.0):
            raise ConfigurationError(f"cpu share must be in (0, 1], got {share}")
        self._transition_cores(self._cpu_share, core_ids, share, "cpu_share")

    def set_fault_scale(self, core_ids: Iterable[int], scale: float) -> None:
        """Set the fault-injection rate multiplier of ``core_ids``.

        ``0`` models a crashed core (in-flight work freezes, estimates go
        to infinity), values in ``(0, 1)`` model straggler windows, and
        ``1`` restores full health.  Unlike the DVFS/co-runner knobs this
        one legitimately reaches an exact zero rate, which the re-timing
        machinery already treats as "no completion check scheduled".
        """
        if not (0.0 <= scale <= 1.0):
            raise ConfigurationError(
                f"fault scale must be in [0, 1], got {scale}"
            )
        self._faulted = True
        self._transition_cores(self._fault_scale, core_ids, scale, "fault_scale")

    def fault_scale(self, core_id: int) -> float:
        return self._fault_scale[core_id]

    def cancel_work(self, item: ActiveWork) -> None:
        """Abort an in-flight item without completing it.

        The recovery path uses this when a member core dies: the assembly
        will be re-executed from scratch, so the partially-done work is
        discarded, its core/domain registrations are released, and its
        ``done`` event is left untriggered (the aborted assembly's
        completion is routed through the retry machinery instead).
        Survivors sharing a core or the domain are re-timed exactly as on
        a normal completion.  Cancelling an item that already finished or
        was never started is a no-op.
        """
        if item.work_id not in self._active:
            return
        self._advance()
        factor_before = self._domain_factor(item.domain)
        del self._active[item.work_id]
        freed: set = set()
        for core in item.cores:
            members = self._core_items[core]
            del members[item.work_id]
            if members:
                freed.add(core)
        del self._domain_items[item.domain][item.work_id]
        self._demand_totals[item.domain] -= item.demand
        self._cancel_marker(item)
        item._version += 1
        self._retime_affected(sorted(freed), {item.domain: factor_before})

    def add_external_demand(self, domain: str, amount: float) -> None:
        """Register persistent memory-bandwidth demand (e.g. a co-runner)."""
        if domain not in self._external_demand:
            raise ConfigurationError(f"unknown memory domain {domain!r}")
        if amount < 0:
            raise ConfigurationError(f"demand must be >= 0, got {amount}")
        affected = amount > 0 and bool(self._domain_items[domain])
        if affected:
            self._advance()
            factor_before = self._domain_factor(domain)
        self._external_demand[domain] += amount
        self._demand_totals[domain] += amount
        if self.tracer.enabled:
            self.tracer.emit(
                SpeedEvent(
                    t=self.env.now, kind="demand", cores=(),
                    domain=domain, value=self._external_demand[domain],
                )
            )
        if affected:
            self._after_transition(factors_before={domain: factor_before})

    def remove_external_demand(self, domain: str, amount: float) -> None:
        """Remove previously registered external demand."""
        if domain not in self._external_demand:
            raise ConfigurationError(f"unknown memory domain {domain!r}")
        affected = amount > 0 and bool(self._domain_items[domain])
        if affected:
            self._advance()
            factor_before = self._domain_factor(domain)
        self._external_demand[domain] -= amount
        self._demand_totals[domain] -= amount
        if self._external_demand[domain] < -_EPS:
            raise RuntimeStateError(
                f"external demand on {domain!r} went negative"
            )
        if self._external_demand[domain] < 0.0:
            # Clamp rounding residue to zero, keeping the totals aligned.
            self._demand_totals[domain] -= self._external_demand[domain]
            self._external_demand[domain] = 0.0
        if self.tracer.enabled:
            self.tracer.emit(
                SpeedEvent(
                    t=self.env.now, kind="demand", cores=(),
                    domain=domain, value=self._external_demand[domain],
                )
            )
        if affected:
            self._after_transition(factors_before={domain: factor_before})

    def external_demand(self, domain: str) -> float:
        return self._external_demand[domain]

    # ------------------------------------------------------------------
    # work execution
    # ------------------------------------------------------------------
    def begin_work(
        self,
        cores: Sequence[int],
        work: float,
        memory_intensity: float = 0.0,
        demand: Optional[float] = None,
    ) -> ActiveWork:
        """Start executing ``work`` units on ``cores``; returns the handle.

        ``handle.done`` succeeds with the elapsed wall-clock time once the
        work has been fully processed.  All member cores must belong to one
        memory domain (places never span clusters).
        """
        if not cores:
            raise ConfigurationError("work needs at least one core")
        if work < 0:
            raise ConfigurationError(f"work must be >= 0, got {work}")
        if not (0.0 <= memory_intensity <= 1.0):
            raise ConfigurationError(
                f"memory_intensity must be in [0, 1], got {memory_intensity}"
            )
        cores = tuple(cores)
        domain = self._domain_cache.get(cores)
        if domain is None:
            domains = {self.machine.domain_of(c) for c in cores}
            if len(domains) != 1:
                raise ConfigurationError(
                    f"work spans multiple memory domains: {sorted(domains)}"
                )
            domain = domains.pop()
            self._domain_cache[cores] = domain
        if demand is None:
            demand = memory_intensity * len(cores)
        self._advance()
        item = ActiveWork(
            self.env, cores, float(work), memory_intensity, float(demand), domain
        )
        if item.remaining <= _EPS:
            # Degenerate zero-work item: complete instantly.
            item.done.succeed(0.0)
            return item

        # Detect whether starting this item can change any *other* item's
        # rate: it can only through core time-slicing (a shared core) or
        # through the domain's bandwidth factor.  When neither moves — the
        # overwhelmingly common case for a single runtime on undersubscribed
        # memory — only the new item needs (re)timing.
        finished_pending = self._maybe_finished
        shared_core = False
        for core in cores:
            members = self._core_items[core]
            if members:
                shared_core = True
            members[item.work_id] = item
        domain = item.domain
        factor_before = self._domain_factor(domain)
        self._domain_items[domain][item.work_id] = item
        self._demand_totals[domain] += item.demand
        factor_changed = self._domain_factor(domain) != factor_before
        self._active[item.work_id] = item

        if finished_pending or shared_core or factor_changed:
            self._retime_affected(
                cores if shared_core else (),
                {domain: factor_before} if factor_changed else {},
            )
        # The retime can miss the new item: an equal-demand item finishing
        # at this instant leaves the domain factor where it was before the
        # add, so the domain is not re-timed.  When the retime did rate the
        # item, _apply_rate returns early and this is a no-op.
        self._set_rate_and_check(item)
        return item

    def active_count(self) -> int:
        """Number of in-flight work items (for tests/metrics)."""
        return len(self._active)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _domain_factor(self, domain: str) -> float:
        """Bandwidth share factor: 1 when undersubscribed, B/D when over."""
        capacity = self.machine.memory_bandwidth[domain]
        total = self._demand_totals[domain]
        if total <= capacity or total <= 0:
            return 1.0
        return capacity / total

    def _advance(self) -> None:
        """Advance all in-flight work to the current time under stored rates."""
        now = self.env.now
        dt = now - self._last_update
        if dt < 0:
            raise RuntimeStateError("simulation time moved backwards")
        if dt > 0:
            maybe_finished = self._maybe_finished
            for item in self._active.values():
                remaining = item.remaining - dt * item._rate
                if remaining <= _EPS:
                    maybe_finished = True
                    if remaining < 0:
                        remaining = 0.0
                item.remaining = remaining
            self._maybe_finished = maybe_finished
        self._last_update = now

    def _complete_finished(self) -> tuple:
        """Remove and trigger every item whose work has run out.

        Returns ``(freed, factors_before)``: the cores a finished item was
        time-slicing with a survivor, and the pre-removal bandwidth factor
        of each touched domain — the ingredients for deciding which
        survivors need re-timing.  ``done`` events are only *triggered*
        here — their callbacks run from the environment loop, so no
        runtime bookkeeping re-enters this method mid-update.
        """
        if not self._maybe_finished:
            return (), {}
        finished = [
            item for item in self._active.values() if item.remaining <= _EPS
        ]
        self._maybe_finished = False
        if not finished:
            return (), {}
        freed: set = set()
        factors_before: Dict[str, float] = {}
        for item in finished:
            factors_before.setdefault(item.domain, self._domain_factor(item.domain))
            del self._active[item.work_id]
            for core in item.cores:
                members = self._core_items[core]
                del members[item.work_id]
                if members:
                    freed.add(core)
            del self._domain_items[item.domain][item.work_id]
            self._demand_totals[item.domain] -= item.demand
            self._cancel_marker(item)
        for item in finished:
            item._version += 1
            item.done.succeed(self.env.now - item.started_at)
        return freed, factors_before

    def _settle(self) -> None:
        """Complete finished items; re-time survivors only when needed.

        A completion changes a survivor's rate only by freeing a shared
        core or by relaxing an oversubscribed domain; otherwise every
        surviving item's pending completion check is still exact and the
        re-computation is skipped entirely.
        """
        self._retime_affected((), {})

    def _retime_affected(
        self,
        cores: Sequence[int] = (),
        factors_before: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Complete finished items, then re-time only touched survivors.

        ``cores`` are cores whose rate inputs changed; ``factors_before``
        maps mutated domains to their pre-mutation bandwidth factors.
        Completions discovered here widen the selection with the cores
        they freed and the domains they relaxed.
        """
        phases = self._phases
        if phases is None:
            self._retime_affected_body(cores, factors_before)
            return
        phases.push("speed-retime")
        try:
            self._retime_affected_body(cores, factors_before)
        finally:
            phases.pop()

    def _retime_affected_body(
        self,
        cores: Sequence[int] = (),
        factors_before: Optional[Mapping[str, float]] = None,
    ) -> None:
        freed, completion_factors = self._complete_finished()
        merged = dict(factors_before) if factors_before else {}
        for domain, factor in completion_factors.items():
            # The earliest snapshot wins: a net-zero factor move needs no
            # re-time even when intermediate mutations touched the domain.
            merged.setdefault(domain, factor)
        if not self._active:
            return
        to_retime: Dict[int, ActiveWork] = {}
        for core in cores:
            to_retime.update(self._core_items[core])
        for core in sorted(freed):
            to_retime.update(self._core_items[core])
        for domain in sorted(merged):
            if self._domain_factor(domain) != merged[domain]:
                to_retime.update(self._domain_items[domain])
        if to_retime:
            self._retime_items(to_retime)

    def _retime_items(self, to_retime: Dict[int, ActiveWork]) -> None:
        """One grouped pass re-timing ``to_retime`` (keyed by work id).

        The slowest-member compute rate is evaluated once per distinct
        core-set and the bandwidth factor once per domain, and items are
        visited in work-id order so the pass is deterministic regardless
        of how the selection was assembled.
        """
        compute_rates: Dict[Tuple[int, ...], float] = {}
        factors: Dict[str, float] = {}
        for work_id in sorted(to_retime):
            item = to_retime[work_id]
            cores = item.cores
            compute_rate = compute_rates.get(cores)
            if compute_rate is None:
                if len(cores) == 1:
                    compute_rate = self.core_rate(cores[0])
                else:
                    compute_rate = min(self.core_rate(c) for c in cores)
                compute_rates[cores] = compute_rate
            factor = factors.get(item.domain)
            if factor is None:
                factor = self._domain_factor(item.domain)
                factors[item.domain] = factor
            self._apply_rate(item, compute_rate, factor)

    def _set_rate_and_check(self, item: ActiveWork) -> None:
        """Recompute one item's rate and (re)schedule its completion check."""
        cores = item.cores
        if len(cores) == 1:
            compute_rate = self.core_rate(cores[0])
        else:
            compute_rate = min(self.core_rate(c) for c in cores)
        self._apply_rate(item, compute_rate, self._domain_factor(item.domain))

    def _apply_rate(
        self, item: ActiveWork, compute_rate: float, factor: float
    ) -> None:
        """Store ``item``'s new rate and refresh its completion check.

        An unchanged rate with a still-pending check is a no-op: the
        scheduled completion time is still exact (the rate was constant
        since it was computed), so the marker needs no heap churn.
        """
        m = item.memory_intensity
        rate = compute_rate * ((1.0 - m) + m * factor)
        marker = item._marker
        if rate == item._rate and marker is not None and not marker.processed:
            return
        item._rate = rate
        item._version += 1
        if marker is not None:
            item._marker = None
            if not marker.processed:
                self.env._queue.cancel(marker)
        if rate > 0:
            self._schedule_check(item, item._version, item.remaining / rate)

    def _cancel_marker(self, item: ActiveWork) -> None:
        """Retract the item's pending completion check, if any."""
        marker = item._marker
        if marker is not None:
            item._marker = None
            if not marker.processed:
                self.env._queue.cancel(marker)

    def _schedule_check(self, item: ActiveWork, version: int, eta: float) -> None:
        """Queue a completion check for ``item`` at ``now + eta``.

        Superseded checks are cancelled on re-time; the version guard stays
        as a backstop against a marker firing in the same timestamp batch.
        """

        def _check(_event: Event, item=item, version=version) -> None:
            # Markers are pooled: drop the handle before the environment
            # recycles the event, so a stale reference can never alias a
            # later reuse of the same object.
            if item._marker is _event:
                item._marker = None
            if item.work_id not in self._active or item._version != version:
                return
            self._advance()
            self._settle()

        marker = self.env._pooled_event()
        marker._value = None
        marker.callbacks.append(_check)
        item._marker = marker
        self.env._queue.push(self.env.now + eta, 1, marker)
