"""Simulation environment and coroutine processes."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import NORMAL, PENDING, URGENT, Event, EventQueue


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    ``cause`` carries the value passed to ``interrupt``.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._queue.push(env.now + delay, NORMAL, self)


class Process(Event):
    """A coroutine process.

    Wraps a generator that yields :class:`Event` objects.  The process
    itself is an event that triggers when the generator finishes, so
    processes can wait on each other.
    """

    __slots__ = ("generator", "_target", "name", "_send", "_throw")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self.generator = generator
        # Bound methods cached once: _resume runs for every event any
        # process waits on, so the two attribute lookups add up.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None when running
        #: its initialization or after termination).
        self._target: Optional[Event] = None
        # Kick off the process via an urgent initialization event.
        init = env._pooled_event()
        init._value = None
        init.callbacks.append(self._resume)
        env._queue.push(env.now, URGENT, init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a terminated process is an error; interrupting a
        process that is waiting on an event detaches it from that event
        (the event may still fire later and is then ignored by this
        process).
        """
        if self.triggered:
            raise RuntimeError(f"{self.name} has terminated; cannot interrupt")
        target = self._target
        if target is not None and not target.processed:
            # Detach from whatever we were waiting for.
            if target.callbacks is not None and self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
        self._target = None
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.callbacks.append(self._resume)
        # defused: the exception is delivered via throw(), not raised by env
        self.env._queue.push(self.env.now, URGENT, interrupt_event)

    # -- engine plumbing --------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                next_event = self._throw(event._value)
        except StopIteration as stop:
            self._target = None
            self.succeed(stop.value)
            return
        except BaseException:
            self._target = None
            # Propagate crashes out of the simulation: a process that dies
            # with an unexpected exception is a bug in the model, not a
            # simulated outcome.
            raise
        finally:
            env._active_process = None

        if not isinstance(next_event, Event):
            raise TypeError(
                f"process {self.name!r} yielded {next_event!r}, expected an Event"
            )
        if next_event.callbacks is None:  # processed
            # Already happened: resume immediately via an urgent event.
            bridge = env._pooled_event()
            bridge._ok = next_event._ok
            bridge._value = next_event._value
            bridge.callbacks.append(self._resume)
            env._queue.push(env._now, URGENT, bridge)
            self._target = bridge
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event


class Environment:
    """The simulation clock and event loop."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue = EventQueue()
        self._active_process: Optional[Process] = None

    # -- public API --------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Event:
        """Engine-internal :meth:`timeout` drawing from the event pool.

        Schedules exactly like ``Timeout`` (same time, priority and heap
        order) but reuses recycled pooled events instead of allocating.
        Callers must not hold a reference past the wakeup — the event is
        recycled as soon as its callbacks run — so this is only for the
        ubiquitous ``yield env.sleep(dt)`` pattern in engine loops.
        ``delay`` is not validated; engine callers pass constants.
        """
        queue = self._queue
        free = queue._free
        if free:
            event = free.pop()
        else:
            event = Event(self)
            event._pooled = True
        event._value = value
        queue.push(self._now + delay, NORMAL, event)
        return event

    def _pooled_event(self) -> Event:
        """A triggered-looking blank event from the free-list (or new)."""
        free = self._queue._free
        if free:
            return free.pop()
        event = Event(self)
        event._pooled = True
        return event

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Register ``generator`` as a process starting at the current time."""
        return Process(self, generator, name=name)

    def schedule_at(self, time: float, event: Event) -> None:
        """Trigger a prepared (untriggered) event at an absolute time."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        if event.triggered:
            raise RuntimeError("event already triggered")
        event._ok = True
        if event._value is PENDING:
            event._value = None
        self._queue.push(time, NORMAL, event)

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the final simulated time.  When ``until`` is given the clock
        is advanced exactly to it even if the last event fires earlier.
        """
        limit = float("inf") if until is None else float(until)
        if limit < self._now:
            raise ValueError(f"until={limit} is in the past (now={self._now})")
        queue = self._queue
        while True:
            try:
                next_time = queue.peek_time()
            except IndexError:
                break
            if next_time > limit:
                break
            item = queue.pop()
            event = item[3]
            self._now = item[0]
            callbacks, event.callbacks = event.callbacks, None
            if callbacks:
                for callback in callbacks:
                    callback(event)
            if event._pooled:
                queue._recycle(event)
        if until is not None:
            self._now = limit
        return self._now

    def step(self) -> float:
        """Process exactly one event; returns the new time.

        Raises ``IndexError`` when the queue is empty.
        """
        item = self._queue.pop()
        event = item[3]
        self._now = item[0]
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(event)
        if event._pooled:
            self._queue._recycle(event)
        return self._now

    def _push(self, event: Event, priority: int) -> None:
        """Queue a just-triggered event for processing at the current time."""
        self._queue.push(self._now, priority, event)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment now={self._now} pending={len(self._queue)}>"
