"""Event primitives for the discrete-event engine.

Two kinds of object live here:

* :class:`Event` — a one-shot waitable that processes can ``yield`` on.  It
  carries a value once *triggered* and runs its callbacks when the
  environment *processes* it.
* :class:`EventQueue` — the time-ordered heap of :class:`ScheduledItem`\\ s.
  Ties at equal simulated time are broken first by an integer priority and
  then by insertion order, which makes runs bit-reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, NamedTuple, Optional

#: Sentinel for "event has not been triggered yet".
PENDING = object()

#: Priority used for ordinary events.
NORMAL = 1

#: Priority used for urgent bookkeeping events (process initialization,
#: interrupts) that must run before same-time ordinary events.
URGENT = 0


class Event:
    """A one-shot waitable event.

    An event goes through three stages:

    1. *pending* — created, nothing happened yet;
    2. *triggered* — a value (or exception) has been attached and the event
       has been pushed onto the environment's queue;
    3. *processed* — the environment popped it and ran its callbacks.

    Processes wait on events by ``yield``\\ ing them; the process is resumed
    with the event's value (or the exception is thrown into it).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_seq", "_pooled")

    def __init__(self, env: "Any") -> None:
        self.env = env
        #: Callbacks run when the event is processed.  ``None`` afterwards.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Heap sequence number while scheduled, -1 otherwise.  Cancelling
        #: by sequence (not object identity) makes cancellation an epoch:
        #: it can never leak onto a later schedule of a reused event.
        self._seq: int = -1
        #: True for engine-internal events owned by the environment's
        #: free-list; recycled after processing.  Never set on events
        #: handed to user code.
        self._pooled: bool = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been attached."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._push(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is thrown into every waiting process.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._push(self, NORMAL)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class ScheduledItem(NamedTuple):
    """The shape of one heap entry: ``(time, priority, seq)`` orders it.

    ``seq`` is unique, so the ``event`` field is never reached by a
    comparison.  The queue itself stores *plain* tuples of this shape —
    a bare tuple literal constructs measurably faster than a NamedTuple
    and the engine builds one per scheduled event — so treat this class
    as documentation plus a wrapper for code that prefers named fields:
    ``ScheduledItem(*queue.pop())``.
    """

    time: float
    priority: int
    seq: int
    event: Event


class EventQueue:
    """Deterministic time-ordered event heap with lazy cancellation.

    :meth:`cancel` marks a scheduled event defunct without paying an
    O(n) heap removal; defunct entries are dropped when they reach the
    top, and ``len`` never counts them.  The speed model uses this to
    retract superseded completion checks instead of letting stale
    markers pile up on the heap.

    Cancellation is keyed by the event's heap sequence number, not its
    object identity: an ``id()`` key could outlive the event and silently
    cancel an unrelated event allocated at the same address (or a later
    schedule of a pooled event).  The sequence is unique per push, so a
    cancellation can only ever hit the schedule it targeted.
    """

    __slots__ = ("_heap", "_seq", "_defunct", "_free")

    #: Recycled engine-internal events kept for reuse, at most this many.
    FREE_LIST_MAX = 256

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0
        self._defunct: set = set()
        #: Free-list of processed pooled events (see Event._pooled).
        self._free: List[Event] = []

    def __len__(self) -> int:
        return len(self._heap) - len(self._defunct)

    def push(self, time: float, priority: int, event: Event) -> None:
        """Schedule ``event`` for processing at ``time``."""
        seq = self._seq
        event._seq = seq
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._seq = seq + 1

    def cancel(self, event: Event) -> None:
        """Lazily drop a scheduled (untriggered) event from the queue.

        Cancelling an event that is not currently scheduled (never
        pushed, already popped, or already cancelled) is a no-op.
        """
        seq = event._seq
        if seq != -1:
            self._defunct.add(seq)
            event._seq = -1

    def cancel_seq(self, seq: int) -> None:
        """:meth:`cancel` by the heap sequence number ``push`` assigned;
        for holders that keep the number, not the event."""
        self._defunct.add(seq)

    def _recycle(self, event: Event) -> None:
        """Reset a processed pooled event and park it on the free-list."""
        event.callbacks = []
        event._value = PENDING
        event._ok = True
        event._seq = -1
        if len(self._free) < self.FREE_LIST_MAX:
            self._free.append(event)

    def _drop_defunct_head(self) -> None:
        heap = self._heap
        defunct = self._defunct
        while heap and heap[0][2] in defunct:
            defunct.discard(heap[0][2])
            event = heapq.heappop(heap)[3]
            if event._pooled:
                self._recycle(event)

    def peek_time(self) -> float:
        """Time of the next live item; raises ``IndexError`` when empty."""
        if self._defunct:
            self._drop_defunct_head()
        return self._heap[0][0]

    def pop(self) -> tuple:
        """Pop the next live ``(time, priority, seq, event)`` tuple."""
        if self._defunct:
            self._drop_defunct_head()
        item = heapq.heappop(self._heap)
        item[3]._seq = -1
        return item
