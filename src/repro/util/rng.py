"""Deterministic random-number plumbing.

Every stochastic element of a simulation (steal victim choice, DAG
generation, dataset synthesis) draws from a generator created here, so a
run is a pure function of its seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from an int seed or pass one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Derive ``n`` independent child generators from a seed.

    Children are independent streams (via ``spawn``) so that, e.g., each
    simulated worker has its own victim-selection stream whose draws do not
    depend on how many draws other workers made.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    root = make_rng(seed)
    return list(root.spawn(n))


class StreamPool:
    """Hands out a run's generator streams, reusing generator objects.

    :meth:`take` returns ``[make_rng(seed), *spawn_rngs(seed, n)]``
    exactly: a stream is a function of the seed only, not of the object
    that carries it.  Building a generator from a seed costs 10-20 µs (its
    ``SeedSequence`` hashes the entropy), while setting the state of an
    existing one costs ~1.5 µs; so the pool remembers each int seed's
    initial states and, on a repeat, resets idle generators to them.
    Generators come back through :meth:`give_back` once their run is
    over; one that is never given back is simply not reused, so two runs
    in flight at once never share a generator.

    A generator obtained from the pool does not carry its seed's
    ``SeedSequence``: do not ``spawn`` from it.
    """

    #: Most distinct ``(seed, n)`` entries remembered; a miss that finds
    #: the table full empties it first.
    STATES_MAX = 1024
    #: Most idle generators kept for reuse.
    IDLE_MAX = 256

    __slots__ = ("_states", "_idle")

    def __init__(self) -> None:
        self._states: Dict[Tuple[int, int], Tuple[dict, ...]] = {}
        self._idle: List[np.random.Generator] = []

    def take(self, seed: SeedLike, n: int) -> List[np.random.Generator]:
        """The root stream of ``seed`` followed by its ``n`` children."""
        # Entropy seeds and pass-through generators are not repeatable.
        repeatable = type(seed) is int
        states = self._states.get((seed, n)) if repeatable else None
        if states is None:
            root = make_rng(seed)
            streams = [root, *spawn_rngs(root, n)]
            if repeatable:
                if len(self._states) >= self.STATES_MAX:
                    self._states.clear()
                self._states[(seed, n)] = tuple(
                    g.bit_generator.state for g in streams
                )
            return streams
        idle = self._idle
        streams = []
        for state in states:
            generator = idle.pop() if idle else np.random.default_rng(0)
            generator.bit_generator.state = state
            streams.append(generator)
        return streams

    def give_back(
        self, seed: SeedLike, streams: List[np.random.Generator]
    ) -> None:
        """Keep the streams ``take(seed, n)`` handed out, their run over.

        Only an int seed's streams are kept: a pass-through generator
        belongs to its caller.
        """
        room = self.IDLE_MAX - len(self._idle)
        if type(seed) is int and room > 0:
            self._idle.extend(streams[:room])


class RngFactory:
    """Hands out named, reproducible generator streams from one root seed.

    Asking twice for the same name returns generators seeded identically, so
    components can be rebuilt without perturbing each other's streams.
    """

    def __init__(self, seed: Optional[int] = 0) -> None:
        self._seed = 0 if seed is None else int(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the stream for ``name`` (stable across calls)."""
        # Stable, platform-independent hash of the name mixed with the seed.
        digest = 0
        for ch in name:
            digest = (digest * 1000003 + ord(ch)) & 0xFFFFFFFF
        return np.random.default_rng((self._seed, digest))
