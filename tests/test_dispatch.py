"""Tests for the dispatch path.

Covers the lease spec wire form (:func:`repro.cluster.protocol.spec_to_wire`
/ :func:`~repro.cluster.protocol.spec_from_wire`) with Hypothesis
round-trip and fuzz properties, the worker's lease-key check, RunSpec key
memoization, the cluster coordinator's grants (one ``lease`` frame per
cell, to the least-loaded worker) and two-phase revoke, the framed TCP
protocol's malformed-input behavior (typed error, never a hang), and the
bit-identity of every dispatch path (``jobs=2``, a run timeout, inproc
and TCP clusters) against serial through the real sweep engine.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import comm, protocol
from repro.cluster.coordinator import (
    ClusterCoordinator,
    ExecuteReport,
    _Cell,
    _Lease,
    _Remote,
)
from repro.cluster.worker import start_worker_thread
from repro.sweep import AdaptivePolicy, RunSpec, SweepRunner, is_error_result
from repro.sweep.registry import executor

#: Seeds of every spec the ``dispatch_echo`` executor ran in this
#: process (inline cluster workers run on threads here).
_EXECUTED = []


@executor("dispatch_echo")
def _echo(spec, _builder):
    _EXECUTED.append(spec.seed)
    return {"value": float(spec.params["value"])}


def _spec(value, **extra):
    return RunSpec(
        kind="dispatch_echo", params={"value": value, **extra},
        metrics=("value",), seed=value,
    )


# -- RunSpec key memoization (satellite: computed once per object) -----
class TestKeyMemoization:
    def test_key_and_cost_key_hash_exactly_once(self, monkeypatch):
        import hashlib as real_hashlib

        import repro.sweep.spec as spec_mod

        spec = RunSpec(kind="single", params={"a": 1}, seed=7)
        calls = {"n": 0}

        class _CountingHashlib:
            @staticmethod
            def sha256(payload):
                calls["n"] += 1
                return real_hashlib.sha256(payload)

        monkeypatch.setattr(spec_mod, "hashlib", _CountingHashlib)
        keys = {spec.key() for _ in range(5)}
        cost_keys = {spec.cost_key() for _ in range(5)}
        assert len(keys) == len(cost_keys) == 1
        # One digest for key(), one for cost_key() — repeats are served
        # from the per-object memo.
        assert calls["n"] == 2

    def test_memoized_key_survives_pickle(self):
        import pickle

        spec = _spec(3)
        key = spec.key()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.key() == key
        assert clone == spec

    def test_equal_specs_hash_equal_regardless_of_memo_state(self):
        a = _spec(3)
        b = _spec(3)
        a.key()  # memoize only one of them
        assert a == b
        assert a.key() == b.key()


# -- lease spec wire form: Hypothesis round-trip + fuzz ----------------
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)
_params = st.dictionaries(st.text(min_size=1, max_size=8), _scalars,
                          max_size=5)
_metrics = st.lists(st.text(min_size=1, max_size=8), min_size=1,
                    max_size=3, unique=True)
_json = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def _through_json(data):
    return json.loads(json.dumps(data))


class TestSpecWire:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["single", "kmeans_window", "x"]),
        params=_params, tags=_params,
        seed=st.integers(min_value=0, max_value=2**40),
        metrics=_metrics,
    )
    # Values Python calls equal but JSON spells differently.
    @example(kind="single", params={"a": False, "b": 0.0, "c": 0, "d": -0.0},
             tags={}, seed=0, metrics=["m"])
    def test_roundtrip(self, kind, params, tags, seed, metrics):
        spec = RunSpec(kind=kind, params=params, seed=seed,
                       metrics=tuple(metrics), tags=tags)
        data = protocol.spec_to_wire(spec)
        rebuilt = protocol.spec_from_wire(_through_json(data))
        assert rebuilt == spec
        assert rebuilt.key() == spec.key()
        assert json.dumps(protocol.spec_to_wire(rebuilt)) == json.dumps(data)

    @settings(max_examples=100, deadline=None)
    @given(payload=st.one_of(
        _json,
        st.fixed_dictionaries({}, optional={
            "kind": _json, "params": _json, "seed": _json,
            "metrics": _json, "tags": _json,
        }),
    ))
    def test_fuzzed_payload_rebuilds_or_raises_typed_error(self, payload):
        try:
            rebuilt = protocol.spec_from_wire(_through_json(payload))
        except protocol.SpecWireError:
            return  # the typed, retryable outcome
        assert isinstance(rebuilt, RunSpec)
        assert isinstance(rebuilt.key(), str)  # the worker's key check


# -- framed TCP protocol: malformed input never hangs ------------------
class TestFramedProtocolRobustness:
    def _listener(self):
        return comm.listen("tcp://127.0.0.1:0")

    def _port(self, listener):
        return int(listener.address.rsplit(":", 1)[1])

    def _raw_send(self, port, payload: bytes):
        sock = socket.create_connection(("127.0.0.1", port), timeout=2.0)
        sock.sendall(payload)
        return sock

    def _assert_closes(self, server):
        deadline = time.monotonic() + 5.0
        with pytest.raises(comm.ConnectionClosed):
            while time.monotonic() < deadline:
                server.recv(timeout=0.05)
        # Reaching here before the deadline means no hang.
        assert time.monotonic() < deadline

    def test_garbage_json_frame_closes_connection(self):
        listener = self._listener()
        try:
            sock = self._raw_send(
                self._port(listener),
                struct.pack(">I", 9) + b"not json!",
            )
            server = listener.accept(timeout=2.0)
            assert server is not None
            self._assert_closes(server)
            sock.close()
        finally:
            listener.close()

    def test_oversized_frame_closes_connection(self):
        listener = self._listener()
        try:
            sock = self._raw_send(
                self._port(listener),
                struct.pack(">I", comm.MAX_FRAME_BYTES + 1),
            )
            server = listener.accept(timeout=2.0)
            assert server is not None
            self._assert_closes(server)
            sock.close()
        finally:
            listener.close()

    def test_truncated_frame_closes_connection(self):
        listener = self._listener()
        try:
            sock = self._raw_send(
                self._port(listener),
                struct.pack(">I", 100) + b'{"type": "regi',
            )
            server = listener.accept(timeout=2.0)
            assert server is not None
            sock.close()  # tear mid-frame
            self._assert_closes(server)
        finally:
            listener.close()

    @settings(max_examples=20, deadline=None)
    @given(garbage=st.binary(min_size=1, max_size=64))
    def test_fuzzed_bytes_error_or_parse_never_hang(self, garbage):
        listener = self._listener()
        try:
            sock = self._raw_send(self._port(listener), garbage)
            sock.close()
            server = listener.accept(timeout=2.0)
            if server is None:
                return  # connection died before accept — fine
            deadline = time.monotonic() + 5.0
            try:
                while time.monotonic() < deadline:
                    server.recv(timeout=0.05)
            except comm.ConnectionClosed:
                pass
            assert time.monotonic() < deadline  # typed error, no hang
        finally:
            listener.close()


# -- lease grants, placement and revoke --------------------------------
class _FrameSink:
    """A fake worker connection collecting every frame sent to it."""

    closed = False

    def __init__(self):
        self.frames = []

    def send(self, message):
        self.frames.append(message)

    def close(self):
        self.closed = True


class TestBatchedLeasing:
    """Grants, placement and revoke.  (The name is from the batched
    ``lease_batch`` grants, since deleted: every grant frame is one
    ``lease``.)"""

    def test_batched_lease_revoke_still_two_phase(self):
        """A granted lease is revocable on its own, in two phases."""
        coord = ClusterCoordinator("inproc://t-batch-revoke")
        sink = _FrameSink()
        worker = _Remote(name="w0", conn=sink, capacity=2)
        coord._workers["w0"] = worker
        coord._queue = deque(
            _Cell(key=s.key(), spec=s) for s in (_spec(v) for v in range(4))
        )
        coord._unresolved = {c.key for c in coord._queue}
        coord._cells = {c.key: c for c in coord._queue}
        coord._report = ExecuteReport()
        try:
            coord._grant(time.monotonic())
            frame_types = [f["type"] for f in sink.frames]
            assert frame_types == [protocol.MSG_LEASE] * 4
            assert len(worker.leases) == 4
            # Revoke one lease: two-phase — nothing requeues until the
            # worker confirms with MSG_REVOKED.
            lease = list(worker.leases.values())[-1]
            lease.revoking = True
            assert not coord._queue
            coord._handle_message(
                sink, worker,
                {"type": protocol.MSG_REVOKED, "lease": lease.lease_id},
                time.monotonic(),
            )
            assert len(worker.leases) == 3
            assert len(coord._queue) == 1
            assert coord._queue[0].key == lease.cell.key
        finally:
            coord.close()

    def test_head_of_queue_goes_to_least_loaded_worker(self):
        """The head of the queue (the longest cell: the engine orders
        cells longest-first) goes to the worker holding the fewest
        leases, however fast either worker finished its earlier runs."""
        coord = ClusterCoordinator("inproc://t-placement")
        busy_sink, idle_sink = _FrameSink(), _FrameSink()
        busy = _Remote(name="busy", conn=busy_sink, capacity=1)
        idle = _Remote(name="idle", conn=idle_sink, capacity=1)
        coord._workers = {"busy": busy, "idle": idle}
        cells = [_Cell(key=s.key(), spec=s)
                 for s in (_spec(v) for v in range(4))]
        finished, held, head = cells[:2], cells[2], cells[3]
        coord._report = ExecuteReport()
        coord._queue = deque()
        coord._unresolved = {c.key for c in cells}
        coord._cells = {c.key: c for c in cells}
        coord._on_resolved = None
        try:
            # One earlier run each: "busy" took 1 ms, "idle" 1 s.
            for worker, cell, wall in ((busy, finished[0], 0.001),
                                       (idle, finished[1], 1.0)):
                lease = _Lease(lease_id=f"L-{worker.name}", cell=cell,
                               worker=worker.name, granted=0.0)
                coord._lease_added(worker, lease)
                coord._handle_result(worker, {
                    "lease": lease.lease_id, "key": cell.key, "ok": True,
                    "payload": {"value": 0.0}, "wall": wall,
                })
            coord._lease_added(busy, _Lease(lease_id="L-held", cell=held,
                                            worker="busy", granted=0.0))
            coord._queue = deque([head])
            coord._grant(time.monotonic())
            assert [(f["type"], f["key"]) for f in idle_sink.frames] == [
                (protocol.MSG_LEASE, head.key)
            ]
            assert busy_sink.frames == []
        finally:
            coord.close()

    def test_leased_index_tracks_grant_and_result(self):
        """Satellite: expiry rescans walk only workers holding leases."""
        coord = ClusterCoordinator("inproc://t-leased-index")
        sink = _FrameSink()
        worker = _Remote(name="w0", conn=sink)
        cell = _Cell(key="k", spec=_spec(0))
        lease = _Lease(lease_id="L1", cell=cell, worker="w0", granted=0.0)
        try:
            assert coord._leased == set()
            coord._lease_added(worker, lease)
            assert coord._leased == {"w0"}
            assert coord._inflight == {"k": 1}
            del worker.leases[lease.lease_id]
            coord._lease_removed(worker, lease)
            assert coord._leased == set()
            assert coord._inflight == {}
            assert coord._held_count == 0
        finally:
            coord.close()


# -- decode failures: the lease-key check and its retry path ----------
class TestDecodeFailureRetry:
    def test_lease_spec_must_rebuild_its_key(self):
        """A worker runs only the spec the coordinator keyed: a lease
        whose spec rebuilds another key fails with kind="decode" before
        anything executes, and nothing is committed under the key."""
        spec_a, spec_b = _spec(101), _spec(102)
        coord = ClusterCoordinator("inproc://t-lease-key", max_attempts=1)
        worker = start_worker_thread(coord.address, name="w0")
        _EXECUTED.clear()
        try:
            report = coord.execute([(spec_a.key(), spec_b, 1)])
        finally:
            coord.close()
            worker.stop()
        outcome = report.outcomes[spec_a.key()]
        assert outcome.status == "exhausted"
        assert outcome.kind == "decode"
        assert outcome.payload["type"] == "SpecWireError"
        assert spec_b.seed not in _EXECUTED

    def test_decode_result_requeues_with_backoff(self):
        """A kind="decode" result is an infrastructure failure: the cell
        is requeued with backoff, not resolved."""
        coord = ClusterCoordinator("inproc://t-decode-retry")
        sink = _FrameSink()
        worker = _Remote(name="w0", conn=sink)
        coord._workers["w0"] = worker
        spec = _spec(0)
        cell = _Cell(key=spec.key(), spec=spec)
        lease = _Lease(lease_id="L1", cell=cell, worker="w0", granted=0.0)
        coord._lease_added(worker, lease)
        coord._report = ExecuteReport()
        coord._unresolved = {cell.key}
        coord._cells = {cell.key: cell}
        coord._queue = deque()
        coord._on_resolved = None
        try:
            coord._handle_result(worker, {
                "lease": "L1", "key": cell.key, "ok": False,
                "kind": "decode",
                "payload": {"type": "SpecWireError", "message": "x"},
                "wall": 0.0,
            })
            assert cell.key in coord._unresolved  # not resolved: retrying
            assert len(coord._queue) == 1  # requeued with backoff
            assert coord._queue[0].not_before > 0
        finally:
            coord.close()


# -- engine bit-identity: every dispatch path against serial ----------
#: The dispatch paths, as SweepRunner keyword sets; each must give the
#: serial (jobs=1, no timeout) rows and checkpoint lines.
_PATHS = {
    "jobs2": {"jobs": 2},
    "timeout": {"jobs": 1, "timeout": 30.0},
    "cluster-inproc": {"jobs": 2, "cluster": "inproc"},
    "cluster-tcp": {"jobs": 2, "cluster": "tcp://127.0.0.1:0"},
}


class TestEngineBitIdentity:
    """One adaptive sweep of real ``single`` cells through each path.

    The cells cover batched replicates, a fault-injected cell (never
    batched) and a cell whose executor raises (an error result, never
    checkpointed).
    """

    POLICY = AdaptivePolicy(ci=0.0, min_seeds=2, max_seeds=3)

    @staticmethod
    def _cells():
        def cell(scheduler, **extra):
            return RunSpec(
                kind="single",
                params={
                    "workload": {"name": "layered", "kernel": "copy",
                                 "parallelism": 2, "total": 16},
                    "machine": "jetson_tx2",
                    "scheduler": scheduler,
                    **extra,
                },
                seed=1,
                metrics=("throughput", "tasks_completed"),
            )

        return [
            cell("rws"),
            cell("dam-c"),
            cell("fam-c"),
            cell("dam-c", scenario={"name": "faults", "mtbf": 5.0,
                                    "mttr": 1.0, "cores": [0]}),
            cell("no-such-scheduler"),  # its executor raises
        ]

    def _sweep(self, tmp_path, name, **kw):
        """Rows and checkpoint lines of one sweep through ``kw``'s path."""
        cache = tmp_path / name
        runner = SweepRunner(
            use_cache=True, progress=False, label="identity",
            cache_dir=cache, **kw,
        )
        workers = []
        if str(kw.get("cluster", "")).startswith("tcp://"):
            # External thread workers, as bench_dispatch.py's tcp mode.
            coord = runner._ensure_coordinator()
            workers = [
                start_worker_thread(
                    coord.address, name=f"identity-{i}", capacity=1,
                    reconnect_timeout=10.0,
                )
                for i in range(2)
            ]
        try:
            rows = runner.run_adaptive(self._cells(), self.POLICY)
        finally:
            runner.close()
            for worker in workers:
                worker.stop()
        checkpoint = cache / "checkpoints" / "identity.jsonl"
        return rows, set(checkpoint.read_text().splitlines())

    def test_resumed_remainder_is_bit_identical_to_serial(self, tmp_path):
        """The resume leg: a serial sweep's checkpoint, cut to its first
        half plus a torn line as a killed sweep leaves it, resumes at
        ``jobs=2``; the remainder runs on the auto-workers, and the rows
        and checkpoint lines end up serial's."""

        def sweep(**kw):
            runner = SweepRunner(
                use_cache=False, resume=True, progress=False,
                label="identity", cache_dir=tmp_path, **kw,
            )
            try:
                return runner.run_adaptive(self._cells(), self.POLICY)
            finally:
                runner.close()

        want_rows = sweep(jobs=1)
        checkpoint = tmp_path / "checkpoints" / "identity.jsonl"
        want_lines = checkpoint.read_text().splitlines()
        kept = want_lines[: len(want_lines) // 2]
        checkpoint.write_text(
            "".join(line + "\n" for line in kept) + '{"key": "abc", "metr'
        )
        assert sweep(jobs=2) == want_rows
        assert set(checkpoint.read_text().splitlines()) == set(want_lines)
        assert len(want_lines) == 4 * self.POLICY.max_seeds

    @pytest.mark.parametrize("path", sorted(_PATHS))
    def test_bit_identical_to_serial(self, tmp_path, path):
        rows, lines = self._sweep(tmp_path, path, **_PATHS[path])
        want_rows, want_lines = self._sweep(tmp_path, "serial", jobs=1)
        assert rows == want_rows
        # Completion order differs between paths, so compare line sets.
        assert lines == want_lines
        assert is_error_result(rows[-1]) and not is_error_result(rows[0])
        assert len(want_lines) == 4 * self.POLICY.max_seeds
