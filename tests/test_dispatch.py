"""Tests for the dispatch path.

Covers the lease spec wire form (:func:`repro.cluster.protocol.spec_to_wire`
/ :func:`~repro.cluster.protocol.spec_from_wire`) with Hypothesis
round-trip and fuzz properties, the worker's lease-key check, RunSpec key
memoization, batched leasing + spec-aware placement in the cluster
coordinator, the framed TCP protocol's malformed-input behavior (typed
error, never a hang), and pool / cluster-inproc bit-identity against
serial through the real sweep engine.
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
from repro.sweep import RunSpec, SweepRunner
from repro.sweep.registry import executor
from repro.telemetry import Telemetry

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


def _metric(telemetry, name) -> float:
    return telemetry.registry.get(name).value


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


# -- batched leasing + placement ---------------------------------------
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
    def test_batched_grants_save_roundtrips(self):
        tele = Telemetry(enabled=True)
        coord = ClusterCoordinator(
            "inproc://t-batch-grant", telemetry=tele
        )
        worker = start_worker_thread(
            coord.address, name="w0", capacity=2
        )
        specs = [_spec(v) for v in range(8)]
        try:
            report = coord.execute([(s.key(), s, 1) for s in specs])
        finally:
            coord.close()
            worker.stop()
        assert len(report.outcomes) == 8
        assert all(o.status == "ok" for o in report.outcomes.values())
        assert _metric(tele, "dispatch_roundtrips_saved_total") > 0
        assert _metric(tele, "dispatch_frames_total") > 0

    def test_batched_lease_revoke_still_two_phase(self):
        """A lease granted in a batch is still individually revocable."""
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
            grant_frames = [
                f for f in sink.frames
                if f["type"] in (protocol.MSG_LEASE, protocol.MSG_LEASE_BATCH)
            ]
            assert any(
                f["type"] == protocol.MSG_LEASE_BATCH for f in grant_frames
            )
            assert len(worker.leases) == 4
            # Revoke one batched lease: two-phase — nothing requeues
            # until the worker confirms with MSG_REVOKED.
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

    def test_placement_prefers_fast_worker_for_head_cell(self):
        """Longest-first queue + fastest-first ranking = longest cell on
        the fastest host."""
        coord = ClusterCoordinator("inproc://t-placement", prefetch=1)
        slow, fast = _FrameSink(), _FrameSink()
        w_slow = _Remote(name="slow", conn=slow, capacity=1,
                         speed=0.2, speed_samples=3)
        w_fast = _Remote(name="fast", conn=fast, capacity=1,
                         speed=5.0, speed_samples=3)
        coord._workers = {"slow": w_slow, "fast": w_fast}
        cells = [_Cell(key=s.key(), spec=s)
                 for s in (_spec(v) for v in range(2))]
        coord._queue = deque(cells)  # head = longest (engine pre-orders)
        coord._unresolved = {c.key for c in cells}
        coord._cells = {c.key: c for c in cells}
        coord._report = ExecuteReport()
        try:
            coord._grant(time.monotonic())
            head_key = cells[0].key
            fast_leases = [f for f in fast.frames
                           if f["type"] == protocol.MSG_LEASE]
            assert fast_leases and fast_leases[0]["key"] == head_key
            assert all(
                f["key"] != head_key for f in slow.frames
                if f.get("type") == protocol.MSG_LEASE
            )
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
class TestEngineBitIdentity:
    def _run(self, **kw):
        runner = SweepRunner(use_cache=False, progress=False, **kw)
        specs = [_spec(v, pad="y" * 40) for v in range(10)]
        try:
            return runner.run(specs)
        finally:
            runner.close()

    def test_pool_bit_identical_to_serial(self):
        pool = self._run(jobs=2)
        serial = self._run(jobs=1)
        assert pool == serial
        assert [row["value"] for row in pool] == [float(v) for v in range(10)]

    def test_cluster_inproc_bit_identical_to_serial(self):
        cluster = self._run(jobs=2, cluster="inproc")
        serial = self._run(jobs=1)
        assert cluster == serial
