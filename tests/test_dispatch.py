"""Tests for the dispatch fast lane (PR 10).

Covers the delta codec (:mod:`repro.sweep.wire`) with Hypothesis
round-trip and fuzz properties, RunSpec key memoization, batched
leasing + spec-aware placement in the cluster coordinator, the framed
TCP protocol's malformed-input behavior (typed error, never a hang),
and pool / cluster-inproc bit-identity against serial through the real
sweep engine.
"""

from __future__ import annotations

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
from repro.sweep import RunSpec, SweepRunner, wire
from repro.sweep.registry import executor
from repro.telemetry import Telemetry


@executor("dispatch_echo")
def _echo(spec):
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


# -- delta codec: Hypothesis round-trip + fuzz -------------------------
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


def _mk(kind, params, seed, metrics, tags):
    return RunSpec(kind=kind, params=params, seed=seed,
                   metrics=tuple(metrics), tags=tags)


class TestDeltaCodec:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["single", "kmeans_window", "x"]),
        base_params=_params, spec_params=_params,
        base_tags=_params, spec_tags=_params,
        base_seed=st.integers(min_value=0, max_value=2**40),
        spec_seed=st.integers(min_value=0, max_value=2**40),
        metrics=_metrics,
    )
    # Values Python calls equal but JSON spells differently.
    @example(kind="single", base_params={"a": False, "b": 0.0},
             spec_params={"a": 0, "b": -0.0}, base_tags={}, spec_tags={},
             base_seed=0, spec_seed=0, metrics=["m"])
    def test_roundtrip(self, kind, base_params, spec_params, base_tags,
                       spec_tags, base_seed, spec_seed, metrics):
        base = _mk(kind, base_params, base_seed, metrics, base_tags)
        spec = _mk(kind, spec_params, spec_seed, metrics, spec_tags)
        delta = wire.encode_delta(base, spec)
        rebuilt = wire.apply_delta(base, delta)
        assert rebuilt == spec
        assert rebuilt.key() == spec.key()

    @settings(max_examples=60, deadline=None)
    @given(payload=st.recursive(
        _scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=12,
    ))
    def test_fuzzed_delta_never_hangs_or_leaks(self, payload):
        base = _spec(1)
        try:
            rebuilt = wire.apply_delta(base, payload)
        except wire.SpecDeltaError:
            return  # the typed, retryable outcome
        assert isinstance(rebuilt, RunSpec)

    def test_interner_delta_smaller_and_decodable(self):
        interner = wire.SpecInterner()
        decoder = wire.SpecDecoder()
        base = _spec(0, pad="x" * 64)
        first = interner.encode(base)
        assert first.delta is None  # group base ships whole
        decoder.add_base(wire.wire_id(base), first.full)
        rep = _spec(1, pad="x" * 64)
        enc = interner.encode(rep)
        assert enc.delta is not None
        assert enc.wire_bytes < enc.full_bytes
        rebuilt = decoder.decode({"base": enc.base_id, "delta": enc.delta})
        assert rebuilt == rep and rebuilt.key() == rep.key()

    def test_unknown_base_is_typed_error(self):
        decoder = wire.SpecDecoder()
        with pytest.raises(wire.SpecDeltaError):
            decoder.decode({"base": "deadbeef", "delta": {}})

    def test_base_registration_is_content_checked(self):
        decoder = wire.SpecDecoder()
        data = wire.spec_to_wire(_spec(1))
        with pytest.raises(wire.SpecDeltaError):
            decoder.add_base("not-the-content-hash", data)

    def test_unknown_delta_field_rejected(self):
        with pytest.raises(wire.SpecDeltaError):
            wire.apply_delta(_spec(1), {"kindd": "single"})

    def test_batch_pseudo_specs_always_ship_whole(self):
        from repro.sweep.spec import BATCH_KIND

        interner = wire.SpecInterner()
        batch = RunSpec(kind=BATCH_KIND, params={"members": [1, 2]},
                        metrics=("value",))
        for _ in range(2):
            assert interner.encode(batch).delta is None


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
        assert _metric(tele, "dispatch_deltas_total") > 0
        assert _metric(tele, "dispatch_bytes_saved_total") > 0
        # Bases ship at most once per group per connection.
        base_frames = _metric(tele, "dispatch_frames_total")
        assert base_frames > 0

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


# -- decode-failure retry path -----------------------------------------
class TestDecodeFailureRetry:
    def test_unknown_base_result_reships_bases(self):
        """A worker that reports kind="decode" gets every base re-shipped
        on the retry instead of a permanently poisoned session."""
        coord = ClusterCoordinator("inproc://t-decode-retry")
        sink = _FrameSink()
        worker = _Remote(name="w0", conn=sink)
        worker.bases_sent.add("some-base")
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
                "payload": {"type": "SpecDeltaError", "message": "x"},
                "wall": 0.0,
            })
            assert worker.bases_sent == set()  # re-ship on retry
            assert cell.key in coord._unresolved  # not resolved: retrying
            assert len(coord._queue) == 1  # requeued with backoff
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

    def test_pool_ships_deltas(self):
        tele = Telemetry(enabled=True)
        runner = SweepRunner(
            jobs=2, use_cache=False, progress=False, telemetry=tele
        )
        specs = [_spec(v, pad="z" * 40) for v in range(8)]
        try:
            rows = runner.run(specs)
        finally:
            runner.close()
        assert [r["value"] for r in rows] == [float(v) for v in range(8)]
        assert _metric(tele, "dispatch_deltas_total") > 0
        assert _metric(tele, "dispatch_bytes_saved_total") > 0
