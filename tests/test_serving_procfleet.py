"""Tests for the worker-process transport (``repro.serving.procfleet``):
the wire protocol's framing and its one decoder under hostile bytes, a
live worker fed malformed ``REQUEST`` frames, and the socket-backed
policy store. Only the live-worker test spawns a process; the front
door over worker processes is held to the shared contract in
``test_serving_contract.py``.
"""

import asyncio
import pickle
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import SingleR
from repro.scenarios import coerce_scenario
from repro.serving import procfleet
from repro.serving.fleet import PolicyStore
from repro.serving.procfleet import (
    MAX_FRAME_BYTES,
    MSG_REQUEST,
    MSG_RESPONSE,
    PolicyStoreServer,
    ProcessFleet,
    ProtocolError,
    RemotePolicyStore,
    _connect_blocking,
    decode_payload,
    encode_frame,
    read_frame,
    recv_frame_blocking,
)

MSG_TYPES = sorted(
    value for name, value in vars(procfleet).items() if name.startswith("MSG_")
)

# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


def read_async(data: bytes):
    """``read_frame`` over ``data`` followed by EOF."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await asyncio.wait_for(read_frame(reader), timeout=5)

    return asyncio.run(read())


def read_blocking(data: bytes, *, close_peer: bool = True):
    """``recv_frame_blocking`` over ``data``; a reader that waits for
    bytes that never come times out (an ``OSError``, so a failure)."""
    peer, sock = socket.socketpair()
    try:
        sock.settimeout(5)
        peer.sendall(data)
        if close_peer:
            peer.close()
        return recv_frame_blocking(sock)
    finally:
        peer.close()
        sock.close()


READERS = [read_async, read_blocking]


def raw_frame(msg_type: int, payload: bytes) -> bytes:
    return struct.pack("!I", len(payload) + 1) + bytes((msg_type,)) + payload


class TestFraming:
    def test_json_frame_round_trip(self):
        body = {"seq": 7, "qid": 123, "latency_ms": 4.5, "pair": None}
        frame = encode_frame(MSG_REQUEST, body)
        # 4-byte length prefix + 1 type byte, then the JSON payload.
        assert frame[4] == MSG_REQUEST
        assert decode_payload(frame[4], frame[5:]) == body

    @pytest.mark.parametrize("reader", READERS)
    def test_both_readers_decode_a_frame(self, reader):
        body = {"seq": 1, "qid": 2}
        assert reader(encode_frame(MSG_RESPONSE, body)) == (MSG_RESPONSE, body)

    def test_no_frame_type_is_decoded_with_pickle(self):
        assert len(MSG_TYPES) == len(set(MSG_TYPES)) >= 11
        blob = pickle.dumps({"seq": 1, "qid": 2})
        for msg_type in MSG_TYPES:
            with pytest.raises(ProtocolError):
                decode_payload(msg_type, blob)
            assert isinstance(
                decode_payload(msg_type, b'{"seq":1}'), dict
            )
        assert not hasattr(procfleet, "pickle")


class TestHostileBytes:
    """Both readers, fed anything: a frame comes back, or the connection
    is dropped with ``ProtocolError`` / ``IncompleteReadError`` /
    ``ConnectionError`` — never another exception, never a hang."""

    DROPPED = (ProtocolError, asyncio.IncompleteReadError, ConnectionError)

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize(
        "payload",
        [b"\xff\xfe{}", b"{not json", b"[1,2]", b"3", b"null", b'"seq"', b"",
         b"[" * 100_000],
        ids=["not-utf8", "not-json", "array", "number", "null", "string",
             "empty", "nesting-bomb"],
    )
    def test_payload_that_is_not_a_json_object(self, reader, payload):
        with pytest.raises(ProtocolError):
            reader(raw_frame(MSG_REQUEST, payload))

    @pytest.mark.parametrize("reader", READERS)
    def test_unknown_type_byte(self, reader):
        assert 0xFF not in MSG_TYPES
        with pytest.raises(ProtocolError, match="type"):
            reader(raw_frame(0xFF, b"{}"))

    @pytest.mark.parametrize("reader", READERS)
    def test_zero_length_frame(self, reader):
        with pytest.raises(ProtocolError, match="length"):
            reader(struct.pack("!I", 0))

    @pytest.mark.parametrize("length", [MAX_FRAME_BYTES + 1, 2**32 - 1])
    def test_oversize_prefix_is_rejected_before_the_body_is_read(self, length):
        head = struct.pack("!I", length)
        with pytest.raises(ProtocolError, match="length"):
            read_async(head)
        # The peer stays open and sends nothing more: the reader must
        # refuse at the prefix, not wait for gigabytes.
        with pytest.raises(ProtocolError, match="length"):
            read_blocking(head, close_peer=False)

    def test_largest_frame_is_accepted(self):
        body = {"pad": "x" * (MAX_FRAME_BYTES - len('{"pad":""}') - 1)}
        frame = encode_frame(MSG_RESPONSE, body)
        assert len(frame) == 4 + MAX_FRAME_BYTES
        assert read_async(frame) == (MSG_RESPONSE, body)

    @pytest.mark.parametrize("reader", READERS)
    def test_every_truncation_of_a_frame(self, reader):
        frame = encode_frame(MSG_RESPONSE, {"seq": 1, "qid": 2, "pair": None})
        for cut in range(len(frame)):
            with pytest.raises((asyncio.IncompleteReadError, ConnectionError)):
                reader(frame[:cut])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 255), st.binary(max_size=48))
    def test_well_framed_garbage(self, msg_type, payload):
        for reader in READERS:
            try:
                got_type, body = reader(raw_frame(msg_type, payload))
            except ProtocolError:
                continue
            assert got_type == msg_type and msg_type in MSG_TYPES
            assert isinstance(body, dict)

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=64))
    def test_random_bytes(self, data):
        for reader in READERS:
            try:
                msg_type, body = reader(data)
            except self.DROPPED:
                continue
            assert msg_type in MSG_TYPES and isinstance(body, dict)

    def test_malformed_request_fields_drop_the_worker_connection(self, capfd):
        """A well-framed ``REQUEST`` whose ``seq``, ``qid`` or ``v`` is
        missing or not an integer closes that connection quietly, as a
        ``ProtocolError`` does; the worker keeps serving the fleet."""
        scenario = coerce_scenario("fleet-tail-quick").check()
        malformed = [
            {"seq": 1},
            {"seq": 2, "qid": 3, "v": "x"},
            {"seq": "a", "qid": 1},
        ]
        with ProcessFleet(1, scenario, time_scale=0.0, seed=7) as fleet:
            worker = fleet.shards[0]
            for body in malformed:
                with _connect_blocking("unix", worker.address, 10.0) as sock:
                    sock.sendall(encode_frame(MSG_REQUEST, body))
                    assert sock.recv(1) == b"", body  # closed, no reply
            outcome = asyncio.run(fleet.request(5))
            assert outcome is not None
            assert worker.alive
            stats = fleet.stats()
            assert stats["completed"] == 1
            assert stats["requests"] == (
                stats["completed"] + stats["shed"] + stats["errors"]
            )
            (entry,) = stats["per_shard"]
            assert entry["alive"]
            assert entry["issued"] == (
                entry["completed"] + entry["shed"] + entry["errors"]
            )
        # The worker has exited: everything it wrote to stderr is in.
        err = capfd.readouterr().err
        assert "Traceback" not in err and "Unhandled exception" not in err


# ---------------------------------------------------------------------------
# The socket-backed PolicyStore (threads only, no processes)
# ---------------------------------------------------------------------------


def count_calls(obj, name: str) -> list:
    """Wrap ``obj.name`` so each call appends to the returned list."""
    calls, inner = [], getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    setattr(obj, name, counted)
    return calls


class TestRemotePolicyStore:
    def test_publish_propagates_between_clients(self, tmp_path):
        server = PolicyStoreServer(
            PolicyStore(SingleR(10.0, 0.5)), runtime_dir=str(tmp_path)
        )
        try:
            a = RemotePolicyStore(server.address)
            b = RemotePolicyStore(server.address)
            # Both see the seed publish (version 1).
            assert a.get() == (1, SingleR(10.0, 0.5))
            assert b.get() == (1, SingleR(10.0, 0.5))
            # A publish from one client reaches the other at v2, with
            # the same monotone-version + provenance semantics as the
            # in-process store, once the new version is announced.
            assert a.publish(SingleR(25.0, 0.3), source="clientA") == 2
            assert a.version == 2  # publisher's cache updates in place
            b.announce(2)
            assert b.get() == (2, SingleR(25.0, 0.3))
            assert server.store.publishes == [(1, "init"), (2, "clientA")]
            a.close()
            b.close()
        finally:
            server.close()

    def test_an_unchanged_version_makes_no_round_trip(self, tmp_path):
        server = PolicyStoreServer(
            PolicyStore(SingleR(10.0, 0.5)), runtime_dir=str(tmp_path)
        )
        try:
            client = RemotePolicyStore(server.address)
            gets = count_calls(server.store, "get")  # one per STORE_GET
            for _ in range(10_000):
                client.announce(1)
                assert client.get() == (1, SingleR(10.0, 0.5))
            assert gets == []
            client.close()
        finally:
            server.close()

    def test_a_newer_version_refreshes_once_and_is_adopted(self, tmp_path):
        server = PolicyStoreServer(
            PolicyStore(SingleR(10.0, 0.5)), runtime_dir=str(tmp_path)
        )
        try:
            client = RemotePolicyStore(server.address)
            server.store.publish(SingleR(99.0, 0.1), source="direct")
            gets = count_calls(server.store, "get")
            # Nothing announced yet: the cache is served, no round trip.
            assert client.get() == (1, SingleR(10.0, 0.5))
            client.announce(2)
            for _ in range(100):
                assert client.get() == (2, SingleR(99.0, 0.1))
            client.announce(1)  # an older announcement changes nothing
            assert client.get() == (2, SingleR(99.0, 0.1))
            assert len(gets) == 1
            client.close()
        finally:
            server.close()

    def test_a_failed_refresh_waits_for_a_newer_version(self, tmp_path):
        server = PolicyStoreServer(
            PolicyStore(SingleR(10.0, 0.5)), runtime_dir=str(tmp_path)
        )
        client = RemotePolicyStore(server.address)
        server.close()
        server.store.publish(SingleR(99.0, 0.1), source="direct")
        rpcs = count_calls(client, "_rpc")
        client.announce(2)
        for _ in range(1_000):  # the cached policy, one failed attempt
            assert client.get() == (1, SingleR(10.0, 0.5))
        assert len(rpcs) == 1
        client.announce(3)
        assert client.get() == (1, SingleR(10.0, 0.5))
        assert len(rpcs) == 2
        client.close()

    def test_tcp_transport(self):
        server = PolicyStoreServer(PolicyStore(), transport="tcp")
        try:
            client = RemotePolicyStore(server.address, transport="tcp")
            assert client.get() == (0, None)
            assert client.publish(SingleR(5.0, 0.2), source="t") == 1
            client.close()
        finally:
            server.close()

    def test_unknown_transport_is_named(self):
        with pytest.raises(ValueError, match="unix, tcp"):
            PolicyStoreServer(PolicyStore(), transport="carrier-pigeon")


# ---------------------------------------------------------------------------
# The process fleet's constructor (the front door it builds is held to
# the shared contract in test_serving_contract.py)
# ---------------------------------------------------------------------------


def test_constructor_validation():
    scenario = coerce_scenario("fleet-tail-quick").check()
    with pytest.raises(ValueError, match="n_procs"):
        ProcessFleet(0, scenario)
    with pytest.raises(ValueError, match="unix, tcp"):
        ProcessFleet(1, scenario, transport="smoke-signal")
    with pytest.raises(ValueError, match="tuned_shard"):
        ProcessFleet(1, scenario, autotune={}, tuned_shard=3)


def test_serving_import_path_loads_no_scipy():
    """A worker process imports ``repro.serving.procfleet`` at spawn; scipy
    on that path would cost about a second and 60 MB per worker for code
    no served request calls. Run in a fresh interpreter, since this one
    has long since imported scipy elsewhere."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys\n"
        "import repro.serving.procfleet, repro.optimize, repro.main\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60, env=env,
    )
    assert out.stdout.strip() == "[]", out.stdout
