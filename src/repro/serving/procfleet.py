"""Worker processes behind the serving fleet: one event loop per core.

:class:`~repro.serving.fleet.ServingFleet` is the only front door. Built
over in-loop shards it runs N hedging clients on *one* asyncio loop on
*one* core — it measures concurrency, not parallelism. This module is
the transport that puts the same front door over real worker processes,
the "Tail at Scale" deployment shape: hedging across independently
scheduled workers whose stragglers are uncorrelated, and whose cost is
paid over a real transport instead of an in-process call.

* :class:`WorkerHandle` — the socket :class:`~repro.serving.fleet.Shard`:
  the front door's end of one worker process. Requests travel as
  length-prefixed frames on a Unix-domain or TCP socket; a closed pipe
  sheds the in-flight requests and clears ``alive`` so new arrivals are
  routed around the worker — the front door never hangs.
* :func:`_worker_main` — one worker: its own event loop around the same
  in-loop :class:`~repro.serving.fleet.ShardWorker` the single-process
  fleet uses (plus an :class:`~repro.serving.autotune.AutoTuner` on the
  tuned shard).
* :class:`PolicyStoreServer` / :class:`RemotePolicyStore` — the
  fleet-shared :class:`~repro.serving.fleet.PolicyStore` behind a
  socket: the front-door process owns the versioned store, each worker
  reads it through a cached drop-in client, and one worker's refit
  still propagates fleet-wide with the same monotone versions. The
  store is off the request path: each ``REQUEST`` frame carries the
  front door's store version, and a worker makes a store round trip
  only when that version is newer than its cache.
* :class:`ProcessFleet` — spawns the workers and the store server and
  hands the handles to ``ServingFleet``; ``close()`` reaps them.

Wire protocol
-------------
Every message is one frame: a 4-byte big-endian payload length, then a
1-byte message type, then a UTF-8 JSON object. A reader rejects — with
:class:`ProtocolError`, which every read loop treats like a closed
connection — a frame that is empty, longer than
:data:`MAX_FRAME_BYTES`, of unknown type, or whose payload is not a
JSON object. A worker drops the connection the same way on a
``REQUEST`` whose ``seq``, ``qid`` or ``v`` is missing or not an
integer. No sketch crosses a socket: the detail-pull and shutdown
replies carry only the worker's ``detail()`` dict and span dicts.

Observability crosses the process boundary the same way the pipeline's
pool does: the front door captures :func:`repro.obs.snapshot_context`,
each worker buffers its spans under that parent via
:func:`repro.obs.remote_context`, and the shutdown reply ships the span
dicts home where :func:`repro.obs.absorb` re-parents them.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import multiprocessing
import os
import shutil
import socket
import struct
import tempfile
import threading
import time

import numpy as np

from ..core.policies import ReissuePolicy
from ..obs.trace import absorb, get_tracer, snapshot_context
from .fleet import PolicyStore, ServingFleet, ShardWorker
from .hedge import RequestOutcome
from .metrics import ServingMetrics

#: Transports the fleet (and ``repro loadgen --transport``) accepts.
TRANSPORTS = ("unix", "tcp")

#: Largest frame a reader accepts (type byte + payload), so a corrupt
#: length prefix cannot make it allocate gigabytes. A shutdown reply
#: whose span dicts exceed it is rejected and those spans are dropped.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Seconds every worker of a fleet gets, together, to come up.
SPAWN_TIMEOUT_S = 60.0

_LEN = struct.Struct("!I")

# -- message types -----------------------------------------------------------
MSG_REQUEST = 0x01  # parent -> worker: {"seq", "qid", "v" (store version)}
MSG_RESPONSE = 0x02  # worker -> parent: {"seq", "qid", outcome fields}
MSG_SHED = 0x03  # worker -> parent: {"seq", "qid"} (admission shed)
MSG_ERROR = 0x04  # worker -> parent: {"seq", "qid", "error"}
MSG_DETAIL = 0x07  # parent -> worker: {} (detail-pull)
MSG_DETAIL_REPLY = 0x08  # worker -> parent: the shard's detail()
MSG_SHUTDOWN = 0x09  # parent -> worker: {}
MSG_BYE = 0x0A  # worker -> parent: {"detail", "spans"}
MSG_STORE_GET = 0x14  # client -> store: {}
MSG_STORE_STATE = 0x15  # store -> client: {"version", "policy"}
MSG_STORE_PUBLISH = 0x16  # client -> store: {"policy", "source"}

_MSG_TYPES = frozenset(
    {
        MSG_REQUEST,
        MSG_RESPONSE,
        MSG_SHED,
        MSG_ERROR,
        MSG_DETAIL,
        MSG_DETAIL_REPLY,
        MSG_SHUTDOWN,
        MSG_BYE,
        MSG_STORE_GET,
        MSG_STORE_STATE,
        MSG_STORE_PUBLISH,
    }
)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class ProtocolError(ConnectionError):
    """The peer sent bytes that are not a frame of this protocol."""


def encode_frame(msg_type: int, body: dict) -> bytes:
    """One wire frame: length prefix, type byte, JSON payload."""
    payload = json.dumps(body, separators=(",", ":")).encode()
    return _LEN.pack(len(payload) + 1) + bytes((msg_type,)) + payload


def decode_payload(msg_type: int, payload: bytes) -> dict:
    if msg_type not in _MSG_TYPES:
        raise ProtocolError(f"unknown frame type {msg_type:#x}")
    try:
        body = json.loads(payload.decode())
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"frame payload is not UTF-8 JSON: {exc}") from None
    if not isinstance(body, dict):
        raise ProtocolError("frame payload is not a JSON object")
    return body


def _frame_length(head: bytes) -> int:
    (length,) = _LEN.unpack(head)
    if not 1 <= length <= MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} outside 1..{MAX_FRAME_BYTES}"
        )
    return length


async def read_frame(reader: asyncio.StreamReader) -> tuple[int, dict]:
    """Read one frame; raises ``IncompleteReadError`` on a closed peer
    and :class:`ProtocolError` on bytes that are not a frame."""
    length = _frame_length(await reader.readexactly(_LEN.size))
    blob = await reader.readexactly(length)
    return blob[0], decode_payload(blob[0], blob[1:])


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame_blocking(sock: socket.socket) -> tuple[int, dict]:
    """Blocking-socket twin of :func:`read_frame`."""
    length = _frame_length(_recv_exact(sock, _LEN.size))
    blob = _recv_exact(sock, length)
    return blob[0], decode_payload(blob[0], blob[1:])


def _connect_blocking(transport: str, address, timeout: float) -> socket.socket:
    if transport == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address)
    else:
        host, port = address
        sock = socket.create_connection((host, int(port)), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


# ---------------------------------------------------------------------------
# The socket-backed PolicyStore
# ---------------------------------------------------------------------------


class PolicyStoreServer:
    """Serve a :class:`PolicyStore` to worker processes over a socket.

    Runs in the front-door process on daemon threads (one acceptor, one
    per connection) so publishes and reads never touch the serving event
    loop. The wrapped store keeps the exact in-process semantics —
    monotone versions, ``publishes`` provenance — so ``fleet.store`` is
    the same object whichever fleet flavour sits in front of it.
    """

    def __init__(
        self,
        store: PolicyStore | None = None,
        *,
        transport: str = "unix",
        runtime_dir: str | None = None,
    ):
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r} "
                f"(valid: {', '.join(TRANSPORTS)})"
            )
        self.store = store if store is not None else PolicyStore()
        self.transport = transport
        self._conns: set[socket.socket] = set()
        if transport == "unix":
            path = os.path.join(
                runtime_dir or tempfile.mkdtemp(prefix="repro-store-"),
                "policy.sock",
            )
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.bind(path)
            self.address = path
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.bind(("127.0.0.1", 0))
            self.address = list(self._sock.getsockname())
        self._sock.listen(32)
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-policy-store", daemon=True
        )
        self._acceptor.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed
            self._conns.add(conn)
            threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(None)
            while True:
                try:
                    msg_type, body = recv_frame_blocking(conn)
                except (ConnectionError, OSError, struct.error):
                    return
                if msg_type == MSG_STORE_GET:
                    version, policy = self.store.get()
                    reply = {
                        "version": version,
                        "policy": None if policy is None else policy.to_spec(),
                    }
                elif msg_type == MSG_STORE_PUBLISH:
                    policy = ReissuePolicy.from_spec(body["policy"])
                    version = self.store.publish(
                        policy, source=body.get("source", "")
                    )
                    reply = {"version": version, "policy": body["policy"]}
                else:
                    return  # unknown frame: drop the connection
                try:
                    conn.sendall(encode_frame(MSG_STORE_STATE, reply))
                except OSError:
                    return
        finally:
            conn.close()
            self._conns.discard(conn)

    def close(self) -> None:
        """Stop accepting and drop every open connection (idempotent)."""
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes the accept()
        self._sock.close()
        self._acceptor.join(timeout=1.0)  # no connection is added after
        for conn in list(self._conns):
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)  # wakes its recv()
        if self.transport == "unix":
            with contextlib.suppress(OSError):
                os.unlink(self.address)


class RemotePolicyStore:
    """Worker-side :class:`PolicyStore` replacement over a socket.

    ``get()`` returns a locally cached ``(version, policy)`` snapshot and
    makes no round trip of its own accord. The front door stamps its
    store version on every ``REQUEST`` frame and the worker passes it to
    :meth:`announce`; ``get()`` refreshes once when an announced version
    is newer than any it has fetched or tried. So a shard adopts a
    publish at its first request after that publish returned — the
    in-loop fleet's rule — and an unchanged store costs no RPC. A failed
    refresh (the store server is gone) serves the cached policy and is
    retried only when a newer version is announced. ``publish()`` is a
    synchronous round trip (refits are rare) and updates the cache
    immediately, so a tuned worker always serves the version it just
    published.
    """

    def __init__(
        self,
        address,
        *,
        transport: str = "unix",
        timeout: float = 10.0,
    ):
        self.transport = transport
        self.address = address
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self.version = 0
        self.policy: ReissuePolicy | None = None
        self._announced = 0  # newest version the front door announced
        self._tried = 0  # newest version fetched or asked for
        self.refresh()  # fail fast if the server is unreachable

    def _rpc(self, msg_type: int, body: dict) -> dict:
        with self._lock:
            if self._sock is None:
                self._sock = _connect_blocking(
                    self.transport, self.address, self.timeout
                )
            try:
                self._sock.sendall(encode_frame(msg_type, body))
                reply_type, reply = recv_frame_blocking(self._sock)
            except (ConnectionError, OSError):
                # One reconnect attempt: the server may have restarted.
                self._sock.close()
                self._sock = _connect_blocking(
                    self.transport, self.address, self.timeout
                )
                self._sock.sendall(encode_frame(msg_type, body))
                reply_type, reply = recv_frame_blocking(self._sock)
            if reply_type != MSG_STORE_STATE:
                raise ConnectionError(
                    f"unexpected policy-store reply type {reply_type:#x}"
                )
            return reply

    def _adopt(self, reply: dict) -> None:
        version = int(reply["version"])
        if version != self.version:
            spec = reply.get("policy")
            self.policy = (
                None if spec is None else ReissuePolicy.from_spec(spec)
            )
            self.version = version
        self._tried = max(self._tried, version)

    def refresh(self) -> tuple[int, ReissuePolicy | None]:
        """Force a round trip to the server; returns the fresh snapshot."""
        self._adopt(self._rpc(MSG_STORE_GET, {}))
        return self.version, self.policy

    def announce(self, version: int) -> None:
        """Note the front door's store version, as a ``REQUEST`` carried it."""
        if version > self._announced:
            self._announced = version

    def get(self) -> tuple[int, ReissuePolicy | None]:
        """The cached ``(version, policy)``, refreshed first if a newer
        version was announced since the last fetch or attempt."""
        if self._announced > self._tried:
            self._tried = self._announced
            try:
                self.refresh()
            except (ConnectionError, OSError):
                pass  # serve the cached policy; a newer version retries
        return self.version, self.policy

    def publish(self, policy: ReissuePolicy, source: str = "") -> int:
        if not isinstance(policy, ReissuePolicy):
            raise TypeError(
                f"expected a ReissuePolicy, got {type(policy).__name__}"
            )
        reply = self._rpc(
            MSG_STORE_PUBLISH, {"policy": policy.to_spec(), "source": source}
        )
        self._adopt(reply)
        return self.version

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                self._sock.close()
                self._sock = None


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------


def _worker_main(spec: dict) -> None:
    """Entry point of one worker process (must stay module-level so the
    ``spawn`` start method can import it)."""
    asyncio.run(_worker_serve(spec))


async def _worker_serve(spec: dict) -> None:
    from ..obs.trace import remote_context
    from ..scenarios.engines import serving_backend
    from ..scenarios.model import Scenario
    from .autotune import AutoTuner
    from .hedge import HedgedClient

    shard_id = int(spec["shard_id"])
    store = None
    try:
        scenario = Scenario.from_dict(spec["scenario"])
        backend_seq, client_seq = np.random.SeedSequence(
            (int(spec["seed"]), shard_id, 0xF1EE7)
        ).spawn(2)
        backend = serving_backend(
            scenario, spec["time_scale"], np.random.default_rng(backend_seq)
        )
        tuner = AutoTuner(**spec["autotune"]) if spec["autotune"] else None
        policy = None
        if spec["policy"] is not None and tuner is None:
            policy = ReissuePolicy.from_spec(spec["policy"])
        client = HedgedClient(
            backend,
            policy,
            concurrency=spec["concurrency"],
            deadline_ms=spec["deadline_ms"],
            probe_fraction=spec["probe_fraction"],
            tuner=tuner,
            rng=np.random.default_rng(client_seq),
        )
        store = RemotePolicyStore(
            spec["store_address"], transport=spec["transport"]
        )
        shard = ShardWorker(shard_id, client, store, spec["admission_limit"])
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        # The parent reads the cause from the ready file instead of a
        # bare exit code; the worker exits without a traceback.
        if store is not None:
            store.close()
        cause = f"{type(exc).__name__}: {exc}"
        _write_ready(spec["ready_path"], {"error": cause})
        return
    done = asyncio.Event()
    serving: set[asyncio.Task] = set()  # strong refs: the loop's are weak

    async def handle_conn(reader, writer):
        wlock = asyncio.Lock()

        async def send(msg_type: int, body) -> None:
            async with wlock:
                writer.write(encode_frame(msg_type, body))
                await writer.drain()

        async def serve_request(seq: int, qid: int) -> None:
            try:
                outcome = await shard.serve_one(qid)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                msg_type = MSG_ERROR
                body = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                if outcome is None:
                    msg_type, body = MSG_SHED, {}
                else:
                    msg_type = MSG_RESPONSE
                    body = {
                        "latency_ms": outcome.latency_ms,
                        "winner": outcome.winner,
                        "n_planned": outcome.n_planned,
                        "n_reissues": outcome.n_reissues,
                        "cancelled": outcome.cancelled_attempts,
                        "deadline": outcome.deadline_exceeded,
                        "pair": (
                            None if outcome.pair is None else list(outcome.pair)
                        ),
                    }
            # If the parent connection closed mid-request the reply has
            # nowhere to go — drop it; the parent already shed the seq.
            with contextlib.suppress(RuntimeError, ConnectionError, OSError):
                await send(msg_type, {"seq": seq, "qid": qid, **body})

        try:
            while True:
                try:
                    msg_type, body = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    return
                if msg_type == MSG_REQUEST:
                    seq, qid = body.get("seq"), body.get("qid")
                    version = body.get("v", 0)
                    if not (
                        type(seq) is int
                        and type(qid) is int
                        and type(version) is int
                    ):
                        return  # a malformed REQUEST: drop the connection
                    store.announce(version)
                    task = asyncio.ensure_future(serve_request(seq, qid))
                    serving.add(task)
                    task.add_done_callback(serving.discard)
                elif msg_type == MSG_DETAIL:
                    await send(MSG_DETAIL_REPLY, shard.detail())
                elif msg_type == MSG_SHUTDOWN:
                    if tuner is not None:
                        # A failed refit must not keep the BYE from going.
                        with contextlib.suppress(Exception):
                            tuner.close()
                    tracer = get_tracer()
                    spans = (
                        [s.as_dict() for s in tracer.drain()]
                        if tracer.enabled
                        else []
                    )
                    try:
                        await send(
                            MSG_BYE, {"detail": shard.detail(), "spans": spans}
                        )
                    finally:  # exit even if the BYE could not be sent
                        done.set()
                    return
                else:
                    return  # not a frame a worker serves: drop the connection
        except asyncio.CancelledError:
            # Server teardown cancels open connection handlers; exiting
            # quietly keeps the asyncio streams callback from logging.
            return
        finally:
            writer.close()

    with remote_context(spec["trace_ctx"]):
        if spec["transport"] == "unix":
            server = await asyncio.start_unix_server(
                handle_conn, path=spec["worker_path"]
            )
            address = spec["worker_path"]
        else:
            server = await asyncio.start_server(handle_conn, "127.0.0.1", 0)
            address = list(server.sockets[0].getsockname())
        _write_ready(
            spec["ready_path"], {"address": address, "pid": os.getpid()}
        )
        async with server:
            await done.wait()
    store.close()


def _write_ready(path: str, info: dict) -> None:
    """Write the worker's ready file: the bound address once it serves
    (a TCP worker picks its own port), or the startup error. Write-then-
    rename so the parent never reads a half-written file."""
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as fh:
        json.dump(info, fh)
    os.replace(tmp_path, path)


# ---------------------------------------------------------------------------
# The socket shard
# ---------------------------------------------------------------------------


class WorkerHandle:
    """The socket :class:`~repro.serving.fleet.Shard`: the front door's
    end of one worker process.

    Its counters and ``metrics`` record what reached the front door —
    every ``RESPONSE`` frame is folded in on arrival — so they stay
    exact when the worker dies and nothing has to be pulled from it.

    ``alive`` is a plain flag: set once the worker is ready, cleared
    when a pipe EOF, connect or send failure coincides with the process
    having exited (event-loop teardown also ends the read loop, and is
    not death), or when the worker stops answering control RPCs.
    """

    def __init__(self, spec: dict, ctx, store: PolicyStore):
        self.spec = spec
        self.store = store
        self.shard_id = int(spec["shard_id"])
        self.time_scale = float(spec["time_scale"])
        self.process = ctx.Process(
            target=_worker_main, args=(spec,), daemon=True
        )
        self.address = None
        self.alive = False
        self.metrics = ServingMetrics()
        self.issued = 0
        self.shed = 0
        self.errors = 0
        self.load = 0
        # The last detail() the worker reported.
        self._detail = {
            "peak_active": 0,
            "pid": None,
            "refits": 0,
            "store_version": 0,
            "policy_spec": None,
        }
        self._seq = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._loop = None
        self._reader = None
        self._writer = None
        self._wlock: asyncio.Lock | None = None
        self._conn_lock: asyncio.Lock | None = None
        self._read_task = None  # strong ref: create_task alone is weak

    # -- lifecycle -----------------------------------------------------------
    def wait_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        ready_path = self.spec["ready_path"]
        while time.monotonic() < deadline:
            # Sampled before the file check: a worker that writes its
            # ready file and then exits is still read, not reported dead.
            exited = not self.process.is_alive()
            if os.path.exists(ready_path):
                with open(ready_path) as fh:
                    info = json.load(fh)
                if "error" in info:
                    raise RuntimeError(
                        f"worker {self.shard_id} failed at startup: "
                        f"{info['error']}"
                    )
                self.address = info["address"]
                self._detail["pid"] = info["pid"]
                self.alive = True
                return
            if exited:
                raise RuntimeError(
                    f"worker {self.shard_id} exited during startup "
                    f"(exitcode {self.process.exitcode})"
                )
            time.sleep(0.01)
        raise TimeoutError(
            f"worker {self.shard_id} did not come up within {timeout:.0f}s"
        )

    @property
    def completed(self) -> int:
        return self.metrics.completed

    # -- the request path ----------------------------------------------------
    async def _connection(self) -> asyncio.StreamWriter:
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            # First touch from a new event loop (the LoadGenerator runs
            # one asyncio.run per run): reset per-loop state. No await
            # between the check and the reset, so this is race-free.
            self._loop = loop
            self._reader = self._writer = self._read_task = None
            self._wlock = asyncio.Lock()
            self._conn_lock = asyncio.Lock()
        async with self._conn_lock:
            if self._writer is not None and not self._writer.is_closing():
                return self._writer
            if self.spec["transport"] == "unix":
                reader, writer = await asyncio.open_unix_connection(
                    self.address
                )
            else:
                host, port = self.address
                reader, writer = await asyncio.open_connection(
                    host, int(port)
                )
            self._reader, self._writer = reader, writer
            self._read_task = loop.create_task(self._read_loop(reader))
            return writer

    async def _read_loop(self, reader) -> None:
        try:
            while True:
                msg_type, body = await read_frame(reader)
                future = self._pending.pop(body.get("seq"), None)
                if future is not None and not future.done():
                    future.set_result((msg_type, body))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            # Runs both on worker EOF and on event-loop teardown (task
            # cancellation). Nothing pending will be answered on this
            # connection, so fail it and drop the connection — a later
            # request reconnects, and fails fast if the worker is gone —
            # but only a process that actually exited is dead.
            if reader is self._reader:
                self._writer.close()
                self._reader = self._writer = None
                pending, self._pending = self._pending, {}
                for future in pending.values():
                    if not future.done():
                        future.set_exception(
                            ConnectionResetError("worker pipe closed")
                        )
                self._check_liveness()

    def _check_liveness(self) -> None:
        if not self.process.is_alive():
            self.alive = False

    async def submit(self, query_id: int) -> RequestOutcome | None:
        """Dispatch one request; ``None`` means shed, errored, or lost
        to a dying worker — the caller's stream never sees an exception."""
        self.issued += 1
        seq = next(self._seq)
        self.load += 1
        try:
            writer = await self._connection()
            future = asyncio.get_running_loop().create_future()
            self._pending[seq] = future
            frame = encode_frame(
                MSG_REQUEST,
                {"seq": seq, "qid": int(query_id), "v": self.store.version},
            )
            async with self._wlock:
                writer.write(frame)
                await writer.drain()
            msg_type, body = await future
        except (ConnectionError, OSError):
            self._pending.pop(seq, None)
            self._check_liveness()
            self.shed += 1
            return None
        finally:
            self.load -= 1
        if msg_type == MSG_RESPONSE:
            outcome = RequestOutcome(
                query_id=int(body["qid"]),
                latency_ms=float(body["latency_ms"]),
                winner=body["winner"],
                n_planned=int(body["n_planned"]),
                n_reissues=int(body["n_reissues"]),
                cancelled_attempts=int(body["cancelled"]),
                deadline_exceeded=bool(body["deadline"]),
                pair=None if body["pair"] is None else tuple(body["pair"]),
            )
            self.metrics.record(outcome)
            return outcome
        if msg_type == MSG_SHED:
            self.shed += 1
            return None
        self.errors += 1  # MSG_ERROR: contained worker-side failure
        return None

    # -- blocking control-plane RPCs (off the event loop) --------------------
    def _control_rpc(self, msg_type: int, timeout: float = 10.0) -> dict | None:
        """One blocking request/reply on a fresh connection (no event
        loop needed). ``None``, and the worker marked dead, on no answer."""
        if not self.alive:
            return None
        try:
            sock = _connect_blocking(
                self.spec["transport"], self.address, timeout
            )
            with sock:
                sock.sendall(encode_frame(msg_type, {}))
                return recv_frame_blocking(sock)[1]
        except (ConnectionError, OSError):
            self.alive = False
            return None

    def detail(self) -> dict:
        """The worker's ``ShardWorker.detail()``, or the last one it sent."""
        self._detail = self._control_rpc(MSG_DETAIL) or self._detail
        return dict(self._detail)

    def close(self, timeout: float = 10.0) -> None:
        """Graceful stop: final detail and spans come home in the BYE
        reply, then the process is reaped (killed if it lingers)."""
        bye = self._control_rpc(MSG_SHUTDOWN, timeout)
        if bye is not None:
            self._detail = bye["detail"]
            absorb(bye["spans"])
        self.alive = False
        if self.process.pid is not None:  # else: never spawned
            self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=timeout)


class ProcessFleet(ServingFleet):
    """A :class:`~repro.serving.fleet.ServingFleet` over N worker
    *processes*.

    Everything past construction — routing, accounting, ``metrics()``,
    ``stats()`` — is the one front door's. What the process boundary
    buys: every worker owns a core-wide event loop, requests travel over
    real sockets, and one worker dying sheds its in-flight requests and
    reroutes new arrivals instead of taking the fleet down.

    Parameters mirror ``ServingFleet.build`` plus the process-fleet
    knobs: ``transport`` (``"unix"`` default, ``"tcp"``) and
    ``autotune`` (an :class:`AutoTuner` kwargs dict for the tuned shard
    — the tuner itself must be built in the worker process).

    A publish to ``store`` — by the caller or by the tuned worker's
    refit — is adopted by each worker at its first request after the
    publish returned, as in the in-loop fleet.
    """

    def __init__(
        self,
        n_procs: int,
        scenario,
        *,
        policy: ReissuePolicy | None = None,
        selector="round-robin",
        admission_limit: int | None = None,
        concurrency: int = 64,
        deadline_ms: float | None = None,
        probe_fraction: float = 0.0,
        autotune: dict | None = None,
        tuned_shard: int = 0,
        time_scale: float = 2e-5,
        transport: str = "unix",
        seed: int = 0,
    ):
        if n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        if autotune is not None and not 0 <= tuned_shard < n_procs:
            raise ValueError(
                f"tuned_shard {tuned_shard} out of range for "
                f"{n_procs} worker(s)"
            )
        self.transport = transport
        ctx = multiprocessing.get_context("spawn")
        with contextlib.ExitStack() as cleanup:
            runtime_dir = tempfile.mkdtemp(prefix="repro-fleet-")
            cleanup.callback(shutil.rmtree, runtime_dir, ignore_errors=True)
            #: Serves ``self.store`` to the workers.
            self.store_server = store_server = PolicyStoreServer(
                PolicyStore(policy), transport=transport, runtime_dir=runtime_dir
            )
            cleanup.callback(store_server.close)
            common = {
                "scenario": scenario.to_dict(),
                "policy": None if policy is None else policy.to_spec(),
                "concurrency": int(concurrency),
                "deadline_ms": deadline_ms,
                "probe_fraction": float(probe_fraction),
                "admission_limit": admission_limit,
                "time_scale": float(time_scale),
                "transport": transport,
                "store_address": store_server.address,
                "seed": int(seed),
                "trace_ctx": snapshot_context(),
            }
            super().__init__(
                [
                    WorkerHandle(
                        {
                            **common,
                            "shard_id": i,
                            # The tuner is built inside the tuned worker.
                            "autotune": autotune if i == tuned_shard else None,
                            "worker_path": os.path.join(
                                runtime_dir, f"worker{i}.sock"
                            ),
                            "ready_path": os.path.join(
                                runtime_dir, f"worker{i}.ready"
                            ),
                        },
                        ctx,
                        store_server.store,
                    )
                    for i in range(n_procs)
                ],
                selector=selector,
                store=store_server.store,
            )
            cleanup.callback(super().close)
            for worker in self.shards:
                worker.process.start()
            deadline = time.monotonic() + SPAWN_TIMEOUT_S
            for worker in self.shards:
                worker.wait_ready(max(deadline - time.monotonic(), 0.1))
            # Everything came up: the teardown now belongs to close().
            self._cleanup = cleanup.pop_all()

    def close(self) -> None:
        """Shut every worker down (absorbing their spans), stop the
        store server, and remove the socket/ready files (idempotent)."""
        self._cleanup.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass
