"""One front-door contract, every shard kind.

``ServingFleet`` is the only front door; a shard is either in-loop
(``loop``) or a worker process behind a Unix or TCP socket (``unix`` /
``tcp``). Every test here builds a two-shard fleet for the same scenario
over each kind and holds it to the same assertions. The kill matrix at
the end applies to the socket kinds only: an in-loop shard cannot die
apart from its caller.

Each ``ProcessFleet`` pays a real ``spawn``-context interpreter start
per worker, so the non-destructive tests share one fleet per kind.
"""

import asyncio
import contextlib
import dataclasses
import json
import os
import socket
import threading
import zlib

import numpy as np
import pytest

from repro.core.policies import SingleR
from repro.scenarios import coerce_scenario
from repro.scenarios.engines import serving_backend
from repro.serving.autotune import AutoTuner
from repro.serving.fleet import ServingFleet, make_selector
from repro.serving.loadgen import (
    RECORD_VERSION,
    LoadGenerator,
    as_record,
    validate_record,
)
from repro.serving.procfleet import (
    MSG_REQUEST,
    MSG_RESPONSE,
    ProcessFleet,
    _connect_blocking,
    encode_frame,
    recv_frame_blocking,
)

KINDS = ("loop", "unix", "tcp")
SOCKET_KINDS = KINDS[1:]
HARD_TIMEOUT_S = 60.0

#: Every ``stats()["per_shard"]`` entry, whatever the shard kind.
ENTRY_KEYS = {
    "shard", "issued", "accepted", "completed", "shed", "errors", "alive",
    "reissue_rate", "deadline_misses", "p99_ms",
    "peak_active", "pid", "refits", "store_version", "policy_spec",
}

AUTOTUNE = dict(
    percentile=0.95,
    budget=0.2,
    batch_size=50,
    refit_interval=100,
    window=1_000,
    use_correlation=False,
)


def make_fleet(kind, *, policy=None, time_scale=0.0, autotune=None, **kwargs):
    """A two-shard fleet for ``fleet-tail-quick`` over ``kind`` shards."""
    scenario = coerce_scenario("fleet-tail-quick").check()
    policy = policy if policy is not None else scenario.build_policy()
    if kind == "loop":
        return ServingFleet.build(
            2,
            lambda shard_id, rng: serving_backend(scenario, time_scale, rng),
            policy=policy,
            tuner=None if autotune is None else AutoTuner(**autotune),
            seed=7,
            **kwargs,
        )
    return ProcessFleet(
        2,
        scenario,
        policy=policy,
        autotune=autotune,
        time_scale=time_scale,
        transport=kind,
        seed=7,
        **kwargs,
    )


def drive(fleet, query_ids):
    """Serve ``query_ids`` one after another (every load is 0 at each
    routing decision, so routing is a function of the selector alone)."""

    async def serve():
        return [await fleet.request(qid) for qid in query_ids]

    return asyncio.run(serve())


def bounded(fn):
    """Run ``fn`` under the hard timeout: a hang fails, never blocks."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(HARD_TIMEOUT_S)
    assert not thread.is_alive(), f"still running after {HARD_TIMEOUT_S:.0f}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def issued(fleet):
    return [shard.issued for shard in fleet.shards]


def assert_counters_add_up(fleet):
    """Nothing issued goes missing: on the fleet, on every shard, and
    between the merged metrics and the per-shard breakdown."""
    stats = fleet.stats()
    assert stats["requests"] == (
        stats["completed"] + stats["shed"] + stats["errors"]
    )
    for entry in stats["per_shard"]:
        assert entry["issued"] == (
            entry["completed"] + entry["shed"] + entry["errors"]
        ), entry
    per_shard = stats["per_shard"]
    assert stats["requests"] == (
        sum(e["issued"] for e in per_shard) + stats["shed_unrouted"]
    )
    assert fleet.metrics().completed == stats["completed"]
    assert stats["completed"] == sum(e["completed"] for e in per_shard)
    return stats


def assert_valid_record(result):
    """The run shapes into a current-schema record that survives the
    JSON round trip of the committed artifact."""
    record = as_record(result, "fleet-tail-quick", {})
    assert record["version"] == RECORD_VERSION
    assert validate_record(record) == []
    assert validate_record(json.loads(json.dumps(record))) == []


# ---------------------------------------------------------------------------
# The shared set: one live fleet per kind
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=KINDS)
def kind(request):
    return request.param


@pytest.fixture(scope="module")
def fleet(kind):
    with make_fleet(kind) as fleet:
        yield fleet


def test_round_robin_spreads_evenly_and_every_counter_adds_up(fleet):
    before = issued(fleet)
    outcomes = drive(fleet, range(40))
    assert all(outcome is not None for outcome in outcomes)
    assert [a - b for a, b in zip(issued(fleet), before)] == [20, 20]
    assert_counters_add_up(fleet)
    merged = fleet.metrics()
    assert merged.quantile(0.99) >= merged.quantile(0.50) > 0


@pytest.mark.parametrize("name", ["hash", "least-loaded"])
def test_routing_follows_the_selector(fleet, name):
    query_ids = range(1_000, 1_030)
    if name == "hash":
        picks = [zlib.crc32(repr(q).encode()) % 2 for q in query_ids]
        expected = [picks.count(0), picks.count(1)]
        assert min(expected) > 0
    else:
        expected = [30, 0]  # nothing in flight: lowest index wins the tie
    before = issued(fleet)
    original, fleet.selector = fleet.selector, make_selector(name)
    try:
        drive(fleet, query_ids)
    finally:
        fleet.selector = original
    assert [a - b for a, b in zip(issued(fleet), before)] == expected
    assert_counters_add_up(fleet)


def test_stats_entries_share_one_key_set(fleet, kind):
    drive(fleet, range(2_000, 2_010))
    stats = fleet.stats()
    assert stats["shards"] == 2 and stats["transport"] == kind
    assert stats["selector"] == "round-robin"
    for entry in stats["per_shard"]:
        assert set(entry) == ENTRY_KEYS
        assert entry["alive"] is True
        assert isinstance(entry["peak_active"], int) and entry["peak_active"] >= 1
        assert entry["p99_ms"] > 0
    pids = {entry["pid"] for entry in stats["per_shard"]}
    if kind == "loop":
        assert pids == {os.getpid()}
    else:  # real processes, not threads
        assert len(pids) == 2 and os.getpid() not in pids


def test_a_request_frame_without_v_announces_nothing(fleet, kind):
    if kind == "loop":
        pytest.skip("an in-loop shard reads the store, it gets no frames")
    worker = fleet.shards[0]
    cached = worker.detail()["store_version"]
    fleet.store.publish(SingleR(44.0, 0.2), source="unannounced")
    with _connect_blocking(kind, worker.address, 10.0) as sock:
        sock.sendall(encode_frame(MSG_REQUEST, {"seq": 1, "qid": 4_000}))
        assert recv_frame_blocking(sock)[0] == MSG_RESPONSE
    assert worker.detail()["store_version"] == cached


def test_store_publish_is_adopted_by_every_shard(fleet):
    policy = SingleR(33.0, 0.25)
    version = fleet.store.publish(policy, source="contract")
    # Every shard adopts a publish at its first request after it.
    before = issued(fleet)
    drive(fleet, range(3_000, 3_002))
    assert [a - b for a, b in zip(issued(fleet), before)] == [1, 1]
    stats = fleet.stats()
    assert stats["policy_version"] == version
    for entry in stats["per_shard"]:
        assert entry["store_version"] == version
        assert entry["policy_spec"] == policy.to_spec()


# ---------------------------------------------------------------------------
# Fleets of their own
# ---------------------------------------------------------------------------


def test_saturated_shards_shed_and_the_counters_still_add_up(kind):
    # An unpaced burst far above capacity is shed at the shards'
    # admission limit, not queued behind it.
    with make_fleet(kind, time_scale=2e-4, admission_limit=4) as fleet:
        generator = LoadGenerator(fleet, rng=np.random.default_rng(5))
        result = bounded(lambda: generator.run(300, mode="open", target_rps=0))
        assert result.shed > 0, "overload never shed"
        assert result.errors == 0
        assert result.issued == result.completed + result.shed
        stats = assert_counters_add_up(fleet)
        for entry in stats["per_shard"]:
            assert 1 <= entry["peak_active"] <= 4
        assert_valid_record(result)


def test_one_shard_refit_reaches_every_shard(kind):
    # Shard 0 carries the AutoTuner; its refit must land in the fleet's
    # store and be adopted by shard 1 before the run ends.
    initial = SingleR(0.0, 0.2)
    with make_fleet(
        kind, policy=initial, probe_fraction=0.2, autotune=AUTOTUNE
    ) as fleet:
        generator = LoadGenerator(fleet, rng=7)
        result = bounded(lambda: generator.run(900, mode="closed", concurrency=8))
        assert result.issued == 900
        stats = assert_counters_add_up(fleet)
        tuned, other = stats["per_shard"]
        assert tuned["refits"] >= 1, "the tuned shard never refit"
        assert fleet.store.version >= 2
        sources = [source for _, source in fleet.store.publishes]
        assert any(source.startswith("shard0:refit") for source in sources)
        assert tuned["policy_spec"] != initial.to_spec()
        assert other["store_version"] >= 2
        assert other["policy_spec"] == tuned["policy_spec"]


# ---------------------------------------------------------------------------
# The kill matrix (worker processes only)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", SOCKET_KINDS)
def test_sigkill_mid_run_sheds_and_reroutes(kind):
    # The survivor keeps serving; in-flight and rerouted-away requests
    # count as shed; what the dead worker had answered stays accounted.
    with make_fleet(kind, time_scale=1e-4) as fleet:
        killer = threading.Timer(0.03, fleet.shards[1].process.kill)
        generator = LoadGenerator(fleet, rng=11)
        killer.start()
        result = bounded(
            lambda: generator.run(400, mode="open", target_rps=3000)
        )
        killer.join()
        assert [shard.alive for shard in fleet.shards] == [True, False]
        assert result.issued == 400
        assert result.issued == result.completed + result.shed + result.errors
        assert result.completed > 0 and result.shed > 0
        stats = assert_counters_add_up(fleet)
        assert set(stats["per_shard"][1]) == ENTRY_KEYS
        assert_valid_record(result)


@pytest.mark.parametrize("kind", SOCKET_KINDS)
def test_kill_while_idle_then_kill_the_rest(kind):
    fleet = make_fleet(kind)
    try:
        generator = LoadGenerator(fleet, rng=3)
        first = bounded(lambda: generator.run(100, mode="open", target_rps=0))
        assert first.completed == 100
        # No event loop is running and no connection is open: the next
        # run finds the worker gone when it reconnects.
        fleet.shards[1].process.kill()
        fleet.shards[1].process.join(timeout=10)
        second = bounded(lambda: generator.run(100, mode="open", target_rps=0))
        assert [shard.alive for shard in fleet.shards] == [True, False]
        assert second.completed > first.completed
        assert_counters_add_up(fleet)
        # The fleet's telemetry is cumulative, so the second result
        # counts both runs' outcomes against both runs' requests.
        both = dataclasses.replace(second, issued=first.issued + second.issued)
        assert both.issued == both.completed + both.shed + both.errors
        assert_valid_record(both)
        # With every worker dead the front door sheds instead of hanging.
        fleet.shards[0].process.kill()
        fleet.shards[0].process.join(timeout=10)
        shed_before = fleet.shed_total
        assert bounded(lambda: drive(fleet, range(5))) == [None] * 5
        assert fleet.shed_total == shed_before + 5
        stats = assert_counters_add_up(fleet)
        assert stats["shed_unrouted"] >= 4
        assert not any(entry["alive"] for entry in stats["per_shard"])
    finally:
        fleet.close()
    fleet.close()  # idempotent, and every worker is reaped
    assert not any(shard.process.is_alive() for shard in fleet.shards)


@pytest.mark.parametrize("kind", SOCKET_KINDS)
def test_store_server_lost_mid_run(kind):
    # The workers keep serving their cached policy; the tuned worker's
    # next publish fails inside its request and is counted as an error.
    with make_fleet(
        kind, time_scale=1e-4, probe_fraction=0.2, autotune=AUTOTUNE
    ) as fleet:
        closer = threading.Timer(0.05, fleet.store_server.close)
        generator = LoadGenerator(fleet, rng=13)
        closer.start()
        result = bounded(lambda: generator.run(900, mode="closed", concurrency=8))
        closer.join()
        assert result.issued == 900
        assert result.issued == result.completed + result.shed + result.errors
        assert result.completed > 0
        assert_counters_add_up(fleet)
        assert all(shard.alive for shard in fleet.shards)
        assert_valid_record(result)


@contextlib.contextmanager
def refusing_listener(path):
    """Listen at a lost store server's Unix path, accepting every
    connection and closing it unanswered; yields the accept count."""
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(8)
    accepted = []

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed
            accepted.append(conn)  # counted before the worker sees EOF
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield lambda: len(accepted)
    finally:
        with contextlib.suppress(OSError):
            listener.shutdown(socket.SHUT_RDWR)  # wakes the accept()
        listener.close()
        thread.join(5.0)


def test_publish_after_the_store_server_is_lost():
    # Each publish the workers cannot fetch costs each of them one
    # failed refresh at its next request, not one per request, and they
    # keep serving the policy they cached. (Unix only: the lost server's
    # half-closed TCP connections keep its port from being listened on.)
    with make_fleet("unix") as fleet:
        cached = [entry["policy_spec"] for entry in fleet.stats()["per_shard"]]
        generator = LoadGenerator(fleet, rng=17)
        bounded(lambda: generator.run(100, mode="closed", concurrency=4))
        fleet.store_server.close()
        with refusing_listener(fleet.store_server.address) as attempts:
            for n_publishes in (1, 2):
                fleet.store.publish(SingleR(40.0 + n_publishes, 0.1), source="lost")
                bounded(lambda: generator.run(200, mode="closed", concurrency=4))
                assert attempts() == 2 * n_publishes  # one per worker
        stats = assert_counters_add_up(fleet)
        for entry, spec in zip(stats["per_shard"], cached):
            assert entry["alive"] and entry["errors"] == 0
            assert entry["store_version"] == 1
            assert entry["policy_spec"] == spec


def test_a_fleet_with_no_policy_makes_no_store_round_trip(monkeypatch):
    # The store stays at version 0, which every request frame announces:
    # no worker has a reason to ask the store server anything.
    scenario = coerce_scenario("fleet-tail-quick").check()
    with ProcessFleet(2, scenario, time_scale=0.0, seed=7) as fleet:
        gets, store_get = [], fleet.store.get

        def counted_get():  # the store server's STORE_GET handler calls it
            gets.append(1)
            return store_get()

        monkeypatch.setattr(fleet.store, "get", counted_get)
        outcomes = bounded(lambda: drive(fleet, range(200)))
        assert all(outcome is not None for outcome in outcomes)
        assert fleet.store.version == 0
        assert gets == []
