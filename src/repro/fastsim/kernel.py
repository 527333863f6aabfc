"""Tiered single-replication kernels behind ``simulate_cluster``.

Every tier is bit-for-bit equivalent to the object-based reference loop
(:func:`repro.simulation.engine.simulate_cluster_reference`): identical
generator consumption, identical event ordering (static events carry
lower sequence numbers than any departure, so they win time ties),
identical floating-point accumulation order for the busy-time and
result arrays. Speed comes from structure, never from approximation.

Three public tiers, selected automatically (``compiled`` when a C
compiler is found and the library builds or loads, else ``numpy``) and
overridable via the ``REPRO_KERNEL`` environment variable or the
``tier=`` argument:

* ``compiled`` — the structured-array core (flat contiguous arrays for
  server occupancy, pooled linked-list queues, an array-backed departure
  heap — no Python objects in the loop) as C: ``fastsim/_core.c``, built
  once per machine with the system ``cc`` into ``$XDG_CACHE_HOME/repro/``
  and loaded with ctypes (:mod:`repro._clib`). Requesting it
  when it cannot load raises with the reason rather than silently
  downgrading. Needs statically dispatchable replications (see below).
* ``numpy`` — the mandatory pure-Python/NumPy tier: the same pre-drawn
  inputs and array-built static schedule consumed by a scalar loop over
  flat lists/deques (scalar indexing on lists beats ndarrays under the
  interpreter). Always available; the fallback for backlog-dependent
  balancers, which call a Python ``LoadBalancer`` per dispatch.
* ``reference`` — the readable object-based oracle loop. Queue
  disciplines outside the three named families (``fifo``,
  ``prioritized-fifo``, ``prioritized-lifo``) always take this path,
  whatever tier was requested.

A fourth value, ``interpreted``, runs
:func:`repro.fastsim._core.simulate_core` — the readable Python twin of
``_core.c`` — under the interpreter. It is never auto-selected; the
equivalence suite certifies it next to ``compiled``.

Structural fallbacks (unspecialized discipline → ``reference``,
backlog-dependent balancer → ``numpy``) are silent per replication but
never invisible: every replication increments the module's tier
counters (:func:`tier_counts`), which the batch layer surfaces as span
attributes and the scenario layer folds into
``ScenarioReport.summary()["fastsim"]``.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush

import numpy as np

from ..core.interfaces import RunResult
from ..core.policies import ReissuePolicy
from ..distributions.base import RngLike, as_rng
from ..simulation.engine import (
    ClusterConfig,
    ReplicationInputs,
    assemble_run_result,
    draw_replication_inputs,
    simulate_cluster_reference,
)
from ..simulation.load_balancer import RoundRobinBalancer
from ..simulation.queues import (
    FifoQueue,
    PrioritizedFifoQueue,
    PrioritizedLifoQueue,
    make_discipline,
)
from .. import _clib
from . import _ccore, _core

#: Queue modes the kernel specializes (exact class match — subclasses may
#: override semantics and must take the reference path).
_QUEUE_MODES = {
    FifoQueue: 0,
    PrioritizedFifoQueue: 1,
    PrioritizedLifoQueue: 2,
}

#: Valid kernel tiers, fastest first. ``interpreted`` is the debug tier:
#: the compiled core's Python twin under the interpreter (opt-in only).
TIERS = ("compiled", "numpy", "interpreted", "reference")

_tier_counts = {tier: 0 for tier in TIERS}


def tier_counts() -> dict[str, int]:
    """Per-process count of replications executed by each tier.

    Monotonic counters; callers wanting the tiers of one batch snapshot
    before/after and diff (how the batch span attrs and the scenario
    report are built).
    """
    return dict(_tier_counts)


def kernel_info() -> dict:
    """The tier-selection facts: the compiler found, the default tier.

    Builds nothing: ``default_tier`` reads ``compiled`` while a compiler
    is found and no build has failed in this process. ``numba_version``
    is always ``None``; records written before the C tier carry it.
    """
    return {
        "tiers": list(TIERS),
        "compiler": _clib.find_compiler(),
        "numba_version": None,
        "default_tier": "compiled" if _clib.selectable() else "numpy",
        "env_override": os.environ.get("REPRO_KERNEL") or None,
    }


def resolve_tier(tier: str | None = None) -> str | None:
    """Validate an explicit/environment tier request.

    Returns the requested tier name, or ``None`` for automatic selection
    (no ``tier`` argument and ``REPRO_KERNEL`` unset, empty, or
    ``auto``). Raises ``ValueError`` for unknown names and
    ``RuntimeError`` when ``compiled`` cannot load (no compiler, a failed
    build) — an explicit request must never silently downgrade.
    """
    if tier is None:
        tier = os.environ.get("REPRO_KERNEL", "").strip().lower() or None
    if tier is None or tier == "auto":
        return None
    if tier not in TIERS:
        raise ValueError(
            f"unknown kernel tier {tier!r} (from REPRO_KERNEL or tier=); "
            f"expected one of {list(TIERS)} or 'auto'"
        )
    if tier == "compiled":
        try:
            _clib.load()
        except RuntimeError as exc:
            raise RuntimeError(
                f"REPRO_KERNEL=compiled requested but {exc}; install a C "
                f"compiler as `cc`, or unset REPRO_KERNEL / set "
                f"REPRO_KERNEL=numpy to use the pure-NumPy tier"
            ) from None
    return tier


def queue_mode(config: ClusterConfig) -> int | None:
    """0/1/2 for fifo / prioritized-fifo / prioritized-lifo, else None."""
    probe = make_discipline(config.discipline)
    return _QUEUE_MODES.get(type(probe))


def simulate_replication(
    config: ClusterConfig,
    policy: ReissuePolicy,
    rng: RngLike = None,
    tier: str | None = None,
) -> RunResult:
    """Run one replication through the fastest applicable kernel tier."""
    return simulate_replication_tiered(config, policy, rng, tier=tier)[0]


def simulate_replication_tiered(
    config: ClusterConfig,
    policy: ReissuePolicy,
    rng: RngLike = None,
    tier: str | None = None,
) -> tuple[RunResult, str]:
    """Run one replication; returns ``(result, executed_tier)``.

    ``tier`` (or ``REPRO_KERNEL``) pins a tier; ``None`` selects
    ``compiled`` when the C library builds or loads, else ``numpy``. Two
    structural fallbacks can downgrade a pinned tier — an unspecialized
    queue discipline always runs ``reference``, and a backlog-dependent
    balancer cannot run the static-dispatch array core so ``compiled`` /
    ``interpreted`` degrade to ``numpy`` — which is why the *executed*
    tier is returned (and counted in :func:`tier_counts`).
    """
    requested = resolve_tier(tier)
    rng = as_rng(rng)
    inputs = draw_replication_inputs(config, policy, rng)
    mode = queue_mode(config)

    if requested == "reference" or mode is None:
        executed = "reference"
        result = simulate_cluster_reference(config, policy, rng, inputs=inputs)
    else:
        sids = None if requested == "numpy" else _static_sids(config, inputs)
        if sids is None:
            executed, core = "numpy", None
        elif requested == "interpreted":
            executed, core = "interpreted", _core.simulate_core
        elif requested == "compiled" or _clib.available():
            # Automatic selection builds the library here, on the first
            # call that needs it; a failed build keeps this process on
            # the numpy tier without trying again.
            executed, core = "compiled", _ccore.simulate_core
        else:
            executed, core = "numpy", None
        if core is None:
            result = _run_numpy(config, inputs, rng, mode)
        else:
            result = _run_array_core(config, inputs, mode, sids, core)
    _tier_counts[executed] += 1
    return result, executed


# ---------------------------------------------------------------------------
# Shared pre-loop state: the static schedule and static server choices.
# ---------------------------------------------------------------------------


def _static_schedule(
    config: ClusterConfig, inputs: ReplicationInputs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrivals + reissue checks as time-sorted flat arrays.

    Laid out in insertion-sequence order (arrival of query 0, its
    checks, arrival of query 1, ...) and stable-sorted by time once, so
    the result is exactly the reference heap's ``(time, seq)`` ordering.
    Returns contiguous ``(time, is_check, payload)`` arrays shared by
    the numpy tier (consumed as lists) and the array core (consumed
    directly).
    """
    n = config.n_queries
    plan_qids = inputs.plan_qids
    n_plan = int(plan_qids.size)
    total = n + n_plan
    arrival_pos = np.zeros(n, dtype=np.int64)
    np.cumsum(inputs.plan_counts[:-1], out=arrival_pos[1:])
    arrival_pos += np.arange(n)
    st_time = np.empty(total, dtype=np.float64)
    st_payload = np.empty(total, dtype=np.int64)
    st_check = np.ones(total, dtype=bool)
    st_time[arrival_pos] = inputs.arrivals
    st_payload[arrival_pos] = np.arange(n)
    st_check[arrival_pos] = False
    if n_plan:
        st_time[st_check] = inputs.arrivals[plan_qids] + inputs.plan_delays
        st_payload[st_check] = np.arange(n_plan)
    order = np.argsort(st_time, kind="stable")
    return st_time[order], st_check[order], st_payload[order]


def _static_sids(
    config: ClusterConfig, inputs: ReplicationInputs
) -> np.ndarray | None:
    """One server choice per potential dispatch, when statically known.

    The uniform-random balancer's choices are pre-drawn by the
    replication protocol (``inputs.sids``); the round-robin balancer is
    a deterministic cycle in dispatch order and consumes no randomness,
    so its choices are synthesized here. Backlog-dependent balancers
    return ``None`` — they must be consulted per event.
    """
    if inputs.sids is not None:
        return inputs.sids
    # Exact-type check: a RoundRobinBalancer subclass may override choose().
    if type(inputs.balancer) is RoundRobinBalancer:
        total = config.n_queries + int(inputs.plan_qids.size)
        return np.arange(total, dtype=np.int64) % config.n_servers
    return None


# ---------------------------------------------------------------------------
# compiled / interpreted tier: the structured-array core.
# ---------------------------------------------------------------------------


def _run_array_core(
    config: ClusterConfig,
    inputs: ReplicationInputs,
    mode: int,
    sids: np.ndarray,
    core,
) -> RunResult:
    ev_time, ev_check, ev_payload = _static_schedule(config, inputs)
    (
        first_response,
        primary_completion,
        r_qid,
        r_dispatch,
        r_complete,
        r_cancelled,
        n_re,
        busy_total,
        now,
    ) = core(
        ev_time,
        ev_check,
        ev_payload,
        inputs.x,
        inputs.plan_qids,
        inputs.plan_y,
        sids,
        config.n_servers,
        mode,
        config.cancel_queued,
        float(config.cancel_overhead),
    )
    cancelled_rows = {int(i) for i in np.flatnonzero(r_cancelled[:n_re])}
    return assemble_run_result(
        config,
        inputs.arrivals,
        first_response,
        primary_completion,
        r_qid[:n_re],
        r_dispatch[:n_re],
        r_complete[:n_re],
        cancelled_rows,
        float(busy_total),
        float(now),
    )


# ---------------------------------------------------------------------------
# numpy tier: array-built schedule, scalar loop over flat lists.
# ---------------------------------------------------------------------------


def _run_numpy(
    config: ClusterConfig,
    inputs: ReplicationInputs,
    rng: np.random.Generator,
    mode: int,
) -> RunResult:
    n = config.n_queries
    n_servers = config.n_servers
    arrivals = inputs.arrivals
    plan_qids = inputs.plan_qids
    n_plan = int(plan_qids.size)
    total = n + n_plan

    st_time, st_check, st_payload = _static_schedule(config, inputs)
    ev_time = st_time.tolist()
    ev_check = st_check.tolist()
    ev_payload = st_payload.tolist()

    # -- flat replication state.
    xs = inputs.x.tolist()
    plan_qid_l = plan_qids.tolist()
    plan_y_l = inputs.plan_y.tolist()
    sid_l = inputs.sids.tolist() if inputs.sids is not None else None
    balancer = inputs.balancer
    backlogs = None if sid_l is not None else np.zeros(n_servers, np.int64)

    cur_qid = [-1] * n_servers  # -1 = server idle
    cur_isre = [False] * n_servers
    cur_row = [-1] * n_servers
    busy = [0.0] * n_servers
    q_main = [deque() for _ in range(n_servers)]
    q_re = [deque() for _ in range(n_servers)] if mode else None

    nan = float("nan")
    first_response = [-1.0] * n
    primary_completion = [nan] * n
    reissue_qid: list[int] = []
    reissue_dispatch: list[float] = []
    reissue_complete: list[float] = []
    cancelled_rows: set[int] = set()

    cancel_queued = config.cancel_queued
    cancel_overhead = config.cancel_overhead
    departures: list = []  # heap of (time, seq, sid); seq breaks ties
    dep_seq = 0
    next_sid = 0
    si = 0
    now = 0.0

    # The loop below mirrors the reference implementation statement for
    # statement where floating-point accumulation is concerned: service
    # entry always adds the full service time to busy[sid], and a
    # cancellation then subtracts (service - overhead) — the same two
    # operations Server.enqueue/finish + start() perform.
    while True:
        # -- next event: static schedule vs pending departures. Static
        # events win time ties (their sequence numbers are all lower).
        if si < total:
            t = ev_time[si]
            if departures and departures[0][0] < t:
                ev = heappop(departures)
                now = ev[0]
                sid = ev[2]
                kind = 2
            else:
                now = t
                payload = ev_payload[si]
                kind = 1 if ev_check[si] else 0
                si += 1
        elif departures:
            ev = heappop(departures)
            now = ev[0]
            sid = ev[2]
            kind = 2
        else:
            break

        if kind == 2:  # departure
            done_qid = cur_qid[sid]
            if backlogs is not None:
                backlogs[sid] -= 1
            if cur_isre[sid]:
                reissue_complete[cur_row[sid]] = now
            else:
                primary_completion[done_qid] = now
            if first_response[done_qid] < 0.0:
                first_response[done_qid] = now
            # start the next queued request, if any
            if mode == 0:
                q = q_main[sid]
                nxt = q.popleft() if q else None
            elif q_main[sid]:
                nxt = q_main[sid].popleft()
            elif q_re[sid]:
                nxt = q_re[sid].popleft() if mode == 1 else q_re[sid].pop()
            else:
                nxt = None
            if nxt is None:
                cur_qid[sid] = -1
                continue
            qid, isre, svc, row = nxt
        else:
            if kind == 0:  # arrival
                qid = payload
                isre = False
                svc = xs[qid]
                row = -1
            else:  # reissue-timer check
                qid = plan_qid_l[payload]
                if first_response[qid] >= 0.0:
                    continue  # already answered; reissue suppressed
                isre = True
                svc = plan_y_l[payload]
                row = len(reissue_qid)
                reissue_qid.append(qid)
                reissue_dispatch.append(now)
                reissue_complete.append(nan)
            # dispatch to a server
            if sid_l is not None:
                sid = sid_l[next_sid]
                next_sid += 1
            else:
                sid = balancer.choose(backlogs, rng)
                backlogs[sid] += 1
            if cur_qid[sid] >= 0:  # busy: enqueue and wait
                if mode == 0 or not isre:
                    q_main[sid].append((qid, isre, svc, row))
                else:
                    q_re[sid].append((qid, isre, svc, row))
                continue

        # -- service entry (idle dispatch or head-of-queue start).
        busy[sid] += svc
        duration = svc
        if cancel_queued and isre and first_response[qid] >= 0.0:
            duration = cancel_overhead
            busy[sid] -= svc - duration
            cancelled_rows.add(row)
        cur_qid[sid] = qid
        cur_isre[sid] = isre
        cur_row[sid] = row
        heappush(departures, (now + duration, dep_seq, sid))
        dep_seq += 1

    return assemble_run_result(
        config,
        arrivals,
        np.array(first_response, dtype=np.float64),
        np.array(primary_completion, dtype=np.float64),
        reissue_qid,
        reissue_dispatch,
        reissue_complete,
        cancelled_rows,
        sum(busy),
        now,
    )
