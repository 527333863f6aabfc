"""The structured-array replication core: one function, no Python objects.

:func:`simulate_core` is the whole replication event loop expressed over
flat contiguous arrays and scalars — per-server occupancy vectors, a
pooled linked-list request queue, an array-backed departure heap — with
no Python containers, attribute lookups, or allocation in the loop body.
It is the readable twin of ``fastsim/_core.c``, the ``compiled`` kernel
tier (built by :mod:`repro._clib`, called by :mod:`repro.fastsim._ccore`): the C port
follows this function statement for statement, so a change here is the
same change there. Run under the interpreter it is the ``interpreted``
debug tier, and the equivalence suite holds both to the reference loop
bit for bit.

Event ordering and floating-point accumulation mirror
:func:`repro.simulation.engine.simulate_cluster_reference` statement for
statement:

* static events (arrivals, reissue-timer checks) arrive pre-sorted with
  insertion-sequence tie-breaks and win time ties against departures;
* the departure heap orders by ``(time, seq)`` with a unique ``seq`` per
  push, exactly the reference heap's tuple ordering;
* service entry always adds the full service time to the server's busy
  accumulator, and a cancellation then subtracts ``service - overhead`` —
  the same two operations, in the same order, on float64 throughout.

The core only handles statically dispatchable replications: the three
named queue disciplines (``mode`` 0/1/2) and a pre-drawn server choice
per potential dispatch (uniform-random balancer draws, or the round-robin
balancer's deterministic cycle). Backlog-dependent balancers consult a
Python ``LoadBalancer`` per event and stay on the numpy tier.
"""

from __future__ import annotations

import numpy as np


def simulate_core(
    ev_time,  # float64[total]: static schedule, stable-sorted by time
    ev_check,  # bool[total]: True = reissue-timer check, False = arrival
    ev_payload,  # int64[total]: query id (arrival) or plan row (check)
    xs,  # float64[n]: primary service times
    plan_qids,  # int64[n_plan]: plan row -> query id
    plan_y,  # float64[n_plan]: plan row -> reissue service draw
    sids,  # int64[n + n_plan]: pre-drawn server per potential dispatch
    n_servers,  # int
    mode,  # int: 0 fifo / 1 prioritized-fifo / 2 prioritized-lifo
    cancel_queued,  # bool
    cancel_overhead,  # float
):
    """Run one replication; returns the raw observable arrays.

    Returns ``(first_response, primary_completion, r_qid, r_dispatch,
    r_complete, r_cancelled, n_reissues, busy_total, now)`` — the exact
    inputs :func:`repro.simulation.engine.assemble_run_result` needs.
    """
    n = xs.shape[0]
    n_plan = plan_qids.shape[0]
    total = ev_time.shape[0]

    # -- per-query records and the reissue log (row-indexed).
    first_response = np.full(n, -1.0)
    primary_completion = np.full(n, np.nan)
    r_qid = np.zeros(n_plan, np.int64)
    r_dispatch = np.zeros(n_plan, np.float64)
    r_complete = np.full(n_plan, np.nan)
    r_cancelled = np.zeros(n_plan, np.bool_)
    n_re = 0

    # -- per-server occupancy: current request fields + busy accumulator.
    cur_qid = np.full(n_servers, -1, np.int64)  # -1 = server idle
    cur_isre = np.zeros(n_servers, np.bool_)
    cur_row = np.full(n_servers, -1, np.int64)
    busy = np.zeros(n_servers, np.float64)

    # -- pooled queued-request storage: each dispatched request that finds
    # its server busy takes one pool slot; ``pq_next`` chains the per-server
    # queues (FIFO via head+tail, the LIFO reissue queue via head-push).
    cap = n + n_plan
    pq_qid = np.zeros(cap, np.int64)
    pq_svc = np.zeros(cap, np.float64)
    pq_isre = np.zeros(cap, np.bool_)
    pq_row = np.zeros(cap, np.int64)
    pq_next = np.full(cap, -1, np.int64)
    pq_n = 0
    m_head = np.full(n_servers, -1, np.int64)
    m_tail = np.full(n_servers, -1, np.int64)
    re_head = np.full(n_servers, -1, np.int64)
    re_tail = np.full(n_servers, -1, np.int64)

    # -- departure heap ordered by (time, seq): at most one entry per
    # server, since a started service is never rescheduled.
    hp_time = np.zeros(n_servers, np.float64)
    hp_seq = np.zeros(n_servers, np.int64)
    hp_sid = np.zeros(n_servers, np.int64)
    hp_n = 0
    dep_seq = 0

    next_sid = 0
    si = 0
    now = 0.0
    qid = -1
    row = -1
    sid = 0
    isre = False
    svc = 0.0

    while True:
        # -- next event: static schedule vs pending departures. Static
        # events win time ties (their sequence numbers are all lower).
        take_departure = False
        if si < total:
            if hp_n > 0 and hp_time[0] < ev_time[si]:
                take_departure = True
        elif hp_n > 0:
            take_departure = True
        else:
            break

        if take_departure:
            # pop-min: unique seq values make the minimum unique, so any
            # correct binary min-heap pops the reference heap's order.
            now = hp_time[0]
            sid = hp_sid[0]
            hp_n -= 1
            if hp_n > 0:
                hp_time[0] = hp_time[hp_n]
                hp_seq[0] = hp_seq[hp_n]
                hp_sid[0] = hp_sid[hp_n]
                i = 0
                while True:
                    left = 2 * i + 1
                    if left >= hp_n:
                        break
                    best = left
                    right = left + 1
                    if right < hp_n and (
                        hp_time[right] < hp_time[left]
                        or (
                            hp_time[right] == hp_time[left]
                            and hp_seq[right] < hp_seq[left]
                        )
                    ):
                        best = right
                    if hp_time[best] < hp_time[i] or (
                        hp_time[best] == hp_time[i]
                        and hp_seq[best] < hp_seq[i]
                    ):
                        t_tmp = hp_time[i]
                        hp_time[i] = hp_time[best]
                        hp_time[best] = t_tmp
                        s_tmp = hp_seq[i]
                        hp_seq[i] = hp_seq[best]
                        hp_seq[best] = s_tmp
                        d_tmp = hp_sid[i]
                        hp_sid[i] = hp_sid[best]
                        hp_sid[best] = d_tmp
                        i = best
                    else:
                        break

            # -- departure bookkeeping.
            done_qid = cur_qid[sid]
            if cur_isre[sid]:
                r_complete[cur_row[sid]] = now
            else:
                primary_completion[done_qid] = now
            if first_response[done_qid] < 0.0:
                first_response[done_qid] = now
            # start the next queued request, if any (primaries first under
            # the prioritized disciplines).
            nxt = m_head[sid]
            if nxt >= 0:
                m_head[sid] = pq_next[nxt]
                if m_head[sid] < 0:
                    m_tail[sid] = -1
            elif mode != 0:
                nxt = re_head[sid]
                if nxt >= 0:
                    re_head[sid] = pq_next[nxt]
                    if re_head[sid] < 0:
                        re_tail[sid] = -1
            if nxt < 0:
                cur_qid[sid] = -1
                continue
            qid = pq_qid[nxt]
            isre = pq_isre[nxt]
            svc = pq_svc[nxt]
            row = pq_row[nxt]
        else:
            now = ev_time[si]
            payload = ev_payload[si]
            is_check = ev_check[si]
            si += 1
            if not is_check:  # arrival
                qid = payload
                isre = False
                svc = xs[payload]
                row = -1
            else:  # reissue-timer check
                qid = plan_qids[payload]
                if first_response[qid] >= 0.0:
                    continue  # already answered; reissue suppressed
                isre = True
                svc = plan_y[payload]
                row = n_re
                r_qid[n_re] = qid
                r_dispatch[n_re] = now
                n_re += 1
            # dispatch to the pre-drawn server
            sid = sids[next_sid]
            next_sid += 1
            if cur_qid[sid] >= 0:  # busy: enqueue and wait
                idx = pq_n
                pq_n += 1
                pq_qid[idx] = qid
                pq_svc[idx] = svc
                pq_isre[idx] = isre
                pq_row[idx] = row
                if mode == 0 or not isre:
                    pq_next[idx] = -1
                    if m_tail[sid] < 0:
                        m_head[sid] = idx
                    else:
                        pq_next[m_tail[sid]] = idx
                    m_tail[sid] = idx
                elif mode == 1:  # reissue FIFO: append at tail
                    pq_next[idx] = -1
                    if re_tail[sid] < 0:
                        re_head[sid] = idx
                    else:
                        pq_next[re_tail[sid]] = idx
                    re_tail[sid] = idx
                else:  # reissue LIFO: push at head
                    pq_next[idx] = re_head[sid]
                    re_head[sid] = idx
                continue

        # -- service entry (idle dispatch or head-of-queue start).
        busy[sid] += svc
        duration = svc
        if cancel_queued and isre and first_response[qid] >= 0.0:
            duration = cancel_overhead
            busy[sid] -= svc - duration
            r_cancelled[row] = True
        cur_qid[sid] = qid
        cur_isre[sid] = isre
        cur_row[sid] = row
        i = hp_n
        hp_time[i] = now + duration
        hp_seq[i] = dep_seq
        hp_sid[i] = sid
        hp_n += 1
        dep_seq += 1
        while i > 0:
            parent = (i - 1) >> 1
            if hp_time[parent] > hp_time[i] or (
                hp_time[parent] == hp_time[i] and hp_seq[parent] > hp_seq[i]
            ):
                t_tmp = hp_time[i]
                hp_time[i] = hp_time[parent]
                hp_time[parent] = t_tmp
                s_tmp = hp_seq[i]
                hp_seq[i] = hp_seq[parent]
                hp_seq[parent] = s_tmp
                d_tmp = hp_sid[i]
                hp_sid[i] = hp_sid[parent]
                hp_sid[parent] = d_tmp
                i = parent
            else:
                break

    # Sequential left-to-right sum, matching the reference's
    # ``sum(s.busy_time for s in servers)`` accumulation order.
    busy_total = 0.0
    for s in range(n_servers):
        busy_total += busy[s]

    return (
        first_response,
        primary_completion,
        r_qid,
        r_dispatch,
        r_complete,
        r_cancelled,
        n_re,
        busy_total,
        now,
    )
