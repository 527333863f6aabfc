"""The ``compiled`` kernel tier: ``_core.c`` run through ctypes.

``_core.c`` is a statement-for-statement C port of
:func:`repro.fastsim._core.simulate_core`. It is built, cached and
loaded with the package's one C library (:mod:`repro._clib`); when that
library cannot load, automatic selection falls back to the ``numpy``
tier and an explicit ``compiled`` request raises ``RuntimeError`` with
the reason.
"""

from __future__ import annotations

import numpy as np

from .. import _clib


def simulate_core(
    ev_time,
    ev_check,
    ev_payload,
    xs,
    plan_qids,
    plan_y,
    sids,
    n_servers,
    mode,
    cancel_queued,
    cancel_overhead,
):
    """:func:`repro.fastsim._core.simulate_core`, run by the C library.

    Same arguments, same return tuple. Every array the C function reads
    or writes is allocated (or made contiguous in its dtype) here.
    """
    function = _clib.load().simulate_core
    ev_time = np.ascontiguousarray(ev_time, dtype=np.float64)
    ev_check = np.ascontiguousarray(ev_check, dtype=np.bool_)
    ev_payload = np.ascontiguousarray(ev_payload, dtype=np.int64)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    plan_qids = np.ascontiguousarray(plan_qids, dtype=np.int64)
    plan_y = np.ascontiguousarray(plan_y, dtype=np.float64)
    sids = np.ascontiguousarray(sids, dtype=np.int64)
    n = xs.shape[0]
    n_plan = plan_qids.shape[0]
    cap = n + n_plan
    first_response = np.empty(n)
    primary_completion = np.empty(n)
    r_qid = np.empty(n_plan, np.int64)
    r_dispatch = np.empty(n_plan)
    r_complete = np.empty(n_plan)
    r_cancelled = np.empty(n_plan, np.bool_)
    totals = np.empty(2)
    iwork = np.empty(8 * n_servers + 3 * cap, np.int64)
    fwork = np.empty(2 * n_servers + cap)
    bwork = np.empty(n_servers + cap, np.uint8)
    n_re = function(
        ev_time.ctypes.data,
        ev_check.ctypes.data,
        ev_payload.ctypes.data,
        ev_time.shape[0],
        xs.ctypes.data,
        n,
        plan_qids.ctypes.data,
        plan_y.ctypes.data,
        n_plan,
        sids.ctypes.data,
        n_servers,
        mode,
        bool(cancel_queued),
        cancel_overhead,
        first_response.ctypes.data,
        primary_completion.ctypes.data,
        r_qid.ctypes.data,
        r_dispatch.ctypes.data,
        r_complete.ctypes.data,
        r_cancelled.ctypes.data,
        totals.ctypes.data,
        iwork.ctypes.data,
        fwork.ctypes.data,
        bwork.ctypes.data,
    )
    return (
        first_response,
        primary_completion,
        r_qid,
        r_dispatch,
        r_complete,
        r_cancelled,
        n_re,
        totals[0],
        totals[1],
    )
