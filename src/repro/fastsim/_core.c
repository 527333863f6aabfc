/* The ``compiled`` kernel tier: a C port of repro.fastsim._core.simulate_core.
 *
 * This file follows _core.py statement for statement: the same event
 * order, the same (time, seq) departure heap, the same busy-time
 * accumulation order, on IEEE-754 doubles throughout. _core.py is its
 * readable twin; a change to one is the same change to the other, and
 * tests/test_fastsim_equivalence.py holds both bit for bit to the
 * reference loop.
 *
 * Build flags (repro._clib): -O2 -ffp-contract=off -fPIC -shared.
 * -ffp-contract=off forbids fused multiply-adds; -ffast-math and -march
 * stay off, so every double operation is the one Python performs, in
 * the same order.
 *
 * The caller allocates every output and scratch array with numpy; this
 * function initialises them as _core.py's allocation block does. Returns
 * the number of reissues dispatched; totals[0] receives busy_total and
 * totals[1] the final clock.
 */

#include <math.h>
#include <stdint.h>

int64_t simulate_core(
    const double *ev_time,      /* [total]: static schedule, stable-sorted by time */
    const uint8_t *ev_check,    /* [total]: 1 = reissue-timer check, 0 = arrival */
    const int64_t *ev_payload,  /* [total]: query id (arrival) or plan row (check) */
    int64_t total,
    const double *xs,           /* [n]: primary service times */
    int64_t n,
    const int64_t *plan_qids,   /* [n_plan]: plan row -> query id */
    const double *plan_y,       /* [n_plan]: plan row -> reissue service draw */
    int64_t n_plan,
    const int64_t *sids,        /* [n + n_plan]: pre-drawn server per potential dispatch */
    int64_t n_servers,
    int64_t mode,               /* 0 fifo / 1 prioritized-fifo / 2 prioritized-lifo */
    int64_t cancel_queued,
    double cancel_overhead,
    double *first_response,     /* out [n] */
    double *primary_completion, /* out [n] */
    int64_t *r_qid,             /* out [n_plan] */
    double *r_dispatch,         /* out [n_plan] */
    double *r_complete,         /* out [n_plan] */
    uint8_t *r_cancelled,       /* out [n_plan] */
    double *totals,             /* out [2]: busy_total, now */
    int64_t *iwork,             /* scratch [8 * n_servers + 3 * (n + n_plan)] */
    double *fwork,              /* scratch [2 * n_servers + n + n_plan] */
    uint8_t *bwork)             /* scratch [n_servers + n + n_plan] */
{
    int64_t cap = n + n_plan;
    int64_t i, s;

    /* -- per-query records and the reissue log (row-indexed). */
    for (i = 0; i < n; i++) {
        first_response[i] = -1.0;
        primary_completion[i] = NAN;
    }
    for (i = 0; i < n_plan; i++) {
        r_qid[i] = 0;
        r_dispatch[i] = 0.0;
        r_complete[i] = NAN;
        r_cancelled[i] = 0;
    }
    int64_t n_re = 0;

    /* -- per-server occupancy: current request fields + busy accumulator. */
    int64_t *cur_qid = iwork;  /* -1 = server idle */
    int64_t *cur_row = cur_qid + n_servers;
    uint8_t *cur_isre = bwork;
    double *busy = fwork;

    /* -- pooled queued-request storage: each dispatched request that finds
     * its server busy takes one pool slot; pq_next chains the per-server
     * queues (FIFO via head+tail, the LIFO reissue queue via head-push). */
    int64_t *pq_qid = cur_row + n_servers;
    int64_t *pq_row = pq_qid + cap;
    int64_t *pq_next = pq_row + cap;
    double *pq_svc = busy + n_servers;
    uint8_t *pq_isre = cur_isre + n_servers;
    int64_t pq_n = 0;
    int64_t *m_head = pq_next + cap;
    int64_t *m_tail = m_head + n_servers;
    int64_t *re_head = m_tail + n_servers;
    int64_t *re_tail = re_head + n_servers;

    /* -- departure heap ordered by (time, seq): at most one entry per
     * server, since a started service is never rescheduled. */
    double *hp_time = pq_svc + cap;
    int64_t *hp_seq = re_tail + n_servers;
    int64_t *hp_sid = hp_seq + n_servers;
    int64_t hp_n = 0;
    int64_t dep_seq = 0;

    for (s = 0; s < n_servers; s++) {
        cur_qid[s] = -1;
        cur_isre[s] = 0;
        cur_row[s] = -1;
        busy[s] = 0.0;
        m_head[s] = -1;
        m_tail[s] = -1;
        re_head[s] = -1;
        re_tail[s] = -1;
        hp_time[s] = 0.0;
        hp_seq[s] = 0;
        hp_sid[s] = 0;
    }
    for (i = 0; i < cap; i++) {
        pq_qid[i] = 0;
        pq_svc[i] = 0.0;
        pq_isre[i] = 0;
        pq_row[i] = 0;
        pq_next[i] = -1;
    }

    int64_t next_sid = 0;
    int64_t si = 0;
    double now = 0.0;
    int64_t qid = -1;
    int64_t row = -1;
    int64_t sid = 0;
    int isre = 0;
    double svc = 0.0;

    for (;;) {
        /* -- next event: static schedule vs pending departures. Static
         * events win time ties (their sequence numbers are all lower). */
        int take_departure = 0;
        if (si < total) {
            if (hp_n > 0 && hp_time[0] < ev_time[si])
                take_departure = 1;
        } else if (hp_n > 0) {
            take_departure = 1;
        } else {
            break;
        }

        if (take_departure) {
            /* pop-min: unique seq values make the minimum unique, so any
             * correct binary min-heap pops the reference heap's order. */
            now = hp_time[0];
            sid = hp_sid[0];
            hp_n -= 1;
            if (hp_n > 0) {
                hp_time[0] = hp_time[hp_n];
                hp_seq[0] = hp_seq[hp_n];
                hp_sid[0] = hp_sid[hp_n];
                i = 0;
                for (;;) {
                    int64_t left = 2 * i + 1;
                    if (left >= hp_n)
                        break;
                    int64_t best = left;
                    int64_t right = left + 1;
                    if (right < hp_n
                        && (hp_time[right] < hp_time[left]
                            || (hp_time[right] == hp_time[left]
                                && hp_seq[right] < hp_seq[left])))
                        best = right;
                    if (hp_time[best] < hp_time[i]
                        || (hp_time[best] == hp_time[i]
                            && hp_seq[best] < hp_seq[i])) {
                        double t_tmp = hp_time[i];
                        hp_time[i] = hp_time[best];
                        hp_time[best] = t_tmp;
                        int64_t s_tmp = hp_seq[i];
                        hp_seq[i] = hp_seq[best];
                        hp_seq[best] = s_tmp;
                        int64_t d_tmp = hp_sid[i];
                        hp_sid[i] = hp_sid[best];
                        hp_sid[best] = d_tmp;
                        i = best;
                    } else {
                        break;
                    }
                }
            }

            /* -- departure bookkeeping. */
            int64_t done_qid = cur_qid[sid];
            if (cur_isre[sid])
                r_complete[cur_row[sid]] = now;
            else
                primary_completion[done_qid] = now;
            if (first_response[done_qid] < 0.0)
                first_response[done_qid] = now;
            /* start the next queued request, if any (primaries first under
             * the prioritized disciplines). */
            int64_t nxt = m_head[sid];
            if (nxt >= 0) {
                m_head[sid] = pq_next[nxt];
                if (m_head[sid] < 0)
                    m_tail[sid] = -1;
            } else if (mode != 0) {
                nxt = re_head[sid];
                if (nxt >= 0) {
                    re_head[sid] = pq_next[nxt];
                    if (re_head[sid] < 0)
                        re_tail[sid] = -1;
                }
            }
            if (nxt < 0) {
                cur_qid[sid] = -1;
                continue;
            }
            qid = pq_qid[nxt];
            isre = pq_isre[nxt];
            svc = pq_svc[nxt];
            row = pq_row[nxt];
        } else {
            now = ev_time[si];
            int64_t payload = ev_payload[si];
            int is_check = ev_check[si];
            si += 1;
            if (!is_check) { /* arrival */
                qid = payload;
                isre = 0;
                svc = xs[payload];
                row = -1;
            } else { /* reissue-timer check */
                qid = plan_qids[payload];
                if (first_response[qid] >= 0.0)
                    continue; /* already answered; reissue suppressed */
                isre = 1;
                svc = plan_y[payload];
                row = n_re;
                r_qid[n_re] = qid;
                r_dispatch[n_re] = now;
                n_re += 1;
            }
            /* dispatch to the pre-drawn server */
            sid = sids[next_sid];
            next_sid += 1;
            if (cur_qid[sid] >= 0) { /* busy: enqueue and wait */
                int64_t idx = pq_n;
                pq_n += 1;
                pq_qid[idx] = qid;
                pq_svc[idx] = svc;
                pq_isre[idx] = (uint8_t)isre;
                pq_row[idx] = row;
                if (mode == 0 || !isre) {
                    pq_next[idx] = -1;
                    if (m_tail[sid] < 0)
                        m_head[sid] = idx;
                    else
                        pq_next[m_tail[sid]] = idx;
                    m_tail[sid] = idx;
                } else if (mode == 1) { /* reissue FIFO: append at tail */
                    pq_next[idx] = -1;
                    if (re_tail[sid] < 0)
                        re_head[sid] = idx;
                    else
                        pq_next[re_tail[sid]] = idx;
                    re_tail[sid] = idx;
                } else { /* reissue LIFO: push at head */
                    pq_next[idx] = re_head[sid];
                    re_head[sid] = idx;
                }
                continue;
            }
        }

        /* -- service entry (idle dispatch or head-of-queue start). */
        busy[sid] += svc;
        double duration = svc;
        if (cancel_queued && isre && first_response[qid] >= 0.0) {
            duration = cancel_overhead;
            busy[sid] -= svc - duration;
            r_cancelled[row] = 1;
        }
        cur_qid[sid] = qid;
        cur_isre[sid] = (uint8_t)isre;
        cur_row[sid] = row;
        i = hp_n;
        hp_time[i] = now + duration;
        hp_seq[i] = dep_seq;
        hp_sid[i] = sid;
        hp_n += 1;
        dep_seq += 1;
        while (i > 0) {
            int64_t parent = (i - 1) >> 1;
            if (hp_time[parent] > hp_time[i]
                || (hp_time[parent] == hp_time[i]
                    && hp_seq[parent] > hp_seq[i])) {
                double t_tmp = hp_time[i];
                hp_time[i] = hp_time[parent];
                hp_time[parent] = t_tmp;
                int64_t s_tmp = hp_seq[i];
                hp_seq[i] = hp_seq[parent];
                hp_seq[parent] = s_tmp;
                int64_t d_tmp = hp_sid[i];
                hp_sid[i] = hp_sid[parent];
                hp_sid[parent] = d_tmp;
                i = parent;
            } else {
                break;
            }
        }
    }

    /* Sequential left-to-right sum, matching the reference's
     * sum(s.busy_time for s in servers) accumulation order. */
    double busy_total = 0.0;
    for (s = 0; s < n_servers; s++)
        busy_total += busy[s];

    totals[0] = busy_total;
    totals[1] = now;
    return n_re;
}
