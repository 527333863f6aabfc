/* The §4.2 sweep loop of repro.core.correlated, ported to C.
 *
 * This function follows _sweep_python in correlated.py statement for
 * statement: the same probes in the same order, the same IEEE-754
 * operations in the same grouping, so (d*, t) is bit for bit the
 * Python loop's. Build flags (repro._clib): -O2 -ffp-contract=off -fPIC
 * -shared; no fused multiply-adds, no -ffast-math.
 *
 * The caller validates the inputs (no NaN anywhere, n >= 1, m >= 1),
 * orders the pairs by descending x and allocates every array with numpy;
 * ys is scratch for the sorted reissue times of the pairs above t.
 * out[0] receives d*, out[1] the tail t.
 */

#include <stdint.h>
#include <string.h>

/* First index in a[0:len] whose value is >= v (bisect_left). */
static int64_t lower_bound(const double *a, int64_t len, double v)
{
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (a[mid] < v) lo = mid + 1; else hi = mid;
    }
    return lo;
}

void correlated_sweep(
    const double *rx,       /* [n]: primary log, sorted ascending */
    int64_t n,
    const double *xs_desc,  /* [m]: pair x, descending */
    const double *ys_desc,  /* [m]: pair y, in the same order */
    int64_t m,
    double percentile,
    double budget,
    int64_t i_max,          /* Eq. 5: the last delay index that can spend B */
    double *ys,             /* scratch [m] */
    double *out)            /* out [2]: d*, t */
{
    int64_t i = 0, j = n - 1, above = 0, probed_j = -1;
    double d_star = rx[0], t = rx[j];
    double d = 0.0, q = 0.0, t_next = 0.0, p = 0.0, not_p = 0.0;
    int have_d = 0;

    while (i <= j && i <= i_max) {
        double x = rx[i];
        if (!have_d || x != d) {
            have_d = 1;
            d = x;
            /* i is the first index holding d, so Pr(X < d) = i / n < 1. */
            double r = budget / (1.0 - (double)i / (double)n);
            q = r < 1.0 ? r : 1.0;
        }
        i += 1;
        while (j > 0) {
            if (probed_j != j) {
                probed_j = j;
                t_next = rx[j - 1];
                p = (double)lower_bound(rx, n, t_next) / (double)n;
                not_p = 1.0 - p;
                while (above < m && xs_desc[above] > t_next) {
                    /* insort: after any equal entries, by memmove. */
                    double y = ys_desc[above];
                    int64_t lo = 0, hi = above;
                    while (lo < hi) {
                        int64_t mid = lo + (hi - lo) / 2;
                        if (y < ys[mid]) hi = mid; else lo = mid + 1;
                    }
                    memmove(ys + lo + 1, ys + lo, (size_t)(above - lo) * sizeof(double));
                    ys[lo] = y;
                    above += 1;
                }
            }
            if (t_next < d) break;
            double cond = above
                ? (double)lower_bound(ys, above, t_next - d) / (double)above
                : 0.0;
            if (p + q * not_p * cond < percentile) break;
            j -= 1;
            t = t_next;
            d_star = d;
        }
    }
    out[0] = d_star;
    out[1] = t;
}
