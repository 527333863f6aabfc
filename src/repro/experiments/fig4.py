"""Figure 4: primary-vs-reissue response-time correlation scatter plots.

Two panels of (primary response time, reissue response time) pairs under
an immediate-probe policy:

* Correlated workload — the ``Y = 0.5 x + Z`` structure is plainly
  visible as a linear lower envelope;
* Queueing workload — queueing delays dampen the correlation: the joint
  distribution fuzzes out, which is exactly why reissue recovers more
  latency under queueing (§5.3).

Pipeline shape: one paired-log replication per workload; the rank
correlation and clipping happen at render time.
"""

from __future__ import annotations

import numpy as np

from ..pipeline import SpecBuilder, run_pipeline
from ..scenarios.registry import make_policy, system_spec_ref
from ..viz.ascii_chart import multi_chart, scatter_chart
from .common import ExperimentResult, Scale, get_scale

PROBE = make_policy("single-r", delay=0.0, prob=0.3)
CLIP = 2000.0  # the paper plots the [0, 2000] x [0, 2000] window


def build_spec(scale: Scale, seed: int):
    sb = SpecBuilder(
        "fig4",
        "Primary/reissue response-time correlation (Correlated vs Queueing)",
    )
    pairs = {
        "correlated": sb.evaluate(
            system_spec_ref("correlated", n_queries=scale.n_queries),
            PROBE,
            seed,
            measure=("pairs",),
            key="run/correlated/probe",
        ),
        "queueing": sb.evaluate(
            system_spec_ref(
                "queueing", n_queries=scale.n_queries, utilization=0.3
            ),
            PROBE,
            seed,
            measure=("pairs",),
            key="run/queueing/probe",
        ),
    }

    def render(rs) -> ExperimentResult:
        # Lazy: importing serving or the CLI must load no scipy.
        from scipy import stats

        clipped = {}
        corr = {}
        for panel, handle in pairs.items():
            x, y = rs[handle]["pairs"]
            keep = (x <= CLIP) & (y <= CLIP)
            # Rank (Spearman) correlation: Pearson is meaningless under
            # Pareto(1.1) tails, where a single extreme pair dominates
            # the sum.
            corr[panel] = (
                float(stats.spearmanr(x, y).statistic) if x.size > 1 else 0.0
            )
            clipped[panel] = (x[keep], y[keep])

        headers = ["panel", "primary", "reissue"]
        rows: list[list] = []
        for panel in ("correlated", "queueing"):
            x, y = clipped[panel]
            stride = max(1, x.size // 400)
            for xi, yi in zip(x[::stride], y[::stride]):
                rows.append([panel, float(xi), float(yi)])

        chart = multi_chart(
            scatter_chart(
                *clipped["correlated"],
                title="Fig 4a: Correlated workload",
                x_label="primary",
                y_label="reissue",
            ),
            scatter_chart(
                *clipped["queueing"],
                title="Fig 4b: Queueing workload",
                x_label="primary",
                y_label="reissue",
            ),
        )
        notes = [
            f"rank (spearman) correlation: correlated={corr['correlated']:.3f}, "
            f"queueing={corr['queueing']:.3f} "
            "(queueing should be visibly weaker: added queueing randomness "
            "dampens the service-time correlation)",
        ]
        return ExperimentResult(
            experiment_id="fig4",
            title=sb.title,
            headers=headers,
            rows=rows,
            chart=chart,
            notes=notes,
            meta={
                "corr_correlated": corr["correlated"],
                "corr_queueing": corr["queueing"],
            },
        )

    return sb.build(render)


def run(
    scale: str | Scale = "standard",
    seed: int = 42,
    workers: int | None = None,
    cache_dir=None,
) -> ExperimentResult:
    spec = build_spec(get_scale(scale), seed)
    return run_pipeline(spec, workers=workers, cache_dir=cache_dir)
