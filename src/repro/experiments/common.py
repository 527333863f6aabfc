"""Shared machinery for the figure drivers: fidelity scales and results.

The paper's protocol, which every driver follows through
:mod:`repro.optimize` (fits) and :mod:`repro.pipeline.cells` (medians):

* policies are fitted by the adaptive optimizer (§4.3) against the target
  system, then evaluated with fresh run seeds;
* reported values are **medians across seed-paired runs** ("all reported
  values reflect the median of multiple runs", §6.3) — with ~20 queries
  of death per trace, P99 is far too lumpy for single-run comparisons;
* SingleD baselines are adaptively tuned too, so their *measured* reissue
  rate honours the budget under load feedback (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..viz.table import format_csv, format_table


@dataclass(frozen=True)
class Scale:
    """Knobs trading fidelity for runtime, shared by all drivers."""

    name: str
    n_queries: int
    eval_seeds: tuple[int, ...]
    adaptive_trials: int
    sweep_points: int

    def budgets(self, lo: float, hi: float) -> np.ndarray:
        """A budget grid between ``lo`` and ``hi`` with this scale's width."""
        return np.linspace(lo, hi, self.sweep_points)


SCALES: dict[str, Scale] = {
    "quick": Scale(
        name="quick",
        n_queries=8_000,
        eval_seeds=(101, 103),
        adaptive_trials=4,
        sweep_points=4,
    ),
    "standard": Scale(
        name="standard",
        n_queries=20_000,
        eval_seeds=(101, 103, 107),
        adaptive_trials=6,
        sweep_points=6,
    ),
    "full": Scale(
        name="full",
        n_queries=40_000,
        eval_seeds=(101, 103, 107, 109, 113),
        adaptive_trials=10,
        sweep_points=8,
    ),
}


def get_scale(scale: str | Scale) -> Scale:
    if isinstance(scale, Scale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise KeyError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
        ) from None


@dataclass
class ExperimentResult:
    """Everything a figure driver produces.

    ``rows``/``headers`` carry the figure's data (one row per plotted
    point); ``chart`` is the rendered ASCII figure; ``notes`` records
    shape checks (who won, by how much).
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    chart: str = ""
    notes: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def table(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)

    def csv(self) -> str:
        return format_csv(self.headers, self.rows)

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.chart:
            parts.append(self.chart)
        parts.append(self.table())
        if self.notes:
            parts.append("notes:")
            parts.extend(f"  - {n}" for n in self.notes)
        return "\n\n".join(parts)
