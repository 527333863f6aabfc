"""The one request shape every policy solver understands.

A :class:`FitRequest` names *what* to optimize (target percentile,
reissue budget, policy family, optional SLA) and carries whichever
*evidence* the chosen solver consumes:

* **sample logs** (``rx``/``ry``/``pair_x``/``pair_y``) — the empirical,
  correlated, and online solvers fit from response-time logs;
* **closed-form distributions** (``primary``/``reissue``) — the analytic
  solver optimizes against ground truth;
* **a system under test** (``system``) — the simulated solver and the
  budget strategies run the §4.3 fit protocol against it.

Solvers that need evidence the request does not carry derive it when
they can (the empirical solver runs one no-reissue baseline on the
system to obtain ``rx``) and raise a :class:`ValueError` naming the
missing piece when they cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from ..core.policies import ReissuePolicy
from ..distributions.base import RngLike

FAMILIES = ("single-r", "single-d")


def _as_log(value) -> np.ndarray:
    """A float64 sample array from an array-like or a ``sorted_samples``
    holder (``Empirical`` / ``EmpiricalStore``), without copying mmaps."""
    samples = getattr(value, "sorted_samples", None)
    if samples is not None:
        value = samples
    return np.asarray(value, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class FitRequest:
    """What to solve for, plus the evidence to solve it from.

    A ``single-d`` fit picks its delay from ``budget`` alone (Eq. 2), so
    SingleD ignores ``percentile``: it only sets the tail the empirical
    solvers report for the fitted delay.
    """

    percentile: float = 0.99
    budget: float = 0.05
    family: str = "single-r"
    sla_ms: float | None = None

    # -- sample-log evidence (empirical / correlated / online) ----------
    rx: Any = None
    ry: Any = None
    pair_x: Any = None
    pair_y: Any = None

    # -- closed-form evidence (analytic) --------------------------------
    primary: Any = None
    reissue: Any = None

    # -- live-system evidence (simulated / budget strategies) -----------
    system: Any = None
    seed: RngLike = None
    seeds: tuple[int, ...] = ()
    trials: int = 6
    learning_rate: float = 0.5
    budgets: tuple[float, ...] = ()

    # -- solver-specific extras -----------------------------------------
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.percentile < 1.0:
            raise ValueError(
                f"percentile must be in (0, 1), got {self.percentile}"
            )
        if not 0.0 < self.budget <= 1.0:
            raise ValueError(f"budget must be in (0, 1], got {self.budget}")
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown policy family {self.family!r}; "
                f"expected one of {FAMILIES}"
            )
        if self.sla_ms is not None and self.sla_ms <= 0.0:
            raise ValueError(f"sla_ms must be > 0, got {self.sla_ms}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(
            self, "budgets", tuple(float(b) for b in self.budgets)
        )

    # -- evidence accessors ---------------------------------------------
    def sample_logs(self, solver: str) -> tuple[np.ndarray, np.ndarray]:
        """``(rx, ry)`` as sorted-ready float arrays, or a named error.

        ``rx``/``ry`` may also be sample-holding distribution objects
        (an in-RAM ``Empirical`` or a store-backed ``EmpiricalStore``):
        anything exposing ``sorted_samples`` contributes that array —
        for a store that is the mmap view, so no copy happens here.
        """
        if self.rx is None:
            raise ValueError(
                f"solver {solver!r} needs a primary response-time log: "
                "pass rx= (and optionally ry=), or a system= to sample one"
            )
        rx = _as_log(self.rx)
        ry = _as_log(self.ry if self.ry is not None else self.rx)
        return rx, ry

    def pair_logs(self, solver: str) -> tuple[np.ndarray, np.ndarray]:
        if self.pair_x is None or self.pair_y is None:
            raise ValueError(
                f"solver {solver!r} needs the paired reissue log: pass "
                "pair_x= and pair_y=, or a system= to probe one"
            )
        return (
            np.asarray(self.pair_x, dtype=np.float64),
            np.asarray(self.pair_y, dtype=np.float64),
        )

    def distributions(self, solver: str):
        if self.primary is None:
            raise ValueError(
                f"solver {solver!r} optimizes against closed-form "
                "distributions: pass primary= (and optionally reissue=)"
            )
        return self.primary, self.reissue if self.reissue is not None else self.primary

    def resolved_system(self, solver: str):
        """The live system, building pipeline ``SystemRef``-likes."""
        if self.system is None:
            raise ValueError(
                f"solver {solver!r} runs the fit protocol against a live "
                "system: pass system= (a SystemUnderTest or a SystemRef)"
            )
        system = self.system
        if not hasattr(system, "run") and hasattr(system, "build"):
            system = system.build()
        return system

    def with_(self, **changes) -> "FitRequest":
        """A copy with fields replaced (dataclasses.replace wrapper)."""
        return replace(self, **changes)


@dataclass
class FitResult:
    """A fitted policy plus how (and how well) it was fitted.

    ``fit`` carries the solver's native diagnostic object when it has
    one — a :class:`~repro.core.optimizer.SingleRFit` from the
    sample-log solvers, an :class:`~repro.core.analytic.AnalyticFit`
    from the analytic solver, a
    :class:`~repro.core.budget_search.BudgetSearchResult` under
    ``search`` from the budget strategies. ``policies`` holds per-budget
    fits when the request named a ``budgets`` grid.
    """

    solver: str
    family: str
    policy: ReissuePolicy
    request: FitRequest
    fit: Any = None
    policies: tuple = ()
    search: Any = None
    meta: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """JSON-ready summary (the ``repro optimize --json`` payload)."""
        out: dict[str, Any] = {
            "solver": self.solver,
            "family": self.family,
            "policy": self.policy.to_spec(),
            "percentile": self.request.percentile,
            "budget": self.request.budget,
        }
        if self.request.sla_ms is not None:
            out["sla_ms"] = self.request.sla_ms
        fit = self.fit
        if fit is not None and hasattr(fit, "predicted_tail"):
            out["predicted_tail"] = fit.predicted_tail
            out["predicted_success"] = fit.predicted_success
            out["baseline_tail"] = fit.baseline_tail
        if fit is not None and hasattr(fit, "tail"):
            out["predicted_tail"] = fit.tail
        if self.search is not None:
            out["best_budget"] = self.search.best_budget
            out["best_latency"] = self.search.best_latency
            out["probes"] = len(self.search.trials)
        if self.policies:
            out["grid"] = [
                {"budget": b, "policy": p.to_spec()}
                for b, p in zip(self.request.budgets, self.policies)
            ]
        out.update(self.meta)
        return out

    def render(self) -> str:
        """The fitted-policy report ``repro optimize`` prints."""
        req = self.request
        lines = [
            f"== repro optimize: {self.solver} solver ==",
            f"objective   P{100 * req.percentile:g} at budget "
            f"{req.budget:g}"
            + (f", SLA {req.sla_ms:g} ms" if req.sla_ms is not None else ""),
            f"family      {self.family}",
            f"policy      {self.policy!r}",
        ]
        fit = self.fit
        if fit is not None and hasattr(fit, "predicted_tail"):
            lines.append(f"predicted   P{100 * req.percentile:g} = "
                         f"{fit.predicted_tail:.3f}")
            if getattr(fit, "baseline_tail", 0.0):
                ratio = fit.baseline_tail / max(fit.predicted_tail, 1e-12)
                lines.append(
                    f"baseline    {fit.baseline_tail:.3f} "
                    f"({ratio:.2f}x reduction predicted)"
                )
        if fit is not None and hasattr(fit, "tail"):
            lines.append(f"predicted   P{100 * req.percentile:g} = {fit.tail:.3f}")
        if self.search is not None:
            lines.append(
                f"search      best budget {self.search.best_budget:.4f} "
                f"-> latency {self.search.best_latency:.3f} "
                f"({len(self.search.trials)} probes)"
            )
        if self.policies:
            lines.append("grid:")
            for b, p in zip(req.budgets, self.policies):
                lines.append(f"  budget {b:g}: {p!r}")
        for key, value in self.meta.items():
            lines.append(f"{key:<11} {value}")
        return "\n".join(lines)
