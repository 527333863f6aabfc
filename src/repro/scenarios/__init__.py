"""repro.scenarios — one declarative Scenario API, two engines.

The paper's core claim is that one reissue-policy abstraction spans
analytic models, simulated clusters, and real deployments. This package
is that claim as an API: a :class:`Scenario` (workload + system + policy
+ objective + scale) described once — in Python or TOML — executes on
either engine and yields the same ``RunResult``-based report:

* ``sim``  — the §5 simulation, one pipeline cell per seed (cached with
  ``cache_dir``, process-parallel with ``workers``);
* ``live`` — a live asyncio :class:`HedgedClient` run.

Quick start::

    from repro.scenarios import Session, scenario
    from repro.core.policies import SingleR

    sc = scenario(
        "my-experiment",
        system="queueing",
        utilization=0.3,
        policy=SingleR(6.0, 0.5),
        percentile=0.95,
        budget=0.25,
        n_queries=4_000,
        seeds=(101, 103),
    )
    report = Session().run(sc)
    print(report.render())

Bundled example scenarios live under ``bundled/`` and are addressable by
name: ``Session().run("queueing-tail-quick")``. The ``repro`` CLI wraps
the same machinery (``repro run``, ``repro scenarios list``).
"""

from __future__ import annotations

from pathlib import Path

from .engines import ScenarioReport
from .model import (
    DistributionSpec,
    Objective,
    PolicySpec,
    ScaleSpec,
    Scenario,
    SystemSpec,
    WorkloadSpec,
    scenario,
)
from .registry import (
    DISTRIBUTIONS,
    POLICIES,
    SYSTEMS,
    build_system,
    make_distribution,
    make_policy,
    system_spec_ref,
)
from .serialize import dumps, load, loads, save
from .session import Session, coerce_scenario

#: Directory of the scenarios shipped with the package.
BUNDLED_DIR = Path(__file__).resolve().parent / "bundled"


def bundled_scenario_names() -> list[str]:
    """Names of the shipped ``.toml`` scenarios (stem = name)."""
    return sorted(p.stem for p in BUNDLED_DIR.glob("*.toml"))


def bundled_scenario(name: str) -> Scenario:
    """Load one bundled scenario by name."""
    path = BUNDLED_DIR / f"{name}.toml"
    if not path.exists():
        raise KeyError(
            f"no bundled scenario {name!r}; "
            f"available: {bundled_scenario_names()}"
        )
    return load(path)


def bundled_scenarios() -> list[Scenario]:
    """All shipped scenarios, loaded."""
    return [bundled_scenario(name) for name in bundled_scenario_names()]


__all__ = [
    "Scenario",
    "scenario",
    "SystemSpec",
    "WorkloadSpec",
    "PolicySpec",
    "DistributionSpec",
    "Objective",
    "ScaleSpec",
    "Session",
    "coerce_scenario",
    "ScenarioReport",
    "SYSTEMS",
    "POLICIES",
    "DISTRIBUTIONS",
    "make_policy",
    "make_distribution",
    "build_system",
    "system_spec_ref",
    "dumps",
    "loads",
    "load",
    "save",
    "BUNDLED_DIR",
    "bundled_scenario",
    "bundled_scenario_names",
    "bundled_scenarios",
]
