"""The Session facade: execute any Scenario on a chosen engine.

A :class:`Session` pins the engine and its options once; :meth:`Session.run`
then takes a :class:`~repro.scenarios.model.Scenario`, a plain dict, a
``.toml`` path or a bundled scenario name, and returns the
engine-independent :class:`~repro.scenarios.engines.ScenarioReport`::

    Session().run("queueing-tail-quick")                   # sim, inline
    Session("sim", workers=2, cache_dir=".c").run("redis-tail-taming")
    Session("live", requests=500).run("queueing-tail-quick")
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Mapping

from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from .engines import ScenarioReport, run_live, run_sim
from .model import Scenario, repeated_seeds

#: ``store.*`` counters surfaced per run (deltas across the engine call).
_STORE_COUNTERS = (
    "blocks_loaded", "bytes_read", "cache_hits",
    "blocks_written", "bytes_written",
)


def _store_counters() -> dict[str, int]:
    """Current process-wide store counters (absent metrics read as 0)."""
    registry = get_metrics()
    return {
        name: int(getattr(registry.get(f"store.{name}"), "value", 0))
        for name in _STORE_COUNTERS
    }


def coerce_scenario(source) -> Scenario:
    """A Scenario, a plain mapping, a ``.toml`` path or a bundled
    scenario name → Scenario."""
    from . import bundled_scenario, bundled_scenario_names
    from .serialize import load

    if isinstance(source, Scenario):
        return source
    if isinstance(source, Mapping):
        return Scenario.from_dict(source)
    if isinstance(source, Path) or str(source).endswith(".toml"):
        return load(source)
    if isinstance(source, str):
        if source in bundled_scenario_names():
            return bundled_scenario(source)
        raise KeyError(
            f"unknown scenario {source!r}: not a .toml path and not one of "
            f"the bundled scenarios {bundled_scenario_names()}"
        )
    raise TypeError(
        f"cannot interpret {type(source).__name__} as a scenario; pass a "
        "Scenario, a dict, a .toml path, or a bundled scenario name"
    )


class Session:
    """Execute scenarios on one configured engine.

    ``engine`` is ``"sim"`` (options ``workers``, ``cache_dir``) or
    ``"live"`` (options ``requests``, ``time_scale``); see
    :mod:`repro.scenarios.engines`. An option the engine does not take
    raises ``TypeError`` naming the option and the engine.
    """

    def __init__(self, engine: str = "sim", **options):
        runner = {"sim": run_sim, "live": run_live}.get(engine)
        if runner is None:
            raise KeyError(
                f"unknown engine {engine!r}; available: ['live', 'sim']"
            )
        takes = [
            name
            for name, param in inspect.signature(runner).parameters.items()
            if param.kind is param.KEYWORD_ONLY
        ]
        for name in options:
            if name not in takes:
                raise TypeError(f"{name} does not apply to the {engine!r} engine")
        self.engine = engine
        self.options = options
        self._runner = runner

    def run(self, scenario, *, seeds=None) -> ScenarioReport:
        """Execute ``scenario``; ``seeds`` overrides its scale's seeds.

        Under tracing (:mod:`repro.obs`) every run gets one root span —
        ``scenario.run`` with the scenario name, engine, and seed count —
        so traces from both engines hang off the same shape of root.
        """
        scenario = coerce_scenario(scenario).check()
        run_seeds = tuple(
            int(s) for s in (seeds if seeds is not None else scenario.scale.seeds)
        )
        if not run_seeds:
            raise ValueError("need at least one evaluation seed")
        repeated = repeated_seeds(run_seeds)
        if repeated:
            raise ValueError(
                f"seed {repeated[0]} is repeated in seeds {list(run_seeds)}; "
                "each seed is one replication of the median"
            )
        before = _store_counters()
        with get_tracer().span(
            "scenario.run",
            scenario=scenario.name,
            engine=self.engine,
            n_seeds=len(run_seeds),
        ):
            runs, meta = self._runner(scenario, run_seeds, **self.options)
        after = _store_counters()
        store = {k: v - before[k] for k, v in after.items() if v != before[k]}
        if store:
            meta["store"] = store
        for run in runs:
            run.meta.setdefault("scenario", scenario.name)
            run.meta.setdefault("engine", self.engine)
        return ScenarioReport(scenario, self.engine, run_seeds, runs, meta)
