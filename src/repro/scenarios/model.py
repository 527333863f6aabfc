"""The declarative Scenario object model.

A :class:`Scenario` is the one description of an experiment that every
execution engine understands::

    Scenario = workload + system + policy + objective + scale

* ``system`` — which registered substrate runs the queries (by kind).
* ``workload`` — optional service-time overrides (base distribution,
  reissue correlation) applied to systems that accept them.
* ``policy`` — the reissue policy, as a plain spec (``to_spec`` form).
* ``objective`` — what the run is judged on: target percentile, the
  declared reissue budget, an optional SLA.
* ``scale`` — fidelity/runtime knobs: trace length and evaluation seeds.

Scenarios are immutable, serializable to/from plain dicts and TOML
(:mod:`repro.scenarios.serialize`), and content-addressed: two scenarios
with the same meaning have the same :meth:`Scenario.fingerprint`, no
matter which route (dict, TOML file, Python constructors) produced them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..core.policies import ReissuePolicy
from .registry import DISTRIBUTIONS, SYSTEMS, make_distribution


def _freeze(params: Mapping[str, Any], where: str = "spec") -> tuple:
    """Canonical, hashable form of a primitive-kwargs mapping.

    Nested tables are rejected up front: they would otherwise pass
    validation (the factory signature check sees only names), crash at
    construction time, and make the spec unhashable. The one structured
    value the schema allows is a list (optionally of lists, e.g. policy
    ``stages``).
    """

    def conv(key, v):
        if isinstance(v, Mapping):
            raise ValueError(
                f"{where} parameter {key!r} must not be a nested "
                "table/dict; only [workload.service] takes a table "
                "(move distribution overrides there)"
            )
        if isinstance(v, (list, tuple)):
            return tuple(conv(key, x) for x in v)
        return v

    return tuple((str(k), conv(k, params[k])) for k in sorted(params))


def _canonical_numbers(value: Any) -> Any:
    """Ints → floats (bools excepted), recursively.

    Scenario identity must not depend on numeric spelling: ``delay = 6``
    in TOML and ``SingleR(6.0, …)`` in Python describe the same
    experiment (every consumer coerces), so :meth:`Scenario.fingerprint`
    hashes the numerically-canonical form.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_canonical_numbers(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _canonical_numbers(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class DistributionSpec:
    """A service-time distribution by registry kind + parameters."""

    kind: str
    params: tuple = ()

    @classmethod
    def of(cls, kind: str, **params) -> "DistributionSpec":
        return cls(kind=kind, params=_freeze(params, "distribution"))

    @classmethod
    def from_dict(cls, d: Mapping) -> "DistributionSpec":
        d = dict(d)
        kind = d.pop("kind", None)
        if not kind:
            raise ValueError("distribution spec is missing 'kind'")
        return cls(kind=str(kind), params=_freeze(d, "[workload.service]"))

    def to_dict(self) -> dict:
        return {"kind": self.kind, **dict(self.params)}

    def build(self):
        return make_distribution(self.kind, **dict(self.params))


@dataclass(frozen=True)
class WorkloadSpec:
    """Optional service-time overrides layered onto the system.

    ``service`` replaces the system's base service-time distribution;
    ``correlation`` sets the reissue correlation ``r`` in ``Y = r·x + Z``.
    Systems with intrinsic workloads (redis, lucene) accept neither —
    :meth:`Scenario.validate` reports the mismatch instead of silently
    ignoring the override.
    """

    service: DistributionSpec | None = None
    correlation: float | None = None

    @classmethod
    def from_dict(cls, d: Mapping) -> "WorkloadSpec":
        d = dict(d)
        service = d.pop("service", None)
        correlation = d.pop("correlation", None)
        if d:
            raise ValueError(
                f"unknown [workload] fields: {sorted(d)}; "
                "expected 'service' and/or 'correlation'"
            )
        return cls(
            service=None if service is None else DistributionSpec.from_dict(service),
            correlation=None if correlation is None else float(correlation),
        )

    def to_dict(self) -> dict:
        out: dict = {}
        if self.service is not None:
            out["service"] = self.service.to_dict()
        if self.correlation is not None:
            out["correlation"] = self.correlation
        return out

    @property
    def empty(self) -> bool:
        return self.service is None and self.correlation is None


@dataclass(frozen=True)
class SystemSpec:
    """A registered system substrate by kind + factory parameters."""

    kind: str
    params: tuple = ()

    @classmethod
    def of(cls, kind: str, **params) -> "SystemSpec":
        return cls(kind=kind, params=_freeze(params, "system"))

    @classmethod
    def from_dict(cls, d: Mapping) -> "SystemSpec":
        d = dict(d)
        kind = d.pop("kind", None)
        if not kind:
            raise ValueError("system spec is missing 'kind'")
        return cls(kind=str(kind), params=_freeze(d, "[system]"))

    def to_dict(self) -> dict:
        return {"kind": self.kind, **dict(self.params)}


@dataclass(frozen=True)
class PolicySpec:
    """A reissue policy in its ``to_spec`` plain form."""

    kind: str
    params: tuple = ()

    @classmethod
    def of(cls, kind: str, **params) -> "PolicySpec":
        return cls(kind=kind, params=_freeze(params, "policy"))

    @classmethod
    def from_policy(cls, policy: ReissuePolicy) -> "PolicySpec":
        spec = policy.to_spec()
        kind = spec.pop("kind")
        return cls(kind=kind, params=_freeze(spec, "policy"))

    @classmethod
    def from_dict(cls, d: Mapping) -> "PolicySpec":
        d = dict(d)
        kind = d.pop("kind", None)
        if not kind:
            raise ValueError("policy spec is missing 'kind'")
        return cls(kind=str(kind), params=_freeze(d, "[policy]"))

    def to_dict(self) -> dict:
        return {"kind": self.kind, **dict(self.params)}

    def build(self) -> ReissuePolicy:
        from .registry import make_policy

        return make_policy(self.kind, **dict(self.params))


@dataclass(frozen=True)
class Objective:
    """What a run is judged on — and, optionally, how to *solve* for a
    policy meeting it (``solve`` names a :mod:`repro.optimize` solver;
    ``repro optimize`` uses it as the default)."""

    percentile: float = 0.99
    budget: float | None = None  # declared reissue budget (informational)
    sla_ms: float | None = None  # optional latency target at `percentile`
    solve: str | None = None  # repro.optimize solver kind, e.g. "empirical"
    trace: str | None = None  # sample-log evidence: a CSV or .store path

    @classmethod
    def from_dict(cls, d: Mapping) -> "Objective":
        d = dict(d)
        solve = d.pop("solve", None)
        trace = d.pop("trace", None)
        out = cls(
            percentile=float(d.pop("percentile", 0.99)),
            budget=(lambda b: None if b is None else float(b))(
                d.pop("budget", None)
            ),
            sla_ms=(lambda s: None if s is None else float(s))(
                d.pop("sla_ms", None)
            ),
            solve=None if solve is None else str(solve),
            trace=None if trace is None else str(trace),
        )
        if d:
            raise ValueError(
                f"unknown [objective] fields: {sorted(d)}; "
                "expected percentile / budget / sla_ms / solve / trace"
            )
        return out

    def to_dict(self) -> dict:
        out: dict = {"percentile": self.percentile}
        if self.budget is not None:
            out["budget"] = self.budget
        if self.sla_ms is not None:
            out["sla_ms"] = self.sla_ms
        if self.solve is not None:
            out["solve"] = self.solve
        if self.trace is not None:
            out["trace"] = self.trace
        return out


def repeated_seeds(seeds) -> list[int]:
    """Seeds named more than once, sorted (one would count twice in the
    median-of-seeds protocol)."""
    return sorted(seed for seed, n in Counter(seeds).items() if n > 1)


@dataclass(frozen=True)
class ScaleSpec:
    """Fidelity/runtime knobs shared by every engine."""

    n_queries: int | None = None  # None: the system factory's default
    seeds: tuple[int, ...] = (101, 103)

    @classmethod
    def from_dict(cls, d: Mapping) -> "ScaleSpec":
        d = dict(d)
        n_queries = d.pop("n_queries", None)
        seeds = d.pop("seeds", (101, 103))
        if d:
            raise ValueError(
                f"unknown [scale] fields: {sorted(d)}; "
                "expected n_queries / seeds"
            )
        return cls(
            n_queries=None if n_queries is None else int(n_queries),
            seeds=tuple(int(s) for s in seeds),
        )

    def to_dict(self) -> dict:
        out: dict = {"seeds": list(self.seeds)}
        if self.n_queries is not None:
            out["n_queries"] = self.n_queries
        return out


@dataclass(frozen=True)
class Scenario:
    """One declarative experiment, runnable by every engine."""

    name: str
    system: SystemSpec
    policy: PolicySpec
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    objective: Objective = field(default_factory=Objective)
    scale: ScaleSpec = field(default_factory=ScaleSpec)
    description: str = ""

    # -- construction --------------------------------------------------------
    @classmethod
    def from_dict(cls, d: Mapping) -> "Scenario":
        d = dict(d)
        name = d.pop("name", None)
        if not name:
            raise ValueError("scenario is missing 'name'")
        system = d.pop("system", None)
        if system is None:
            raise ValueError(f"scenario {name!r} is missing [system]")
        policy = d.pop("policy", None)
        if policy is None:
            raise ValueError(f"scenario {name!r} is missing [policy]")
        scenario = cls(
            name=str(name),
            description=str(d.pop("description", "")),
            system=SystemSpec.from_dict(system),
            policy=PolicySpec.from_dict(policy),
            workload=WorkloadSpec.from_dict(d.pop("workload", {})),
            objective=Objective.from_dict(d.pop("objective", {})),
            scale=ScaleSpec.from_dict(d.pop("scale", {})),
        )
        if d:
            raise ValueError(
                f"scenario {name!r} has unknown top-level fields: {sorted(d)}"
            )
        return scenario

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.description:
            out["description"] = self.description
        out["system"] = self.system.to_dict()
        if not self.workload.empty:
            out["workload"] = self.workload.to_dict()
        out["policy"] = self.policy.to_dict()
        out["objective"] = self.objective.to_dict()
        out["scale"] = self.scale.to_dict()
        return out

    def with_scale(self, **changes) -> "Scenario":
        """A copy with scale knobs changed (seeds, n_queries)."""
        return replace(self, scale=replace(self.scale, **changes))

    # -- identity ------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the scenario's canonical dict form.

        Built on the pipeline's Merkle fingerprinting, so scenario
        identity composes with cell/cache identity. Numbers are
        canonicalized first (``6`` ≡ ``6.0``): the same experiment has
        the same fingerprint whether it came from a dict, a TOML file,
        or Python constructors.
        """
        from ..pipeline.fingerprint import fingerprint

        return fingerprint(("scenario", _canonical_numbers(self.to_dict())))

    # -- resolution ----------------------------------------------------------
    def system_kwargs(self) -> dict:
        """The registered factory's kwargs: system params + workload
        overrides + the scale's trace length."""
        entry = SYSTEMS.get(self.system.kind)
        kwargs = dict(self.system.params)
        supported = entry.metadata.get("workload_params", {})
        if self.workload.service is not None:
            param = supported.get("base")
            if param is None:
                raise ValueError(
                    f"system {self.system.kind!r} has an intrinsic workload; "
                    "it does not accept a [workload] service distribution"
                )
            kwargs[param] = self.workload.service.build()
        if self.workload.correlation is not None:
            param = supported.get("correlation")
            if param is None:
                raise ValueError(
                    f"system {self.system.kind!r} does not accept a "
                    "[workload] correlation override"
                )
            kwargs[param] = self.workload.correlation
        if self.scale.n_queries is not None:
            kwargs["n_queries"] = self.scale.n_queries
        return kwargs

    def build_system(self):
        """Construct the system under test."""
        entry = SYSTEMS.get(self.system.kind)
        return entry.build(**self.system_kwargs())

    def build_policy(self) -> ReissuePolicy:
        return self.policy.build()

    def system_ref(self):
        """A pipeline ``SystemRef`` for the sim engine's cells."""
        from ..pipeline.spec import system_ref

        return system_ref(
            SYSTEMS.get(self.system.kind).factory, **self.system_kwargs()
        )

    # -- validation ----------------------------------------------------------
    def validate(self) -> list[str]:
        """Every problem found, as human-readable strings (empty = valid)."""
        problems: list[str] = []
        if self.system.kind not in SYSTEMS:
            problems.append(
                f"unknown system kind {self.system.kind!r}; "
                f"registered: {SYSTEMS.names()}"
            )
        if (
            self.workload.service is not None
            and self.workload.service.kind not in DISTRIBUTIONS
        ):
            problems.append(
                f"unknown distribution kind {self.workload.service.kind!r}; "
                f"registered: {DISTRIBUTIONS.names()}"
            )
        if not 0.0 < self.objective.percentile < 1.0:
            problems.append(
                f"objective.percentile must be in (0, 1), got "
                f"{self.objective.percentile}"
            )
        if self.objective.budget is not None and not (
            0.0 <= self.objective.budget <= 1.0
        ):
            problems.append(
                f"objective.budget must be in [0, 1], got "
                f"{self.objective.budget}"
            )
        if self.objective.solve is not None:
            from ..optimize import solver_names

            if self.objective.solve not in solver_names():
                problems.append(
                    f"unknown objective.solve solver "
                    f"{self.objective.solve!r}; registered: {solver_names()}"
                )
        if self.objective.trace is not None and not self.objective.trace:
            problems.append(
                "objective.trace must be a trace-log path (CSV or .store); "
                "omit the field to fit from a live system run"
            )
        if not self.scale.seeds:
            problems.append("scale.seeds must name at least one seed")
        for seed in repeated_seeds(self.scale.seeds):
            problems.append(
                f"scale.seeds repeats seed {seed}; each seed is one "
                "replication of the median"
            )
        if not problems:
            try:
                kwargs = self.system_kwargs()
            except (ValueError, KeyError) as exc:
                problems.append(str(exc))
            else:
                entry = SYSTEMS.get(self.system.kind)
                try:
                    entry.bind(**kwargs)
                except ValueError as exc:
                    problems.append(str(exc))
            try:
                policy = self.build_policy()
            except (ValueError, KeyError) as exc:
                problems.append(f"policy: {exc}")
            else:
                bad = [
                    f"policy stage delay {d:g} exceeds any plausible "
                    "service time scale"
                    for d, _ in policy.stages
                    if not d < float("inf")
                ]
                problems.extend(bad)
        return problems

    def check(self) -> "Scenario":
        """Raise ``ValueError`` listing every problem; returns self."""
        problems = self.validate()
        if problems:
            raise ValueError(
                f"invalid scenario {self.name!r}:\n  - "
                + "\n  - ".join(problems)
            )
        return self


def scenario(
    name: str,
    *,
    system: str,
    policy: ReissuePolicy | Mapping | str,
    workload: Mapping | None = None,
    percentile: float = 0.99,
    budget: float | None = None,
    sla_ms: float | None = None,
    solve: str | None = None,
    seeds=(101, 103),
    n_queries: int | None = None,
    description: str = "",
    **system_params,
) -> Scenario:
    """Ergonomic one-call constructor used by examples and tests.

    ``policy`` accepts a live :class:`ReissuePolicy`, a spec mapping, or
    a bare kind string (for parameterless kinds like ``"none"``).
    """
    if isinstance(policy, ReissuePolicy):
        pol = PolicySpec.from_policy(policy)
    elif isinstance(policy, str):
        pol = PolicySpec.of(policy)
    else:
        pol = PolicySpec.from_dict(policy)
    return Scenario(
        name=name,
        description=description,
        system=SystemSpec.of(system, **system_params),
        workload=WorkloadSpec.from_dict(workload or {}),
        policy=pol,
        objective=Objective(
            percentile=percentile, budget=budget, sla_ms=sla_ms, solve=solve
        ),
        scale=ScaleSpec(
            n_queries=n_queries, seeds=tuple(int(s) for s in seeds)
        ),
    )
