"""Declarative experiment specifications.

A figure driver builds an :class:`ExperimentSpec` with a
:class:`SpecBuilder`: it registers systems as *references* (factory +
kwargs, constructed lazily in whichever process runs the cell), declares
fit / evaluation / reduction cells, and supplies a render function that
turns the executed cell values into the figure's ``ExperimentResult``.

The builder is where the paper's §6.3 protocol lives exactly once:
``evaluate_seeds`` declares one replication cell per evaluation seed and
merges re-declarations of the same (system, policy, seed) replication —
e.g. a baseline evaluated at both P95 and P99, or by two panels — into a
single cell whose requested percentiles are unioned.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .fingerprint import fingerprint

#: What an evaluation cell extracts from its ``RunResult`` by default.
DEFAULT_MEASURE = ("tails", "reissue_rate")

#: Process-local memo of constructed systems, keyed by SystemRef
#: fingerprint. Systems are stateless executors (all randomness flows
#: through explicit rng arguments), so reuse across cells is safe — it
#: mirrors the old drivers constructing one system per sweep. The
#: executor clears it after each pipeline run so a long session (e.g.
#: ``repro figure run all``) doesn't pin every figure's corpora.
_SYSTEM_MEMO: dict[str, Any] = {}


def clear_system_memo() -> None:
    """Release memoized systems (Redis/Lucene corpora are megabytes)."""
    _SYSTEM_MEMO.clear()


@dataclass(frozen=True)
class SystemRef:
    """A system under test, by construction recipe rather than instance.

    Instances like ``RedisClusterSystem`` hold closures and megabytes of
    corpus — they neither pickle nor fingerprint. A ``SystemRef`` names a
    module-level factory plus primitive kwargs; workers build (and memo)
    the system locally. Construction is deterministic (fixed corpus and
    trace seeds), so every process sees the identical system.
    """

    factory: Callable[..., Any]
    kwargs: tuple[tuple[str, Any], ...]

    def __fingerprint__(self):
        return ("system", self.factory, self.kwargs)

    @property
    def label(self) -> str:
        return self.factory.__name__

    def build(self) -> Any:
        fp = fingerprint(self)
        system = _SYSTEM_MEMO.get(fp)
        if system is None:
            system = self.factory(**dict(self.kwargs))
            _SYSTEM_MEMO[fp] = system
        return system


def system_ref(factory: Callable[..., Any], **kwargs) -> SystemRef:
    """Normalize ``factory(**kwargs)`` into a :class:`SystemRef`.

    Defaults are applied via the factory's signature so that two call
    sites spelling the same system differently (one relying on a default,
    one passing it explicitly) produce identical refs — and therefore
    dedupe into the same cells.
    """
    bound = inspect.signature(factory).bind(**kwargs)
    bound.apply_defaults()
    items = tuple(sorted(bound.arguments.items()))
    return SystemRef(factory=factory, kwargs=items)


@dataclass(frozen=True)
class Ref:
    """A reference to (a projection of) another cell's result."""

    key: str
    project: tuple | None = None  # ("attr", name) | ("index", i) | None

    def resolve(self, value: Any) -> Any:
        if self.project is None:
            return value
        kind, arg = self.project
        if kind == "attr":
            return getattr(value, arg)
        if kind == "index":
            return value[arg]
        raise ValueError(f"unknown projection {self.project!r}")


@dataclass(frozen=True)
class Handle:
    """Builder-returned pointer to a declared cell."""

    key: str

    def ref(self) -> Ref:
        return Ref(self.key)

    def get(self, index) -> Ref:
        return Ref(self.key, ("index", index))

    def attr(self, name: str) -> Ref:
        return Ref(self.key, ("attr", name))


@dataclass
class Cell:
    """One unit of pipeline work: ``fn(**params, **resolved deps)``.

    ``kind`` steers the executor: ``"eval"`` cells are single
    (system, policy, seed) replications that the executor groups into
    one seed-loop job per (system, policy); ``"fit"`` and ``"reduce"``
    cells run as-is.
    """

    key: str
    fn: Callable[..., Any]
    params: dict[str, Any] = field(default_factory=dict)
    deps: dict[str, Ref | tuple[Ref, ...]] = field(default_factory=dict)
    kind: str = "fit"

    def dep_refs(self) -> list[Ref]:
        out: list[Ref] = []
        for v in self.deps.values():
            out.extend(v) if isinstance(v, tuple) else out.append(v)
        return out


@dataclass
class ExperimentSpec:
    """A figure: declared cells plus a render function."""

    experiment_id: str
    title: str
    cells: list[Cell]
    render: Callable[["Results"], Any]
    stats: dict = field(default_factory=dict)


class Results:
    """Executed cell values, addressable by handle/ref/key."""

    def __init__(self, values: Mapping[str, Any], aliases: Mapping[str, str]):
        self._values = dict(values)
        self._aliases = dict(aliases)

    def __getitem__(self, ref) -> Any:
        if isinstance(ref, Handle):
            ref = ref.ref()
        if isinstance(ref, str):
            ref = Ref(ref)
        canonical = self._aliases.get(ref.key, ref.key)
        return ref.resolve(self._values[canonical])

    def median_tail(
        self, handles: Sequence[Handle], percentile: float
    ) -> tuple[float, float]:
        """Median (tail, reissue rate) over evaluation cells — the §6.3
        seed-paired reduction, applied at render time. Delegates to the
        same reduction reduce cells use, so the protocol lives once."""
        from .cells import median_tail_reduce

        return median_tail_reduce([self[h] for h in handles], percentile)


#: Parameter types that can hold no cell reference (checked by exact type).
_LITERALS = frozenset({type(None), bool, int, float, str})


def _contains_ref(v: Any) -> bool:
    if type(v) in _LITERALS:
        return False
    if isinstance(v, (Ref, Handle)):
        return True
    if isinstance(v, (tuple, list)):
        return any(_contains_ref(x) for x in v)
    if isinstance(v, Mapping):
        return any(_contains_ref(x) for x in v.values())
    return False


def _split_params(kwargs: Mapping[str, Any]):
    """Separate literal params from dependency refs (incl. ref tuples).

    A parameter is either a dependency (a Handle/Ref, or a homogeneous
    sequence of them) or a plain literal — a container mixing the two
    is rejected, because the refs would reach the cell function
    unresolved and fingerprint by key alone (content-insensitive, so a
    cache could silently serve stale values).
    """
    params: dict[str, Any] = {}
    deps: dict[str, Ref | tuple[Ref, ...]] = {}
    for name, v in kwargs.items():
        if type(v) in _LITERALS:
            params[name] = v
        elif isinstance(v, Handle):
            deps[name] = v.ref()
        elif isinstance(v, Ref):
            deps[name] = v
        elif (
            isinstance(v, (tuple, list))
            and v
            and all(isinstance(x, (Ref, Handle)) for x in v)
        ):
            deps[name] = tuple(
                x.ref() if isinstance(x, Handle) else x for x in v
            )
        elif _contains_ref(v):
            raise TypeError(
                f"param {name!r} mixes cell references with literal values; "
                "pass a Handle/Ref, a sequence of only Handles/Refs, or "
                "plain values"
            )
        else:
            params[name] = v
    return params, deps


class SpecBuilder:
    """Author an :class:`ExperimentSpec` cell by cell."""

    def __init__(self, experiment_id: str, title: str):
        self.experiment_id = experiment_id
        self.title = title
        self._cells: dict[str, Cell] = {}
        # (system fp, policy identity, seed) -> eval cell key, for merging.
        self._eval_index: dict[tuple, str] = {}
        self._eval_requests = 0

    # -- generic cells -----------------------------------------------------
    def cell(self, key: str, fn: Callable[..., Any], kind: str = "fit", **kwargs) -> Handle:
        if key in self._cells:
            raise ValueError(f"duplicate cell key {key!r}")
        params, deps = _split_params(kwargs)
        self._cells[key] = Cell(key=key, fn=fn, params=params, deps=deps, kind=kind)
        return Handle(key)

    def reduce(self, key: str, fn: Callable[..., Any], **kwargs) -> Handle:
        return self.cell(key, fn, kind="reduce", **kwargs)

    # -- evaluation replications ------------------------------------------
    def evaluate(
        self,
        system: SystemRef,
        policy,
        seed: int,
        percentiles: Sequence[float] = (),
        measure: Sequence[str] = DEFAULT_MEASURE,
        key: str | None = None,
    ) -> Handle:
        """Declare one (system, policy, seed) evaluation replication.

        Re-declaring the same replication — by another panel, or at
        another percentile — returns the existing cell with the percentile
        and measure sets unioned, so the run executes once.
        """
        policy, identity = self._replication(system, policy)
        return self._evaluate(
            identity, system, policy, seed, percentiles, measure, key
        )

    def evaluate_seeds(
        self,
        system: SystemRef,
        policy,
        seeds: Sequence[int],
        percentile: float | Sequence[float],
        measure: Sequence[str] = DEFAULT_MEASURE,
    ) -> list[Handle]:
        """The figure drivers' shape: one policy, seed-paired replications."""
        scalar = isinstance(percentile, (int, float)) and not isinstance(
            percentile, bool
        )
        pcts = (percentile,) if scalar else tuple(percentile)
        policy, identity = self._replication(system, policy)
        return [
            self._evaluate(identity, system, policy, s, pcts, measure, None)
            for s in seeds
        ]

    @staticmethod
    def _replication(system: SystemRef, policy) -> tuple[Any, tuple]:
        """``policy`` as a :class:`Ref` or a value, and the (system,
        policy) identity every seed of it shares — fingerprinted once per
        declaration, not once per seed."""
        if isinstance(policy, Handle):
            policy = policy.ref()
        pol_id = (
            ("ref", policy.key, policy.project)
            if isinstance(policy, Ref)
            else ("val", fingerprint(policy))
        )
        return policy, (fingerprint(system), pol_id)

    def _evaluate(
        self,
        identity: tuple,
        system: SystemRef,
        policy,
        seed: int,
        percentiles: Sequence[float],
        measure: Sequence[str],
        key: str | None,
    ) -> Handle:
        from .cells import evaluate_replication

        self._eval_requests += 1
        identity = (*identity, int(seed))
        existing = self._eval_index.get(identity)
        if existing is not None:
            cell = self._cells[existing]
            cell.params["percentiles"] = tuple(
                sorted(set(cell.params["percentiles"]) | set(percentiles))
            )
            cell.params["measure"] = tuple(
                sorted(set(cell.params["measure"]) | set(measure))
            )
            return Handle(existing)
        key = key or f"eval/{len(self._eval_index)}/{system.label}/s{seed}"
        handle = self.cell(
            key,
            evaluate_replication,
            kind="eval",
            system=system,
            policy=policy,
            seed=int(seed),
            percentiles=tuple(sorted(set(percentiles))),
            measure=tuple(sorted(set(measure))),
        )
        self._eval_index[identity] = key
        return handle

    def median_tail_cell(
        self, key: str, runs: Sequence[Handle], percentile: float
    ) -> Handle:
        """A reduce cell computing median (tail, rate) — for when another
        *cell* (not just render) needs the aggregate, e.g. budget search
        baselines."""
        from .cells import median_tail_reduce

        return self.reduce(
            key, median_tail_reduce, runs=tuple(runs), percentile=percentile
        )

    def build(self, render: Callable[[Results], Any]) -> ExperimentSpec:
        return ExperimentSpec(
            experiment_id=self.experiment_id,
            title=self.title,
            cells=list(self._cells.values()),
            render=render,
            stats={
                "eval_requests": self._eval_requests,
                "eval_requests_merged": self._eval_requests
                - len(self._eval_index),
            },
        )
