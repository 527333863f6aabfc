"""Online hedging runtime: the paper's policies in a live request path.

Everything else in this repository evaluates reissue policies inside the
offline discrete-event simulator. :mod:`repro.serving` is the production
side of that coin — an asyncio runtime that executes
:class:`repro.core.policies.ReissuePolicy` objects against *live*,
pluggable asynchronous backends:

* :mod:`~repro.serving.backends` — the :class:`AsyncBackend` protocol and
  adapters over the Redis set-intersection and Lucene search substrates
  plus synthetic :class:`~repro.distributions.base.Distribution`-driven
  (optionally drifting) backends.
* :mod:`~repro.serving.hedge` — :class:`HedgedClient`, the concurrent
  request path: primary dispatch, policy-armed reissue timers,
  first-response-wins cancellation, deadlines and admission control.
* :mod:`~repro.serving.metrics` — streaming telemetry on the t-digest
  sketch (live p50/p99/p99.9, reissue rate, cancellation wins).
* :mod:`~repro.serving.autotune` — feeds observed samples back into
  :class:`repro.core.online.OnlinePolicyController` so the running policy
  re-fits under drift.
* :mod:`~repro.serving.fleet` — :class:`ServingFleet`, the one front
  door: pluggable selection over live :class:`Shard` s, shed/error
  accounting, merged telemetry, and a shared :class:`PolicyStore` that
  propagates :class:`AutoTuner` refits fleet-wide. :class:`ShardWorker`
  is the in-loop shard (a :class:`HedgedClient` + admission control).
* :mod:`~repro.serving.procfleet` — the socket shard
  (:class:`WorkerHandle`: a worker *process* with its own event loop
  behind JSON frames on a Unix/TCP socket), the cross-process
  :class:`PolicyStoreServer` / :class:`RemotePolicyStore` (each request
  frame carries the store version, so a worker calls the store only
  after a publish), and :class:`ProcessFleet`, which spawns the workers
  for that front door.
* :mod:`~repro.serving.loadgen` — closed- vs open-loop
  :class:`LoadGenerator` driving a fleet at a target RPS, plus the
  loadgen record schema.
* :mod:`~repro.serving.chaos` — :class:`ChaosBackend` fault injection
  (latency spikes, error bursts, blackouts, clock skew) for hardening
  tests and degradation demos.
* :mod:`~repro.serving.cli` — the ``repro loadgen`` command, the one
  CLI for live traffic.
"""

from .autotune import AutoTuner
from .backends import (
    AsyncBackend,
    BackendResponse,
    DriftingBackend,
    RedisBackend,
    SearchBackend,
    SimulatedBackend,
    SyntheticBackend,
    WorkloadBackend,
)
from .chaos import ChaosBackend, ChaosError
from .fleet import (
    SHARD_SELECTORS,
    PolicyStore,
    ServingFleet,
    Shard,
    ShardWorker,
    make_selector,
)
from .hedge import HedgedClient, RequestOutcome
from .loadgen import LoadGenerator, LoadgenResult, as_record, validate_record
from .metrics import MetricsSnapshot, ServingMetrics
from .procfleet import (
    TRANSPORTS,
    PolicyStoreServer,
    ProcessFleet,
    RemotePolicyStore,
    WorkerHandle,
)

__all__ = [
    "AsyncBackend",
    "AutoTuner",
    "BackendResponse",
    "ChaosBackend",
    "ChaosError",
    "DriftingBackend",
    "HedgedClient",
    "LoadGenerator",
    "LoadgenResult",
    "MetricsSnapshot",
    "PolicyStore",
    "PolicyStoreServer",
    "ProcessFleet",
    "RedisBackend",
    "RemotePolicyStore",
    "RequestOutcome",
    "SHARD_SELECTORS",
    "SearchBackend",
    "ServingFleet",
    "ServingMetrics",
    "Shard",
    "ShardWorker",
    "SimulatedBackend",
    "SyntheticBackend",
    "TRANSPORTS",
    "WorkerHandle",
    "as_record",
    "make_selector",
    "validate_record",
]
