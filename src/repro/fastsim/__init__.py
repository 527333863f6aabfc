"""repro.fastsim — the fast replication kernel for the §5 engine.

The discrete-event cluster simulation is the inner loop of every paper
figure: each plotted point is a median over seed-paired replications, and
each budget grid multiplies that again. ``fastsim`` makes replications
cheap:

* all randomness is pre-drawn per replication in one fixed protocol
  order (:func:`repro.simulation.engine.draw_replication_inputs`) with
  vectorized draws, so the hot loop performs no per-event generator
  calls for the default uniform-random balancer;
* the statically known events (arrivals and reissue-timer checks) are
  bulk-built and stable-sorted as arrays up front — the remaining
  scalar event loop's dynamic heap only ever holds at most one
  departure per server;
* per-query Python objects (``Request``/``Server``) are replaced by flat
  contiguous state — lists indexed by server id on the ``numpy`` tier,
  structured arrays with no Python objects at all on the ``compiled``
  tier (``_core.c``, built once per machine with the system ``cc`` and
  loaded with ctypes; :mod:`repro.fastsim._core` is its Python twin),
  behind a ``compiled`` → ``numpy`` → ``reference`` dispatcher
  (:mod:`repro.fastsim.kernel`, overridable via ``REPRO_KERNEL``).

Every tier is bit-for-bit equivalent to
:func:`repro.simulation.engine.simulate_cluster_reference` for a fixed
seed (``tests/test_fastsim_equivalence.py`` enforces this across the
policy × discipline × balancer × cancellation matrix, per tier).
"""

from .batch import ReplicationSpec, run_replications, simulate_batch
from .kernel import (
    TIERS,
    kernel_info,
    resolve_tier,
    simulate_replication,
    simulate_replication_tiered,
    tier_counts,
)

__all__ = [
    "ReplicationSpec",
    "TIERS",
    "kernel_info",
    "resolve_tier",
    "run_replications",
    "simulate_batch",
    "simulate_replication",
    "simulate_replication_tiered",
    "tier_counts",
]
