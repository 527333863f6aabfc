"""In-memory set store: the Redis substrate's data plane (paper §6.2).

The paper's Redis workload intersects randomly chosen pairs from a corpus
of 1000 integer sets whose cardinalities follow a lognormal distribution.
Most intersections are cheap; the handful that touch two huge sets are the
"queries of death" that dominate the 99th-percentile latency.

This module provides:

* :class:`SetStore` — a real store mapping keys to sorted integer arrays
  with an executable ``sinter`` (merge-style intersection, the same
  algorithm Redis uses on sorted encodings).
* :class:`SetCorpusConfig` / :func:`SetStore.build_synthetic` — the
  synthetic corpus generator, calibrated so the service-time profile
  matches the paper's measurements (mean ≈ 2.37 ms, std ≈ 8.6 ms, a few
  queries per 40 000 above 150 ms).
* :class:`SetIntersectionWorkload` — a query-trace generator exposing the
  ``ServiceModel`` interface the discrete-event engine consumes: primary
  service times come from the store's cost model, and a reissue executes
  the *same* intersection on a replica, so its service time is identical
  (service-time correlation is 1; the tail relief comes from escaping a
  blocked queue, exactly as in the real system).

Cost model
----------
Redis's ``SINTER`` sorts its operands by cardinality, iterates the
*smallest* set and probes the others (``sinterGenericCommand`` in t_set.c).
The work is therefore ``Θ(min(|A|, |B|))`` membership probes, and we map
work to time as ``t = overhead_ms + min(|A|, |B|) / elements_per_ms``.

The min-cost structure is what makes the paper's tail anatomy possible:
a huge set intersected with a small one is *cheap* (the small side drives
the cost), so only the rare pairing of **two** abnormally large sets — the
paper's "queries of death" — is slow. That is exactly the case §6.2
describes, and it is the only corpus shape under which the reported
moments (mean ≈ 2.37 ms), the "≈20 of 40 000 queries above 150 ms" count,
and the 900 ms no-reissue P99 can coexist. The defaults reproduce this
profile; the fig9 driver prints measured-vs-paper moments (Fig. 9 row of
docs/paper_map.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributions.base import RngLike, as_rng


@dataclass(frozen=True)
class SetCorpusConfig:
    """Parameters of the synthetic 1000-set corpus (§6.2).

    Attributes
    ----------
    n_sets:
        Number of stored sets (paper: 1000).
    universe:
        Set members are integers in ``[1, universe]`` (paper: 1e6).
    median_cardinality, sigma:
        Cardinalities are drawn ``round(LogNormal(ln(median), sigma))``;
        the defaults put ≈20 of 40 000 random pair intersections above
        150 ms under the default cost model, matching the paper's
        "queries of death" count.
    max_cardinality:
        Hard cap so a single set cannot exceed the universe.
    """

    n_sets: int = 1000
    universe: int = 1_000_000
    median_cardinality: float = 800.0
    sigma: float = 2.4
    max_cardinality: int = 900_000

    def __post_init__(self):
        if self.n_sets < 2:
            raise ValueError("n_sets must be >= 2")
        if self.universe < 2:
            raise ValueError("universe must be >= 2")
        if self.median_cardinality <= 0:
            raise ValueError("median_cardinality must be > 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.max_cardinality > self.universe:
            raise ValueError("max_cardinality cannot exceed universe")


class SetStore:
    """A dictionary of sorted ``int64`` arrays with Redis-style commands.

    Keys are strings (``"set:<i>"`` for synthetic corpora). Arrays are
    stored sorted and deduplicated so ``sinter`` is a linear merge and
    membership is a binary search, mirroring Redis's sorted-set encoding.
    """

    def __init__(self, overhead_ms: float = 0.08, elements_per_ms: float = 550.0):
        if overhead_ms < 0:
            raise ValueError("overhead_ms must be >= 0")
        if elements_per_ms <= 0:
            raise ValueError("elements_per_ms must be > 0")
        self._sets: dict[str, np.ndarray] = {}
        self.overhead_ms = float(overhead_ms)
        self.elements_per_ms = float(elements_per_ms)

    # -- commands -----------------------------------------------------------
    def sadd(self, key: str, members) -> int:
        """Add members to the set at ``key``; returns the new cardinality."""
        new = np.unique(np.asarray(members, dtype=np.int64))
        if key in self._sets:
            new = np.union1d(self._sets[key], new)
        self._sets[key] = new
        return int(new.size)

    def scard(self, key: str) -> int:
        """Cardinality of the set at ``key`` (0 if absent)."""
        arr = self._sets.get(key)
        return 0 if arr is None else int(arr.size)

    def sismember(self, key: str, member: int) -> bool:
        """Membership test via binary search on the sorted encoding."""
        arr = self._sets.get(key)
        if arr is None or arr.size == 0:
            return False
        i = int(np.searchsorted(arr, member))
        return i < arr.size and int(arr[i]) == int(member)

    def sinter(self, key_a: str, key_b: str) -> np.ndarray:
        """Execute the intersection (both operands must exist)."""
        a, b = self._require(key_a), self._require(key_b)
        return np.intersect1d(a, b, assume_unique=True)

    def sinter_card(self, key_a: str, key_b: str) -> int:
        """Cardinality of the intersection without materializing it."""
        return int(self.sinter(key_a, key_b).size)

    def keys(self) -> list[str]:
        return sorted(self._sets)

    def __len__(self) -> int:
        return len(self._sets)

    def __contains__(self, key: str) -> bool:
        return key in self._sets

    # -- cost model ----------------------------------------------------------
    def intersection_cost_ms(self, key_a: str, key_b: str) -> float:
        """Service ms for ``SINTER key_a key_b``: probes over the smaller set."""
        work = min(self.scard(key_a), self.scard(key_b))
        return self.overhead_ms + work / self.elements_per_ms

    def cost_ms_from_cardinalities(self, card_a, card_b) -> np.ndarray:
        """Vectorized cost model over cardinality pairs."""
        card_a = np.asarray(card_a, dtype=np.float64)
        card_b = np.asarray(card_b, dtype=np.float64)
        work = np.minimum(card_a, card_b)
        return self.overhead_ms + work / self.elements_per_ms

    def cardinalities(self) -> np.ndarray:
        """All stored cardinalities in key order."""
        return np.array([self._sets[k].size for k in self.keys()], dtype=np.int64)

    def _require(self, key: str) -> np.ndarray:
        arr = self._sets.get(key)
        if arr is None:
            raise KeyError(f"no such set: {key!r}")
        return arr

    # -- synthetic corpus ------------------------------------------------------
    @classmethod
    def build_synthetic(
        cls,
        config: SetCorpusConfig | None = None,
        rng: RngLike = None,
        materialize: bool = True,
        overhead_ms: float = 0.08,
        elements_per_ms: float = 550.0,
    ) -> "SetStore":
        """Build the §6.2 corpus: ``n_sets`` lognormal-cardinality sets.

        With ``materialize=False`` only cardinalities are recorded (as
        empty-keyed metadata is useless, we still materialize but sample
        members lazily per set); materializing 1000 sets with the default
        parameters allocates on the order of a few million int64s, which is
        fine on any laptop.
        """
        config = config or SetCorpusConfig()
        rng = as_rng(rng)
        store = cls(overhead_ms=overhead_ms, elements_per_ms=elements_per_ms)
        cards = sample_cardinalities(config, config.n_sets, rng)
        for i, c in enumerate(cards):
            key = f"set:{i:04d}"
            if materialize:
                members = rng.choice(config.universe, size=int(c), replace=False) + 1
                store._sets[key] = np.sort(members.astype(np.int64))
            else:
                # Store a compact arange stand-in with the right cardinality;
                # costs (which depend only on cardinality) are unaffected.
                store._sets[key] = np.arange(int(c), dtype=np.int64)
        return store


def sample_cardinalities(
    config: SetCorpusConfig, n: int, rng: RngLike = None
) -> np.ndarray:
    """Draw ``n`` lognormal set cardinalities, clipped to the config cap."""
    rng = as_rng(rng)
    raw = rng.lognormal(np.log(config.median_cardinality), config.sigma, size=n)
    return np.clip(np.round(raw), 1, config.max_cardinality).astype(np.int64)


class SetIntersectionWorkload:
    """Query-trace generator exposing the engine's ``ServiceModel`` protocol.

    Each query intersects a uniformly random pair of distinct sets. The
    primary service time is the store's cost model evaluated on the pair;
    a reissue runs the same intersection on a replica, so
    ``sample_reissue(x) = x`` — deterministic service-time correlation, as
    in the real system where the work is identical on every replica.
    """

    def __init__(self, store: SetStore):
        if len(store) < 2:
            raise ValueError("store must contain at least two sets")
        self.store = store
        self._keys = store.keys()
        self._cards = store.cardinalities().astype(np.float64)
        self._frozen_costs: np.ndarray | None = None

    def freeze_trace(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Fix the query trace: subsequent ``sample_primary`` replays it.

        The paper executes one fixed 40 000-intersection trace and reports
        medians over repeated executions — the *trace* (and hence the
        population of queries of death) is held constant while arrival
        times and policy coin flips vary. Freezing reproduces that
        protocol; without it the count and depth of queries of death is
        redrawn every run and the P99 comparison becomes a lottery.
        """
        pairs = self.sample_pairs(n, as_rng(rng))
        self._frozen_costs = self.store.cost_ms_from_cardinalities(
            self._cards[pairs[:, 0]], self._cards[pairs[:, 1]]
        )
        return self._frozen_costs

    def thaw_trace(self) -> None:
        """Return to drawing a fresh trace on every ``sample_primary``."""
        self._frozen_costs = None

    def sample_pairs(self, n: int, rng: RngLike = None) -> np.ndarray:
        """``(n, 2)`` indices of distinct random set pairs."""
        rng = as_rng(rng)
        m = len(self._keys)
        a = rng.integers(0, m, size=n)
        b = rng.integers(0, m - 1, size=n)
        b = np.where(b >= a, b + 1, b)  # distinct without rejection
        return np.column_stack([a, b])

    def sample_primary(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Service times (ms) of ``n`` intersection queries.

        Replays the frozen trace when one is set (tiling if ``n`` exceeds
        its length); otherwise draws a fresh random trace.
        """
        if self._frozen_costs is not None:
            reps = -(-n // self._frozen_costs.size)  # ceil division
            return np.tile(self._frozen_costs, reps)[:n].copy()
        pairs = self.sample_pairs(n, rng)
        return self.store.cost_ms_from_cardinalities(
            self._cards[pairs[:, 0]], self._cards[pairs[:, 1]]
        )

    def sample_reissue(self, x, rng: RngLike = None) -> np.ndarray:
        """Replica executes the identical intersection: same service time."""
        return np.asarray(x, dtype=np.float64).copy()

    def mean_service(self) -> float:
        """Exact mean of the cost model over the stored corpus.

        Over uniform distinct pairs, sorting cardinalities ascending makes
        ``c_(i)`` the pair minimum for exactly ``n - 1 - i`` partners, so
        ``E[min] = (2 / (n (n-1))) * sum_i c_(i) * (n - 1 - i)``. When a
        trace is frozen, the mean of the frozen costs is used instead (the
        arrival rate should match the trace actually executed). Exactness
        matters for utilization targeting with heavy-tailed cardinalities.
        """
        if self._frozen_costs is not None:
            return float(self._frozen_costs.mean())
        c = np.sort(self._cards)
        n = c.size
        weights = n - 1 - np.arange(n, dtype=np.float64)
        e_min = float(np.dot(c, weights)) * 2.0 / (n * (n - 1))
        return float(self.store.overhead_ms + e_min / self.store.elements_per_ms)

    def execute(self, pair, rng: RngLike = None) -> np.ndarray:
        """Actually run one intersection (for end-to-end example realism)."""
        i, j = int(pair[0]), int(pair[1])
        return self.store.sinter(self._keys[i], self._keys[j])
