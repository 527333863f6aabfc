"""Streaming telemetry for the hedging runtime.

Latencies flow into a :class:`repro.structures.tdigest.TDigest`: live
quantiles at any ``p``, tight in the tails, mergeable across
clients/shards. Snapshots and reports read from it.

Counters track the hedging-specific events: reissues sent, races won by
the reissue (a "cancellation win" — the primary was cancelled), deadline
misses, and cancelled attempts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..structures.tdigest import TDigest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .hedge import RequestOutcome

#: Percentiles a ``snapshot()`` reports by default.
DEFAULT_PERCENTILES = (0.50, 0.99, 0.999)


@dataclass(frozen=True)
class MetricsSnapshot:
    """A point-in-time view of the live telemetry."""

    completed: int
    reissues_sent: int
    reissue_rate: float
    policy_reissue_rate: float
    reissue_wins: int
    cancelled_attempts: int
    deadline_exceeded: int
    probes: int
    quantiles: Mapping[float, float] = field(default_factory=dict)

    def render(self) -> str:
        """A compact one-report table of this snapshot."""
        lines = [
            f"  requests completed   {self.completed:>10d}",
            f"  reissues sent        {self.reissues_sent:>10d}"
            f"  (rate {self.reissue_rate:.3f})",
            f"  policy reissue rate  {self.policy_reissue_rate:>10.3f}"
            "  (vs budget; probes excluded)",
            f"  reissue wins         {self.reissue_wins:>10d}",
            f"  cancelled attempts   {self.cancelled_attempts:>10d}",
            f"  deadline misses      {self.deadline_exceeded:>10d}",
        ]
        for p, v in sorted(self.quantiles.items()):
            lines.append(f"  p{100 * p:<6g}             {v:>10.2f} ms")
        return "\n".join(lines)


class ServingMetrics:
    """Streaming latency and budget telemetry for a :class:`HedgedClient`."""

    def __init__(
        self,
        percentiles=DEFAULT_PERCENTILES,
        compression: float = 200.0,
    ):
        for p in percentiles:
            if not 0.0 < p < 1.0:
                raise ValueError(f"percentile must be in (0, 1), got {p}")
        self.digest = TDigest(compression)
        self.percentiles = tuple(float(p) for p in percentiles)
        self.completed = 0
        self.reissues_sent = 0
        self.reissue_wins = 0
        self.cancelled_attempts = 0
        self.deadline_exceeded = 0
        self.probes = 0

    # -- recording ----------------------------------------------------------
    def record(self, outcome: "RequestOutcome") -> None:
        """Fold one finished request into the sketches and counters."""
        self.record_latency(outcome.latency_ms)
        self.reissues_sent += outcome.n_reissues
        self.cancelled_attempts += outcome.cancelled_attempts
        if outcome.winner == "reissue" and outcome.cancelled_attempts > 0:
            # A cancellation win: the reissue answered first and the
            # primary was actually cancelled. Probes (nothing cancelled)
            # don't count, whichever attempt was faster.
            self.reissue_wins += 1
        if outcome.deadline_exceeded:
            self.deadline_exceeded += 1
        if outcome.pair is not None:
            self.probes += 1

    def record_latency(self, latency_ms: float) -> None:
        latency_ms = float(latency_ms)
        if latency_ms < 0.0:
            raise ValueError("latency must be >= 0")
        self.completed += 1
        self.digest.add(latency_ms)

    # -- queries ------------------------------------------------------------
    @property
    def reissue_rate(self) -> float:
        """Measured reissues per completed request — the live budget."""
        if self.completed == 0:
            return 0.0
        return self.reissues_sent / self.completed

    @property
    def policy_reissue_rate(self) -> float:
        """Reissue rate excluding measurement probes — policy reissues
        per policy-served request, comparable to the configured budget
        ``B``. Probes are removed from both numerator and denominator;
        dividing by all completions would understate the policy's spend
        by a factor of ``1 - probe_fraction``."""
        policy_served = self.completed - self.probes
        if policy_served <= 0:
            return 0.0
        return (self.reissues_sent - self.probes) / policy_served

    def quantile(self, p: float) -> float:
        """Latency quantile from the t-digest (any ``p``, tail-accurate)."""
        return self.digest.quantile(p)

    def snapshot(self) -> MetricsSnapshot:
        quantiles = {}
        if self.completed:
            quantiles = {p: self.digest.quantile(p) for p in self.percentiles}
        return MetricsSnapshot(
            completed=self.completed,
            reissues_sent=self.reissues_sent,
            reissue_rate=self.reissue_rate,
            policy_reissue_rate=self.policy_reissue_rate,
            reissue_wins=self.reissue_wins,
            cancelled_attempts=self.cancelled_attempts,
            deadline_exceeded=self.deadline_exceeded,
            probes=self.probes,
            quantiles=quantiles,
        )

    def merge_digest(self, other: "ServingMetrics") -> TDigest:
        """Merged latency digest across two clients (e.g. two shards)."""
        return self.digest.merge(other.digest)

    def merge(self, other: "ServingMetrics") -> "ServingMetrics":
        """A new ``ServingMetrics`` combining two shards' telemetry.

        Counters add exactly: the merged object's ``completed``,
        ``reissues_sent``, wins, cancellations, misses, and probes equal
        a single client that served both streams. The latency digest is
        the t-digest merge, so ``quantile()`` matches a single client
        that saw the combined stream within the sketch's tolerance at
        the default compression — about 1% relative error through the
        99th percentile, a few percent at p999 where centroid weights
        thin out (the cross-shard test pins both bounds). The merged
        object reports the union of both sides' ``percentiles``.
        """
        out = ServingMetrics(
            percentiles=sorted({*self.percentiles, *other.percentiles}),
            compression=max(self.digest.compression, other.digest.compression),
        )
        out.digest = self.digest.merge(other.digest)
        for name in (
            "completed",
            "reissues_sent",
            "reissue_wins",
            "cancelled_attempts",
            "deadline_exceeded",
            "probes",
        ):
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out
