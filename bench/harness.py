"""Shared pieces of the benchmark: percentiles, spans, timing, environment.

Everything here is benchmark-side: nothing in ``src/`` is touched, the
layers are timed from outside through their public functions.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Smoke runs shrink every input by this factor.
SMOKE_DIVISOR = 20


def load_spec() -> dict:
    with SPEC_PATH.open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(samples, p: float, min_beyond: int = 10) -> float:
    """The ``p``-quantile (higher rule) of ``samples``.

    Refuses a percentile with fewer than ``min_beyond`` samples beyond
    it: a p99 read off 200 samples is the second-largest value, which
    says nothing about the tail.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {p}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(math.ceil(p * n), 1)
    if n - rank < min_beyond:
        raise ValueError(
            f"p{100 * p:g} of {n} samples leaves {n - rank} beyond it; "
            f"need at least {min_beyond}"
        )
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Spans:
    """In-memory span recorder: id, name, start, end, parent, op.

    ``span()`` nests through a stack, which is right for synchronous
    code; the asyncio workloads interleave requests on one thread, so
    they call :meth:`begin`/:meth:`end` with an explicit ``parent``.
    """

    enabled = True

    def __init__(self):
        self.rows: list[list] = []
        self._stack: list[int] = []

    def begin(self, name, parent=None, op=None, start=None) -> int:
        span_id = len(self.rows)
        if start is None:
            start = time.perf_counter()
        self.rows.append([span_id, name, start, None, parent, op])
        return span_id

    def end(self, span_id: int) -> None:
        self.rows[span_id][3] = time.perf_counter()

    @contextmanager
    def span(self, name: str, op=None):
        parent = self._stack[-1] if self._stack else None
        span_id = self.begin(name, parent, op)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.end(span_id)

    def write_jsonl(self, path: Path) -> int:
        keys = ("id", "name", "start", "end", "parent", "op")
        with path.open("w") as fh:
            for row in self.rows:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")
        return len(self.rows)

    def self_times(self, name: str) -> list[float]:
        """Each ``name`` span's duration minus the part of that interval
        its child spans cover (children may overlap: a hedged request's
        primary and reissue attempts do). Spans a timed-out phase left
        open are skipped."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in self.rows:
            if parent is not None and end is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for span_id, span_name, start, end, _, _ in self.rows:
            if span_name != name or end is None:
                continue
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out


class NullSpans:
    """Tracing off: nothing stored, ``span()`` is a shared no-op."""

    enabled = False
    rows: tuple = ()

    def span(self, name: str, op=None):
        return nullcontext()

    def begin(self, name, parent=None, op=None, start=None):
        return None

    def end(self, span_id) -> None:
        pass


# ---------------------------------------------------------------------------
# Timing helpers
# ---------------------------------------------------------------------------


def time_call(fn, *args, **kwargs) -> tuple[float, object]:
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def per_call_us(fn, calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean microseconds per ``fn()`` in a
    tight loop of ``calls`` — for layer probes too short to time singly."""
    means = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        means.append((time.perf_counter() - t0) / calls * 1e6)
    return median(means)


class Rounds:
    """The rounds of one measuring pass, and the samples they produce.

    A workload interleaves its phases round by round so that each
    metric's repeats are spread over the whole pass: this box's speed
    drifts by 10% and more over tens of seconds, and a phase measured in
    one block would sample one state of that drift. Iterating runs at
    least ``min_rounds``, then goes on while at least half of the
    previous round's duration is left in the budget.
    """

    def __init__(self, budget_s: float, min_rounds: int):
        self.budget_s = budget_s
        self.min_rounds = min_rounds
        self.number = 0
        self.samples: dict[str, list[tuple[int, float]]] = {}
        self.steal: list[int] = []

    def __iter__(self):
        end = time.perf_counter() + self.budget_s
        last = 0.0
        while (
            self.number < self.min_rounds
            or end - time.perf_counter() > 0.5 * last
        ):
            t0, steal0 = time.perf_counter(), steal_ticks()
            yield self.number
            last = time.perf_counter() - t0
            self.steal.append(0 if steal0 is None else steal_ticks() - steal0)
            self.number += 1

    def add(self, name: str, *values: float) -> None:
        """Record samples of the round in progress."""
        self.samples.setdefault(name, []).extend(
            (self.number, value) for value in values
        )

    def per_round(
        self, name: str, summary=median, block: int | None = None
    ) -> list[float]:
        """``summary`` of each round's ``name`` samples (rounds in which a
        hung phase produced none are left out). With ``block``, of each
        run of ``block`` consecutive samples within a round instead; a
        round's remainder is dropped, a round shorter than one block
        (smoke runs) is one block."""
        by_round: dict[int, list[float]] = {}
        for number, value in self.samples[name]:
            by_round.setdefault(number, []).append(value)
        out = []
        for _, values in sorted(by_round.items()):
            size = min(block or len(values), len(values))
            out.extend(
                summary(values[i : i + size])
                for i in range(0, len(values) - size + 1, size)
            )
        return out

    def best(
        self,
        name: str,
        summary=median,
        higher: bool = False,
        block: int | None = None,
    ) -> float:
        """The best round's — or best block's — ``summary``.

        Interference on this box is one-sided and comes in bursts from a
        fraction of a second to minutes; a real slowdown moves the best
        reading as well. The shorter the stretch a reading needs, the
        likelier a run holds a quiet one: over forty stretches of 700
        warm replays of one commit the best round of 100 spread 9% at
        the median and 23% at p90, the best block of 50 spread 9% at p80;
        800-fit rounds spread 18% at p95, 100-fit blocks 6% at p90. So
        per-operation samples are summarised in blocks no longer than
        the percentile needs to keep ten samples beyond it.
        """
        values = self.per_round(name, summary, block)
        return max(values) if higher else min(values)

    def count(self, name: str) -> int:
        return len(self.samples[name])

    def table(self) -> dict:
        """Steal ticks and each sample name's median, round by round —
        kept in the result file so a noisy run can be read afterwards."""
        return {
            "steal_ticks": self.steal,
            **{name: self.per_round(name) for name in self.samples},
        }


# ---------------------------------------------------------------------------
# One run's bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """Arguments and counters of one benchmark run."""

    seed: int
    smoke: bool = False
    trace: bool = False
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    #: A traced run's untraced pass (end-to-end values), for the layers
    #: that state a residual against it.
    untraced: dict = field(default_factory=dict)

    def size(self, n: int) -> int:
        """``n`` at full size, a twentieth of it in a smoke run."""
        return max(n // SMOKE_DIVISOR, 1) if self.smoke else n

    @property
    def min_beyond(self) -> int:
        """Smoke and traced passes are too short for ten samples beyond a
        p99; their tails are indicative only and are never the gated
        end-to-end values."""
        return 0 if (self.smoke or self.trace) else 10

    def rounds(self, budget_s: float, min_rounds: int) -> Rounds:
        """Smoke runs and a traced run's passes make do with one round."""
        return Rounds(budget_s, 1 if self.smoke or self.trace else min_rounds)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, name: str, ok: bool) -> bool:
        """A correctness check is one attempted operation; a failing one
        is a failed operation and makes the run incorrect."""
        ok = bool(ok)
        self.checks[name] = ok
        self.ops(1, 0 if ok else 1)
        if not ok:
            print(f"CHECK FAILED: {name}", file=sys.stderr)
        return ok


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _child_pids() -> list[int]:
    """Live or unreaped processes whose parent is this process."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..."; comm may contain spaces.
                ppid = int(fh.read().rpartition(")")[2].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # gone between listdir and open
        if ppid == me:
            out.append(int(entry))
    return out


def stop_children() -> int:
    """Stop every process this one started and wait for each to end.

    ``ProcessFleet.close()`` joins its workers, but spawning them also
    starts ``multiprocessing``'s resource tracker, which ignores SIGTERM
    and only exits once its pipe closes — by default when this process
    is gone, so it outlived the benchmark by a moment. Close its pipe
    and reap it here; whatever else is still a child (a wedged worker)
    is killed. Returns how many had to be killed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for process in multiprocessing.active_children():  # reaps the finished
        process.join(timeout=5.0)
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()  # closes the pipe, then waitpid()s the tracker
        except (OSError, ChildProcessError):
            pass

    killed = 0
    for pid in _child_pids():
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
            if done == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                killed += 1
        except (ChildProcessError, ProcessLookupError):
            pass  # reaped by its owner in the meantime
    return killed


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def steal_ticks() -> int | None:
    """Cumulative CPU steal ticks from /proc/stat (None off Linux)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its waited-for children."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def environment() -> dict:
    """What the numbers were measured on; warns when the box is busy."""
    import numpy
    import scipy

    from repro.fastsim import kernel_info

    info = kernel_info()
    cpus = os.cpu_count() or 1
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = None
    if load1 is not None and load1 > cpus / 2:
        print(
            f"warning: 1-minute load average {load1:.2f} exceeds half of "
            f"{cpus} cpus; timings will be noisy",
            file=sys.stderr,
        )
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_version": info["numba_version"],
        "default_tier": info["default_tier"],
        "machine": platform.machine(),
        "loadavg_1m_start": load1,
    }
