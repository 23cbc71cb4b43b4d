"""Process-wide metrics registry: counters, gauges, fixed-bucket
histograms.

The same instrumentation sites that emit spans feed this registry; it
aggregates across queries where a :class:`~repro.obs.trace.QueryTrace`
describes exactly one.  Everything is chosen for the repo's two
standing contracts:

* **Deterministic.**  Counter and gauge values on a fixed-seed workload
  are byte-reproducible across runs and ``PYTHONHASHSEED`` values.
  Histograms store *bucket counts only* against fixed power-of-two
  bounds — no floating-point sums whose value depends on observation
  order — so merging worker snapshots is commutative and associative,
  matching ``ExecutionStats.merge``.  Duration-valued metrics are
  reproducible in shape (which buckets exist) but not in count; the
  determinism tests skip names ending in ``_ms``.
* **Pay-for-what-you-use.**  Sites guard on :data:`ENABLED` before
  calling into the registry; a disabled registry costs one attribute
  load and a branch.  ``ops`` counts every mutation, i.e. the guarded
  sites an enabled run passed.

Snapshots are plain dicts (sorted keys) that travel over the worker
pipes; :func:`MetricsRegistry.merge_snapshot` folds a worker's
delta into the coordinator registry.
"""

from __future__ import annotations

__all__ = [
    "ENABLED",
    "set_enabled",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "diff_snapshots",
    "render_report",
]

#: Master switch, mirrored by ``repro.obs.set_enabled``.  Sites check
#: this once before touching :data:`REGISTRY`.
ENABLED = False


def set_enabled(on: bool = True) -> None:
    global ENABLED
    ENABLED = bool(on)


class Histogram:
    """Fixed-bucket histogram holding counts only.

    Bounds are powers of two from 1 up to ``2**max_exp`` plus an
    overflow bucket, fixed at construction — observation order can
    never change the stored state, so merge is plain per-bucket
    addition.  Values are scaled by the caller (durations arrive as
    microseconds, sizes as raw counts).
    """

    __slots__ = ("bounds", "counts", "observations")

    def __init__(self, max_exp: int = 24) -> None:
        self.bounds = tuple(1 << exp for exp in range(max_exp + 1))
        self.counts = [0] * (len(self.bounds) + 1)
        self.observations = 0

    def observe(self, value: float) -> None:
        self.observations += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def merge_counts(self, counts) -> None:
        own = self.counts
        for index, count in enumerate(counts):
            if count:
                own[index] += count
        self.observations += sum(counts)

    def nonzero(self) -> dict:
        """``{"<=bound" | ">max": count}`` for populated buckets only."""
        out = {}
        for index, count in enumerate(self.counts[:-1]):
            if count:
                out[f"<={self.bounds[index]}"] = count
        if self.counts[-1]:
            out[f">{self.bounds[-1]}"] = self.counts[-1]
        return out


class MetricsRegistry:
    """Named counters / gauges / histograms behind one mutation gate.

    ``ops`` counts every mutation that got past the :data:`ENABLED`
    guard.
    """

    __slots__ = ("counters", "gauges", "histograms", "ops")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.ops = 0

    # -- recording ------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        self.ops += 1
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.ops += 1
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        self.ops += 1
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # -- export / merge -------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict view with sorted keys (picklable, JSON-safe)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                name: list(self.histograms[name].counts)
                for name in sorted(self.histograms)
            },
            "ops": self.ops,
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a worker-side snapshot (or delta) into this registry.

        Counters and histogram buckets add, gauges take the max —
        all commutative and associative, so the coordinator may fold
        worker deltas in any chunk-completion order and still end at
        the same state (mirrors ``ExecutionStats.merge``).
        """
        for name in sorted(snapshot.get("counters", {})):
            value = snapshot["counters"][name]
            if value:
                self.counters[name] = self.counters.get(name, 0) + value
        for name in sorted(snapshot.get("gauges", {})):
            value = snapshot["gauges"][name]
            if name not in self.gauges or value > self.gauges[name]:
                self.gauges[name] = value
        for name in sorted(snapshot.get("histograms", {})):
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.merge_counts(snapshot["histograms"][name])
        self.ops += snapshot.get("ops", 0)

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.ops = 0


#: The process registry every instrumentation site records into.
REGISTRY = MetricsRegistry()


def diff_snapshots(before: dict, after: dict) -> dict:
    """The workload delta between two :meth:`snapshot` calls.

    Counters and histogram buckets subtract, gauges keep their final
    value.  The result is itself a valid snapshot — feeding it to
    :meth:`MetricsRegistry.merge_snapshot` replays exactly the
    workload's contribution, which is how worker deltas travel to the
    coordinator.
    """
    counters = {}
    for name in sorted(after.get("counters", {})):
        delta = after["counters"][name] - before.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = delta
    histograms = {}
    for name in sorted(after.get("histograms", {})):
        after_counts = after["histograms"][name]
        before_counts = before.get("histograms", {}).get(name)
        if before_counts is None:
            deltas = list(after_counts)
        else:
            deltas = [a - b for a, b in zip(after_counts, before_counts)]
        if any(deltas):
            histograms[name] = deltas
    return {
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),
        "histograms": histograms,
        "ops": after.get("ops", 0) - before.get("ops", 0),
    }


def render_report(snapshot: dict, title: str = "metrics") -> str:
    """Human-readable workload report for ``repro stats``."""
    lines = [f"== {title} =="]
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {gauges[name]:g}")
    histograms = snapshot.get("histograms", {})
    shown = False
    for name in sorted(histograms):
        histogram = Histogram()
        histogram.merge_counts(histograms[name])
        buckets = histogram.nonzero()
        if not buckets:
            continue
        if not shown:
            lines.append("histograms:")
            shown = True
        rendered = "  ".join(f"{k}:{v}" for k, v in buckets.items())
        lines.append(f"  {name}  n={histogram.observations}  {rendered}")
    if len(lines) == 1:
        lines.append("(empty)")
    return "\n".join(lines)
