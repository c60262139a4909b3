"""SLO specs + evaluation over :class:`MetricsRegistry` snapshots.

Objectives are declarative, immutable specs; evidence is *only* what the
metrics registry already exports.  The engine never touches the serving
stack or keeps ad-hoc timers: a driver captures
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` at window
boundaries, and :func:`evaluate` judges the deltas —

* the **full span** (first → last snapshot) decides pass/fail;
* every **adjacent-snapshot window** gets its own burn rate
  (measured / budget), so a short spike that the full span averages
  away still surfaces as a *burn alert* (multi-window burn-rate
  evaluation, the offline analogue of fast/slow-burn paging);
* a failed objective is **attributed**: the dominant stage of the
  span's ``repro_stage_seconds`` delta is named in the verdict, so "p95
  blew the budget" arrives as "…and 71% of stage time was ``forward``".

Counter deltas subtract; histogram deltas subtract per bucket (exact,
because every snapshot shares the fixed log-2 layout); gauges take the
end value.  Quantiles over delta histograms mirror
:meth:`~repro.obs.metrics.Histogram.quantile` (interpolate within the
bucket, clamp at the last bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tracing import STAGE_METRIC

__all__ = [
    "SLOCheck",
    "ObjectiveResult",
    "SLOVerdict",
    "SLOSpec",
    "LatencyQuantileSLO",
    "RatioSLO",
    "RecoveryTimeSLO",
    "shed_rate_slo",
    "deadline_miss_slo",
    "snapshot_delta",
    "counter_total",
    "histogram_quantile",
    "histogram_count",
    "stage_profile",
    "evaluate",
    "render_report",
]


# ----------------------------------------------------------------------
# Snapshot algebra: label-subset selection, deltas, quantiles.
# ----------------------------------------------------------------------

def _matches(labelnames: list, key: list, labels: dict) -> bool:
    """True when the series key agrees with the label subset."""
    for name, want in labels.items():
        if name not in labelnames:
            return False
        if key[labelnames.index(name)] != str(want):
            return False
    return True


def counter_total(snapshot: dict, name: str,
                  labels: dict | None = None) -> float:
    """Sum of every matching series (counter value or histogram sum)."""
    entry = snapshot.get(name)
    if entry is None:
        return 0.0
    total = 0.0
    for key, value in entry["series"]:
        if _matches(entry["labelnames"], key, labels or {}):
            total += value["sum"] if entry["kind"] == "histogram" else value
    return total


def _merged_histogram(snapshot: dict, name: str, labels: dict | None):
    """Matching histogram series folded together: (buckets, counts, count)."""
    entry = snapshot.get(name)
    if entry is None or entry["kind"] != "histogram":
        return None
    counts = None
    observed = 0
    for key, value in entry["series"]:
        if not _matches(entry["labelnames"], key, labels or {}):
            continue
        if counts is None:
            counts = [0] * len(value["counts"])
        for i, c in enumerate(value["counts"]):
            counts[i] += c
        observed += value["count"]
    if counts is None:
        return None
    return entry["buckets"], counts, observed


def histogram_count(snapshot: dict, name: str,
                    labels: dict | None = None) -> int:
    merged = _merged_histogram(snapshot, name, labels)
    return merged[2] if merged else 0


def histogram_quantile(snapshot: dict, name: str, q: float,
                       labels: dict | None = None) -> float:
    """q-quantile over matching series, interpolated within its bucket.

    Mirrors :meth:`~repro.obs.metrics.Histogram.quantile` over plain
    snapshot data; returns ``0.0`` when nothing was observed.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    merged = _merged_histogram(snapshot, name, labels)
    if merged is None or not merged[2]:
        return 0.0
    buckets, counts, observed = merged
    rank = q * observed
    cumulative = 0.0
    for index, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= rank:
            lo = buckets[index - 1] if index > 0 else 0.0
            hi = buckets[index] if index < len(buckets) else buckets[-1]
            fraction = (rank - cumulative) / bucket_count
            return lo + min(max(fraction, 0.0), 1.0) * (hi - lo)
        cumulative += bucket_count
    return buckets[-1]


def snapshot_delta(end: dict, start: dict) -> dict:
    """What happened between two snapshots, as a snapshot-shaped dict.

    Counters and histogram bucket counts subtract (clamped at zero —
    a series reset never produces negative rates); gauges keep the end
    value.  Series absent from ``start`` count from zero.
    """
    out: dict = {}
    for name, entry in end.items():
        base = start.get(name, {})
        base_series = {tuple(key): value
                       for key, value in base.get("series", [])}
        delta_entry = {"kind": entry["kind"], "help": entry["help"],
                       "labelnames": list(entry["labelnames"]),
                       "series": []}
        if entry["kind"] == "histogram":
            delta_entry["buckets"] = list(entry["buckets"])
        for key, value in entry["series"]:
            before = base_series.get(tuple(key))
            if entry["kind"] == "histogram":
                if before is None:
                    before = {"counts": [0] * len(value["counts"]),
                              "sum": 0.0, "count": 0}
                counts = [max(c - b, 0) for c, b in
                          zip(value["counts"], before["counts"])]
                delta_entry["series"].append([list(key), {
                    "counts": counts,
                    "sum": max(value["sum"] - before["sum"], 0.0),
                    "count": max(value["count"] - before["count"], 0),
                }])
            elif entry["kind"] == "counter":
                delta_entry["series"].append(
                    [list(key), max(value - (before or 0.0), 0.0)])
            else:  # gauge: point-in-time, delta is meaningless
                delta_entry["series"].append([list(key), value])
        out[name] = delta_entry
    return out


def stage_profile(delta: dict) -> dict:
    """Per-stage share of total stage time in a delta snapshot.

    ``{stage: {"seconds": s, "share": s/total}}``, sorted by share
    descending — the attribution a violated latency SLO points at.
    Stages record self time (see :func:`repro.obs.tracing.span`), so a
    stage's share excludes the stages nested inside it.
    """
    entry = delta.get(STAGE_METRIC)
    if entry is None:
        return {}
    seconds: dict[str, float] = {}
    stage_index = entry["labelnames"].index("stage")
    for key, value in entry["series"]:
        stage = key[stage_index]
        seconds[stage] = seconds.get(stage, 0.0) + value["sum"]
    total = sum(seconds.values())
    if total <= 0.0:
        return {}
    ordered = sorted(seconds.items(), key=lambda kv: -kv[1])
    return {stage: {"seconds": s, "share": s / total}
            for stage, s in ordered}


# ----------------------------------------------------------------------
# Objectives.
# ----------------------------------------------------------------------

def _burn(measured: float, budget: float) -> float:
    """Budget consumption multiple; a zero budget burns at ∞ when hit."""
    if budget > 0.0:
        return measured / budget
    return float("inf") if measured > 0.0 else 0.0


@dataclass(frozen=True)
class SLOCheck:
    """One objective judged over one delta snapshot."""

    objective: str
    description: str
    measured: float
    threshold: float
    burn: float
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class LatencyQuantileSLO:
    """``quantile(latency histogram) ≤ threshold_s`` for one class."""

    name: str
    threshold_s: float
    quantile: float = 0.95
    priority: str | None = None
    metric: str = "repro_gateway_queue_wait_seconds"

    def describe(self) -> str:
        scope = f"{{priority={self.priority}}}" if self.priority else ""
        return (f"p{int(self.quantile * 100)} {self.metric}{scope} "
                f"≤ {self.threshold_s * 1e3:.0f}ms")

    def evaluate(self, delta: dict) -> SLOCheck:
        labels = {"priority": self.priority} if self.priority else None
        observed = histogram_count(delta, self.metric, labels)
        measured = histogram_quantile(delta, self.metric, self.quantile,
                                      labels)
        ok = measured <= self.threshold_s
        detail = f"{observed} observations"
        if not observed:
            ok, detail = True, "no observations (vacuous)"
        return SLOCheck(self.name, self.describe(), measured,
                        self.threshold_s, _burn(measured, self.threshold_s),
                        ok, detail)


@dataclass(frozen=True)
class RatioSLO:
    """``numerator / denominator ≤ max_ratio`` over counter deltas.

    The shape behind shed-rate and deadline-miss objectives; label
    filters are tuples of pairs so the spec stays hashable/frozen.
    """

    name: str
    max_ratio: float
    numerator: str
    denominator: str
    numerator_labels: tuple = ()
    denominator_labels: tuple = ()

    def describe(self) -> str:
        scope = "".join(f"{{{k}={v}}}" for k, v in self.numerator_labels)
        return (f"{self.numerator}{scope} / {self.denominator} "
                f"≤ {self.max_ratio:.2f}")

    def evaluate(self, delta: dict) -> SLOCheck:
        num = counter_total(delta, self.numerator,
                            dict(self.numerator_labels))
        den = counter_total(delta, self.denominator,
                            dict(self.denominator_labels))
        measured = num / den if den > 0.0 else 0.0
        ok = measured <= self.max_ratio
        detail = f"{num:.0f}/{den:.0f}"
        if den == 0.0:
            ok, detail = True, "empty denominator (vacuous)"
        return SLOCheck(self.name, self.describe(), measured,
                        self.max_ratio, _burn(measured, self.max_ratio),
                        ok, detail)


def shed_rate_slo(priority: str, max_ratio: float,
                  name: str | None = None) -> RatioSLO:
    """Shed fraction of submitted traffic for one priority class."""
    return RatioSLO(
        name=name or f"shed-rate-{priority}", max_ratio=max_ratio,
        numerator="repro_gateway_shed_total",
        denominator="repro_gateway_submitted_total",
        numerator_labels=(("priority", priority),),
        denominator_labels=(("priority", priority),))


def deadline_miss_slo(max_ratio: float, priority: str | None = None,
                      name: str | None = None) -> RatioSLO:
    """Deadline-miss fraction of completed requests (optionally scoped)."""
    labels = (("priority", priority),) if priority else ()
    suffix = f"-{priority}" if priority else ""
    return RatioSLO(
        name=name or f"deadline-miss{suffix}", max_ratio=max_ratio,
        numerator="repro_gateway_deadline_misses_total",
        denominator="repro_gateway_completed_total",
        numerator_labels=labels, denominator_labels=labels)


@dataclass(frozen=True)
class RecoveryTimeSLO:
    """Worst recovery (snapshot-load + WAL replay) bounded.

    ``quantile=1.0`` reads the top bucket bound the slowest recovery
    landed in — a recovery-time ceiling from the durability tier's own
    ``repro_recovery_seconds`` histogram.
    """

    name: str
    threshold_s: float
    quantile: float = 1.0
    metric: str = "repro_recovery_seconds"

    def describe(self) -> str:
        return f"recovery time ≤ {self.threshold_s:.1f}s"

    def evaluate(self, delta: dict) -> SLOCheck:
        observed = histogram_count(delta, self.metric, None)
        measured = histogram_quantile(delta, self.metric, self.quantile)
        ok = measured <= self.threshold_s
        detail = f"{observed} recoveries"
        if not observed:
            ok, detail = True, "no recoveries (vacuous)"
        return SLOCheck(self.name, self.describe(), measured,
                        self.threshold_s, _burn(measured, self.threshold_s),
                        ok, detail)


# ----------------------------------------------------------------------
# Spec + multi-window evaluation.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SLOSpec:
    """A named objective set plus its fast-burn alert multiple."""

    name: str
    objectives: tuple = ()
    #: A single window burning ≥ this multiple of its budget raises a
    #: burn alert even when the full span still passes.
    fast_burn: float = 4.0


@dataclass(frozen=True)
class ObjectiveResult:
    """One objective's full-span check + per-window burn rates."""

    check: SLOCheck
    window_burns: tuple = ()
    burn_alert: bool = False
    #: Dominant pipeline stage over the span (set on violated latency
    #: objectives): ``(stage, share)``.
    attribution: tuple | None = None


@dataclass(frozen=True)
class SLOVerdict:
    """The structured report: spec, verdicts, and stage attribution."""

    spec: str
    ok: bool
    results: tuple = ()
    stages: dict = field(default_factory=dict)

    @property
    def burn_alerts(self) -> int:
        return sum(1 for r in self.results if r.burn_alert)

    def to_jsonable(self) -> dict:
        return {
            "spec": self.spec, "ok": self.ok,
            "burn_alerts": self.burn_alerts,
            "objectives": [{
                "name": r.check.objective,
                "objective": r.check.description,
                "measured": r.check.measured,
                "threshold": r.check.threshold,
                "burn": (r.check.burn if r.check.burn != float("inf")
                         else "inf"),
                "ok": r.check.ok,
                "detail": r.check.detail,
                "window_burns": [b if b != float("inf") else "inf"
                                 for b in r.window_burns],
                "burn_alert": r.burn_alert,
                "attribution": (list(r.attribution)
                                if r.attribution else None),
            } for r in self.results],
            "stage_profile": {stage: cells["share"]
                              for stage, cells in self.stages.items()},
        }


def evaluate(spec: SLOSpec, snapshots: list) -> SLOVerdict:
    """Judge ``spec`` over a sequence of registry snapshots.

    ``snapshots`` are ≥ 2 :meth:`~MetricsRegistry.snapshot` captures at
    window boundaries; the first→last delta decides pass/fail, the
    adjacent deltas feed the burn-rate windows.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots (a start and an end)")
    overall = snapshot_delta(snapshots[-1], snapshots[0])
    windows = [snapshot_delta(b, a)
               for a, b in zip(snapshots, snapshots[1:])]
    stages = stage_profile(overall)
    dominant = next(iter(stages.items()), None)
    results = []
    for objective in spec.objectives:
        check = objective.evaluate(overall)
        burns = tuple(objective.evaluate(window).burn
                      for window in windows)
        alert = any(b >= spec.fast_burn for b in burns)
        attribution = None
        if not check.ok and dominant is not None:
            attribution = (dominant[0], dominant[1]["share"])
        results.append(ObjectiveResult(check=check, window_burns=burns,
                                       burn_alert=alert,
                                       attribution=attribution))
    ok = all(r.check.ok for r in results)
    return SLOVerdict(spec=spec.name, ok=ok, results=tuple(results),
                      stages=stages)


def render_report(verdicts: list) -> str:
    """Plain-text verdict table (the nightly artifact / CLI output)."""
    lines = []
    for verdict in verdicts:
        status = "OK" if verdict.ok else "VIOLATED"
        lines.append(f"[{verdict.spec}] {status} "
                     f"({verdict.burn_alerts} burn alert(s))")
        for r in verdict.results:
            mark = "pass" if r.check.ok else "FAIL"
            burn = ("inf" if r.check.burn == float("inf")
                    else f"{r.check.burn:.2f}")
            line = (f"  {mark:4s} {r.check.objective:<24s} "
                    f"{r.check.description}  measured="
                    f"{r.check.measured:.4g} burn={burn} "
                    f"[{r.check.detail}]")
            if r.burn_alert:
                windows = ", ".join(
                    "inf" if b == float("inf") else f"{b:.1f}"
                    for b in r.window_burns)
                line += f" burn-alert windows=[{windows}]"
            if r.attribution is not None:
                stage, share = r.attribution
                line += f" dominant-stage={stage} ({share:.0%})"
            lines.append(line)
        if verdict.stages:
            profile = " ".join(
                f"{stage}={cells['share']:.0%}"
                for stage, cells in list(verdict.stages.items())[:5])
            lines.append(f"  stage profile: {profile}")
    return "\n".join(lines) + "\n"
