"""Per-layer metrics from the traced daemon's span log.

Every metric is normalised by what it is *per* — per timed request, per
supervised campaign or per simulated replica — so runs of different
lengths compare.  Self time is a span's duration minus the union of its
children's intervals (children on two pool workers overlap; the union
counts that time once).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from arith import self_time, union_length

BACKEND_KINDS = ("reliability", "availability", "mttf", "simulation")

#: Per-replica simulator counts are taken over the first timed requests
#: (one full cycle of the campaign kinds), so they repeat exactly for a
#: seed however many requests a run completes.
EXACT_PREFIX = 4

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("serve.engine_runs_per_request", "count/request"),
    ("serve.self_ms", "ms/request"),
    ("serve.decode_ms", "ms/request"),
    ("serve.encode_ms", "ms/request"),
    ("serve.coalesced_frac", "frac"),
    ("engine.run_ms", "ms/request"),
    ("engine.self_ms", "ms/request"),
    ("engine.memo_hit_frac", "frac"),
    ("engine.memo_size", "entries"),
    ("engine.direct_ms", "ms/request"),
    *[
        (f"backend.{kind}.{metric}", unit)
        for kind in BACKEND_KINDS
        for metric, unit in (
            ("calls", "count/request"),
            ("queries_per_call", "count/call"),
            ("ms", "ms/request"),
        )
    ],
    ("kernels.count_dp.calls", "count/request"),
    ("kernels.count_dp.fleets", "count/request"),
    ("kernels.count_dp.ms", "ms/request"),
    ("kernels.reduce.ms", "ms/request"),
    ("markov.solves", "count/request"),
    ("markov.ms", "ms/request"),
    ("runtime.campaign_ms", "ms/campaign"),
    ("runtime.wait_ms", "ms/campaign"),
    ("runtime.attempts_per_shard", "count/shard"),
    ("runtime.timeouts", "count/campaign"),
    ("runtime.dropped", "count/campaign"),
    ("runtime.journal_records", "count/campaign"),
    ("runtime.journal_ms", "ms/campaign"),
    ("injection.replica_ms", "ms/replica"),
    ("injection.compile_ms", "ms/replica"),
    ("sim.events_per_replica", "events/replica"),
    ("sim.messages_per_replica", "msgs/replica"),
    ("sim.dropped_per_replica", "msgs/replica"),
    ("sim.events_per_s", "events/s"),
    ("sim.audit_ms", "ms/replica"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "frac"),
]


class SpanLog:
    """Spans indexed by id, parent and (resolved) request."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        self.children: dict[int, list[list]] = defaultdict(list)
        for span in spans:
            if span[1] is not None:
                self.children[span[1]].append(span)
        self._request: dict[int, int | None] = {}

    @classmethod
    def load(cls, path: Path) -> "SpanLog":
        return cls(json.loads(Path(path).read_text())["spans"])

    def request_of(self, span: list) -> int | None:
        """The span's own request, else its nearest ancestor's."""
        chain = []
        current = span
        while current is not None:
            cached = self._request.get(current[0], ...)
            if cached is not ...:
                request = cached
                break
            chain.append(current[0])
            if current[5] is not None:
                request = current[5]
                break
            current = self.by_id.get(current[1]) if current[1] is not None else None
        else:
            request = None
        for span_id in chain:
            self._request[span_id] = request
        return request

    def self_seconds(self, span: list) -> float:
        return self_time(span[3], span[4], [(c[3], c[4]) for c in self.children[span[0]]])


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(log: SpanLog, first_timed_request: int) -> dict[str, float]:
    """Span-derived metrics over requests numbered ``>= first_timed_request``.

    Requests are numbered by the daemon in decode order, starting at 1;
    the warm-up requests come first.
    """
    timed: dict[str, list[list]] = defaultdict(list)
    for span in log.spans:
        request = log.request_of(span)
        if request is not None and request >= first_timed_request:
            timed[span[2]].append(span)
    requests = timed["serve.request"]
    count = len(requests)
    if not count:
        raise RuntimeError("the traced run recorded no timed requests")
    out: dict[str, float] = {}

    # serve: request time minus the union of the top-level engine runs in it.
    top_runs: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in timed["engine.run"]:
        if span[1] is None:
            top_runs[span[5]].append((span[3], span[4]))
    serve_self = sum(
        (span[4] - span[3]) - union_length(top_runs[span[5]], span[3], span[4])
        for span in requests
    )
    top_count = sum(len(runs) for runs in top_runs.values())
    out["serve.engine_runs_per_request"] = top_count / count
    out["serve.self_ms"] = _ms(serve_self) / count
    out["serve.decode_ms"] = _ms(sum(s[4] - s[3] for s in timed["serve.decode"])) / count
    out["serve.encode_ms"] = _ms(sum(s[4] - s[3] for s in timed["serve.encode"])) / count

    # engine: inclusive top-level time, and self time of every engine run.
    out["engine.run_ms"] = _ms(sum(b - a for runs in top_runs.values() for a, b in runs)) / count
    out["engine.self_ms"] = _ms(sum(log.self_seconds(s) for s in timed["engine.run"])) / count

    for kind in BACKEND_KINDS:
        spans = timed[f"backend.{kind}"]
        queries = sum(span[6]["queries"] for span in spans if span[6] and "queries" in span[6])
        out[f"backend.{kind}.calls"] = len(spans) / count
        out[f"backend.{kind}.queries_per_call"] = _ratio(queries, len(spans))
        out[f"backend.{kind}.ms"] = _ms(sum(s[4] - s[3] for s in spans)) / count

    dp = timed["kernels.count_dp"]
    out["kernels.count_dp.calls"] = len(dp) / count
    out["kernels.count_dp.fleets"] = sum((s[6] or {}).get("fleets", 0) for s in dp) / count
    out["kernels.count_dp.ms"] = _ms(sum(s[4] - s[3] for s in dp)) / count
    out["kernels.reduce.ms"] = _ms(sum(s[4] - s[3] for s in timed["kernels.reduce"])) / count

    solves = [
        span for span in timed["markov.solve"]
        if span[1] is None or log.by_id[span[1]][2] != "markov.solve"
    ]
    out["markov.solves"] = len(solves) / count
    out["markov.ms"] = _ms(sum(s[4] - s[3] for s in solves)) / count

    campaigns = timed["runtime.run_supervised"]
    runs = len(campaigns)
    shards = sum((s[6] or {}).get("shards", 0) for s in campaigns)
    attempts = sum((s[6] or {}).get("attempts", 0) for s in campaigns)
    wait = sum(
        (s[4] - s[3])
        - union_length(
            [(c[3], c[4]) for c in log.children[s[0]] if c[2] == "injection.replica"],
            s[3],
            s[4],
        )
        for s in campaigns
    )
    journal = timed["runtime.journal"]
    out["runtime.campaign_ms"] = _ratio(_ms(sum(s[4] - s[3] for s in campaigns)), runs)
    out["runtime.wait_ms"] = _ratio(_ms(wait), runs)
    out["runtime.attempts_per_shard"] = _ratio(attempts, shards)
    out["runtime.timeouts"] = _ratio(sum((s[6] or {}).get("timeouts", 0) for s in campaigns), runs)
    out["runtime.dropped"] = _ratio(sum((s[6] or {}).get("dropped", 0) for s in campaigns), runs)
    out["runtime.journal_records"] = _ratio(len(journal), runs)
    out["runtime.journal_ms"] = _ratio(_ms(sum(s[4] - s[3] for s in journal)), runs)

    replicas = timed["injection.replica"]
    out["injection.replica_ms"] = _ratio(_ms(sum(s[4] - s[3] for s in replicas)), len(replicas))
    out["injection.compile_ms"] = _ratio(
        _ms(sum(s[4] - s[3] for s in timed["injection.compile"])), len(replicas)
    )

    sim = timed["sim.run"]
    prefix = set(range(first_timed_request, first_timed_request + EXACT_PREFIX))
    sim_prefix = [s for s in sim if log.request_of(s) in prefix]
    replicas_prefix = sum(1 for s in replicas if log.request_of(s) in prefix)
    for name, key in (
        ("sim.events_per_replica", "events"),
        ("sim.messages_per_replica", "messages"),
        ("sim.dropped_per_replica", "dropped"),
    ):
        out[name] = _ratio(sum(s[6][key] for s in sim_prefix if s[6]), replicas_prefix)
    out["sim.events_per_s"] = _ratio(
        sum(s[6]["events"] for s in sim if s[6]), sum(s[4] - s[3] for s in sim)
    )
    out["sim.audit_ms"] = _ratio(
        _ms(sum(s[4] - s[3] for s in timed["sim.audit"])), len(replicas)
    )
    return out
