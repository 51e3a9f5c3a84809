"""Correctness gate: served answers against the in-process engine.

Runs after the timed phase, off the clock.  Each checked query is
answered directly by ``ReliabilityEngine.run([query])`` under the
daemon's own policy (``ServiceConfig(jobs=2).policy()``) — the same
one-query-per-run execution the daemon performs — and the served row
must equal the direct row on every key except the provenance fields
that legitimately differ between two executions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from loadgen import Sample
from workloads import SAFE_CAMPAIGN_KINDS, campaign_kind

#: Provenance that differs between two executions of the same query.
IGNORED_FIELDS = frozenset({"seconds", "cache_hit", "coalesced", "run"})


@dataclass
class GateResult:
    failed: set[int] = field(default_factory=set)  # sample indices
    problems: list[str] = field(default_factory=list)
    unverified: list[str] = field(default_factory=list)
    checked_queries: int = 0

    @property
    def ok(self) -> bool:
        return not self.failed and not self.unverified

    def fail(self, index: int, problem: str) -> None:
        self.failed.add(index)
        if len(self.problems) < 20:
            self.problems.append(problem)


def _comparable(row: dict) -> dict:
    return {key: value for key, value in row.items() if key not in IGNORED_FIELDS}


class DirectEngine:
    """The reference: one warm in-process engine under the daemon's policy."""

    def __init__(self) -> None:
        from repro.engine import ReliabilityEngine
        from repro.serve import ServiceConfig

        self.engine = ReliabilityEngine()
        self.policy = ServiceConfig(jobs=2).policy()
        self._rows: dict[str, dict] = {}

    def rows(self, body: str) -> list[dict]:
        from repro.engine import QuerySet

        out = []
        for query in QuerySet.from_json(body):
            key = json.dumps(query.to_dict(), sort_keys=True)
            row = self._rows.get(key)
            if row is None:
                answer = self.engine.run([query], policy=self.policy)[0]
                # JSON round trip: the served rows were parsed from JSON too.
                row = json.loads(json.dumps(_comparable(answer.to_dict())))
                self._rows[key] = row
            out.append(row)
        return out


def check(
    workload: str, samples: list[Sample], body, direct: DirectEngine | None = None
) -> GateResult:
    """Gate every timed sample; ``body(index)`` regenerates a request."""
    result = GateResult()
    direct = direct if direct is not None else DirectEngine()
    verified_kinds: set[str] = set()
    for sample in samples:
        index = sample.index
        if sample.status != 200:
            result.fail(index, f"request {index}: HTTP {sample.status}")
            continue
        rows = json.loads(sample.payload)["answers"]
        if any(row.get("degraded") for row in rows):
            result.fail(index, f"request {index}: degraded answer")
            continue
        if workload == "campaign":
            kind = campaign_kind(index)
            violations = rows[0]["answer"]["safety_violations"]
            if kind in SAFE_CAMPAIGN_KINDS and violations != 0:
                result.fail(index, f"request {index}: {kind} has {violations} safety violations")
                continue
            if kind in verified_kinds:
                continue
            verified_kinds.add(kind)
        expected = direct.rows(body(index))
        result.checked_queries += len(expected)
        served = [_comparable(row) for row in rows]
        if served != expected:
            position = next(
                (i for i, (a, b) in enumerate(zip(served, expected)) if a != b),
                min(len(served), len(expected)),
            )
            result.fail(
                index,
                f"request {index}: answer {position} differs from the direct engine",
            )
    if workload == "campaign":
        missing = set(SAFE_CAMPAIGN_KINDS) | {"pbft4-adversary"}
        missing -= verified_kinds
        if missing:
            result.unverified.append(f"campaign kinds never verified: {sorted(missing)}")
    return result
