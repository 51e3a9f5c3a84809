"""Seeded request generators for the three served workloads.

Every parameter derives from ``(workload, seed)`` through string-seeded
``random.Random`` streams (stable across Python processes and hash
seeds).  The daemon only ever receives the generated JSON bodies.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

GRID_PROTOCOLS = ("raft", "pbft", "benor", "byz-benor")
GRID_SIZES = (11, 13, 15, 17)
GRID_PROBABILITIES = 25

#: Open-loop arrival rate of ``mixed`` (requests/s), pinned: about half
#: the single-connection closed-loop capacity of this request mix measured
#: on a 2-CPU x86-64 host (~520 requests/s, p50 1.6 ms per request).
MIXED_RATE = 250.0
MIXED_POOL = 64
MIXED_POOL_SHARE = 0.8
MIXED_ZIPF_S = 1.1

CAMPAIGN_REPLICAS = 6
CAMPAIGN_DURATION = 6.0
CAMPAIGN_COMMANDS = 2
#: The simulator's default virtual message delay (``FixedLatency(0.001)``),
#: which every campaign runs under.
CAMPAIGN_MESSAGE_DELAY_S = 0.001


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "closed" or "open"
    connections: int
    rate: float | None  # open loop only, requests/s
    mix: str
    faults: str
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]
    why: str
    checkpoint: bool = False  # run the daemon with a fresh --checkpoint-dir


WORKLOADS = {
    "grid_cold": Workload(
        name="grid_cold",
        loop="closed",
        connections=1,
        rate=None,
        mix=(
            "fresh 400-query reliability grid per request: "
            "raft/pbft/benor/byz-benor x n 11/13/15/17 x 25 seeded "
            "log-uniform probabilities in [1e-4, 0.2]"
        ),
        faults="none (analytic counting DP)",
        loads=("serve", "engine", "engine.backends", "analysis.kernels"),
        bypasses=("markov", "engine.runtime", "injection", "sim"),
        why=(
            "every query misses the memo and the working set overruns the "
            "4096-entry memo, so the per-query serve path and the counting "
            "DP do the work (ROADMAP 2(a))"
        ),
    ),
    "mixed": Workload(
        name="mixed",
        loop="open",
        connections=2,
        rate=MIXED_RATE,
        mix=(
            "1-4 queries per request in a fixed cycle (reliability points at "
            "n 3-9 50%, availability 25% half with a 24 h window, mttf 25%); "
            "80% drawn Zipf(1.1) from a 64-request pool warmed in set-up, "
            "20% fresh parameters"
        ),
        faults="none (CTMC solves and counting DP)",
        loads=("serve", "engine", "engine.backends", "markov", "analysis.kernels"),
        bypasses=("engine.runtime", "injection", "sim"),
        why=(
            "per-request serve overhead, the memo read path and CTMC solves "
            "do the work; the grid DP is nearly idle, so a grid-batching "
            "change must show no change here"
        ),
    ),
    "campaign": Workload(
        name="campaign",
        loop="closed",
        connections=1,
        rate=None,
        mix=(
            f"one SimulationQuery per request, {CAMPAIGN_REPLICAS} replicas x "
            f"{CAMPAIGN_DURATION:g} s simulated, fresh seed, cycling Raft-5 "
            "crash-only, Raft-5 outage, PBFT-4 crash-only, PBFT-4 adversary; "
            "plus one fresh availability and one fresh mttf query (CTMC solves)"
        ),
        faults=(
            "outage = partition {0,1}|{2,3,4} 2-3 s + 20% loss burst 3.5-4.5 s "
            "+ correlated burst {0,1} p=0.5 at 4 s (MTTR 2 s); "
            "adversary = Adversary(nodes=(0, 2)); virtual message delay "
            f"FixedLatency({CAMPAIGN_MESSAGE_DELAY_S:g})"
        ),
        loads=(
            "serve", "engine", "engine.backends", "engine.runtime", "injection", "sim",
            "markov (two small solves per request)",
        ),
        bypasses=("analysis.kernels",),
        why=(
            "the supervised runtime, fault compilation, the discrete-event "
            "simulator and the shard journal do the work (ROADMAP 2(b))"
        ),
        checkpoint=True,
    ),
}


def _stream(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{purpose}")


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


# ---------------------------------------------------------------------------
# grid_cold
# ---------------------------------------------------------------------------
def _grid_body(rng: random.Random) -> str:
    probabilities = [_log_uniform(rng, 1e-4, 0.2) for _ in range(GRID_PROBABILITIES)]
    return json.dumps(
        {
            "grid": {
                "protocols": list(GRID_PROTOCOLS),
                "sizes": list(GRID_SIZES),
                "probabilities": probabilities,
            }
        }
    )


# ---------------------------------------------------------------------------
# mixed
# ---------------------------------------------------------------------------
def _reliability_query(rng: random.Random) -> dict:
    from repro.engine import ReliabilityQuery, Scenario
    from repro.engine.scenario import spec_from_dict
    from repro.faults.mixture import byzantine_fleet, uniform_fleet

    protocol = rng.choice(GRID_PROTOCOLS)
    n = rng.randint(3, 9)
    p = _log_uniform(rng, 1e-4, 0.2)
    spec = spec_from_dict({"protocol": protocol, "n": n})
    fleet = byzantine_fleet(n, p) if protocol == "pbft" else uniform_fleet(n, p)
    return ReliabilityQuery(Scenario(spec=spec, fleet=fleet)).to_dict()


def _markov_query(rng: random.Random, kind: str, window: bool = False) -> dict:
    from repro.engine import AvailabilityQuery, MTTFQuery, Scenario
    from repro.faults.mixture import uniform_fleet
    from repro.protocols.raft import RaftSpec

    n = rng.randint(3, 9)
    scenario = Scenario(spec=RaftSpec(n), fleet=uniform_fleet(n, 0.01))
    rates = dict(
        failure_rate_per_hour=_log_uniform(rng, 1e-4, 1e-2),
        repair_rate_per_hour=_log_uniform(rng, 0.05, 1.0),
        repair_slots=rng.randint(1, 2),
    )
    if kind == "availability":
        return AvailabilityQuery(
            scenario, window_hours=24.0 if window else None, **rates
        ).to_dict()
    return MTTFQuery(scenario, **rates).to_dict()


#: Query kinds cycle in this order (50% reliability, 25% availability —
#: every other one with a 24 h window — and 25% mttf); request sizes cycle
#: 1, 2, 3, 4.  Only the parameter values come from the seed, so every
#: seed offers the same amount and mix of work.
_MIXED_KINDS = ("reliability", "availability", "reliability", "mttf")


def _mixed_query(rng: random.Random, slot: int) -> dict:
    kind = _MIXED_KINDS[slot % len(_MIXED_KINDS)]
    if kind == "reliability":
        return _reliability_query(rng)
    return _markov_query(rng, kind, window=kind == "availability" and slot % 8 == 1)


def _mixed_body(rng: random.Random, number: int) -> str:
    size = 1 + number % 4
    return json.dumps(
        {"queries": [_mixed_query(rng, number + slot) for slot in range(size)]}
    )


def mixed_pool(seed: int) -> list[str]:
    rng = _stream("mixed", seed, "pool")
    return [_mixed_body(rng, rank) for rank in range(MIXED_POOL)]


def _mixed_coverage(seed: int) -> str:
    """One warm-up request touching every code path of the mix, so lazy
    imports and first-call set-up finish before the clock starts."""
    rng = _stream("mixed", seed, "coverage")
    queries = [_reliability_query(rng) for _ in range(8)]
    queries += [_markov_query(rng, "availability", window=w) for w in (False, True)]
    queries.append(_markov_query(rng, "mttf"))
    return json.dumps({"queries": queries})


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------
CAMPAIGN_KINDS = ("raft5-crash", "raft5-outage", "pbft4-crash", "pbft4-adversary")
#: Kinds whose answers must carry zero safety violations: crash and
#: omission faults never let two nodes disagree.
SAFE_CAMPAIGN_KINDS = ("raft5-crash", "raft5-outage", "pbft4-crash")


def outage_plan():
    """The ``bench_injection`` outage plan: partition, loss burst, correlated burst."""
    from repro.injection import CorrelatedBurst, FaultPlan, LossBurst, PartitionEvent

    return FaultPlan(
        events=(
            PartitionEvent(groups=((0, 1), (2, 3, 4)), at=2.0, heal_at=3.0),
            LossBurst(at=3.5, until=4.5, drop_probability=0.2),
            CorrelatedBurst(
                members=(0, 1), at=4.0, probability=0.5, mean_time_to_repair=1.0
            ),
        ),
        mean_time_to_repair=2.0,
    )


def campaign_query(kind: str, seed: int, *, replicas: int = CAMPAIGN_REPLICAS,
                   duration: float = CAMPAIGN_DURATION) -> dict:
    from repro.engine import Scenario, SimulationQuery
    from repro.faults.mixture import uniform_fleet
    from repro.injection import Adversary, FaultPlan
    from repro.protocols.pbft import PBFTSpec
    from repro.protocols.raft import RaftSpec

    if kind.startswith("raft5"):
        scenario = Scenario(
            spec=RaftSpec(5), fleet=uniform_fleet(5, 0.15), seed=seed, label=kind
        )
    else:
        scenario = Scenario(
            spec=PBFTSpec(4), fleet=uniform_fleet(4, 0.1), seed=seed, label=kind
        )
    faults = {
        "raft5-outage": outage_plan(),
        "pbft4-adversary": FaultPlan(adversary=Adversary(nodes=(0, 2))),
    }.get(kind)
    query = SimulationQuery(
        scenario,
        replicas=replicas,
        duration=duration,
        commands=CAMPAIGN_COMMANDS,
        faults=faults,
    )
    return query.to_dict()


def campaign_kind(index: int) -> str:
    return CAMPAIGN_KINDS[index % len(CAMPAIGN_KINDS)]


def _campaign_body(index: int, rng: random.Random) -> str:
    """The campaign, then one fresh availability and one fresh MTTF question
    (one CTMC solve each) — the gated workloads' only Markov work."""
    return json.dumps(
        {
            "queries": [
                campaign_query(campaign_kind(index), rng.randrange(2**31)),
                _markov_query(rng, "availability", window=index % 2 == 1),
                _markov_query(rng, "mttf"),
            ]
        }
    )


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------
def warmup_bodies(name: str, seed: int) -> list[str]:
    """Requests answered during set-up, before the clock starts."""
    if name == "grid_cold":
        return [_grid_body(_stream(name, seed, "warmup"))]
    if name == "mixed":
        return [_mixed_coverage(seed), *mixed_pool(seed)]
    if name == "campaign":
        rng = _stream(name, seed, "warmup")
        return [
            json.dumps(
                {
                    "queries": [
                        campaign_query(kind, rng.randrange(2**31), replicas=2, duration=2.0)
                        for kind in ("raft5-crash", "pbft4-crash")
                    ]
                    + [_markov_query(rng, "availability", window=w) for w in (False, True)]
                    + [_markov_query(rng, "mttf")]
                }
            )
        ]
    raise KeyError(name)


def timed_bodies(name: str, seed: int) -> Iterator[str]:
    """The endless, deterministic request sequence of the timed phase."""
    rng = _stream(name, seed, "timed")
    if name == "grid_cold":
        while True:
            yield _grid_body(rng)
    elif name == "mixed":
        pool = mixed_pool(seed)
        weights = [1.0 / (rank + 1) ** MIXED_ZIPF_S for rank in range(len(pool))]
        fresh = 0
        while True:
            if rng.random() < MIXED_POOL_SHARE:
                yield rng.choices(pool, weights)[0]
            else:
                yield _mixed_body(rng, fresh)
                fresh += 1
    elif name == "campaign":
        index = 0
        while True:
            yield _campaign_body(index, rng)
            index += 1
    else:
        raise KeyError(name)


def body_source(name: str, seed: int) -> Callable[[int], str]:
    """Index -> body, generated lazily and remembered (for the gate)."""
    stream = timed_bodies(name, seed)
    cache: list[str] = []

    def body(index: int) -> str:
        while len(cache) <= index:
            cache.append(next(stream))
        return cache[index]

    return body
