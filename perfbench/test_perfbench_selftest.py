"""Self-tests of the benchmark's own arithmetic (``pytest perfbench/``).

Percentiles, due-time latency and lateness in the open-loop generator,
and span self time are what every reported number rests on; each is
pinned here on inputs whose answers are known exactly.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from arith import (  # noqa: E402
    min_samples_for,
    nearest_rank,
    samples_beyond,
    self_time,
    tail_supported,
    union_length,
)
from layers import SpanLog, per_layer_metrics  # noqa: E402
from loadgen import closed_loop, open_loop  # noqa: E402


# ---------------------------------------------------------------------------
# Nearest-rank percentile: index ceil(f*n) - 1
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "values, fraction, expected",
    [
        ([1, 2], 0.5, 1),  # even n: the lower middle, never interpolated
        ([1, 2, 3], 0.5, 2),  # odd n: the middle
        ([4, 1, 3, 2], 0.5, 2),  # unsorted input
        ([1, 2, 3, 4], 0.75, 3),
        ([1, 2, 3, 4, 5], 0.9, 5),
        (list(range(1, 11)), 0.9, 9),
        (list(range(1, 101)), 0.9, 90),
        (list(range(1, 101)), 0.99, 99),
        (list(range(1, 102)), 0.99, 100),
        ([7], 0.99, 7),
        ([1, 2, 3], 1.0, 3),
    ],
)
def test_nearest_rank(values, fraction, expected):
    assert nearest_rank(values, fraction) == expected


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


def test_tail_support_needs_ten_samples_beyond():
    assert samples_beyond(100, 0.9) == 10
    assert tail_supported(100, 0.9) and not tail_supported(99, 0.9)
    assert samples_beyond(1000, 0.99) == 10
    assert tail_supported(1000, 0.99) and not tail_supported(999, 0.99)
    assert min_samples_for(0.9) == 100
    assert min_samples_for(0.99) == 1000


# ---------------------------------------------------------------------------
# Open-loop accounting against a fake server that stalls
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def _stalling_server(clock: FakeClock, stall_index: int, stall: float, service: float):
    def make_sender():
        def send(body: str):
            clock.now += stall if int(body) == stall_index else service
            return 200, b"{}"

        return send

    return make_sender


def test_open_loop_charges_a_stall_to_every_request_it_delays():
    clock = FakeClock()
    samples, elapsed = open_loop(
        _stalling_server(clock, stall_index=5, stall=0.300, service=0.001),
        str,
        rate=100.0,
        seconds=1.0,
        connections=1,
        clock=clock,
        sleep=clock.sleep,
        lead=0.0,
    )
    assert [s.index for s in samples] == list(range(100))
    by_index = {s.index: s for s in samples}
    # The stalled request itself was on time; it took the stall.
    assert by_index[5].lateness == 0.0
    assert by_index[5].latency == pytest.approx(0.300)
    # Request 6 was due at 0.06 s but could only be sent at 0.35 s: its
    # latency counts from the due time, although the server answered it in
    # 1 ms once sent.
    assert by_index[6].lateness == pytest.approx(0.29)
    assert by_index[6].latency == pytest.approx(0.291)
    assert by_index[6].done - by_index[6].sent == pytest.approx(0.001)
    # The backlog drains at 1 ms per request against a 10 ms schedule: it is
    # gone by request 39 (sent at 0.35 + 33 ms = 0.383 s <= due 0.39 s).
    late = [s.index for s in samples if s.lateness > 1e-9]
    assert late == list(range(6, 39))
    for sample in samples:
        assert sample.latency >= sample.lateness >= 0.0
    assert elapsed == pytest.approx(0.991)


def test_open_loop_second_connection_absorbs_a_stall():
    lock = threading.Lock()
    stalled = []

    def make_sender():
        def send(body: str):
            if int(body) == 10:
                with lock:
                    stalled.append(body)
                time.sleep(0.3)
            else:
                time.sleep(0.001)
            return 200, b"{}"

        return send

    samples, _ = open_loop(make_sender, str, rate=100.0, seconds=0.6, connections=2)
    assert len(samples) == 60 and stalled == ["10"]
    stall = next(s for s in samples if s.index == 10)
    assert stall.latency >= 0.3
    # The other connection kept the schedule while one was stalled.
    assert max(s.lateness for s in samples) < 0.2


def test_closed_loop_is_never_late_and_extends_for_samples():
    clock = FakeClock()

    def send(body: str):
        clock.now += 0.25
        return 200, b"{}"

    samples, elapsed = closed_loop(send, str, 1.0, min_samples=6, clock=clock)
    assert len(samples) == 6  # 4 fit in a second; the tail needs 6
    assert all(s.lateness == 0.0 and s.latency == pytest.approx(0.25) for s in samples)
    assert elapsed == pytest.approx(1.5)
    samples, _ = closed_loop(send, str, 1.0, min_samples=100, max_seconds=2.0, clock=clock)
    assert len(samples) == 8  # bounded by max_seconds


# ---------------------------------------------------------------------------
# Span self time: duration minus the union of child intervals
# ---------------------------------------------------------------------------
def test_union_length_merges_overlaps_and_clips():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3)]) == 3
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 4), (1, 2)]) == 4
    assert union_length([(0, 2), (1, 3)], 1, 2.5) == 1.5
    assert union_length([(5, 6)], 0, 4) == 0.0


def test_self_time_counts_overlapping_pool_children_once():
    # Two pool workers run children [1, 4] and [2, 6] at once; a third child
    # [8, 9]; one child overruns the parent and is clipped to [9.5, 10].
    children = [(1, 4), (2, 6), (8, 9), (9.5, 12)]
    assert self_time(0, 10, children) == pytest.approx(10 - (5 + 1 + 0.5))
    assert self_time(0, 10, []) == 10


def _span(span_id, parent, name, start, end, request=None, attrs=None):
    return [span_id, parent, name, start, end, request, attrs]


def test_per_layer_metrics_attribute_pool_spans_to_their_request():
    spans = [
        # Request 1 is warm-up and must be ignored.
        _span(1, None, "serve.request", 0.0, 1.0, 1),
        _span(2, None, "engine.run", 0.1, 0.9, 1),
        # Request 2: 10 s, two top-level engine runs on two executor threads.
        _span(10, None, "serve.decode", 10.0, 10.5, 2),
        _span(11, None, "engine.run", 11.0, 15.0, 2),
        _span(12, None, "engine.run", 13.0, 17.0, 2),
        _span(13, 11, "backend.simulation", 11.5, 14.5, None, {"queries": 1}),
        _span(14, 13, "runtime.run_supervised", 12.0, 14.0, None,
              {"shards": 2, "attempts": 3, "timeouts": 1, "dropped": 0}),
        # Two replicas on two pool workers, overlapping, under the campaign.
        _span(15, 14, "injection.replica", 12.0, 13.0),
        _span(16, 14, "injection.replica", 12.5, 13.5),
        _span(17, 15, "sim.run", 12.1, 12.9, None, {"events": 100, "messages": 40, "dropped": 2}),
        _span(18, 16, "sim.run", 12.6, 13.4, None, {"events": 60, "messages": 20, "dropped": 0}),
        _span(19, None, "serve.encode", 19.0, 19.25, 2),
        _span(20, None, "serve.request", 10.0, 20.0, 2),
    ]
    metrics = per_layer_metrics(SpanLog(spans), first_timed_request=2)
    assert metrics["serve.engine_runs_per_request"] == 2
    # 10 s request minus the union [11, 17] of its engine runs.
    assert metrics["serve.self_ms"] == pytest.approx(4000.0)
    assert metrics["serve.decode_ms"] == pytest.approx(500.0)
    assert metrics["serve.encode_ms"] == pytest.approx(250.0)
    assert metrics["engine.run_ms"] == pytest.approx(8000.0)
    # Run 11 has backend child [11.5, 14.5] (self 1 s); run 12 has none (4 s).
    assert metrics["engine.self_ms"] == pytest.approx(5000.0)
    assert metrics["backend.simulation.calls"] == 1
    assert metrics["backend.simulation.ms"] == pytest.approx(3000.0)
    # Campaign [12, 14] minus the replicas' union [12, 13.5].
    assert metrics["runtime.campaign_ms"] == pytest.approx(2000.0)
    assert metrics["runtime.wait_ms"] == pytest.approx(500.0)
    assert metrics["runtime.attempts_per_shard"] == pytest.approx(1.5)
    assert metrics["runtime.timeouts"] == 1
    assert metrics["injection.replica_ms"] == pytest.approx(1000.0)
    assert metrics["sim.events_per_replica"] == 80
    assert metrics["sim.messages_per_replica"] == 30
    assert metrics["sim.dropped_per_replica"] == 1
    assert metrics["sim.events_per_s"] == pytest.approx(160 / 1.6)
