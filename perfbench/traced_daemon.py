"""Run ``repro-analyze serve`` with timing spans around each layer's entry points.

Usage (the benchmark starts it; flags after ``--`` are the daemon's own)::

    PYTHONPATH=src python perfbench/traced_daemon.py --spans FILE -- serve --port 0 --jobs 2

Before the daemon starts, public entry points of every layer are wrapped
in place: the query codecs, ``ReliabilityEngine.run``, each kind's backend
(re-registered through ``register_backend``), the counting-DP and
reduction kernels, the CTMC solves, the supervised runtime and its
journal, replica execution and fault compilation, the simulator's event
loop and the trace audit.  Spans stay in memory and are written to FILE
as JSON when the daemon shuts down (SIGINT).  Nothing here changes an
answer; the daemon's own ``--trace`` stays off.

A span is ``[id, parent, name, start, end, request, attrs]``.  Parents
follow the calling thread's span stack, and cross the supervised
runtime's and ``run_sharded``'s thread pools through wrapped workers.
``request`` is set where the request is known directly (the decode,
encode and request spans, and each top-level engine run, matched to the
request whose decode produced its query objects); other spans inherit it
from their parent.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import itertools
import json
import sys
import threading
import time

clock = time.perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self.request = contextvars.ContextVar("perfbench_request", default=None)
        self.request_of_query: dict[int, int] = {}

    def stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_request(self) -> int:
        return next(self._requests)

    def timed(self, name, fn, *, attrs=None, request=None, before=None):
        """Wrap ``fn`` in a span.

        ``before(args, kwargs)`` runs first and returns state handed to
        ``attrs(args, kwargs, result, state)``, which returns the span's
        attributes; ``request(args, kwargs, result, top_level)`` returns
        its request id when the span knows it directly.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder.stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            state = before(args, kwargs) if before is not None else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                recorder.spans.append(
                    [span_id, parent, name, start, end, None, {"error": True}]
                )
                raise
            end = clock()
            stack.pop()
            recorder.spans.append(
                [
                    span_id,
                    parent,
                    name,
                    start,
                    end,
                    request(args, kwargs, result, parent is None) if request else None,
                    attrs(args, kwargs, result, state) if attrs else None,
                ]
            )
            return result

        return wrapper

    def in_parent(self, parent, worker, payload):
        """Run ``worker(payload)`` on a pool thread as a child of ``parent``."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent] if parent is not None else []
        try:
            return worker(payload)
        finally:
            self._local.stack = saved

    def propagating(self, fn):
        """Wrap a fan-out entry ``fn(worker, payloads, ..., mode=...)`` so its
        thread-pool workers inherit the caller's span.  Process pools are
        left alone: their workers must stay picklable."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(worker, *args, **kwargs):
            stack = recorder.stack()
            if stack and kwargs.get("mode", "process") in ("thread", "serial"):
                worker = functools.partial(recorder.in_parent, stack[-1], worker)
            return fn(worker, *args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"spans": self.spans}, out)


def install(recorder: Recorder) -> None:
    """Wrap every layer's entry points in place (call before the daemon starts)."""
    import repro.analysis.counting as counting
    import repro.analysis.kernels as kernels
    import repro.injection as injection
    import repro.injection.campaign as campaign
    import repro.sim.checker as checker
    from repro.engine import QuerySet, ReliabilityEngine
    from repro.engine import registry
    from repro.engine import runtime
    from repro.engine.result import Answer
    from repro.markov.builders import ClusterMarkovModel
    from repro.serve.metrics import ServiceMetrics
    from repro.sim.cluster import Cluster

    # -- serve: decode / encode / request ----------------------------------
    def decoded(args, kwargs, result, top_level):
        request_id = recorder.new_request()
        recorder.request.set(request_id)
        for query in result:
            recorder.request_of_query[id(query)] = request_id
        return request_id

    from_json = QuerySet.from_json.__func__
    QuerySet.from_json = classmethod(
        recorder.timed("serve.decode", from_json, request=decoded)
    )
    Answer.to_dict = recorder.timed(
        "serve.encode",
        Answer.to_dict,
        request=lambda args, kwargs, result, top: recorder.request.get(),
    )

    record_request = ServiceMetrics.record_request

    def traced_record_request(self, method, path, status, seconds):
        end = clock()
        request_id = recorder.request.get()
        if path == "/v1/query" and request_id is not None:
            recorder.spans.append(
                [next(recorder._ids), None, "serve.request", end - seconds, end,
                 request_id, {"status": status}]
            )
        recorder.request.set(None)
        return record_request(self, method, path, status, seconds)

    ServiceMetrics.record_request = traced_record_request

    # -- engine -------------------------------------------------------------
    def engine_request(args, kwargs, result, top_level):
        if not top_level:
            return None
        items = args[1] if len(args) > 1 else kwargs.get("scenarios")
        if isinstance(items, (list, tuple, QuerySet)) and len(items):
            return recorder.request_of_query.get(id(items[0]))
        return None

    ReliabilityEngine.run = recorder.timed(
        "engine.run", ReliabilityEngine.run, request=engine_request
    )

    # -- engine.backends: re-registered through the public registry --------
    for kind in registry.registered_backends():
        registry.register_backend(kind)(
            recorder.timed(
                f"backend.{kind}",
                registry.get_backend(kind),
                attrs=lambda args, kwargs, result, state: {"queries": len(args[1])},
            )
        )

    # -- analysis.kernels: counting DP (scalar and batched) and reductions --
    counting.joint_count_pmf = recorder.timed(
        "kernels.count_dp",
        counting.joint_count_pmf,
        attrs=lambda args, kwargs, result, state: {"fleets": 1},
    )
    kernels.joint_count_pmf_batch = recorder.timed(
        "kernels.count_dp",
        kernels.joint_count_pmf_batch,
        attrs=lambda args, kwargs, result, state: {"fleets": int(result.shape[0])},
    )
    for name in ("reliability_values", "reliability_values_batch"):
        setattr(kernels, name, recorder.timed("kernels.reduce", getattr(kernels, name)))
    kernels.run_sharded = recorder.propagating(kernels.run_sharded)

    # -- markov: the CTMC solves -------------------------------------------
    for name in ("steady_state_distribution", "mean_time_to_failure_count"):
        setattr(
            ClusterMarkovModel,
            name,
            recorder.timed("markov.solve", getattr(ClusterMarkovModel, name)),
        )

    # -- engine.runtime: supervised fan-out and the shard journal -----------
    def run_report(args, kwargs, result, state):
        _, report = result
        return {
            "shards": report.shards,
            "attempts": report.attempts,
            "timeouts": report.timeouts,
            "dropped": len(report.dropped),
        }

    # Outermost span, so pool workers become children of the supervised run.
    runtime.run_supervised = recorder.timed(
        "runtime.run_supervised",
        recorder.propagating(runtime.run_supervised),
        attrs=run_report,
    )
    runtime.CampaignCheckpoint.record = recorder.timed(
        "runtime.journal", runtime.CampaignCheckpoint.record
    )

    # -- injection ------------------------------------------------------------
    replica = recorder.timed("injection.replica", campaign.run_replica)
    injection.run_replica = campaign.run_replica = replica
    campaign.compile_faults = recorder.timed("injection.compile", campaign.compile_faults)

    # -- sim ------------------------------------------------------------------
    def sim_before(args, kwargs):
        cluster = args[0]
        return (
            cluster.scheduler.processed_events,
            cluster.network.messages_sent,
            cluster.network.messages_dropped,
        )

    def sim_counts(args, kwargs, result, state):
        cluster = args[0]
        events, sent, dropped = state
        return {
            "events": cluster.scheduler.processed_events - events,
            "messages": cluster.network.messages_sent - sent,
            "dropped": cluster.network.messages_dropped - dropped,
        }

    Cluster.run_until = recorder.timed(
        "sim.run", Cluster.run_until, before=sim_before, attrs=sim_counts
    )
    checker.audit_run = recorder.timed("sim.audit", checker.audit_run)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="write the span log here on shutdown")
    parser.add_argument("daemon_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    daemon_args = args.daemon_args
    if daemon_args and daemon_args[0] == "--":
        daemon_args = daemon_args[1:]

    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(daemon_args)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
