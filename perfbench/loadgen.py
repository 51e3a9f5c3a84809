"""Closed- and open-loop load generators over keep-alive HTTP connections.

A *sender* is any callable ``send(body) -> (status, payload)``; one is
made per connection, so the generators never share a socket between
threads.  ``clock`` and ``sleep`` are injectable so the self-tests can
drive the open loop against a fake server on a fake clock.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import Callable

from arith import open_loop_delays

Sender = Callable[[str], tuple[int, bytes]]


@dataclass
class Sample:
    index: int
    due: float
    sent: float
    done: float
    status: int
    payload: bytes

    @property
    def latency(self) -> float:
        return open_loop_delays(self.due, self.sent, self.done)[0]

    @property
    def lateness(self) -> float:
        return open_loop_delays(self.due, self.sent, self.done)[1]


class Connection:
    """One keep-alive HTTP/1.1 connection to the daemon on loopback."""

    def __init__(self, port: int, timeout: float = 120.0):
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def post(self, body: str, path: str = "/v1/query") -> tuple[int, bytes]:
        self._conn.request(
            "POST", path, body=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = self._conn.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> tuple[int, bytes]:
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


def closed_loop(
    send: Sender,
    body: Callable[[int], str],
    seconds: float,
    *,
    min_samples: int = 0,
    max_seconds: float | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[list[Sample], float]:
    """One client that sends the next request when the last one returns.

    Runs for ``seconds``, and past that only until ``min_samples``
    requests have completed (bounded by ``max_seconds``), so a slow host
    still leaves its tail percentile enough samples.  Returns the samples
    and the measured wall time.
    """
    start = clock()
    samples: list[Sample] = []
    index = 0
    while True:
        now = clock()
        elapsed = now - start
        if elapsed >= seconds and (
            len(samples) >= min_samples
            or (max_seconds is not None and elapsed >= max_seconds)
        ):
            break
        status, payload = send(body(index))
        samples.append(Sample(index, now, now, clock(), status, payload))
        index += 1
    return samples, clock() - start


def open_loop(
    make_sender: Callable[[], Sender],
    body: Callable[[int], str],
    rate: float,
    seconds: float,
    *,
    connections: int,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    lead: float = 0.05,
) -> tuple[list[Sample], float]:
    """Requests due at a fixed ``rate`` for ``seconds``, on ``connections``.

    Request ``i`` is due at ``start + i / rate`` whether or not earlier
    ones have returned; each connection takes the next due request as soon
    as it is free.  A stalled server therefore makes later requests late,
    and their latency (timed from the due time) includes that wait.
    Bodies are built before the clock starts.
    """
    count = int(seconds * rate)
    bodies = [body(index) for index in range(count)]
    senders = [make_sender() for _ in range(connections)]
    samples: list[Sample] = []
    lock = threading.Lock()
    next_index = [0]
    errors: list[BaseException] = []
    start = clock() + lead

    def worker(send: Sender) -> None:
        try:
            while True:
                with lock:
                    index = next_index[0]
                    next_index[0] += 1
                if index >= count:
                    return
                due = start + index / rate
                wait = due - clock()
                if wait > 0:
                    sleep(wait)
                sent = clock()
                status, payload = send(bodies[index])
                sample = Sample(index, due, sent, clock(), status, payload)
                with lock:
                    samples.append(sample)
        except BaseException as error:  # re-raised in the calling thread
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(send,), name=f"perfbench-conn{slot}")
        for slot, send in enumerate(senders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    samples.sort(key=lambda sample: sample.index)
    finished = max((sample.done for sample in samples), default=start)
    return samples, finished - start
