"""Served end-to-end benchmark of the reliability daemon.

    python3 perfbench/run.py --workload grid_cold|mixed|campaign|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Starts the real daemon (``python -m repro.cli serve --port 0 --jobs 2``)
in its own process, drives it over loopback HTTP from this process with
at most two connections, checks every answer against the in-process
engine, and prints each metric by name with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics (from a second daemon started through
``traced_daemon.py``) with ``--trace 1``.  Exits 1 if any answer is
wrong, and 2 if the repository's ``src/`` is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Daemons started per run to measure set-up; setup_s is their median.
SETUPS = 3
#: In-process replays behind ``engine.direct_ms`` (first timed requests).
DIRECT_REPLAYS = {"grid_cold": 8, "mixed": 200, "campaign": 4}


def _ms(seconds: float) -> float:
    return seconds * 1000.0


# ---------------------------------------------------------------------------
# Facts about the host and the run
# ---------------------------------------------------------------------------
def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this host ran today.

    Shared hosts drift by tens of percent over minutes; the stamp records
    this so a slow run can be told apart from a slow program.
    """
    from arith import median

    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        times.append(_ms(time.perf_counter() - started))
    return median(times)


def stamp(workload, seed: int, seconds: float, trace: bool, argv: dict) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": workload.loop,
        "connections": workload.connections,
        "rate_per_s": workload.rate,
        "mix": workload.mix,
        "faults": workload.faults,
        "loads": list(workload.loads),
        "bypasses": list(workload.bypasses),
        "why": workload.why,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": _git_revision(),
        "source_digest": _source_digest(),
        "host_speed_ms": host_speed_ms(),
        "daemon_argv": argv,
    }


# ---------------------------------------------------------------------------
# One phase: set up a daemon, warm it, drive the timed loop
# ---------------------------------------------------------------------------
def _warm(daemon, bodies: list[str]) -> None:
    from loadgen import Connection

    connection = Connection(daemon.port)
    try:
        for body in bodies:
            status, payload = connection.post(body)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}: {payload[:200]!r}")
    finally:
        connection.close()


def _set_up(workload, run_dir: Path, tag: str, warm: list[str], *, traced: bool):
    """Spawn a daemon, wait for /healthz, answer the warm-up; return (daemon, seconds)."""
    from daemonproc import Daemon, daemon_argv

    checkpoint = run_dir / f"checkpoint-{tag}" if workload.checkpoint else None
    if checkpoint is not None:
        checkpoint.mkdir()
    spans = run_dir / f"spans-{tag}.json" if traced else None
    argv = daemon_argv(checkpoint, spans=spans)
    daemon = Daemon(ROOT, argv, run_dir / f"daemon-{tag}.log")
    started = time.perf_counter()
    try:
        daemon.start()
        _warm(daemon, warm)
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started, spans


def _drive(workload, port: int, body, seconds: float, *, tail: bool = True):
    """The timed phase; closed loops run on until the tail has its samples
    (``tail=False``: the traced phases, which report no tail)."""
    from arith import min_samples_for
    from loadgen import Connection, closed_loop, open_loop

    connections: list[Connection] = []

    def make_sender():
        connection = Connection(port)
        connections.append(connection)
        return connection.post

    # The generator's own garbage collector must not pause the clock: freeze
    # what exists and collect nothing until the timed phase ends.  Its
    # threads hand the interpreter lock over quickly, so a response is
    # timestamped when it arrives rather than a switch interval later.
    gc.collect()
    gc.freeze()
    gc.disable()
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        if workload.loop == "closed":
            return closed_loop(
                make_sender(),
                body,
                seconds,
                min_samples=min_samples_for(0.9) if tail else 0,
                max_seconds=2 * seconds,
            )
        return open_loop(
            make_sender, body, workload.rate, seconds, connections=workload.connections
        )
    finally:
        sys.setswitchinterval(switch_interval)
        gc.enable()
        gc.unfreeze()
        for connection in connections:
            connection.close()


def _answered(samples) -> int:
    return sum(
        json.loads(sample.payload)["count"] for sample in samples if sample.status == 200
    )


def end_to_end(samples, elapsed: float, setups: list[float], rss_mb: float):
    """Every end-to-end metric as {name: (value, unit)}; None where unsupported."""
    from arith import median, nearest_rank, tail_supported

    latencies = [_ms(sample.latency) for sample in samples]
    rows = _answered(samples)
    metrics = {
        "setup_s": (median(setups), "s"),
        "latency_p50_ms": (nearest_rank(latencies, 0.5), "ms"),
        "latency_p90_ms": (
            nearest_rank(latencies, 0.9) if tail_supported(len(latencies), 0.9) else None,
            "ms",
        ),
        "queries_per_s": (rows / elapsed, "1/s"),
        "rss_peak_mb": (rss_mb, "MB"),
    }
    return metrics


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
def run_untraced(workload, seed: int, seconds: float, run_dir: Path):
    from arith import median
    from gate import check
    from workloads import body_source, warmup_bodies

    body = body_source(workload.name, seed)
    warm = warmup_bodies(workload.name, seed)
    setups: list[float] = []
    daemon = None
    try:
        for attempt in range(SETUPS):
            if daemon is not None:
                daemon.stop()
            daemon, seconds_taken, _ = _set_up(
                workload, run_dir, f"setup{attempt}", warm, traced=False
            )
            setups.append(seconds_taken)
        samples, elapsed = _drive(workload, daemon.port, body, seconds)
        rss = daemon.peak_rss_mb()
        argv = daemon.argv
    finally:
        if daemon is not None:
            daemon.stop()
    gate = check(workload.name, samples, body)
    metrics = end_to_end(samples, elapsed, setups, rss)
    extra = {
        "samples": len(samples),
        "elapsed_s": elapsed,
        "setups_s": setups,
        "setup_median_s": median(setups),
    }
    return samples, gate, metrics, extra, {"untraced": argv}


def _direct_ms(workload, seed: int) -> float:
    """Median in-process ``ReliabilityEngine.run(QuerySet)`` time of the
    first timed requests, on an engine warmed like the daemon."""
    from arith import median
    from repro.engine import QuerySet, ReliabilityEngine
    from repro.serve import ServiceConfig
    from workloads import body_source, warmup_bodies

    engine = ReliabilityEngine()
    policy = ServiceConfig(jobs=2).policy()
    for text in warmup_bodies(workload.name, seed):
        engine.run(QuerySet.from_json(text), policy=policy)
    body = body_source(workload.name, seed)
    times = []
    for index in range(DIRECT_REPLAYS[workload.name]):
        query_set = QuerySet.from_json(body(index))
        started = time.perf_counter()
        engine.run(query_set, policy=policy)
        times.append(_ms(time.perf_counter() - started))
    return median(times)


def run_traced(workload, seed: int, seconds: float, run_dir: Path):
    """Half the time untraced, half through the traced launcher; per-layer metrics."""
    from arith import median, nearest_rank, tail_supported
    from gate import DirectEngine, GateResult, check
    from layers import PER_LAYER, SpanLog, per_layer_metrics
    from workloads import body_source, warmup_bodies

    body = body_source(workload.name, seed)
    warm = warmup_bodies(workload.name, seed)
    half = seconds / 2.0
    phases = {}
    argv = {}
    for phase, traced in (("untraced", False), ("traced", True)):
        daemon, _, spans = _set_up(workload, run_dir, phase, warm, traced=traced)
        try:
            before = daemon.metrics()["engine_cache"]
            samples, elapsed = _drive(workload, daemon.port, body, half, tail=False)
            after = daemon.metrics()["engine_cache"]
            argv[phase] = daemon.argv
        finally:
            daemon.stop()
        phases[phase] = (samples, elapsed, before, after, spans)

    direct = DirectEngine()
    gate = GateResult()
    for offset, phase in enumerate(phases.values()):
        phase_gate = check(workload.name, phase[0], body, direct)
        # Both phases number their requests from 0; keep their failures apart.
        gate.failed |= {index + offset * 10**9 for index in phase_gate.failed}
        gate.problems += phase_gate.problems
        gate.unverified += phase_gate.unverified
        gate.checked_queries += phase_gate.checked_queries

    samples, elapsed, before, after, spans = phases["traced"]
    metrics = per_layer_metrics(SpanLog.load(spans), first_timed_request=len(warm) + 1)
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    metrics["engine.memo_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["engine.memo_size"] = float(after["size"])
    answered = _answered(samples)
    coalesced = sum(json.loads(s.payload)["coalesced"] for s in samples if s.status == 200)
    metrics["serve.coalesced_frac"] = coalesced / answered if answered else 0.0
    metrics["engine.direct_ms"] = _direct_ms(workload, seed)

    untraced = phases["untraced"][0]
    lateness = [_ms(sample.lateness) for sample in untraced]
    metrics["loadgen.late_p99_ms"] = (
        nearest_rank(lateness, 0.99) if tail_supported(len(lateness), 0.99) else max(lateness)
    )
    # Both phases send the same request sequence, so pair them by index.
    plain = {sample.index: sample.latency for sample in untraced}
    metrics["trace.overhead_frac"] = (
        median([s.latency / plain[s.index] for s in samples if s.index in plain]) - 1.0
    )

    units = dict(PER_LAYER)
    per_layer = {name: (metrics[name], units[name]) for name, _ in PER_LAYER}
    all_samples = untraced + samples
    extra = {
        "samples": {phase: len(values[0]) for phase, values in phases.items()},
        "elapsed_s": {phase: values[1] for phase, values in phases.items()},
    }
    return all_samples, gate, per_layer, extra, argv


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def diagnostics(workload, samples, elapsed, gate, trace: bool) -> dict:
    """Printed but not gated: failed_frac, the p99 where the sample supports
    it, and simulated replicas/s on ``campaign``."""
    from arith import nearest_rank, tail_supported

    out = {"failed_frac": (len(gate.failed) / max(len(samples), 1), "frac")}
    if trace:
        return out
    latencies = [_ms(sample.latency) for sample in samples]
    if tail_supported(len(latencies), 0.99):
        out["latency_p99_ms"] = (nearest_rank(latencies, 0.99), "ms")
    if workload.name == "campaign":
        replicas = sum(
            row["answer"]["replicas"]
            for sample in samples
            if sample.status == 200
            for row in json.loads(sample.payload)["answers"]
            if row["kind"] == "simulation"
        )
        out["replicas_per_s"] = (replicas / elapsed, "1/s")
    return out


def _print_table(metrics: dict, extra: dict, gate) -> None:
    rows = [
        (name, "n/a (too few samples)" if value is None else f"{value:.6g}", unit)
        for name, (value, unit) in metrics.items()
    ]
    rows += [(f"{name} (not gated)", f"{value:.6g}", unit) for name, (value, unit) in extra.items()]
    width = max(len(row[0]) for row in rows)
    for label, value, unit in rows:
        print(f"  {label:<{width}}  {value:>14}  {unit}")
    for problem in gate.problems + gate.unverified:
        print(f"  GATE: {problem}")


def run(name: str, seed: int, seconds: float, trace: bool) -> bool:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}-{name}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        runner = run_traced if trace else run_untraced
        samples, gate, metrics, extra, argv = runner(workload, seed, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = len(samples)
    correct = gate.ok and attempted > 0
    facts = stamp(workload, seed, seconds, trace, argv)
    facts.update(extra)
    facts["checked_queries"] = gate.checked_queries
    print(f"perfbench {name}: {'per-layer (traced)' if trace else 'end-to-end'} metrics")
    _print_table(metrics, diagnostics(workload, samples, extra["elapsed_s"], gate, trace), gate)
    print("stamp " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(gate.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if value is not None
        },
    }
    print(json.dumps(result), flush=True)
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=("grid_cold", "mixed", "campaign", "all")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated benchmark still stops its daemons (the finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = ("grid_cold", "mixed", "campaign") if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        ok = run(name, args.seed, args.seconds, bool(args.trace)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
