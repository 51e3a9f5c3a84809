"""Spawn, probe and stop the query daemon as a separate process."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from loadgen import Connection

SERVE_FLAGS = ("serve", "--port", "0", "--jobs", "2")


def daemon_argv(checkpoint_dir: Path | None, *, spans: Path | None = None) -> list[str]:
    """The daemon command line; with ``spans``, the same flags via the traced launcher."""
    flags = list(SERVE_FLAGS)
    if checkpoint_dir is not None:
        flags += ["--checkpoint-dir", str(checkpoint_dir)]
    if spans is None:
        return [sys.executable, "-m", "repro.cli", *flags]
    launcher = Path(__file__).resolve().parent / "traced_daemon.py"
    return [sys.executable, str(launcher), "--spans", str(spans), "--", *flags]


class Daemon:
    """One daemon process; ``start`` returns once ``/healthz`` answers."""

    def __init__(self, root: Path, argv: list[str], log_path: Path):
        self.root = root
        self.argv = argv
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self, timeout: float = 60.0) -> "Daemon":
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.argv,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        deadline = time.monotonic() + timeout
        self.port = self._read_port(deadline)
        while True:
            try:
                connection = Connection(self.port, timeout=5.0)
                try:
                    status, _ = connection.get("/healthz")
                finally:
                    connection.close()
                if status == 200:
                    return self
            except OSError:
                pass
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError(f"daemon never became healthy; see {self.log_path}")
            time.sleep(0.01)

    def _read_port(self, deadline: float) -> int:
        # The daemon announces "repro-serve listening on http://HOST:PORT (...)".
        stream = self.process.stdout
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(f"daemon did not announce its port; see {self.log_path}")
            ready, _, _ = select.select([stream], [], [], min(remaining, 0.5))
            if ready:
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    continue
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode("utf-8")
        return int(line.split("://", 1)[1].split(":", 1)[1].split()[0])

    def metrics(self) -> dict:
        connection = Connection(self.port, timeout=30.0)
        try:
            status, payload = connection.get("/metrics")
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(payload)

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT (the daemon's clean shutdown), then SIGKILL; always reaps."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()
        self.process = None
