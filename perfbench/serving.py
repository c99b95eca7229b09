"""A ``repro serve`` process and the closed-loop clients that load it.

The server runs as its own process with its default settings (only the port
is left to the OS).  Each client thread holds one keep-alive connection and
sends its next request when the previous answer has arrived.
"""

from __future__ import annotations

import http.client
import json
import queue
import re
import subprocess
import sys
import threading
import time

HOST = "127.0.0.1"
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 30.0
_ADDRESS = re.compile(r"http://127\.0\.0\.1:(\d+)")


class ServerError(RuntimeError):
    """The server could not be started or queried."""


class Server:
    """One ``python -m repro.cli serve`` child process."""

    def __init__(self, model_path: str, *, cwd: str, env: dict) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--model", model_path,
             "--port", "0"],
            cwd=cwd,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port: int | None = None

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self) -> None:
        """Block until ``/healthz`` answers 200, or raise ``ServerError``."""
        deadline = time.monotonic() + START_TIMEOUT
        while self.port is None:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise ServerError("repro serve printed no address in time") from None
            if line is None:
                raise ServerError(f"repro serve exited with {self.process.wait()}")
            match = _ADDRESS.search(line)
            if match:
                self.port = int(match.group(1))
        while True:
            try:
                self.get("/healthz")
                return
            except (OSError, http.client.HTTPException, ServerError):
                if time.monotonic() > deadline or self.process.poll() is not None:
                    raise ServerError("repro serve did not answer /healthz") from None
                time.sleep(0.005)

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection(HOST, self.port, timeout=REQUEST_TIMEOUT)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise ServerError(f"GET {path} answered {response.status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``), in MB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM line for the server process")

    def stop(self) -> None:
        """Terminate the process and wait for it and its output reader."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)
        self.process.stdout.close()


def _closed_loop(port: int, requests: list, records: list, start: threading.Barrier) -> None:
    """Send ``requests`` (``(body, tag)`` pairs) one after another on one connection.

    Appends ``(tag, seconds, response bytes)``; a non-200 answer, a timeout
    or a dropped connection is recorded with ``None`` for the bytes.
    """
    connection = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT)
    headers = {"Content-Type": "application/json"}
    start.wait()
    try:
        for body, tag in requests:
            began = time.perf_counter()
            try:
                connection.request("POST", "/predict", body=body, headers=headers)
                response = connection.getresponse()
                data = response.read()
                if response.status != 200:
                    data = None
            except (OSError, http.client.HTTPException):
                connection.close()
                data = None
            records.append((tag, time.perf_counter() - began, data))
    finally:
        connection.close()


def drive(port: int, streams: list[list]) -> tuple[list[list], float]:
    """Run one closed-loop connection per request stream, all at once.

    Returns each stream's records and the wall time from the common start
    until the last answer.
    """
    records: list[list] = [[] for _ in streams]
    start = threading.Barrier(len(streams) + 1)
    threads = [
        threading.Thread(target=_closed_loop, args=(port, stream, out, start))
        for stream, out in zip(streams, records)
    ]
    for thread in threads:
        thread.start()
    start.wait()
    began = time.perf_counter()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - began
