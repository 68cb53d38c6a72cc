"""The line-JSON server harness and its load generator.

``Server`` runs ``python -m repro serve`` as a subprocess (free port,
readiness poll with ``ping``, output captured under ``out/``, always
terminated).  The client uses two connections from one process: the
main thread sends ``ingest`` ops and reads their replies on the first,
a reader thread receives every subscriber's delta lines on the second.
"""

from __future__ import annotations

import json
import os
import re
import select
import socket
import subprocess
import sys
import threading
import time

from harness import now

__all__ = ["Client", "DeltaReader", "Server", "closed_loop", "open_loop"]

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
READY_TIMEOUT_S = 30.0
_PTIME = re.compile(rb'"ptime": (\d+)')


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``python -m repro serve`` process."""

    def __init__(self, log_path: str, flags: list[str]):
        self.port = free_port()
        self.log_path = log_path
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--listen", f"127.0.0.1:{self.port}", *flags],
            stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )

    def wait_ready(self) -> None:
        """Poll until the server answers ``ping``."""
        deadline = now() + READY_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}; "
                    f"see {self.log_path}"
                )
            try:
                with Client(self.port, timeout=1.0) as client:
                    if client.request({"op": "ping"}).get("ok"):
                        return
            except OSError:
                pass
            if now() > deadline:
                raise RuntimeError(f"server not ready; see {self.log_path}")
            time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``), which is
        what ``ru_maxrss`` reports once a process has been waited for."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


class Client:
    """One line-JSON connection used request/reply."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.sock.close()

    def request(self, payload: dict) -> dict:
        self.sock.sendall(json.dumps(payload).encode() + b"\n")
        while b"\n" not in self._buffer:
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            self._buffer += data
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)


class DeltaReader(threading.Thread):
    """Receives every delta line of every subscriber on one connection.

    Lines are counted by newline.  Only the first copy of each delta —
    the first subscriber's, since the server flushes subscribers in
    subscription order — is kept, with its arrival time, by searching
    for the next expected ``seq``; the other copies are never decoded.

    While ``poll_s`` is set the thread sleeps that long between
    non-blocking reads instead of blocking in ``recv``.  A blocked
    reader is woken by every one of the server's small writes, and
    those cross-CPU wake-ups are charged to the *server*: in the probe
    its CPU per event doubled, and swung run to run.  Throughput phases
    therefore poll; latency phases block, so arrival times are exact.
    """

    def __init__(self, sock: socket.socket, next_seq: int = 0):
        super().__init__(daemon=True)
        self.sock = sock
        self.next_seq = next_seq
        self.poll_s = None
        self.lines = 0
        self.first: list[tuple[float, bytes]] = []  # (arrival, line) by seq
        self.error = None
        self._halt = threading.Event()

    def run(self) -> None:
        sock = self.sock
        tail = b""
        try:
            while not self._halt.is_set():
                poll = self.poll_s
                if poll:
                    time.sleep(poll)
                sock.settimeout(0.0 if poll else 0.1)
                try:
                    data = sock.recv(1 << 20)
                except (BlockingIOError, socket.timeout):
                    continue
                if not data:
                    break
                arrived = now()
                self.lines += data.count(b"\n")
                buffer = tail + data
                position = 0
                while True:
                    at = buffer.find(b'"seq": %d,' % self.next_seq, position)
                    if at < 0:
                        break
                    line_end = buffer.find(b"\n", at)
                    if line_end < 0:
                        break
                    line_start = buffer.rfind(b"\n", 0, at) + 1
                    self.first.append((arrived, buffer[line_start:line_end]))
                    self.next_seq += 1
                    position = line_end
                tail = buffer[buffer.rfind(b"\n") + 1:]
        except OSError as exc:  # reported by the caller as failed operations
            self.error = exc

    def halt(self) -> None:
        self._halt.set()
        self.join(timeout=5)

    def wait_for_lines(self, lines: int, timeout: float) -> bool:
        """Block until ``lines`` delta lines have arrived in total."""
        deadline = now() + timeout
        while self.lines < lines and now() < deadline:
            time.sleep(0.005)
        return self.lines >= lines

    def arrivals(self, since: int = 0) -> dict[int, float]:
        """``ptime -> arrival`` of the first delta each event produced."""
        out: dict[int, float] = {}
        for arrived, line in self.first[since:]:
            ptime = int(_PTIME.search(line).group(1))
            out.setdefault(ptime, arrived)
        return out


def _drain(sock: socket.socket, state: dict) -> None:
    data = sock.recv(1 << 16)
    if not data:
        raise ConnectionError("server closed the ingest connection")
    state["acked"] += data.count(b"\n")
    state["refused"] += data.count(b'"ok": false')


def closed_loop(sock: socket.socket, payloads: list[bytes], in_flight: int,
                host_factor=lambda: 1.0, chunk: int = 256, poll_s: float = 0.001):
    """Send ``payloads`` keeping up to ``in_flight`` ops outstanding.

    Replies are polled every ``poll_s`` rather than waited for, for the
    reason given on :class:`DeltaReader`.  ``host_factor`` is sampled at
    every chunk boundary and scales that chunk's rate.  Returns
    ``(events/s per chunk of acks, refused ops)``.
    """
    state = {"acked": 0, "refused": 0}
    total = len(payloads)
    sent = 0
    rates = []
    factor = host_factor()
    chunk_start = now()
    next_mark = chunk
    while state["acked"] < total:
        window = min(total, state["acked"] + in_flight)
        if sent < window:
            sock.sendall(b"".join(payloads[sent:window]))
            sent = window
        time.sleep(poll_s)
        while select.select([sock], [], [], 0)[0]:
            _drain(sock, state)
        while state["acked"] >= next_mark:
            stop = now()
            before, factor = factor, host_factor()
            rates.append(chunk * (before + factor) / 2.0 / (stop - chunk_start))
            chunk_start = now()
            next_mark += chunk
    return rates, state["refused"]


def open_loop(sock: socket.socket, payloads: list[bytes], rate: float,
              host_factor=lambda: 1.0, factor_every_s: float = 0.05):
    """Send one payload every ``1/rate`` seconds whatever the replies do.

    ``host_factor`` is sampled in the gaps between sends, about every
    ``factor_every_s``.  Returns ``(due times, lateness of each send,
    backlog at the middle and the end, refused ops, [(time, factor)])``;
    backlog is ops sent and not yet acked.
    """
    state = {"acked": 0, "refused": 0}
    interval = 1.0 / rate
    total = len(payloads)
    factors = [(now(), host_factor())]
    start = now() + 0.02
    due_times = [start + i * interval for i in range(total)]
    lateness = []
    backlog_mid = 0
    for i, payload in enumerate(payloads):
        due = due_times[i]
        while True:
            wait = due - now()
            if wait <= 0:
                break
            if wait > interval / 2 and now() - factors[-1][0] > factor_every_s:
                factors.append((now(), host_factor()))
                continue
            ready, _, _ = select.select([sock], [], [], wait)
            if ready:
                _drain(sock, state)
        sock.sendall(payload)
        lateness.append(now() - due)
        if i == total // 2:
            backlog_mid = i + 1 - state["acked"]
    backlog_end = total - state["acked"]
    deadline = now() + 10.0
    while state["acked"] < total and now() < deadline:
        ready, _, _ = select.select([sock], [], [], 0.1)
        if ready:
            _drain(sock, state)
    factors.append((now(), host_factor()))
    return (due_times, lateness, (backlog_mid, backlog_end), state["refused"],
            factors)
