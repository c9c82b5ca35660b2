"""HTTP load generator: an open loop on a schedule and a closed loop.

One process, ``threads`` threads, one keep-alive connection per thread.
Responses are stored as raw bytes and checked only after the phase, so
no client CPU is spent on verification while timing.

Open loop: request ``i`` is due at ``start + offsets[i]``; whichever thread
is free takes the next request, waits until it is due, and sends it.
Latency is measured from the due time, so a stall also charges the
requests that queued behind it.  The generator's own lateness is the part
of the send delay that is not explained by every connection being busy:
``sent - max(due, picked_up)``.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException

HEADERS = {"Content-Type": "application/json"}
#: Socket timeout: a hung server surfaces as failed requests, not a hang.
TIMEOUT_S = 30.0


@dataclass
class Outcome:
    status: int
    body: bytes
    due: float
    sent: float
    done: float
    #: Send delay caused by the generator itself (seconds).
    generator_late: float

    @property
    def latency(self) -> float:
        return self.done - self.due


class _Client:
    def __init__(self, host: str, port: int, path: str) -> None:
        self._address = (host, port)
        self._path = path
        self._connection = HTTPConnection(host, port, timeout=TIMEOUT_S)

    def post(self, body: bytes) -> tuple[int, bytes]:
        try:
            self._connection.request("POST", self._path, body, HEADERS)
            response = self._connection.getresponse()
            return response.status, response.read()
        except (OSError, HTTPException):
            self._connection.close()
            self._connection = HTTPConnection(*self._address, timeout=TIMEOUT_S)
            return -1, b""

    def close(self) -> None:
        self._connection.close()


def _run_threads(threads: int, worker) -> None:
    previous = sys.getswitchinterval()
    # Wake sleeping sender threads promptly while another one holds the GIL.
    sys.setswitchinterval(0.0005)
    try:
        pool = [threading.Thread(target=worker, name=f"loadgen-{n}")
                for n in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    finally:
        sys.setswitchinterval(previous)


#: Sleep until this close to a due time, then spin: a thread woken from
#: sleep on a busy 2-core host is often scheduled milliseconds late.
SPIN_S = 0.002


def _wait_until(due: float) -> None:
    remaining = due - time.perf_counter()
    if remaining > SPIN_S:
        time.sleep(remaining - SPIN_S)
    while time.perf_counter() < due:
        pass


def open_loop(host: str, port: int, path: str, bodies: list[bytes],
              offsets: list[float], threads: int) -> list[Outcome]:
    """Send ``bodies[i]`` at ``offsets[i]`` seconds after the start."""
    outcomes: list[Outcome | None] = [None] * len(bodies)
    lock = threading.Lock()
    cursor = iter(range(len(bodies)))
    start = time.perf_counter() + 0.05

    def worker() -> None:
        client = _Client(host, port, path)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                picked_up = time.perf_counter()
                due = start + offsets[index]
                _wait_until(due)
                sent = time.perf_counter()
                status, body = client.post(bodies[index])
                outcomes[index] = Outcome(status, body, due, sent,
                                          time.perf_counter(),
                                          sent - max(due, picked_up))
        finally:
            client.close()

    _run_threads(threads, worker)
    return outcomes  # type: ignore[return-value]


def closed_loop(host: str, port: int, path: str, bodies: list[bytes],
                seconds: float, threads: int) -> tuple[list[Outcome], float]:
    """Each thread sends its next request when the previous one returns.

    Runs for *seconds* or until *bodies* run out; returns the outcomes of
    the requests sent and the phase's wall time up to the last completion.
    """
    outcomes: list[Outcome | None] = [None] * len(bodies)
    lock = threading.Lock()
    cursor = iter(range(len(bodies)))
    start = time.perf_counter()
    end = start + seconds

    def worker() -> None:
        client = _Client(host, port, path)
        try:
            while time.perf_counter() < end:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                sent = time.perf_counter()
                status, body = client.post(bodies[index])
                outcomes[index] = Outcome(status, body, sent, sent,
                                          time.perf_counter(), 0.0)
        finally:
            client.close()

    _run_threads(threads, worker)
    done = [outcome for outcome in outcomes if outcome is not None]
    return done, max(outcome.done for outcome in done) - start
