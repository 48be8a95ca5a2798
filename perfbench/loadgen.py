"""Single-threaded HTTP/1.1 load generator for the sampling daemon.

One thread drives at most ``len(conns)`` persistent connections with
non-blocking sockets and a selector:

* :func:`open_loop` sends Poisson arrivals at a fixed absolute rate.
  Each request is timed from when it was *due*, so a stalled server or
  a busy connection shows up as latency of every request behind it.
  ``lag`` is how late the generator itself noticed a due request.
* :func:`closed_loop` keeps one request in flight per connection and
  sends the next as soon as the reply has been handled, the way
  data-loader workers call a sampling service.

Replies are handed to ``on_reply`` after their receive time was taken,
so whatever the callback does (decoding, checking) is outside every
request's timed interval.
"""

from __future__ import annotations

import json
import random
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

PATH = "/v1/sample"


@dataclass
class Record:
    """One request's timeline (``time.monotonic`` seconds)."""

    body_index: int
    due: float
    noticed: float = 0.0
    sent: float = 0.0
    received: float = 0.0
    status: int = 0
    error: Optional[str] = None
    reply: Dict = field(default_factory=dict)
    nbytes: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200

    @property
    def latency(self) -> float:
        """From due time to the full reply."""
        return self.received - self.due

    @property
    def lag(self) -> float:
        return self.noticed - self.due

    @property
    def round_trip(self) -> float:
        return self.received - self.sent


class Connection:
    """A persistent HTTP/1.1 connection with one request in flight."""

    def __init__(self, host: str, port: int,
                 sel: selectors.BaseSelector) -> None:
        self.host, self.port, self.sel = host, port, sel
        self.sock: Optional[socket.socket] = None
        self.record: Optional[Record] = None
        self._out = b""
        self._buf = bytearray()
        self._connect()

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.sock = sock
        self.sel.register(sock, selectors.EVENT_READ, self)

    def close(self) -> None:
        if self.sock is not None:
            self.sel.unregister(self.sock)
            self.sock.close()
            self.sock = None

    @property
    def idle(self) -> bool:
        return self.record is None

    def send(self, record: Record, body: bytes) -> None:
        if self.sock is None:
            self._connect()
        self.record = record
        self._buf.clear()
        self._out = (f"POST {PATH} HTTP/1.1\r\nHost: {self.host}\r\n"
                     "Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n"
                     ).encode("ascii") + body
        record.sent = time.monotonic()
        self._flush()

    def _flush(self) -> None:
        try:
            n = self.sock.send(self._out)
        except BlockingIOError:
            n = 0
        self._out = self._out[n:]
        self.sel.modify(self.sock, selectors.EVENT_READ
                        | (selectors.EVENT_WRITE if self._out else 0),
                        self)

    def on_event(self, mask: int) -> Optional[Record]:
        """Advance I/O; returns the finished record, if any."""
        if mask & selectors.EVENT_WRITE and self._out:
            self._flush()
        if not mask & selectors.EVENT_READ:
            return None
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return None
        except OSError as exc:
            return self._fail(f"recv failed: {exc!r}")
        if not chunk:
            return self._fail("server closed the connection")
        self._buf += chunk
        head_end = self._buf.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = bytes(self._buf[:head_end]).decode("latin-1").split("\r\n")
        headers = {}
        for line in head[1:]:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if len(self._buf) < head_end + 4 + length:
            return None
        record = self.record
        record.received = time.monotonic()
        record.status = int(head[0].split()[1])
        body = bytes(self._buf[head_end + 4:head_end + 4 + length])
        record.nbytes = len(body)
        try:
            record.reply = json.loads(body)
        except ValueError as exc:
            record.error = f"unparseable reply: {exc}"
        if headers.get("connection", "").lower() == "close":
            self.close()
        self.record = None
        return record

    def _fail(self, why: str) -> Record:
        record = self.record
        record.received = time.monotonic()
        record.error = why
        self.record = None
        self.close()
        return record


def _drive(host: str, port: int, nconns: int, bodies: List[bytes],
           dues: Optional[List[float]], stop_at: float,
           on_reply: Callable[[Record], None],
           drain_s: float) -> List[Record]:
    """Shared event loop: ``dues`` is the open-loop schedule, or None
    for a closed loop that runs until ``stop_at``."""
    sel = selectors.DefaultSelector()
    conns = [Connection(host, port, sel) for _ in range(nconns)]
    records: List[Record] = []
    pending: List[Record] = []
    issued = 0
    try:
        while True:
            now = time.monotonic()
            if dues is None:
                if now < stop_at:
                    for conn in conns:
                        if conn.idle:
                            rec = Record(issued % len(bodies), now, now)
                            issued += 1
                            records.append(rec)
                            conn.send(rec, bodies[rec.body_index])
            else:
                while issued < len(dues) and dues[issued] <= now:
                    rec = Record(issued % len(bodies), dues[issued], now)
                    issued += 1
                    records.append(rec)
                    pending.append(rec)
                for conn in conns:
                    if pending and conn.idle:
                        rec = pending.pop(0)
                        conn.send(rec, bodies[rec.body_index])
            busy = any(not c.idle for c in conns)
            done_issuing = (issued >= len(dues) and not pending
                            if dues is not None else now >= stop_at)
            if done_issuing and not busy:
                break
            if now > stop_at + drain_s:
                for conn in conns:
                    if not conn.idle:
                        on_reply(conn._fail("no reply before the drain "
                                            "timeout"))
                for rec in pending:
                    rec.received = now
                    rec.error = "never sent before the drain timeout"
                    on_reply(rec)
                break
            timeout = 0.05
            if dues is not None and issued < len(dues):
                timeout = min(timeout, max(0.0, dues[issued] - now))
            for key, mask in sel.select(timeout):
                rec = key.data.on_event(mask)
                if rec is not None:
                    on_reply(rec)
    finally:
        for conn in conns:
            conn.close()
        sel.close()
    return records


def poisson_schedule(rate_rps: float, seconds: float, start: float,
                     seed: int) -> List[float]:
    """Arrival times of a Poisson process over ``[start, start+seconds)``."""
    rng = random.Random(seed)
    dues, t = [], start
    while True:
        t += rng.expovariate(rate_rps)
        if t >= start + seconds:
            return dues
        dues.append(t)


def open_loop(host: str, port: int, nconns: int, bodies: List[bytes],
              rate_rps: float, seconds: float, seed: int,
              on_reply: Callable[[Record], None],
              drain_s: float = 30.0) -> List[Record]:
    start = time.monotonic() + 0.01
    dues = poisson_schedule(rate_rps, seconds, start, seed)
    return _drive(host, port, nconns, bodies, dues, start + seconds,
                  on_reply, drain_s)


def closed_loop(host: str, port: int, nconns: int, bodies: List[bytes],
                seconds: float, on_reply: Callable[[Record], None],
                drain_s: float = 30.0) -> List[Record]:
    return _drive(host, port, nconns, bodies, None,
                  time.monotonic() + seconds, on_reply, drain_s)
