"""HTTP/1.1 open-loop load generator: one thread, a few keep-alive
connections, requests pipelined on a fixed schedule (``run_phase``).

Request ``i`` is due at ``start + i / rate`` whatever the server does; it
is written to connection ``i % connections`` when due and its latency
runs from when it was *due* to when its response is complete, so a stall
also charges every request that fell due during it. The generator's own
lateness (send time minus due time) is kept apart, so a late generator
is not read as a slow server. A request with no complete response within
``timeout`` after it was due, or with a non-2xx status, counts as failed.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field


@dataclass
class Phase:
    """Outcome of one fixed-rate phase."""

    rate: float
    sent: int = 0
    latencies: list[float] = field(default_factory=list)  # seconds
    lateness: list[float] = field(default_factory=list)  # seconds
    failed: int = 0
    #: requests unanswered when the last one was sent (queue at the end)
    backlog: int = 0
    bodies: dict[int, tuple[int, bytes]] = field(default_factory=dict)


class _Conn:
    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.buf = bytearray()
        self.pending: list[tuple[int, float]] = []  # (index, due)
        self.head = 0  # index into pending of the oldest unanswered

    def close(self) -> None:
        self.sock.close()


def _parse(buf: bytearray):
    """One complete response at the front of ``buf``: (status, body, n)."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buf[:end]).decode("latin-1")
    lines = head.split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    total = end + 4 + length
    if len(buf) < total:
        return None
    return status, bytes(buf[end + 4:total]), total


def run_phase(address, requests: list[bytes], rate: float, duration: float,
              connections: int, keep: set[int] = frozenset(),
              timeout: float = 2.0, offset: int = 0,
              clock=time.monotonic) -> Phase:
    """Send ``requests`` (cycled, starting at ``offset``) at ``rate`` for
    ``duration`` seconds; bodies of the request numbers in ``keep``
    (counted from ``offset``'s origin, like ``offset``) are kept."""
    count = max(1, int(rate * duration))
    phase = Phase(rate=rate)
    conns = [_Conn(address) for _ in range(connections)]
    # select(2) takes its timeout in microseconds; epoll and poll round it
    # up to whole milliseconds, which would make every send up to 1 ms late.
    selector = selectors.SelectSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    outstanding = 0
    try:
        start = clock()
        next_index = 0
        while True:
            now = clock()
            while next_index < count and start + next_index / rate <= now:
                due = start + next_index / rate
                conn = conns[next_index % connections]
                conn.out += requests[(offset + next_index) % len(requests)]
                conn.pending.append((offset + next_index, due))
                phase.lateness.append(now - due)
                next_index += 1
                outstanding += 1
                if next_index == count:
                    phase.backlog = outstanding
            for conn in conns:
                if conn.out:
                    try:
                        sent = conn.sock.send(conn.out)
                    except BlockingIOError:
                        sent = 0
                    del conn.out[:sent]
            if next_index >= count and outstanding == 0:
                break
            oldest = min(
                (c.pending[c.head][1] for c in conns
                 if c.head < len(c.pending)),
                default=None,
            )
            if oldest is not None and now - oldest > timeout:
                break  # the rest are failures
            wait = (start + next_index / rate - now
                    if next_index < count else 0.005)
            for key, _events in selector.select(max(0.0, min(wait, 0.005))):
                conn = key.data
                try:
                    data = conn.sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                if not data:
                    raise ConnectionError("server closed the connection")
                conn.buf += data
                done = clock()
                while conn.head < len(conn.pending):
                    parsed = _parse(conn.buf)
                    if parsed is None:
                        break
                    status, body, used = parsed
                    del conn.buf[:used]
                    index, due = conn.pending[conn.head]
                    conn.head += 1
                    outstanding -= 1
                    if 200 <= status < 300 and done - due <= timeout:
                        phase.latencies.append(done - due)
                    else:
                        phase.failed += 1
                    if index in keep:
                        phase.bodies[index] = (status, body)
        phase.sent = count
        phase.failed += outstanding + count - next_index
    finally:
        selector.close()
        for conn in conns:
            conn.close()
    return phase


def get_request(target: str) -> bytes:
    return (f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").encode("latin-1")
