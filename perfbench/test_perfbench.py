"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import socket
import threading
import time
from collections import Counter
from urllib.parse import urlsplit

import pytest

from common import median, percentile, samples_beyond, \
    scale_between, supported
from loadgen import get_request, run_phase
from tracer import CALL, Tracer, self_times, unaccounted_ns
from wl_serve import ROUTE_KEYS, ROUTE_MIX, ZIPF_EXPONENT, \
    _holds_key_space, _targets, lru_hits


# ----------------------------------------------------------------------
# Nearest-rank percentile
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    # Never interpolates: the answer is always one of the samples.
    assert percentile([1.0, 10.0], 50) == 1.0
    assert median([5.0]) == 5.0


def test_percentile_rejects_no_samples_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert supported(100, 90)
    assert not supported(99, 90)
    assert samples_beyond(1000, 99) == 10
    assert supported(1000, 99)
    assert not supported(999, 99)
    assert supported(20, 50) and not supported(19, 50)


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
def test_each_time_is_scaled_by_the_marks_around_it():
    # The host slows down 2x between the first and the second operation:
    # each time over the mean of its neighbouring marks reads the same.
    times = [1.0, 1.5, 2.0]
    marks = [1.0, 1.0, 2.0, 2.0]
    assert scale_between(times, marks, 1.0) == [1.0, 1.0, 1.0]
    # The reference sets the unit: a mark of 2 at reference 4 doubles.
    assert scale_between([3.0], [2.0, 2.0], 4.0) == [6.0]


def test_scaling_needs_one_mark_more_than_times():
    with pytest.raises(ValueError):
        scale_between([1.0, 2.0], [1.0, 1.0], 1.0)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans():
    # root [0, 100) holds a [10, 40) with a child [20, 30), and b
    # [50, 70); a folded span of 5 ns total hangs under root too.
    trace = {
        "spans": [
            [1, "root", 0, 100, None],
            [2, "a", 10, 40, 1],
            [3, "a.child", 20, 30, 2],
            [4, "b", 50, 70, 1],
        ],
        "folds": [{"name": "f", "parent": 1, "count": 3, "total_ns": 5,
                   "durations_ns": [1, 2, 2]}],
    }
    selfs = self_times(trace)
    assert selfs == {1: 100 - 30 - 20 - 5, 2: 30 - 10, 3: 10, 4: 20}
    assert unaccounted_ns(trace, 1) == 45


def test_self_time_counts_overlapping_children_once():
    trace = {
        "spans": [
            [1, "root", 0, 100, None],
            [2, "x", 10, 50, 1],
            [3, "y", 30, 60, 1],  # overlaps x (another thread)
        ],
        "folds": [],
    }
    assert self_times(trace)[1] == 100 - 50


def test_tracer_records_parents_and_folds_generator_steps():
    tracer = Tracer("test")
    tracer.patch(f"{__name__}:_Holder.items", "gen", "gen")
    tracer.patch(f"{__name__}:_Holder.consume", "outer", CALL)
    try:
        total = tracer.call("root", lambda: _Holder.consume(_Holder.items()))
    finally:
        tracer.uninstall()
    assert total == 10
    trace = tracer.dump()
    names = {span[1]: span for span in trace["spans"]}
    assert names["outer"][4] == names["root"][0]
    (fold,) = trace["folds"]
    assert fold["name"] == "gen" and fold["count"] == 5
    assert fold["parent"] == names["outer"][0]
    selfs = self_times(trace)
    assert selfs[names["outer"][0]] == (
        names["outer"][3] - names["outer"][2] - fold["total_ns"]
    )
    # uninstall restored the originals
    assert inspect.getattr_static(_Holder, "items") is _ORIGINAL_ITEMS


class _Holder:
    @staticmethod
    def items():
        yield from range(5)

    @staticmethod
    def consume(iterable):
        return sum(iterable)


_ORIGINAL_ITEMS = inspect.getattr_static(_Holder, "items")


# ----------------------------------------------------------------------
# Due-time latency across an injected stall
# ----------------------------------------------------------------------
class _StallingServer:
    """HTTP/1.1 on loopback that answers pipelined requests in order and
    sleeps ``stall_s`` before answering request number ``stall_at``."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        buf = b""
        served = 0
        with conn:
            while True:
                try:
                    data = conn.recv(65536)
                except OSError:
                    return
                if not data:
                    return
                buf += data
                while b"\r\n\r\n" in buf:
                    _head, buf = buf.split(b"\r\n\r\n", 1)
                    if served == self.stall_at:
                        time.sleep(self.stall_s)
                    served += 1
                    try:
                        conn.sendall(b"HTTP/1.1 200 OK\r\n"
                                     b"Content-Length: 2\r\n\r\nok")
                    except OSError:  # the client gave up (timeout test)
                        return

    def close(self) -> None:
        self.listener.close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def test_latency_runs_from_due_time_across_a_stall():
    rate, stall_s, stall_at = 200.0, 0.3, 40
    server = _StallingServer(stall_at=stall_at, stall_s=stall_s)
    try:
        phase = run_phase(server.address, [get_request("/x")], rate=rate,
                          duration=1.0, connections=1, keep=set(range(200)))
    finally:
        server.close()
    assert phase.failed == 0
    assert phase.sent == 200 and len(phase.latencies) == 200
    # Every request due during the stall waits for its end: about 60 of
    # them (0.3 s at 200/s) see latencies spread from ~0.3 s down to ~0.
    stalled = [lat for lat in phase.latencies if lat > 0.05]
    assert len(stalled) >= 0.6 * stall_s * rate
    assert max(phase.latencies) >= 0.8 * stall_s
    assert percentile(phase.latencies, 99) >= 0.5 * stall_s
    # Timed from the send instead, only the stalled request itself would
    # be slow; the generator kept its schedule the whole time.
    assert percentile(phase.lateness, 99) < 0.05
    assert len(phase.bodies) == 200


def test_timeouts_count_as_failures():
    server = _StallingServer(stall_at=0, stall_s=1.0)
    try:
        phase = run_phase(server.address, [get_request("/x")], rate=50.0,
                          duration=0.4, connections=1, timeout=0.2)
    finally:
        server.close()
    assert phase.sent == 20
    assert phase.failed == 20
    assert phase.latencies == []


# ----------------------------------------------------------------------
# Serve traffic
# ----------------------------------------------------------------------
class _Store:
    """The two things ``_targets`` reads from an ``MmapTrustStore``."""

    def __init__(self, sites: int, pages_per_site: int) -> None:
        self.sites = [f"site{i}.example" for i in range(sites)]
        self._page_index = {(site, f"/p{j}"): None for site in self.sites
                            for j in range(pages_per_site)}

    def websites(self):
        return iter(self.sites)


def test_key_space_needs_64_sites_and_256_pages():
    assert _holds_key_space(_Store(sites=64, pages_per_site=4))
    assert not _holds_key_space(_Store(sites=57, pages_per_site=6))
    assert not _holds_key_space(_Store(sites=130, pages_per_site=1))


def test_serve_mix_is_fixed_for_every_seed():
    store = _Store(sites=130, pages_per_site=3)
    sequences = [_targets(store, seed) for seed in (1, 2)]
    assert sequences[0] != sequences[1]
    for targets in sequences:
        routes = [urlsplit(t).path for t in targets]
        # Every block of eight holds the mix exactly.
        for start in range(0, 800, 8):
            assert Counter(routes[start:start + 8]) == Counter(ROUTE_MIX)
        by_route: dict[str, Counter] = {}
        for route, target in zip(routes, targets):
            by_route.setdefault(route, Counter())[target] += 1
        for route, counts in by_route.items():
            assert len(counts) <= ROUTE_KEYS[route]
        # Zipf within a route: the top key's share is 1 / H(n, s).
        score = by_route["/score"]
        harmonic = sum(1 / r ** ZIPF_EXPONENT
                       for r in range(1, ROUTE_KEYS["/score"] + 1))
        top_share = score.most_common(1)[0][1] / sum(score.values())
        assert abs(top_share - 1 / harmonic) < 0.02


def test_lru_replay_counts_hits_of_measured_requests_only():
    targets = ["a", "b", "a", "c", "b", "a"]
    # Cache of two: a, b miss; a hits; c evicts b; b misses and evicts
    # a; a misses.
    assert lru_hits(targets, [(0, 6, True)], entries=2) == (1, 6)
    # Unmeasured requests still warm the cache.
    assert lru_hits(targets, [(0, 2, False), (2, 1, True)],
                    entries=2) == (1, 1)
    # Offsets wrap around the sequence: a and b were the last two.
    assert lru_hits(targets, [(0, 6, False), (6, 2, True)],
                    entries=2) == (2, 2)
