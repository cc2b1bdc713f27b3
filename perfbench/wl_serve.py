"""Workload ``serve``: ``kbt serve --gateway`` in its own process, driven
by the open-loop load generator at a reference rate and up a fixed ladder
of rates.

The route mix is ``/score``, ``/page``, ``/batch``, ``/breakdown`` and
``/top`` in fixed shares, with Zipf-skewed keys within each route over a
key space four times the gateway's 1024-entry response cache, so both
hits and misses occur. Every seed serves the same mix; the seed picks
which sites, pages and triples the keys are and which rank each gets.
"""

from __future__ import annotations

import json
import math
import os
import random
import select
import shutil
import subprocess
import sys
import time
from collections import Counter, OrderedDict
from urllib.parse import parse_qs, quote, urlsplit

from common import BENCH, ROOT, BenchError, BusyCpus, free_port, \
    fresh_dir, kill_all, launch, median, peak_rss_mb, percentile, \
    read_json, scale_between, scale_by_spawns, spawn_probe, stop, tail, \
    wait_ready
from inputs import CACHE, RECORDS, corpus, sub_seeds
from loadgen import get_request, run_phase
from tracer import fold_of
from wl_fit import cli_estimator, source_stamp

SETUPS = 3
#: Offered load (requests/s) of the latency measurement.
REFERENCE_RATE = 1000
#: Fixed ladder climbed for the highest rate meeting the limit.
LADDER = (1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000, 12000)
#: Seconds per ladder rate.
STEP_S = 0.3
#: p99 limit (due-time latency) a ladder rate must meet.
LIMIT_S = 0.050
WARMUP_S = 1.5
#: Share of the run's seconds spent at the reference rate: gateway slices
#: of ``SLICE_S``, each between two slices of ``ECHO_SLICE_S`` against
#: the calibration server (``echo.py``).
REFERENCE_SHARE = 0.8
SLICE_S = 1.0
ECHO_SLICE_S = 0.4
#: Echo-server p50 that scaled latencies refer to: a scaled latency reads
#: as the gateway's p50 on a host where the echo server's p50 is 0.1 ms.
ECHO_REFERENCE_S = 0.0001
#: Requests per route in every block of eight. This is the cycle of
#: ``benchmarks/bench_serving_v2.py`` (three /score, one each of /batch,
#: /top, /breakdown, /percentile and /healthz) with its two slots outside
#: this workload's routes given to /page, the one route it lacks.
ROUTE_MIX = {"/score": 3, "/page": 2, "/batch": 1, "/breakdown": 1,
             "/top": 1}
#: Distinct keys per route, the same for every seed: 4096 in all, four
#: times the gateway's 1024-entry response cache. Site and page routes
#: stay below the smallest site and page counts of the corpora (about 120
#: scored sites and 380 pages); /batch site triples make up the rest.
ROUTE_KEYS = {"/score": 64, "/page": 256, "/batch": 3648, "/breakdown": 64,
              "/top": 64}
#: Key popularity within a route is Zipf: the key of rank r is drawn with
#: weight 1 / r ** ZIPF_EXPONENT. Breslau et al. ("Web Caching and
#: Zipf-like Distributions: Evidence and Implications", INFOCOM 1999)
#: measured exponents from 0.64 to 0.83 in web proxy traces.
ZIPF_EXPONENT = 0.8
#: The gateway's default response cache (``Gateway(cache_size=1024)``).
CACHE_ENTRIES = 1024
SAMPLED_BODIES = 200
SEQUENCE = 50_000


def fitted_artifact(seed: int, records: int):
    """An artifact fitted with CLI defaults over the seed's corpus."""
    path = CACHE / f"model-{records}-{seed}-{source_stamp()}.kbt"
    if not path.exists():
        from repro.core.observation import ObservationMatrix
        from repro.io.jsonl import read_records

        fitted = cli_estimator().fit(
            ObservationMatrix.from_records(read_records(corpus(seed, records)))
        )
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        fitted.save(tmp)
        os.replace(tmp, path)
    return path


def fresh_copy(artifact, directory):
    """A copy with no ``.layout-*`` sibling, so opening it exports."""
    fresh_dir(directory)
    target = directory / "model.kbt"
    shutil.copyfile(artifact, target)
    return target


def _holds_key_space(store) -> bool:
    """Whether the store scores enough sites and pages for the keys."""
    sites = sum(1 for _site in store.websites())
    return (sites >= max(ROUTE_KEYS["/score"], ROUTE_KEYS["/breakdown"])
            and len(store._page_index) >= ROUTE_KEYS["/page"])


def _served(seed: int, directory):
    """(artifact, in-process store over a copy) of the first of the seed's
    corpora whose fit scores enough sites and pages for the key space. A
    KV draw of a few large websites can score as few as 57 sites."""
    from repro.serving.mmap_store import MmapTrustStore

    for generator_seed in sub_seeds(seed, 16):
        artifact = fitted_artifact(generator_seed, RECORDS)
        store = MmapTrustStore.open(fresh_copy(artifact, directory))
        if _holds_key_space(store):
            return artifact, store
        store.close()
    raise BenchError(f"no corpus of seed {seed} scores enough sites and "
                     "pages for the serve key space")


def _route_keys(store, rng: random.Random) -> dict[str, list[str]]:
    """Each route's keys, in Zipf rank order (most requested first)."""
    if not _holds_key_space(store):
        raise BenchError("too few sites and pages for the serve key space")
    sites = sorted(store.websites())
    pages = sorted(store._page_index)
    top = [f"/top?k={k}" for k in range(1, ROUTE_KEYS["/top"] + 1)]
    rng.shuffle(top)
    batch: set[str] = set()
    while len(batch) < ROUTE_KEYS["/batch"]:
        batch.add("/batch?sites="
                  + ",".join(quote(s) for s in rng.sample(sites, 3)))
    batch_keys = sorted(batch)
    rng.shuffle(batch_keys)
    return {
        "/score": [f"/score?site={quote(s)}"
                   for s in rng.sample(sites, ROUTE_KEYS["/score"])],
        "/page": [f"/page?site={quote(s)}&page={quote(p)}"
                  for s, p in rng.sample(pages, ROUTE_KEYS["/page"])],
        "/batch": batch_keys,
        "/breakdown": [f"/breakdown?site={quote(s)}"
                       for s in rng.sample(sites, ROUTE_KEYS["/breakdown"])],
        "/top": top,
    }


def _targets(store, seed: int) -> list[str]:
    """The seed's request sequence: blocks of eight holding exactly
    ``ROUTE_MIX`` in a seeded order, each request's key drawn by Zipf
    rank within its route."""
    rng = random.Random(seed)
    keys = _route_keys(store, rng)
    blocks = SEQUENCE // sum(ROUTE_MIX.values())
    draws = {
        route: iter(rng.choices(
            keys[route],
            weights=[1.0 / rank ** ZIPF_EXPONENT
                     for rank in range(1, len(keys[route]) + 1)],
            k=per_block * blocks,
        ))
        for route, per_block in ROUTE_MIX.items()
    }
    block = [route for route, n in ROUTE_MIX.items() for _ in range(n)]
    targets = []
    for _ in range(blocks):
        rng.shuffle(block)
        targets.extend(next(draws[route]) for route in block)
    return targets


def lru_hits(targets: list[str], sent, entries: int = CACHE_ENTRIES):
    """Replay the requests sent, in order, through an LRU cache of the
    gateway's size; returns (hits, requests) over the measured ones.

    ``sent`` lists ``(offset, count, measured)`` phases; request ``i`` of
    a phase is ``targets[(offset + i) % len(targets)]``."""
    cache: OrderedDict[str, None] = OrderedDict()
    hits = requests = 0
    for offset, count, measured in sent:
        for index in range(offset, offset + count):
            target = targets[index % len(targets)]
            hit = target in cache
            if hit:
                cache.move_to_end(target)
            else:
                cache[target] = None
                if len(cache) > entries:
                    cache.popitem(last=False)
            if measured:
                requests += 1
                hits += hit
    return hits, requests


def _start_gateway(artifact, directory, traced: bool, procs: list):
    """Spawn a gateway on a fresh copy; returns it with its set-up time."""
    model = fresh_copy(artifact, directory)
    port = free_port()
    out = directory / "gateway.json"
    spawned = time.monotonic()
    proc = launch(["cli", "serve", str(model), "--gateway", "--port",
                   str(port)], out, traced, "gateway")
    procs.append(proc)
    wait_ready(port, proc)
    setup = time.monotonic() - spawned
    return proc, port, out, setup


def _check_bodies(store, targets, bodies) -> int:
    """Sampled responses that differ from ``handle_route`` in-process."""
    from repro.serving.routes import handle_route

    wrong = 0
    for index, (status, body) in bodies.items():
        url = urlsplit(targets[index % len(targets)])
        want_status, payload = handle_route(
            store, url.path, parse_qs(url.query)
        )
        want = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        if status != want_status or body != want:
            wrong += 1
    return wrong


def run(seed: int, seconds: float, trace: bool) -> dict:
    work = fresh_dir(ROOT / ".perfbench" / "run-serve")
    artifact, store = _served(seed, work / "check")
    targets = _targets(store, seed)
    requests = [get_request(t) for t in targets]
    connections = os.cpu_count() or 1
    procs: list = []
    # Each request crosses from the generator to the gateway's event loop
    # and worker thread and back, so idle-CPU wake-ups would set much of
    # its latency (BusyCpus).
    try:
        with BusyCpus():
            if trace:
                return _run_traced(artifact, work, store, targets, requests,
                                   connections, seconds, procs)
            return _run_plain(artifact, work, store, targets, requests,
                              connections, seconds, procs)
    finally:
        kill_all(procs)
        store.close()


class _Traffic:
    """The load generator's phases against one gateway, continuing the
    seed's request sequence from phase to phase."""

    def __init__(self, port: int, requests: list[bytes], connections: int):
        self.address = ("127.0.0.1", port)
        self.requests = requests
        self.connections = connections
        self.cursor = 0
        #: ``(offset, count, measured)`` of every phase, for ``lru_hits``
        self.sent: list[tuple[int, int, bool]] = []

    def phase(self, rate: float, duration: float, sample: int = 0,
              measured: bool = False):
        """An open-loop phase; keeps about ``sample`` response bodies."""
        count = max(1, int(rate * duration))
        keep = (set(range(self.cursor, self.cursor + count,
                          max(1, count // sample)))
                if sample else set())
        result = run_phase(self.address, self.requests, rate, duration,
                           self.connections, keep=keep, offset=self.cursor)
        self.sent.append((self.cursor, count, measured))
        self.cursor += count
        return result


def _meets_limit(phase) -> bool:
    """No failure, p99 under the limit, and no queue at the end that
    would take longer than the limit to drain."""
    return (phase.failed == 0 and phase.backlog <= phase.rate * LIMIT_S
            and percentile(phase.latencies, 99) <= LIMIT_S)


def _climb(traffic: _Traffic):
    """Highest ladder rate meeting the limit; a rate that misses gets one
    more try (one stall should not end the climb), a second miss ends it."""
    max_rps = 0
    tries = 0
    for rate in LADDER:
        for _attempt in range(2):
            phase = traffic.phase(rate, STEP_S)
            tries += 1
            if _meets_limit(phase):
                break
        else:
            break
        max_rps = rate
    return max_rps, tries


def _reference(traffic: _Traffic, seconds: float,
               sample: int = SAMPLED_BODIES):
    """A reference-rate phase keeping about ``sample`` bodies to check."""
    return traffic.phase(REFERENCE_RATE, seconds, sample=sample,
                         measured=True)


def _mix(targets: list[str], traffic: _Traffic) -> dict:
    """Report lines: each route's share of the measured requests and the
    share the gateway's response cache answers."""
    routes: Counter = Counter()
    for offset, count, measured in traffic.sent:
        if measured:
            routes.update(urlsplit(targets[index % len(targets)]).path
                          for index in range(offset, offset + count))
    total = sum(routes.values())
    hits, requests = lru_hits(targets, traffic.sent)
    return {
        **{f"serve.share{route.replace('/', '.')}": (
            routes[route] / total, "ratio", total) for route in ROUTE_MIX},
        "serve.cache_hit_ratio_lru": (hits / requests, "ratio", requests),
    }


def _start_echo(procs: list) -> int:
    """Start the calibration server (``echo.py``); returns its port."""
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "echo.py"), str(port)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    procs.append(proc)
    readable, _, _ = select.select([proc.stdout], [], [], 30.0)
    if not readable or proc.stdout.readline().strip() != "ready":
        raise BenchError("the echo server did not start")
    return port


def _echo_p50(traffic: _Traffic) -> float:
    phase = traffic.phase(REFERENCE_RATE, ECHO_SLICE_S)
    if phase.failed or not phase.latencies:
        raise BenchError("the echo server failed a request")
    return median(phase.latencies)


def _run_plain(artifact, work, store, targets, requests, connections,
               seconds, procs) -> dict:
    echo = _Traffic(_start_echo(procs), requests, connections)
    setups, spawns = [], [spawn_probe()]
    for index in range(SETUPS):
        proc, port, _out, setup = _start_gateway(
            artifact, work / f"gateway-{index}", False, procs
        )
        setups.append(setup)
        spawns.append(spawn_probe())
        if index < SETUPS - 1:
            stop(proc)
    traffic = _Traffic(port, requests, connections)
    traffic.phase(REFERENCE_RATE, WARMUP_S)
    # The reference rate is measured in short slices, each scaled by the
    # echo server's p50 just before and just after it, so the host's
    # drift over the run cancels (README, "Host speed").
    count = max(3, round(REFERENCE_SHARE * seconds
                         / (SLICE_S + ECHO_SLICE_S)))
    marks = [_echo_p50(echo)]
    slices = []
    for _ in range(count):
        slices.append(_reference(traffic, SLICE_S,
                                 math.ceil(SAMPLED_BODIES / count)))
        marks.append(_echo_p50(echo))
    # Peak memory at the reference load, read before the ladder overloads
    # the gateway and makes its queues grow.
    rss = peak_rss_mb(proc.pid)
    max_rps, tries = _climb(traffic)
    stop(proc)

    latencies = [lat for phase in slices for lat in phase.latencies]
    lateness = [late for phase in slices for late in phase.lateness]
    bodies = {i: b for phase in slices for i, b in phase.bodies.items()}
    if any(not phase.latencies for phase in slices):
        raise BenchError("no request of a reference slice succeeded")
    # The ladder pushes the gateway past its limit on purpose: failures
    # there set max_rps and are not incorrect outputs.
    attempted = sum(phase.sent for phase in slices)
    failed = (sum(phase.failed for phase in slices)
              + _check_bodies(store, targets, bodies))
    p50 = median(scale_between(
        [median(phase.latencies) for phase in slices], marks,
        ECHO_REFERENCE_S,
    )) * 1e3
    return {
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "setup_s": median(scale_by_spawns(setups, spawns)),
            "latency_ms": p50,
            "peak_rss_mb": rss,
        },
        "report": {
            "serve.p50_ms": (p50, "ms", len(slices)),
            "serve.p50_ms_raw": (median(latencies) * 1e3, "ms",
                                 len(latencies)),
            "serve.echo_p50_ms": (median(marks) * 1e3, "ms", len(marks)),
            **tail("serve.latency_ms", [v * 1e3 for v in latencies], "ms"),
            "serve.max_rps": (max_rps, "1/s", tries),
            "serve.reference_rps": (REFERENCE_RATE, "1/s", 1),
            "serve.limit_p99_ms": (LIMIT_S * 1e3, "ms", 1),
            "serve.late_ms_p99": (percentile(lateness, 99) * 1e3, "ms",
                                  len(lateness)),
            **_mix(targets, traffic),
            "serve.bodies_checked": (len(bodies), "count", 1),
            "serve.peak_rss_mb": (rss, "MB", 1),
            "serve.setup_s_raw": (median(setups), "s", len(setups)),
            "host.spawn_ms": (median(spawns) * 1e3, "ms", len(spawns)),
        },
    }


def _run_traced(artifact, work, store, targets, requests, connections,
                seconds, procs) -> dict:
    phases = {}
    outs = {}
    traffics = {}
    for traced in (False, True):
        proc, port, out, _setup = _start_gateway(
            artifact, work / f"gateway-{int(traced)}", traced, procs
        )
        traffic = traffics[traced] = _Traffic(port, requests, connections)
        traffic.phase(REFERENCE_RATE, WARMUP_S)
        phases[traced] = _reference(traffic, 0.5 * seconds,
                                    SAMPLED_BODIES // 2)
        stop(proc)
        outs[traced] = read_json(out)
    wrong = sum(_check_bodies(store, targets, phase.bodies)
                for phase in phases.values())
    trace = outs[True]["trace"]
    phase = phases[True]
    # Every request the traced gateway served, warm-up included.
    served = traffics[True].cursor
    handled = fold_of(trace, "routes.handle")

    def per_call_us(name):
        return median(fold_of(trace, name)["durations_ns"]) / 1e3

    return {
        "attempted": sum(p.sent for p in phases.values()),
        "failed": sum(p.failed for p in phases.values()) + wrong,
        "report": _mix(targets, traffics[True]),
        "layers": {
            "routes.handle_us": per_call_us("routes.handle"),
            "mmap_store.lookup_us": per_call_us("mmap_store.lookup"),
            "manager.acquire_us": per_call_us("manager.acquire"),
            "gateway.requests": served,
            "gateway.handle_route_calls": handled["count"],
            "gateway.cache_hit_ratio":
                (served - handled["count"]) / served,
            "loadgen.late_ms_p99": percentile(phase.lateness, 99) * 1e3,
            "trace.overhead_ratio":
                median(phase.latencies) / median(phases[False].latencies),
        },
    }
