"""Workload ``ingest``: ``kbt ingest <cold> --watch <spool> --gateway <url>``
beside ``kbt serve --gateway``, fed by a single closed-loop producer.

The producer appends one micro-batch of held-out websites' records to the
spool, polls ``/readyz`` until the generation advances, then sends the
next batch. Each batch becomes a new artifact and layout, so this is the
write-heavy use of ``core.kbt``, ``io.artifact`` and ``io.mmap_layout``.
"""

from __future__ import annotations

import hashlib
import http.client
import os
import select
import subprocess
import time

from common import ROOT, BenchError, free_port, fresh_dir, get_json, \
    kill_all, launch, median, probe, read_json, scale_by_probes, \
    scale_by_spawns, spawn_probe, stop, tail, wait_ready
from inputs import CACHE, RECORDS, corpus, split_by_site, sub_seeds, \
    write_lines
from tracer import by_name, fold_of
from wl_fit import cli_estimator, source_stamp

HELD_OUT = 10_000
BATCH = 100
SWEEPS = 2
#: Batches per gateway + ingest pair at least, however short the run.
MIN_BATCHES = 6
#: Seconds a batch takes on a 2-vCPU VM, to turn ``--seconds`` into a
#: batch count. A run feeds that count however fast the host is: the
#: ingest process's memory grows with the records it has taken in, so a
#: count set by the host's speed would make its peak RSS follow the host.
NOMINAL_BATCH_S = 0.5
BATCH_TIMEOUT_S = 30.0


def _inputs(seed: int):
    """(cold artifact, held-out record lines) for ``seed`` (cached)."""
    base, stream = split_by_site(corpus(seed, RECORDS), HELD_OUT)
    cold = CACHE / f"cold-{RECORDS}-{HELD_OUT}-{seed}-{source_stamp()}.kbt"
    if not cold.exists():
        from repro.core.observation import ObservationMatrix
        from repro.io.jsonl import read_records

        lines = write_lines(CACHE / f"cold-{seed}.jsonl", base)
        fitted = cli_estimator().fit(
            ObservationMatrix.from_records(read_records(lines))
        )
        tmp = cold.with_name(cold.name + f".{os.getpid()}.tmp")
        fitted.save(tmp)
        os.replace(tmp, cold)
    return cold, stream


class _Pair:
    """One gateway + one ``kbt ingest`` over a fresh copy of the cold
    artifact; ``setup_s`` runs from spawning both until both are ready,
    with a spawn probe just before and just after."""

    def __init__(self, cold, directory, traced: bool, procs: list) -> None:
        fresh_dir(directory)
        self.directory = directory
        artifact = directory / "cold.kbt"
        artifact.write_bytes(cold.read_bytes())
        self.spool = directory / "spool"
        self.spool.mkdir()
        self.generations = directory / "generations"
        self.port = free_port()
        self.setup_probes = [spawn_probe()]
        spawned = time.monotonic()
        self.gateway = launch(
            ["cli", "serve", str(artifact), "--gateway", "--port",
             str(self.port)],
            directory / "gateway.json", traced, "gateway",
        )
        procs.append(self.gateway)
        self.ingest = launch(
            ["cli", "ingest", str(artifact), "--watch", str(self.spool),
             "--gateway", f"http://127.0.0.1:{self.port}",
             "--batch-records", str(BATCH), "--batch-seconds", "5",
             "--sweeps", str(SWEEPS), "--generations-dir",
             str(self.generations)],
            directory / "ingest.json", traced, "ingest",
            stdout=subprocess.PIPE,
        )
        procs.append(self.ingest)
        self.ready = wait_ready(self.port, self.gateway)
        self._wait_ingest_ready()
        self.setup_s = time.monotonic() - spawned
        self.setup_probes.append(spawn_probe())

    def _wait_ingest_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            readable, _, _ = select.select([self.ingest.stdout], [], [], 0.5)
            if readable:
                line = self.ingest.stdout.readline()
                if line.startswith("ingesting into"):
                    return
                if not line:
                    break
        raise BenchError("kbt ingest did not start")

    def feed(self, batches):
        """Closed loop: append a batch, wait until it is served. Returns
        the served times, every served etag, and the host-speed probes
        taken before the first batch and after each one is served, while
        both programs wait for the next."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        spool_file = self.spool / "stream.jsonl"
        served, etags, probes = [], [self.ready["etag"]], [probe()]
        try:
            for number, batch in enumerate(batches, 1):
                with open(spool_file, "a", encoding="utf-8") as handle:
                    handle.write("\n".join(batch) + "\n")
                appended = time.monotonic()
                while True:
                    _status, ready = get_json(conn, "/readyz")
                    if ready.get("generation", 0) >= number:
                        break
                    if time.monotonic() - appended > BATCH_TIMEOUT_S:
                        raise BenchError(f"batch {number} never served")
                    time.sleep(0.002)
                served.append(time.monotonic() - appended)
                etags.append(ready["etag"])
                probes.append(probe())
        finally:
            conn.close()
        return served, etags, probes

    def close(self) -> tuple[dict, dict]:
        stop(self.ingest)
        stop(self.gateway)
        return (read_json(self.directory / "ingest.json"),
                read_json(self.directory / "gateway.json"))


def _replayed_digest(cold, batches) -> str:
    """The last generation's bytes from ``update()`` called directly."""
    from repro.core.kbt import FittedKBT
    from repro.io.jsonl import record_from_dict
    import json

    fitted = FittedKBT.load(cold)
    for batch in batches:
        records = [record_from_dict(json.loads(line)) for line in batch]
        fitted = fitted.update(records, sweeps=SWEEPS)
    path = CACHE / f"replay-{os.getpid()}.kbt"
    fitted.save(path, metadata={"ingest_generation": len(batches),
                                "batch_records": len(batches[-1]),
                                "cold_refit": False})
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    return digest


def _check(pair, cold, batches, etags) -> int:
    """Failures: an etag that did not advance, or a last generation whose
    bytes differ from the directly replayed ``update()`` chain."""
    failed = sum(1 for a, b in zip(etags, etags[1:]) if a == b)
    last = pair.generations / f"gen-{len(batches):06d}.kbt"
    if hashlib.sha256(last.read_bytes()).hexdigest() != _replayed_digest(
        cold, batches
    ):
        failed += 1
    return failed


def _phase(cold, stream, directory, traced, seconds, procs):
    """One gateway + ingest pair fed the batches ``seconds`` allow."""
    pair = _Pair(cold, directory, traced, procs)
    count = max(MIN_BATCHES, round(seconds / NOMINAL_BATCH_S))
    batches = [stream[i:i + BATCH]
               for i in range(0, BATCH * count, BATCH)]
    if len(batches[-1]) < BATCH:
        raise BenchError(f"{len(stream)} held-out records are too few for "
                         f"{count} batches")
    served, etags, probes = pair.feed(batches)
    ingest, gateway = pair.close()
    failed = _check(pair, cold, batches, etags)
    return {"raw": served, "served": scale_by_probes(served, probes),
            "probes": probes, "failed": failed, "ingest": ingest,
            "gateway": gateway, "raw_setup_s": pair.setup_s,
            "setup_s": scale_by_spawns([pair.setup_s],
                                       pair.setup_probes)[0]}


def run(seed: int, seconds: float, trace: bool) -> dict:
    inputs = [_inputs(s) for s in sub_seeds(seed)]
    work = fresh_dir(ROOT / ".perfbench" / "run-ingest")
    procs: list = []
    try:
        if trace:
            return _run_traced(*inputs[0], work, seconds, procs)
        # One gateway + ingest pair per corpus, each fed a third of the
        # seconds: three set-ups, and batches from three corpora.
        phases = [
            _phase(cold, stream, work / f"run-{index}", False,
                   seconds / len(inputs), procs)
            for index, (cold, stream) in enumerate(inputs)
        ]
    finally:
        kill_all(procs)
    served = [value for phase in phases for value in phase["served"]]
    raw = [value for phase in phases for value in phase["raw"]]
    probes = [value for phase in phases for value in phase["probes"]]
    p50 = median(served) * 1e3
    rss = median([phase["ingest"]["peak_rss_kb"] for phase in phases]) / 1024
    return {
        "attempted": len(served),
        "failed": sum(phase["failed"] for phase in phases),
        "e2e": {
            "setup_s": median([phase["setup_s"] for phase in phases]),
            "latency_ms": p50,
            "peak_rss_mb": rss,
        },
        "report": {
            "ingest.served_ms_p50": (p50, "ms", len(served)),
            "ingest.served_ms_p50_raw": (median(raw) * 1e3, "ms", len(raw)),
            "ingest.setup_s_raw": (
                median([phase["raw_setup_s"] for phase in phases]), "s",
                len(phases)),
            "host.probe_ms": (median(probes) * 1e3, "ms", len(probes)),
            **tail("ingest.served_ms", [v * 1e3 for v in served], "ms"),
            "ingest.records_per_s": (BATCH / median(served), "1/s",
                                     len(served)),
            "ingest.batch_records": (BATCH, "count", 1),
            "ingest.peak_rss_mb": (rss, "MB", len(phases)),
        },
    }


def _run_traced(cold, stream, work, seconds, procs) -> dict:
    plain = _phase(cold, stream, work / "plain", False, seconds / 2, procs)
    traced = _phase(cold, stream, work / "traced", True, seconds / 2,
                    procs)
    ingest = traced["ingest"]["trace"]
    gateway = traced["gateway"]["trace"]

    def per_call_ms(trace, name):
        return median([(end - start) / 1e6
                           for _i, _n, start, end, _p in by_name(trace, name)])

    polls = fold_of(ingest, "stream.poll")["durations_ns"]
    return {
        "attempted": len(plain["served"]) + len(traced["served"]),
        "failed": plain["failed"] + traced["failed"],
        "report": {},
        "layers": {
            "kbt.update_ms": per_call_ms(ingest, "kbt.update"),
            "kbt.save_ms": per_call_ms(ingest, "kbt.save"),
            "policy.observe_ms": per_call_ms(ingest, "policy.observe"),
            "stream.poll_ms": median(polls) / 1e6,
            "ingest.refits": len(by_name(ingest, "ingest.refit")),
            "artifact.load_s": per_call_ms(ingest, "artifact.load") / 1e3,
            "manager.swap_ms": per_call_ms(gateway, "manager.swap"),
            "mmap_layout.export_ms": per_call_ms(gateway,
                                                 "mmap_layout.export"),
            "trace.overhead_ratio":
                median(traced["served"]) / median(plain["served"]),
        },
    }
