"""Workload ``em-sharded``: ``KBTEstimator(backend="processes",
num_shards=2).fit(observations)`` with a fixed iteration count on
prebuilt ``ObservationMatrix``es, one per corpus; parse and save never
run."""

from __future__ import annotations

import json
import subprocess

from common import ROOT, BenchError, BusyCpus, finish, fresh_dir, launch, \
    median, probe, read_json, scale_by_probes, tail
from inputs import CACHE, RECORDS, corpus, sub_seeds
from launch import result_digest
from tracer import by_name, self_times
from wl_fit import source_stamp

ITERATIONS = 150
SHARDS = 2


def _reference_digest(path, seed: int) -> str:
    """Digest of the unsharded numpy fit with the same settings (cached)."""
    cache = CACHE / (f"em-reference-{RECORDS}-{ITERATIONS}-{seed}-"
                     f"{source_stamp()}.json")
    if cache.exists():
        return json.loads(cache.read_text(encoding="utf-8"))["digest"]
    from dataclasses import replace

    from repro.core.config import AbsenceScope, MultiLayerConfig
    from repro.core.kbt import KBTEstimator
    from repro.core.observation import ObservationMatrix
    from repro.io.jsonl import read_records

    config = MultiLayerConfig(absence_scope=AbsenceScope.ACTIVE,
                              engine="numpy")
    config = replace(config, convergence=replace(
        config.convergence, max_iterations=ITERATIONS, tolerance=0.0))
    fitted = KBTEstimator(config=config).fit(
        ObservationMatrix.from_records(read_records(path))
    )
    digest = result_digest(fitted.result)
    cache.write_text(json.dumps({"digest": digest}), encoding="utf-8")
    return digest


def _layers(trace: dict) -> dict:
    """Per-fit layer figures from one traced fit's spans."""
    selfs = self_times(trace)

    def seconds(name):
        return sum(end - start for _i, _n, start, end, _p
                       in by_name(trace, name)) / 1e9

    def per_call_ms(name):
        spans = by_name(trace, name)
        return median([(end - start) / 1e6
                           for _i, _n, start, end, _p in spans])

    root = by_name(trace, "em.fit")[0]
    return {
        "exec.open_s": seconds("exec.plan") + seconds("exec.spawn"),
        "exec.round_ms": per_call_ms("exec.round"),
        "exec.rounds": len(by_name(trace, "exec.round")),
        "engine.inputs_ms": per_call_ms("engine.inputs"),
        "engine.reduce_ms": per_call_ms("engine.reduce"),
        "exec.finalize_s": seconds("exec.finalize"),
        "indexing.compile_s": seconds("indexing.compile"),
        "engine.assemble_s": seconds("engine.assemble"),
        "trace.unaccounted_share": selfs[root[0]] / (root[3] - root[2]),
    }


def _split_traces(trace: dict) -> list[dict]:
    """One trace per traced fit (each ``em.fit`` root and its subtree)."""
    parent_of = {span[0]: span[4] for span in trace["spans"]}

    def root_of(span_id):
        while parent_of.get(span_id) is not None:
            span_id = parent_of[span_id]
        return span_id

    per_root: dict[int, list] = {}
    for span in trace["spans"]:
        per_root.setdefault(root_of(span[0]), []).append(span)
    return [{"spans": spans, "folds": []} for spans in per_root.values()]


def run(seed: int, seconds: float, trace: bool) -> dict:
    seeds = sub_seeds(seed)
    data = [corpus(s, RECORDS) for s in seeds]
    expected = [_reference_digest(path, s) for path, s in zip(data, seeds)]
    work = fresh_dir(ROOT / ".perfbench" / "run-em")
    out = work / "em.json"
    corpora = [arg for path in data for arg in ("--corpus", str(path))]
    # Every EM round hands work from the driver to the workers and back,
    # so idle-CPU wake-ups would set much of the wall time (BusyCpus).
    with BusyCpus():
        proc = launch(["em", *corpora, "--iterations", str(ITERATIONS),
                       "--shards", str(SHARDS), "--seconds", str(seconds),
                       "--min-fits", str(len(data) * (1 + trace)),
                       "--pause"],
                      out, trace, "em", stdout=subprocess.PIPE,
                      stdin=subprocess.PIPE)
        # The driver pauses before its builds and between fits: probe the
        # host's speed there, while no program process works.
        probes = []
        try:
            for line in proc.stdout:
                if line.strip() == "idle":
                    probes.append(probe())
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
        except BrokenPipeError:
            pass
        finish(proc, timeout=170)
    report = read_json(out)
    fits = report["fits"]
    failed = sum(1 for fit in fits
                 if fit["digest"] != expected[fit["corpus"]])
    if any(fit["rounds"] != ITERATIONS for fit in fits):
        raise BenchError("sharded EM did not run the fixed iteration count")
    if len(probes) != len(fits) + 2:
        raise BenchError(f"{len(probes)} pauses for {len(fits)} fits")
    # Builds run between the first two probes, fit i between probes
    # i + 1 and i + 2.
    raw_builds = report["builds_s"]
    k = scale_by_probes([1.0], probes[:2])[0]
    builds = [k * build for build in raw_builds]
    walls = scale_by_probes([fit["wall_s"] for fit in fits], probes[1:])
    plain = [wall for wall, fit in zip(walls, fits) if not fit["traced"]]
    raw = [fit["wall_s"] for fit in fits if not fit["traced"]]
    result = {
        "attempted": len(fits),
        "failed": failed,
        "e2e": {
            "setup_s": median(builds),
            "latency_ms": median(plain) * 1e3,
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
        },
        "report": {
            "em.wall_s": (median(plain), "s", len(plain)),
            **tail("em.wall_s", plain, "s"),
            "em.wall_s_raw": (median(raw), "s", len(raw)),
            "em.record_iterations_per_s": (
                RECORDS * ITERATIONS / median(plain), "1/s", len(plain)),
            "em.build_s": (median(builds), "s", len(builds)),
            "em.build_s_raw": (median(raw_builds), "s", len(raw_builds)),
            "em.iterations": (ITERATIONS, "count", 1),
            "em.records": (RECORDS, "count", 1),
            "host.probe_ms": (median(probes) * 1e3, "ms", len(probes)),
        },
    }
    if trace:
        layers = [_layers(t) for t in _split_traces(report["trace"])]
        result["layers"] = {
            name: median([layer[name] for layer in layers])
            for name in layers[0]
        }
        result["layers"]["trace.overhead_ratio"] = median(
            [wall for wall, fit in zip(walls, fits) if fit["traced"]]
        ) / median(plain)
    return result
