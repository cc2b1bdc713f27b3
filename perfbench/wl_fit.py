"""Workload ``fit``: ``kbt fit <corpus.jsonl> --artifact <out>`` at CLI
defaults, one fresh process per fit, cycling through the seed's corpora
for the run's seconds."""

from __future__ import annotations

import hashlib
import json
import time

from common import ROOT, SRC, BenchError, finish, fresh_dir, launch, median, \
    probe, read_json, scale_by_probes, scale_by_spawns, spawn_probe, tail
from inputs import CACHE, RECORDS, corpus, sub_seeds
from tracer import by_name, fold_of, self_times

#: Rounds per run at least; a round fits every corpus once (a traced
#: round twice, alternating traced and untraced). More rounds are made
#: while the next one still fits in the seconds, so every corpus is fitted
#: equally often and one corpus's size cannot tilt the median.
MIN_ROUNDS = 2


def _reference_scores(path, seed: int) -> dict:
    """Website scores of a library fit of the same records (cached)."""
    cache = CACHE / f"fit-reference-{RECORDS}-{seed}-{source_stamp()}.json"
    if cache.exists():
        return json.loads(cache.read_text(encoding="utf-8"))
    from repro.core.observation import ObservationMatrix
    from repro.io.jsonl import read_records

    fitted = cli_estimator().fit(
        ObservationMatrix.from_records(read_records(path))
    )
    scores = _score_table(fitted)
    cache.write_text(json.dumps(scores), encoding="utf-8")
    return scores


def cli_estimator():
    """The library estimator ``kbt fit`` builds from its defaults."""
    from repro.cli import _build_estimator, build_parser

    return _build_estimator(
        build_parser().parse_args(["fit", "unused.jsonl"])
    )


def _score_table(fitted) -> dict:
    return {
        site: [repr(score.score), repr(score.support)]
        for site, score in sorted(fitted.website_scores().items())
    }


def source_stamp() -> str:
    """Fingerprint of the program's sources (cache key for references)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        stat = path.stat()
        digest.update(f"{path}:{stat.st_size}:{stat.st_mtime_ns}".encode())
    return digest.hexdigest()[:16]


def _layers(report: dict, k: float) -> dict:
    """Per-layer figures of one traced fit, times scaled by ``k``."""
    trace = report["trace"]
    selfs = self_times(trace)
    total = {}
    for span_id, name, start, end, _parent in trace["spans"]:
        total[name] = total.get(name, 0) + (end - start)
    fit_numpy_self = sum(
        selfs[span[0]] for span in by_name(trace, "engine.fit_numpy")
    )
    read = fold_of(trace, "jsonl.read")
    root = by_name(trace, "cli.fit")[0]
    return {
        "jsonl.read_s": k * read["total_ns"] / 1e9,
        "jsonl.records": read["count"],
        "observation.build_s": k * sum(
            selfs[span[0]] for span in by_name(trace, "observation.build")
        ) / 1e9,
        "indexing.compile_s": k * total.get("indexing.compile", 0) / 1e9,
        "engine.em_s": k * fit_numpy_self / 1e9,
        "engine.assemble_s": k * total.get("engine.assemble", 0) / 1e9,
        "artifact.save_s": k * total.get("artifact.save", 0) / 1e9,
        "trace.unaccounted_share": selfs[root[0]] / (root[3] - root[2]),
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    seeds = sub_seeds(seed)
    data = [corpus(s, RECORDS) for s in seeds]
    work = fresh_dir(ROOT / ".perfbench" / "run-fit")
    artifacts = [work / f"model-{index}.kbt" for index in range(len(data))]
    fits = []
    digests = [set() for _ in data]
    started = time.monotonic()
    # Probes before the first fit and after every fit: each fit is scaled
    # by the two around it, and its set-up (process start and imports) by
    # the spawn probes around it.
    probes, spawns = [probe()], [spawn_probe()]
    per_round = len(data) * (1 + trace)
    while len(fits) % per_round or len(fits) < MIN_ROUNDS * per_round or (
        time.monotonic() - started
        + per_round * fits[-1]["cycle_s"] <= seconds
    ):
        traced = trace and len(fits) % 2 == 1
        # Traced runs alternate traced and untraced fits of one corpus.
        index = (len(fits) // (1 + trace)) % len(data)
        out = work / f"fit-{len(fits)}.json"
        spawned = time.monotonic()
        proc = launch(["cli", "fit", str(data[index]), "--artifact",
                       str(artifacts[index])], out, traced, "fit")
        finish(proc, timeout=170)
        probes.append(probe())
        spawns.append(spawn_probe())
        report = read_json(out)
        if report["exit"] != 0:
            raise BenchError(f"kbt fit exited {report['exit']}")
        report["setup_s"] = report["ready"] - spawned
        report["cycle_s"] = time.monotonic() - spawned
        report["traced"] = traced
        report["corpus"] = index
        fits.append(report)
        digests[index].add(
            hashlib.sha256(artifacts[index].read_bytes()).hexdigest()
        )

    from repro.core.kbt import FittedKBT

    # Every fit of a corpus must write the same bytes, and those bytes
    # must hold the library fit's scores.
    failed = 0
    for index, path in enumerate(data):
        fitted = FittedKBT.load(artifacts[index])
        if (len(digests[index]) != 1 or _score_table(fitted)
                != _reference_scores(path, seeds[index])):
            failed += sum(1 for f in fits if f["corpus"] == index)

    factors = scale_by_probes([1.0] * len(fits), probes)
    plain = [f for f in fits if not f["traced"]]
    raw = [f["wall_s"] for f in plain]
    walls = [k * f["wall_s"]
             for k, f in zip(factors, fits) if not f["traced"]]
    setups = scale_by_spawns([f["setup_s"] for f in fits], spawns)
    rss = median([f["peak_rss_kb"] for f in plain]) / 1024
    result = {
        "attempted": len(fits),
        "failed": failed,
        "e2e": {
            "setup_s": median(setups),
            "latency_ms": median(walls) * 1e3,
            "peak_rss_mb": rss,
        },
        "report": {
            "fit.wall_s": (median(walls), "s", len(walls)),
            **tail("fit.wall_s", walls, "s"),
            "fit.wall_s_raw": (median(raw), "s", len(raw)),
            "fit.setup_s_raw": (median([f["setup_s"] for f in fits]), "s",
                                len(fits)),
            "fit.records_per_s": (RECORDS / median(walls), "1/s", len(walls)),
            "fit.peak_rss_mb": (rss, "MB", len(plain)),
            "fit.records": (RECORDS, "count", 1),
            "host.probe_ms": (median(probes) * 1e3, "ms", len(probes)),
            "host.spawn_ms": (median(spawns) * 1e3, "ms", len(spawns)),
        },
    }
    if trace:
        layers = [_layers(f, k)
                  for k, f in zip(factors, fits) if f["traced"]]
        result["layers"] = {
            name: median([layer[name] for layer in layers])
            for name in layers[0]
        }
        result["layers"]["artifact.bytes"] = median(
            [path.stat().st_size for path in artifacts if path.exists()]
        )
        result["layers"]["trace.overhead_ratio"] = median(
            [k * f["wall_s"] for k, f in zip(factors, fits) if f["traced"]]
        ) / median(walls)
    return result
