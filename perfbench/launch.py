"""Run the program as a user would, behind an optional outside-in tracer.

    python3 perfbench/launch.py --out OUT.json --layers fit -- cli fit corpus.jsonl --artifact m.kbt
    python3 perfbench/launch.py --out OUT.json --layers em -- em --corpus a.jsonl --corpus b.jsonl --iterations 150 --seconds 15

``cli`` calls ``repro.cli.main`` with the remaining arguments, exactly as
``kbt`` does. ``em`` runs the library's sharded EM loop (see
:func:`run_em`). ``--layers`` names the groups of public functions to
wrap (``none`` measures with tracing off). The launcher records when
the program's imports finished (a ``time.monotonic`` reading, comparable
with the parent's on the same host), the program's wall time, its peak
RSS and the trace, and writes them to ``--out`` when the program returns.
The program is imported before any benchmark module, and the tracer only
when a run is traced, so the import time is the program's alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

#: Span kinds, as ``tracer`` names them: a call, a call folded into a
#: counted span, and a generator whose steps fold into one.
CALL, FOLD, GEN = "call", "fold", "gen"

#: Public functions per layer group, patched where their callers look
#: them up. Span names are ``<module>.<stage>``.
LAYERS = {
    "fit": [
        ("repro.cli:read_records", "jsonl.read", GEN),
        ("repro.core.observation:ObservationMatrix.from_records",
         "observation.build", CALL),
        ("repro.core.engine_numpy:fit_numpy", "engine.fit_numpy", CALL),
        ("repro.core.engine_numpy:compile_problem", "indexing.compile", CALL),
        ("repro.core.engine_numpy:assemble_result", "engine.assemble", CALL),
        ("repro.io.artifact:save_artifact", "artifact.save", CALL),
    ],
    "em": [
        ("repro.exec.driver:compile_problem", "indexing.compile", CALL),
        ("repro.exec.plan:ShardPlan.from_problem", "exec.plan", CALL),
        ("repro.exec.driver:init_params", "engine.init", CALL),
        ("repro.exec.backends:_ProcessSession.__enter__", "exec.spawn", CALL),
        ("repro.exec.backends:_ProcessSession.run_iteration", "exec.round",
         CALL),
        ("repro.exec.driver:iteration_inputs", "engine.inputs", CALL),
        ("repro.exec.driver:update_parameters", "engine.reduce", CALL),
        ("repro.exec.driver:update_parameters_streamed", "engine.reduce",
         CALL),
        ("repro.exec.backends:_ProcessSession.finalize", "exec.finalize",
         CALL),
        ("repro.exec.backends:_ProcessSession.__exit__", "exec.close", CALL),
        ("repro.exec.driver:assemble_result", "engine.assemble", CALL),
    ],
    "ingest": [
        ("repro.io.artifact:load_artifact", "artifact.load", CALL),
        ("repro.ingest.pipeline:IngestPipeline.process_batch",
         "ingest.batch", CALL),
        ("repro.core.kbt:FittedKBT.update", "kbt.update", CALL),
        ("repro.core.kbt:FittedKBT.save", "kbt.save", CALL),
        ("repro.ingest.policy:StalenessPolicy.observe", "policy.observe",
         CALL),
        ("repro.ingest.pipeline:IngestPipeline._cold_refit", "ingest.refit",
         CALL),
        ("repro.ingest.pipeline:HttpPublisher.publish", "ingest.publish",
         CALL),
        ("repro.ingest.stream:SpoolDirectorySource.poll", "stream.poll",
         FOLD),
    ],
    "gateway": [
        ("repro.serving.manager:StoreManager.swap", "manager.swap", CALL),
        ("repro.serving.mmap_store:export_layout", "mmap_layout.export",
         CALL),
        ("repro.serving.gateway:handle_route", "routes.handle", FOLD),
        ("repro.serving.manager:StoreManager.acquire", "manager.acquire",
         FOLD),
    ] + [
        (f"repro.serving.mmap_store:MmapTrustStore.{method}",
         "mmap_store.lookup", FOLD)
        for method in ("score_json", "page_json", "batch_json", "top_json",
                       "breakdown")
    ],
}


def peak_rss_kb() -> int:
    """This process's peak resident set (``VmHWM``).

    Not ``getrusage``'s ``ru_maxrss``: Linux carries the spawning
    process's peak over into it at ``exec``, so a child of a benchmark
    process that had grown to 85 MB read 85 MB whatever it used itself.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def result_digest(result) -> str:
    """sha256 over every fitted number (``repr`` round-trips floats)."""
    digest = hashlib.sha256()
    for table in (result.source_accuracy, result.extractor_quality,
                  result.extraction_posteriors, result.value_posteriors):
        for key, value in sorted(table.items(), key=repr):
            digest.update(f"{key!r}\t{value!r}\n".encode())
    return digest.hexdigest()


def run_em(argv: list[str], tracer, specs) -> dict:
    """Sharded EM on prebuilt matrices, repeated for ``--seconds``.

    One matrix is built per ``--corpus`` (the set-up the benchmark
    reports) and fits cycle through them. With ``--pause`` the program
    waits, idle, before the builds and between fits, while the parent
    probes the host's speed. With a tracer, fits alternate
    traced and untraced so one run gives both the per-layer split and the
    tracing overhead.
    """
    parser = argparse.ArgumentParser(prog="launch.py em")
    parser.add_argument("--corpus", required=True, action="append")
    parser.add_argument("--iterations", type=int, required=True)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-fits", type=int, default=3)
    parser.add_argument("--pause", action="store_true",
                        help="before the builds, before the first fit and "
                        "after every fit, print 'idle' and wait for a line "
                        "on stdin (the parent probes the host meanwhile)")
    args = parser.parse_args(argv)

    def pause() -> None:
        if args.pause:
            print("idle", flush=True)
            if not sys.stdin.readline():
                raise SystemExit("launch.py em: stdin closed during a pause")

    from dataclasses import replace

    from repro.core.config import AbsenceScope, MultiLayerConfig
    from repro.core.kbt import KBTEstimator
    from repro.core.observation import ObservationMatrix
    from repro.io.jsonl import read_records

    builds = []
    matrices = []
    pause()
    for path in args.corpus:
        start = time.perf_counter()
        matrices.append(ObservationMatrix.from_records(read_records(path)))
        builds.append(time.perf_counter() - start)
    config = MultiLayerConfig(
        absence_scope=AbsenceScope.ACTIVE, engine="numpy"
    )
    config = replace(
        config,
        convergence=replace(
            config.convergence, max_iterations=args.iterations,
            tolerance=0.0,
        ),
    )
    estimator = KBTEstimator(
        config=config, backend="processes", num_shards=args.shards
    )
    fits = []
    pause()
    deadline = time.perf_counter() + args.seconds
    # Whole rounds: every matrix is fitted equally often.
    per_round = len(matrices) * (1 + (tracer is not None))
    while (len(fits) < args.min_fits or len(fits) % per_round
           or time.perf_counter() < deadline):
        traced = tracer is not None and len(fits) % 2 == 1
        index = (len(fits) // (1 + (tracer is not None))) % len(matrices)
        observations = matrices[index]
        if traced:
            tracer.install(specs)
        start = time.perf_counter()
        try:
            if traced:
                fitted = tracer.call("em.fit", estimator.fit, observations)
            else:
                fitted = estimator.fit(observations)
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - start
        fits.append({"wall_s": wall, "traced": traced, "corpus": index,
                     "digest": result_digest(fitted.result),
                     "rounds": len(fitted.result.history)})
        pause()
    return {"builds_s": builds, "fits": fits}


def main() -> int:
    import repro.cli

    ready = time.monotonic()
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--out", required=True)
    parser.add_argument("--layers", default="none")
    parser.add_argument("mode", choices=("cli", "em"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    groups = [] if args.layers == "none" else args.layers.split(",")
    specs = [spec for group in groups for spec in LAYERS[group]]
    run_id = f"{args.mode}-{os.getpid()}"
    tracer = None
    if specs:
        from tracer import Tracer

        tracer = Tracer(run_id)
    report = {"ready": ready, "run_id": run_id}
    if args.mode == "cli":
        if tracer is not None:
            tracer.install(specs)
        start = time.perf_counter()
        if tracer is not None:
            code = tracer.call("cli." + args.args[0], repro.cli.main,
                               args.args)
        else:
            code = repro.cli.main(args.args)
        report["wall_s"] = time.perf_counter() - start
        report["exit"] = code
    else:
        report.update(run_em(args.args, tracer, specs))
        code = 0
    report["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.dump()
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    os.replace(tmp, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
