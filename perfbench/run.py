"""The repository's benchmark: four seeded workloads, measured from outside.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``fit`` — ``kbt fit`` on a KV corpus, one fresh process per fit;
* ``em-sharded`` — sharded EM (processes backend, 2 shards) on a prebuilt
  ``ObservationMatrix``;
* ``ingest`` — ``kbt ingest --watch`` publishing into a separate
  ``kbt serve --gateway``, fed one micro-batch at a time;
* ``serve`` — an open-loop, single-process load generator against
  ``kbt serve --gateway``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` a separate
traced run's per-layer metrics. Both check the program's outputs. The
last line of standard output is one JSON object; the lines before it
name every metric with its unit, the machine and the run's counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, SRC, WORK, BenchError, machine_facts, \
    require_program  # noqa: E402

WORKLOADS = ("fit", "em-sharded", "ingest", "serve")


def _workload(name: str):
    if name == "fit":
        import wl_fit as module
    elif name == "em-sharded":
        import wl_em as module
    elif name == "ingest":
        import wl_ingest as module
    else:
        import wl_serve as module
    return module


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        require_program()
        spec = _spec()
        sys.path.insert(0, str(SRC))
        WORK.mkdir(exist_ok=True)
        result = _workload(args.workload).run(
            args.seed, args.seconds, bool(args.trace)
        )
    except (BenchError, OSError, ValueError, KeyError) as err:
        traceback.print_exc(file=sys.stderr)
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["layers"] if args.trace else result["e2e"]
    metrics = {}
    for entry in wanted:
        # A layer a workload never calls did no work in it: zero.
        value = source.get(entry["name"], 0 if args.trace else None)
        if value is None:
            print(f"perfbench: {args.workload} did not measure "
                  f"{entry['name']}", file=sys.stderr)
            return 2
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    attempted, failed = result["attempted"], result["failed"]
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine {json.dumps(machine_facts(), sort_keys=True)}")
    print(f"# attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6g}")
    for name, (value, unit, samples) in result["report"].items():
        print(f"# {name} = {value:.6g} {unit} (n={samples})")
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
