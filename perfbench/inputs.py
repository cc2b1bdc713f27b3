"""Seeded inputs, generated with ``repro.datasets.kv`` and cached by seed
and size under ``.perfbench/cache``.

Corpora are cut to an exact record count, so every seed gives the same
amount of work and the seed varies only which records they are.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path

from common import SRC, WORK, BenchError

CACHE = WORK / "cache"

#: The shared benchmark corpus shape (KV-like, heavy-tailed sites and
#: pages, 16 extraction systems); ``num_websites`` is only an upper bound
#: since corpora are cut to a record count.
KV_SHAPE = dict(
    items_per_predicate=60,
    num_systems=16,
    pages_zipf_exponent=0.9,
    claims_zipf_exponent=0.9,
    max_pages_per_site=30,
    max_claims_per_page=250,
    max_patterns_per_system=80,
    broad_pattern_fraction=0.2,
    narrow_affinity_base=0.004,
)


#: Records per corpus, the same for every workload so that a seed's
#: corpora are generated once.
RECORDS = 25_000

#: Independent corpora per run. A seed's draw of a few large or small
#: websites changes the work by over 10%, so a run spreads its operations
#: over several corpora instead of resting on one draw.
CORPORA = 3


def sub_seeds(seed: int, count: int = CORPORA) -> list[int]:
    """The generator seeds of ``seed``'s first ``count`` corpora (at most
    16, distinct across seeds)."""
    if not 0 < count <= 16:
        raise ValueError(f"a seed has 16 corpora, not {count}")
    return [seed * 16 + index for index in range(count)]


def _program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _atomic_lines(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    os.replace(tmp, path)


def corpus(seed: int, records: int) -> Path:
    """JSONL of exactly ``records`` KV records, site-major, for ``seed``."""
    path = CACHE / f"kv-{records}-{seed}.jsonl"
    if path.exists():
        return path
    _program()
    from repro.datasets.kv import KVConfig, iter_kv_record_chunks
    from repro.io.jsonl import record_to_dict

    # A draw of small websites can fall short of the record count; such a
    # seed draws again with twice and then four times the websites.
    for websites in (records // 40, records // 20, records // 10):
        config = KVConfig(num_websites=max(100, websites), seed=seed,
                          **KV_SHAPE)
        lines: list[str] = []
        for chunk in iter_kv_record_chunks(config):
            lines.extend(json.dumps(record_to_dict(r)) for r in chunk)
            if len(lines) >= records:
                break
        if len(lines) >= records:
            break
    else:
        raise BenchError(
            f"seed {seed}: the KV generator gave only {len(lines)} of "
            f"{records} records"
        )
    _atomic_lines(path, lines[:records])
    return path


def split_by_site(path: Path, held_out_records: int):
    """Cold-fit lines vs the last websites' lines (at least
    ``held_out_records`` of them), both in corpus order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    sites = [json.loads(line)["source"][0] for line in lines]
    sizes = Counter(sites)
    held: set[str] = set()
    count = 0
    for site in reversed(list(sizes)):
        if count >= held_out_records:
            break
        held.add(site)
        count += sizes[site]
    base = [line for line, site in zip(lines, sites) if site not in held]
    stream = [line for line, site in zip(lines, sites) if site in held]
    return base, stream


def write_lines(path: Path, lines) -> Path:
    _atomic_lines(path, lines)
    return path
