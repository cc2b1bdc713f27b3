"""Shared helpers: checkout paths, statistics, child processes, HTTP probes.

Everything here is standard library only, so the benchmark can start (and
fail cleanly) in a directory that holds no ``src/repro`` package.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import platform
import shutil
import signal
import socket
import subprocess
import sys
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
LAUNCHER = BENCH / "launch.py"


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, dead child, timeout)."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: On a shared host the CPU's speed drifts by tens of percent within a
#: minute: a fixed probe took 6.7 ms in one stretch of seconds and 12 ms
#: in the next, and a 25,000-record ``kbt fit`` 0.82 s and 1.53 s. Times
#: that the host's speed sets are therefore scaled, each by probes taken
#: just before and just after it while the program is idle (README). A
#: scaled time reads as the wall time on a host where one probe takes
#: ``PROBE_REFERENCE_S``; raw times are printed beside it.
PROBE_REFERENCE_S = 0.010


_PROBE_JSON = json.dumps(
    [{"key": i, "text": str(i), "pair": [i, i * 0.5]} for i in range(3000)]
)
_PROBE_BYTES = _PROBE_JSON.encode()


def probe(repeats: int = 5) -> float:
    """Median wall time of a fixed mix of the program's kinds of work (JSON
    parsing, string and dict building, zlib compression), taken while the
    measured program is idle."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        json.loads(_PROBE_JSON)
        table = {str(i): i * i for i in range(15_000)}
        zlib.compress(_PROBE_BYTES, 6)
        times.append(time.perf_counter() - start)
        del table
    return median(times)


#: A spawn probe's reference time: scaled set-up times read as set-up on
#: a host where starting a Python process that imports numpy takes 0.2 s.
SPAWN_REFERENCE_S = 0.2


def spawn_probe() -> float:
    """Wall time of starting a Python process that imports numpy, json
    and zlib and exits. Set-up is mostly such work (process start,
    imports, page faults), which a shared host slows differently from
    the in-process ``probe``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import json, zlib, numpy"],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def scale_between(times, marks, reference: float) -> list[float]:
    """Each of ``times`` scaled to the host speed at which a calibration
    measurement reads ``reference``: time ``i`` is multiplied by
    ``reference`` over the mean of ``marks[i]`` and ``marks[i + 1]``,
    the calibration measurements taken just before and just after it.

    Pairing each time with its neighbours cancels drift slower than one
    operation; one factor per run (the median of all marks) left most of
    it in place."""
    if len(marks) != len(times) + 1:
        raise ValueError(
            f"{len(times)} times need {len(times) + 1} marks, "
            f"got {len(marks)}"
        )
    return [
        value * reference / ((marks[i] + marks[i + 1]) / 2)
        for i, value in enumerate(times)
    ]


def scale_by_probes(times, probes) -> list[float]:
    """``scale_between`` with host-speed probes as the marks."""
    return scale_between(times, probes, PROBE_REFERENCE_S)


def scale_by_spawns(times, spawns) -> list[float]:
    """``scale_between`` with spawn probes as the marks."""
    return scale_between(times, spawns, SPAWN_REFERENCE_S)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``."""
    return count - max(math.ceil(q / 100.0 * count), 1)


def supported(count: int, q: float) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return samples_beyond(count, q) >= 10


def tail(name: str, values, unit: str) -> dict:
    """Report line for the highest of p99, p90 or p50 that ``values``
    support, or for the slowest sample when none is."""
    for q in (99, 90, 50):
        if supported(len(values), q):
            return {f"{name}_p{q}": (percentile(values, q), unit,
                                     len(values))}
    return {f"{name}_max": (max(values), unit, len(values))}


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def require_program() -> None:
    """Refuse to run outside a checkout that holds the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program to measure: {SRC / 'repro'} is missing (run from "
            "the root of a source checkout)"
        )


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    return facts


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # An inherited fault-injection plan would make workers fail on purpose.
    env.pop("KBT_FAULT_PLAN", None)
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def launch(args: list[str], out: Path, trace: bool, layers: str,
           stdout=subprocess.DEVNULL, stdin=None) -> subprocess.Popen:
    """Start ``launch.py`` (the program behind an optional tracer)."""
    command = [sys.executable, str(LAUNCHER), "--out", str(out),
               "--layers", layers if trace else "none", "--", *args]
    return subprocess.Popen(
        command, env=child_env(), cwd=str(ROOT), stdin=stdin, stdout=stdout,
        stderr=subprocess.PIPE, text=True,
    )


def _idle_priority() -> None:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))


class BusyCpus:
    """Keep every CPU out of its idle state with a ``SCHED_IDLE`` busy
    loop per CPU, for as long as the ``with`` block runs.

    In a virtual machine, waking an idle virtual CPU waits for the host
    to schedule it again, a delay that varies with the host's load. A
    sharded EM fit hands work between its processes twice per round, so
    those wake-ups alone moved its 10 s medians by a quarter; with the
    CPUs kept busy the spread halved. A ``SCHED_IDLE`` task runs only
    when nothing else wants the CPU, and any other task that wakes
    preempts it at once; a nice-19 loop can make a waking thread wait
    for the loop's time slice to end.
    """

    def __enter__(self) -> "BusyCpus":
        self.procs = [
            subprocess.Popen(
                [sys.executable, "-c", "while True: pass"],
                preexec_fn=_idle_priority,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            for _ in range(os.cpu_count() or 1)
        ]
        return self

    def __exit__(self, *exc) -> None:
        kill_all(self.procs)


def _program_args(proc: subprocess.Popen) -> str:
    return " ".join(proc.args[proc.args.index("--") + 1:])


def finish(proc: subprocess.Popen, timeout: float = 60.0) -> None:
    """Wait for a child; raise with its stderr if it failed."""
    try:
        _out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{_program_args(proc)}: timed out") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{_program_args(proc)}: exited {proc.returncode}: "
            f"{(err or '').strip()[-2000:]}"
        )


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM a long-running child (it drains) and wait for it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    finish(proc, timeout)


def kill_all(procs) -> None:
    """Last-resort cleanup: no child outlives the benchmark."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        try:
            proc.communicate(timeout=10)
        except (subprocess.TimeoutExpired, ValueError, OSError):
            pass


def peak_rss_mb(pid: int) -> float:
    """A running process's peak resident set so far (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError(f"no VmHWM for process {pid}")


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# HTTP probes
# ----------------------------------------------------------------------
def get_json(conn: http.client.HTTPConnection, path: str) -> tuple[int, dict]:
    conn.request("GET", path)
    response = conn.getresponse()
    body = response.read()
    return response.status, json.loads(body) if body else {}


def wait_ready(port: int, proc: subprocess.Popen, timeout: float = 60.0,
               poll_s: float = 0.005) -> dict:
    """Poll ``/readyz`` until the first 200; returns its payload."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            finish(proc)
            raise BenchError("gateway exited before becoming ready")
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                status, payload = get_json(conn, "/readyz")
            finally:
                conn.close()
            if status == 200:
                return payload
        except (ConnectionError, OSError, http.client.HTTPException):
            pass
        time.sleep(poll_s)
    raise BenchError(f"gateway on port {port} not ready in {timeout}s")
